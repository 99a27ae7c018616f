"""Every parameter of every function in src/rankr is read in its body.  A
parameter that no line reads makes each caller pass a value that does
nothing; no linter runs with the suite, so this AST check stands in for
one.  self and cls are exempt: a method may not read its instance."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unread_parameters(sources: dict) -> list:
    """(module, function, parameter) of each parameter of a function,
    method or nested function in sources ({module: source text}) that no
    name in the function's body reads, in source order.  A nested
    function's reads count for the functions around it."""
    unread = []
    for module, source in sources.items():
        functions = [
            node for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for node in sorted(functions, key=lambda node: node.lineno):
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [p for p in (args.vararg, args.kwarg) if p is not None]
            read = {
                name.id
                for stmt in node.body
                for name in ast.walk(stmt)
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)
            }
            unread += [
                (module, node.name, p.arg)
                for p in params
                if p.arg not in read and p.arg not in ("self", "cls")
            ]
    return unread


def test_unread_parameters_finds_parameters_without_a_reader():
    source = (
        "def used(a, *args, b=1, **kw):\n    return a, args, b, kw\n"
        "def drops(a, b, *, c=None):\n    return a\n"
        "def outer(x, y):\n"
        "    def inner(z, w):\n        return x + z\n"
        "    return inner\n"
        "class C:\n"
        "    def method(self, v):\n        pass\n"
        "    @classmethod\n    def make(cls, u):\n        return u\n"
        "def late(m, d=lambda: 0):\n    return d\n"
    )
    assert unread_parameters({"a": source}) == [
        ("a", "drops", "b"), ("a", "drops", "c"), ("a", "outer", "y"),
        ("a", "inner", "w"), ("a", "method", "v"), ("a", "late", "m"),
    ]


def test_no_unread_parameters_in_src():
    paths = sorted(ROOT.glob("src/rankr/**/*.py"))
    assert len(paths) > 10
    sources = {
        str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
        for path in paths
    }
    assert unread_parameters(sources) == []
