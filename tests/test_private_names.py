"""Every module-level private name that src/rankr defines is read somewhere
in src/rankr.  A helper that a deletion leaves behind has no caller; no
linter runs with the suite, so this AST check stands in for one."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unread_private_names(sources: dict) -> list:
    """(module, name) of each module-level _private function, class or
    assignment in sources ({module: source text}) that no name or
    attribute in any of the sources reads, in definition order."""
    defined = []
    read = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = getattr(node, "targets", [getattr(node, "target", None)])
                names = [t.id for tgt in targets for t in ast.walk(tgt)
                         if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [(module, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return [(module, name) for module, name in defined if name not in read]


def test_unread_private_names_finds_helpers_without_a_reader():
    sources = {
        "a": (
            "_TOL = 1e-8\n_X, (_Y, z) = 1, (2, 3)\n_left: int = 0\n"
            "def _used():\n    return _TOL\n"
            "def _orphan():\n    return _used()\n"
            "class _Unread:\n    pass\n"
            "def __dunder__():\n    pass\n"
            "def public():\n    _local = 1\n    return _local\n"
        ),
        "b": "from . import a\n\nprint(a._X, a._Y)\na._left = 1\n",
    }
    assert unread_private_names(sources) == [
        ("a", "_left"), ("a", "_orphan"), ("a", "_Unread"),
    ]


def test_no_unread_private_names_in_src():
    paths = sorted(ROOT.glob("src/rankr/**/*.py"))
    assert len(paths) > 10
    sources = {
        str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
        for path in paths
    }
    assert unread_private_names(sources) == []
