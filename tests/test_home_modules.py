"""Three primitives each have one home in src/rankr: LAPACK's QR is named
only in kernel.py (qr_pos and qr_decompose wrap it), canonical_frames is
called only in boundary.py (a Flag canonicalises its own frame), and
numpy's matrix_power is named only in kernel.py (the Jordan kernel chains)
and in PingPongTable.effective_generators, the one place a table
generator's power is taken.  A second copy elsewhere fails this AST
check."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _numpy_linalg(node, name) -> bool:
    """node names numpy.linalg's name: as an attribute of something called
    linalg, or in a from-import of numpy.linalg."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr == name
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "linalg"
    ) or (
        isinstance(node, ast.ImportFrom)
        and node.module == "numpy.linalg"
        and any(a.name == name for a in node.names)
    )


def strays(source: str) -> list:
    """(rule, line) for each mention of numpy's QR, each call of
    canonical_frames and each mention of numpy's matrix_power in source,
    in the order they appear.  A matrix_power rule names its enclosing
    function, as "matrix_power in Class.method" ("<module>" outside any)."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if _numpy_linalg(node, "qr"):
            found.append(("qr", node.lineno))
        elif isinstance(node, ast.Call) and "canonical_frames" in (
            getattr(node.func, "attr", None),
            getattr(node.func, "id", None),
        ):
            found.append(("canonical_frames", node.lineno))
        elif _numpy_linalg(node, "matrix_power"):
            where = ".".join(scope) or "<module>"
            found.append((f"matrix_power in {where}", node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return sorted(found, key=lambda item: item[1])


def _at_home(name: str, rule: str) -> bool:
    if rule.startswith("matrix_power in "):
        return name == "kernel.py" or (name, rule) == (
            "schottky.py",
            "matrix_power in PingPongTable.effective_generators",
        )
    return {"qr": "kernel.py", "canonical_frames": "boundary.py"}[rule] == name


def test_strays_finds_qr_and_canonical_frames():
    source = (
        "import numpy as np\nfrom numpy.linalg import qr\n"
        "q, r = np.linalg.qr(m)\nf = boundary.canonical_frames(k)\n"
        "g = canonical_frames(k)\nh = numpy.linalg.qr\nkernel.qr_pos(m)\n"
    )
    assert strays(source) == [
        ("qr", 2),
        ("qr", 3),
        ("canonical_frames", 4),
        ("canonical_frames", 5),
        ("qr", 6),
    ]


def test_strays_names_the_function_of_each_matrix_power():
    source = (
        "from numpy.linalg import matrix_power\n"
        "class PingPongTable:\n"
        "    def effective_generators(self):\n"
        "        return [np.linalg.matrix_power(g, k) for g, k in pairs]\n"
        "def build_table(base, k):\n"
        "    def power():\n"
        "        return numpy.linalg.matrix_power(base, k)\n"
        "    return np.linalg.matrix_power(base, k), power\n"
        "kernel.matrix_power(m)\n"
    )
    found = strays(source)
    assert found == [
        ("matrix_power in <module>", 1),
        ("matrix_power in PingPongTable.effective_generators", 4),
        ("matrix_power in build_table.power", 7),
        ("matrix_power in build_table", 8),
    ]
    # Only the table's own method is a home in schottky.py; kernel.py holds
    # the Jordan kernel chains.
    assert [_at_home("schottky.py", rule) for rule, _ in found] == [
        False, True, False, False
    ]
    assert all(_at_home("kernel.py", rule) for rule, _ in found)


def _away_from_home() -> set:
    """(file, rule, line) for every stray in src/rankr outside its home."""
    paths = sorted(ROOT.glob("src/rankr/**/*.py"))
    assert len(paths) > 10
    return {
        (path.name, rule, line)
        for path in paths
        for rule, line in strays(path.read_text(encoding="utf-8"))
        if not _at_home(path.name, rule)
    }


def test_qr_and_canonical_frames_stay_home():
    away = _away_from_home()
    assert {s for s in away if not s[1].startswith("matrix_power")} == set()


def test_matrix_power_stays_home():
    away = _away_from_home()
    assert {s for s in away if s[1].startswith("matrix_power")} == set()
