"""Two primitives each have one home module in src/rankr: LAPACK's QR is
named only in kernel.py (qr_pos and qr_decompose wrap it), and
canonical_frames is called only in boundary.py (a Flag canonicalises its
own frame).  A second copy elsewhere fails this AST check."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def strays(source: str) -> list:
    """(rule, line) for each mention of numpy's QR and each call of
    canonical_frames in source, in the order they appear."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "qr"
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "linalg"
        ) or (
            isinstance(node, ast.ImportFrom)
            and node.module == "numpy.linalg"
            and any(a.name == "qr" for a in node.names)
        ):
            found.append(("qr", node.lineno))
        elif isinstance(node, ast.Call) and "canonical_frames" in (
            getattr(node.func, "attr", None),
            getattr(node.func, "id", None),
        ):
            found.append(("canonical_frames", node.lineno))
    return sorted(found, key=lambda item: item[1])


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


def test_qr_and_canonical_frames_stay_home():
    home = {"qr": "kernel.py", "canonical_frames": "boundary.py"}
    paths = sorted(ROOT.glob("src/rankr/**/*.py"))
    assert len(paths) > 10
    found = {
        (path.name, rule, line)
        for path in paths
        for rule, line in strays(path.read_text(encoding="utf-8"))
        if home[rule] != path.name
    }
    assert found == set()
