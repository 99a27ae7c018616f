"""Every module-level import in src/rankr and tests/ is read somewhere in
its module.  No linter runs with the suite, so this AST check stands in
for one; a package's __init__.py re-exports its imports and is skipped."""

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list:
    """Names bound by the module-level imports of source that no name in
    the module reads, in the order they are bound."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names if a.name != "*"]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_unused_imports_finds_unread_names():
    source = (
        "import os\nimport numpy as np\nimport xml.dom\n"
        "from a import b, c as d\nfrom __future__ import annotations\n"
        "np.zeros(b)\ndef f():\n    import json\n"
    )
    assert unused_imports(source) == ["os", "xml", "d"]


def test_no_unused_module_imports():
    paths = sorted([*ROOT.glob("src/rankr/**/*.py"), *ROOT.glob("tests/*.py")])
    assert len(paths) > 20
    found = {
        str(path.relative_to(ROOT)): names
        for path in paths
        if path.name != "__init__.py"
        and (names := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def test_import_leaves_scipy_spatial_to_the_first_kd_tree():
    # scipy.spatial is most of the package's import time; only the KD
    # checks of limitset need it, and they import it on first use.
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r})\n"
        "import rankr, rankr.cli\n"
        "print('scipy.spatial' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.split() == ["False"]
