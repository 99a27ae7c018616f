"""Every exception class that src/rankr/errors.py defines is named by
another module of src/rankr.  An error that no module raises, catches or
re-exports is surface without a use; no linter runs with the suite, so
this AST check stands in for one."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unnamed_classes(errors: str, others: list) -> list:
    """Module-level classes of the source errors that no name, attribute
    or import in any of the sources others names, in definition order."""
    defined = [n.name for n in ast.parse(errors).body if isinstance(n, ast.ClassDef)]
    named = set()
    for source in others:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                named.update(a.name for a in node.names)
    return [name for name in defined if name not in named]


def test_unnamed_classes_finds_errors_without_a_user():
    errors = (
        "class Base(Exception):\n    pass\n"
        "class Raised(Base):\n    pass\n"
        "class Caught(Base):\n    pass\n"
        "class Imported(Base):\n    pass\n"
        "class Orphan(Base):\n    pass\n"
    )
    others = [
        "from .errors import Base, Imported\n",
        "from . import errors\n\ndef f():\n    raise errors.Raised('x')\n",
        "try:\n    pass\nexcept Caught:\n    pass\n",
    ]
    assert unnamed_classes(errors, others) == ["Orphan"]


def test_every_error_class_is_named_outside_errors_py():
    package = ROOT / "src" / "rankr"
    others = [
        path.read_text(encoding="utf-8")
        for path in sorted(package.glob("**/*.py"))
        if path.name != "errors.py"
    ]
    assert len(others) > 10
    errors = (package / "errors.py").read_text(encoding="utf-8")
    assert unnamed_classes(errors, others) == []
