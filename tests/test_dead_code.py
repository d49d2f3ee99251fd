"""Dead-code guard: every top-level function and public method in the package
is referenced somewhere in the package, the tests, the demos or the README.

A reference is any use of the name as an identifier (a call, an attribute
access, an import) outside its own definition, or the name as a word in
README.md.  A re-export from the package ``__init__`` is not a reference: it
would keep alive a function nothing calls.  Dunder methods are exempt: the
interpreter calls them.

The package's public API, ``posmap.__all__``, is the API the README documents.
"""

import ast
import re
from pathlib import Path

import posmap

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "posmap"
README = ROOT / "README.md"
SOURCES = [
    path
    for path in [*sorted((ROOT / "src").rglob("*.py")), *sorted((ROOT / "tests").rglob("*.py")),
                 *sorted((ROOT / "demos").rglob("*.py"))]
    if path != PACKAGE / "__init__.py"
]


def _definitions():
    """(module, qualified name, name) for each top-level function and public method."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield path.stem, node.name, node.name
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (
                        isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("_")
                    ):
                        yield path.stem, f"{node.name}.{item.name}", item.name


def _referenced_names():
    names = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
    names.update(_readme_words())
    return names


def _readme_words():
    return set(re.findall(r"\w+", README.read_text(encoding="utf-8")))


def test_every_function_and_public_method_is_referenced():
    referenced = _referenced_names()
    dead = [
        f"{module}.{qualname}"
        for module, qualname, name in _definitions()
        if not (name.startswith("__") and name.endswith("__")) and name not in referenced
    ]
    assert not dead, f"no reference to: {', '.join(dead)}"


def test_public_api_is_documented():
    documented = _readme_words()
    undocumented = [name for name in posmap.__all__ if name != "__version__" and name not in documented]
    assert not undocumented, f"exported but not in README.md: {', '.join(undocumented)}"
