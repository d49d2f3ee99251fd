"""Dead-code guard: every top-level function and public method in the package
is referenced somewhere in the package, the tests, the demos or the README,
and every defaulted parameter of a package function is passed by some call.

A reference is any use of the name as an identifier (a call, an attribute
access, an import) outside its own definition, or the name as a word in
README.md.  A re-export from the package ``__init__`` is not a reference: it
would keep alive a function nothing calls.  Dunder methods are exempt: the
interpreter calls them.

A module-level constant of the package is read somewhere in the package, the
tests, the demos or the benchmark (a load of the name or of an attribute of
that name), and every name a package module imports is read in that module;
the package ``__init__`` reads what it lists in ``__all__``.  Dunder names are
exempt.

The package's public API, ``posmap.__all__``, is the API the README documents.

An option that no call ever sets has one value in use, so it belongs inside
the function as a constant.  A call passes a parameter by keyword, by
position, or through ``**kwargs``/``*args``, which count as passing every
parameter; a method called as ``obj.name(...)`` has its first parameter
bound, so its positions shift by one.  Calls in ``bench/`` count too.

A record that a command writes with a witness is re-checked by ``posmap
verify``, so every such record id has an entry in ``report.RECHECKS``: a new
certificate cannot ship without its re-check.  Every entry is in turn the
prefix of a record id some command writes, so a re-check cannot outlive its
record.
"""

import ast
import re
from pathlib import Path

import posmap
from posmap.report import RECHECKS

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


def _module_names(path: Path):
    """(constants, imports) of a package module: the names its top-level
    assignments bind and the names its imports bind, dunders and
    ``from __future__`` imports left out."""
    constants, imports = [], []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            constants += [t.id for t in targets if isinstance(t, ast.Name)]
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            imports += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
    return [n for n in constants if not n.startswith("__")], [n for n in imports if not n.startswith("__")]


def _loaded_names(path: Path) -> set:
    """The names a file reads: loaded identifiers and loaded attributes."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def test_every_constant_and_import_is_read():
    files = [*SOURCES, PACKAGE / "__init__.py", *sorted((ROOT / "bench").rglob("*.py"))]
    read = set().union(*(_loaded_names(path) for path in files))
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        constants, imports = _module_names(path)
        unread += [f"{path.stem}.{name}" for name in constants if name not in read]
        local = _loaded_names(path) | (set(posmap.__all__) if path.stem == "__init__" else set())
        unread += [f"{path.stem}: import {name}" for name in imports if name not in local]
    assert not unread, f"module-level names nothing reads: {', '.join(unread)}"


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


def _defaulted_parameters():
    """(qualified name, function name, parameter, call position or None, is a
    method) for each defaulted parameter of every function in the package;
    the position counts the arguments a call writes out."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        methods = {}
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            for item in cls.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    static = any(getattr(d, "id", None) == "staticmethod" for d in item.decorator_list)
                    methods[item] = (f"{cls.name}.{item.name}", 0 if static else 1)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            qualname, bound = methods.get(node, (node.name, 0))
            qualname = f"{path.stem}.{qualname}"
            args = node.args
            positional = [*args.posonlyargs, *args.args]
            first = len(positional) - len(args.defaults)
            for index, arg in enumerate(positional[first:], first):
                yield qualname, node.name, arg.arg, index - bound, node in methods
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield qualname, node.name, arg.arg, None, node in methods


def _calls():
    """name -> [(called as an attribute, call)] over every call in the sources
    and the benchmark; calls into numpy are left out."""
    calls = {}
    for path in [*SOURCES, *sorted((ROOT / "bench").rglob("*.py"))]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                calls.setdefault(func.id, []).append((False, node))
            elif isinstance(func, ast.Attribute):
                root = func.value
                while isinstance(root, ast.Attribute):
                    root = root.value
                if getattr(root, "id", None) not in ("np", "numpy"):
                    calls.setdefault(func.attr, []).append((True, node))
    return calls


def _passes(call: ast.Call, parameter: str, position) -> bool:
    if any(kw.arg is None or kw.arg == parameter for kw in call.keywords):
        return True
    if position is None:
        return False
    return any(isinstance(a, ast.Starred) for a in call.args) or len(call.args) > position


def test_every_defaulted_parameter_is_passed():
    calls = _calls()
    unused = [
        f"{qualname}({parameter})"
        for qualname, name, parameter, position, method in _defaulted_parameters()
        if not any(
            _passes(call, parameter, position)
            for as_attribute, call in calls.get(name, [])
            if as_attribute or not method
        )
    ]
    assert not unused, f"defaulted parameters no call sets: {', '.join(unused)}"


def test_public_api_is_documented():
    documented = _readme_words()
    undocumented = [name for name in posmap.__all__ if name != "__version__" and name not in documented]
    assert not undocumented, f"exported but not in README.md: {', '.join(undocumented)}"


def _id_prefix(node):
    """The literal record id of an id expression, or of an f-string
    "k_positive_{k}" its literal prefix; None for any other expression."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr) and isinstance(node.values[0], ast.Constant):
        return node.values[0].value
    return None


def test_every_record_written_with_a_witness_has_a_recheck():
    # in the package, only cli._verdict_record writes a record with a witness;
    # its id is a literal, or the id half of a (record id, verdict) pair that a
    # cli generator yields
    writers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in (n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)):
            for call in (n for n in ast.walk(func) if isinstance(n, ast.Call)):
                if getattr(call.func, "id", None) == "add_record" and any(
                    kw.arg == "witness" for kw in call.keywords
                ):
                    writers.add(f"{path.stem}.{func.name}")
    assert writers == {"cli._verdict_record"}

    nodes = list(ast.walk(ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))))
    ids = [n.args[1] for n in nodes
           if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_verdict_record"]
    ids += [n.value.elts[0] for n in nodes if isinstance(n, ast.Yield) and isinstance(n.value, ast.Tuple)]
    # one call records the yielded pairs under a loop variable
    assert sum(isinstance(i, ast.Name) for i in ids) == 1
    prefixes = [_id_prefix(i) for i in ids if not isinstance(i, ast.Name)]
    assert None not in prefixes, "a record id that is neither a literal nor an f-string prefix"
    assert {"cp", "block_positivity", "k_positive_", "decomposable", "weakdec_"} <= set(prefixes)
    missing = sorted(set(prefixes) - set(RECHECKS))
    assert not missing, f"records written with a witness but no re-check: {', '.join(missing)}"
    orphans = sorted(key for key in RECHECKS if not any(p.startswith(key) for p in prefixes))
    assert not orphans, f"re-checks of records nothing writes: {', '.join(orphans)}"
