"""No public API goes unused.

The library is what the program reaches.  Every public function, class and
method defined in `src/tcr` must be named by an identifier somewhere in the
program, that is in `src/`, `perfbench/` or `tools/`, or be the
`pyproject.toml` entry point.  Identifiers are read from the syntax tree:
a `Name`, an attribute access or an imported name.  A method counts only
when some program file accesses it as an attribute (`.name`).  Tests do not
count: a name that only tests call belongs in `tests/`.  Text does not count
either: a mention in a comment, a string or a docstring reaches nothing.
Every defaulted parameter of a public function must be passed by some call
in the program; one that only tests set is a constant.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROGRAM = ("src", "perfbench", "tools")


def program_sources(root: Path) -> dict:
    """Path -> text of every Python file of the program (not of `tests/`)."""
    return {p: p.read_text(encoding="utf-8")
            for d in PROGRAM for p in sorted((root / d).rglob("*.py"))}


def entry_points(root: Path) -> set:
    """The function names of the `module:function` entry points."""
    return set(re.findall(r'"[\w.]+:(\w+)"', (root / "pyproject.toml").read_text(encoding="utf-8")))


def public_definitions(path: Path, text: str) -> list:
    """(file, name, is_method, line) for every public top-level function and
    class of a module, and every public method of its public classes."""
    out = []
    for node in ast.parse(text).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            out.append((path, node.name, False, node.lineno))
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            out += [(path, item.name, True, item.lineno) for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    return out


def unreferenced(definitions, sources: dict, entry_point_names=frozenset()) -> list:
    """The definitions that no identifier in `sources` names: no `Name` or
    imported name, and no attribute accessed as `.name`."""
    names, attributes = set(entry_point_names), set()
    for text in sources.values():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
    return [f"{path.name}:{lineno} {name}" for path, name, is_method, lineno in definitions
            if name not in attributes and (is_method or name not in names)]


def unused_public_api(root: Path) -> list:
    """The public definitions of `src/tcr` that the program does not reach."""
    sources = program_sources(root)
    definitions = [d for p in sorted((root / "src" / "tcr").glob("*.py"))
                   for d in public_definitions(p, sources[p])]
    return unreferenced(definitions, sources, entry_points(root))


def defaulted_parameters(path: Path, text: str) -> list:
    """(file, function, parameter, positional index or None, line) for every
    defaulted parameter of a public top-level function of a module."""
    out = []
    for node in ast.parse(text).body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            out += [(path, node.name, arg.arg, i, node.lineno)
                    for i, arg in enumerate(positional) if i >= first]
            out += [(path, node.name, arg.arg, None, node.lineno)
                    for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                    if default is not None]
    return out


def unset_defaults(parameters, sources: dict) -> list:
    """The defaulted parameters that no call in `sources` passes.  A call
    names the function (`f(...)` or `m.f(...)`) and sets a parameter by
    keyword, by position, or through *args or **kwargs."""
    calls = {}
    for text in sources.values():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)

    def sets(call, name, index):
        return (any(isinstance(a, ast.Starred) for a in call.args)
                or any(kw.arg in (None, name) for kw in call.keywords)
                or index is not None and len(call.args) > index)

    return [f"{path.name}:{lineno} {func}.{name}"
            for path, func, name, index, lineno in parameters
            if not any(sets(call, name, index) for call in calls.get(func, ()))]


def test_every_public_definition_is_referenced():
    assert unused_public_api(ROOT) == []


def test_checker_flags_definitions_used_nowhere_else(tmp_path):
    path = Path("m.py")
    text = ("def lonely():\n    pass\n\n\ndef used():\n    pass\n\n\n"
            "class C:\n    def meth(self):\n        return used()\n\n\n"
            "def main():\n    pass\n")
    definitions = public_definitions(path, text)
    assert [d[1] for d in definitions] == ["lonely", "used", "C", "meth", "main"]
    assert unreferenced(definitions, {path: text}, {"main"}) == [
        "m.py:1 lonely", "m.py:9 C", "m.py:10 meth"]
    # a call from a test file, or a mention in a comment, string or
    # docstring of the program, reaches nothing
    (tmp_path / "src" / "tcr").mkdir(parents=True)
    (tmp_path / "tests").mkdir()
    (tmp_path / "src" / "tcr" / "m.py").write_text(
        '"""C.meth() and lonely() are documented here."""\n\n\n' + text)
    (tmp_path / "src" / "tcr" / "use.py").write_text(
        "# lonely(), C().meth()\nfrom .m import C\n\nNOTE = 'lonely'\n")
    (tmp_path / "tests" / "test_m.py").write_text(
        "from tcr.m import C, lonely\n\n\ndef test_it():\n    lonely()\n    C().meth()\n")
    (tmp_path / "pyproject.toml").write_text('[project.scripts]\ntool = "tcr.m:main"\n')
    assert unused_public_api(tmp_path) == ["m.py:4 lonely", "m.py:13 meth"]


def test_every_default_is_passed_by_some_program_call():
    sources = program_sources(ROOT)
    parameters = [d for p in sorted((ROOT / "src" / "tcr").glob("*.py"))
                  for d in defaulted_parameters(p, sources[p])]
    assert unset_defaults(parameters, sources) == []


def test_checker_flags_defaults_no_call_passes():
    path, caller = Path("m.py"), Path("use.py")
    text = ("def f(a, b=1, c=2, *, d=3):\n    pass\n\n\n"
            "def g(x=0):\n    pass\n\n\n"
            "def h(y=0, z=0):\n    pass\n\n\n"
            "def _private(w=0):\n    pass\n")
    use = "f(0, 5)\nm.f(0, d=4)\ng(*args)\nh(**options)\n_private()\nf\n"
    parameters = defaulted_parameters(path, text)
    assert [(d[1], d[2], d[3]) for d in parameters] == [
        ("f", "b", 1), ("f", "c", 2), ("f", "d", None), ("g", "x", 0),
        ("h", "y", 0), ("h", "z", 1)]
    assert unset_defaults(parameters, {path: text, caller: use}) == ["m.py:1 f.c"]
    assert unset_defaults(parameters, {path: text}) == [
        "m.py:1 f.b", "m.py:1 f.c", "m.py:1 f.d", "m.py:5 g.x", "m.py:9 h.y", "m.py:9 h.z"]
