"""No public API goes unused.

Every public function, class and method defined in `src/tcr` must be named
somewhere other than its own definition: in `src/`, in `tests/`, or as the
`pyproject.toml` entry point.  Methods and properties count as used when
some file accesses them as an attribute (`.name`).  Every defaulted
parameter of a public function must be passed by some call in the program
(`src/`, `perfbench/` or `tools/`); one that only tests set is a constant.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


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


def unreferenced(definitions, sources: dict, entry_points: str = "") -> list:
    """The definitions named nowhere but on their own definition line."""
    out = []
    for path, name, is_method, lineno in definitions:
        pattern = re.compile((r"\." if is_method else r"\b") + re.escape(name) + r"\b")
        used = re.search(r":" + re.escape(name) + r"\b", entry_points) is not None
        for src_path, text in sources.items():
            for i, line in enumerate(text.splitlines(), start=1):
                if not (src_path == path and i == lineno) and pattern.search(line):
                    used = True
        if not used:
            out.append(f"{path.name}:{lineno} {name}")
    return out


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
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    sources = {p: p.read_text(encoding="utf-8") for p in files}
    definitions = [d for p in sorted((ROOT / "src" / "tcr").glob("*.py"))
                   for d in public_definitions(p, sources[p])]
    entry_points = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert unreferenced(definitions, sources, entry_points) == []


def test_checker_flags_definitions_used_nowhere_else():
    path = Path("m.py")
    text = ("def lonely():\n    pass\n\n\ndef used():\n    pass\n\n\n"
            "class C:\n    def meth(self):\n        return used()\n\n\n"
            "def main():\n    pass\n")
    definitions = public_definitions(path, text)
    assert [d[1] for d in definitions] == ["lonely", "used", "C", "meth", "main"]
    assert unreferenced(definitions, {path: text}, 'tool = "m:main"') == [
        "m.py:1 lonely", "m.py:9 C", "m.py:10 meth"]


def test_every_default_is_passed_by_some_program_call():
    files = [p for d in ("src", "perfbench", "tools") for p in sorted((ROOT / d).rglob("*.py"))]
    sources = {p: p.read_text(encoding="utf-8") for p in files}
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
