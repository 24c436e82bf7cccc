"""No public API goes unused.

Every public function, class and method defined in `src/tcr` must be named
somewhere other than its own definition: in `src/`, in `tests/`, or as the
`pyproject.toml` entry point.  Methods and properties count as used when
some file accesses them as an attribute (`.name`).
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
