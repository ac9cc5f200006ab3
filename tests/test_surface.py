"""The package has no public name that only its own unit test reads."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hypoco"

#: where a public name counts as read: the package, the benchmark, the
#: end-to-end tests, the shared fixtures and the README.  A unit test that
#: exercises a name nothing else reaches does not count.
READERS = (*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py")),
           ROOT / "tests" / "test_acceptance.py", ROOT / "tests" / "conftest.py",
           ROOT / "README.md")


def _public_definitions():
    """(path, node) of each public module-level function and class of the
    package, and of each public method of those classes."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            yield path, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield path, item


def test_every_public_name_is_read_outside_its_definition():
    texts = {path: path.read_text(encoding="utf-8").splitlines() for path in READERS}
    unread = []
    for path, node in _public_definitions():
        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        word = re.compile(rf"\b{node.name}\b")
        if not any(word.search(line)
                   for reader, lines in texts.items()
                   for number, line in enumerate(lines, start=1)
                   if not (reader == path and first <= number <= node.end_lineno)):
            unread.append(f"{path.relative_to(ROOT)}:{node.lineno} {node.name}")
    assert not unread, "public names read by nothing but their own definition:\n" + \
        "\n".join(unread)
