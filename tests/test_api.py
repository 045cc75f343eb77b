"""The runtime package is what its callers use: every name in
`partialsat.__all__` is mentioned by the package's own modules, by the
benchmark or by the README's code, not only by the tests."""
import re
from pathlib import Path

import partialsat

ROOT = Path(__file__).resolve().parent.parent


def _caller_lines() -> list[str]:
    """The lines of the package's modules (not `__init__.py`, which only
    re-exports) and of the benchmark's, and README's backticked spans."""
    sources = [path for path in sorted((ROOT / "src" / "partialsat").glob("*.py"))
               if path.name != "__init__.py"]
    sources += sorted((ROOT / "perfbench").glob("*.py"))
    lines = [line for path in sources for line in path.read_text().splitlines()]
    readme = (ROOT / "README.md").read_text()
    return lines + re.findall(r"```.*?```|`[^`\n]+`", readme, re.DOTALL)


def _defines(name: str) -> re.Pattern:
    """A name's own `def`, `class` or top-level assignment line."""
    return re.compile(rf"\s*(?:def|class)\s+{name}\b|{name}\s*=[^=]")


def test_every_export_has_a_caller_outside_the_tests():
    lines = _caller_lines()
    uncalled = [name for name in partialsat.__all__
                if not any(re.search(rf"\b{name}\b", line) and not _defines(name).match(line)
                           for line in lines)]
    assert uncalled == [], "exported, but only the tests use them"
