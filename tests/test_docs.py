"""Documentation drift checks (the ``make docs-check`` target).

The README's fenced Python blocks are working code, not prose: this test
extracts every ```python block and executes it.  If the library's API moves
— a renamed function, a changed signature, a different default — the README
breaks here instead of silently rotting.  Every script under ``examples/``
is executed too, including the quickstart the README mirrors, so none of
them can drift from the library without a failure.
"""

from __future__ import annotations

import re
import runpy
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
README = REPO_ROOT / "README.md"
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))

_FENCED_PYTHON = re.compile(r"```python\n(.*?)```", re.DOTALL)


def _readme_python_blocks() -> list[str]:
    return _FENCED_PYTHON.findall(README.read_text(encoding="utf-8"))


def test_readme_exists_with_python_blocks():
    assert README.exists(), "top-level README.md is missing"
    assert len(_readme_python_blocks()) >= 2, (
        "README.md should contain at least the quickstart and the Monte "
        "Carlo runner as executable ```python blocks"
    )


@pytest.mark.parametrize(
    "index_and_block",
    list(enumerate(_readme_python_blocks())),
    ids=lambda pair: f"block-{pair[0]}",
)
def test_readme_python_blocks_execute(index_and_block, capsys):
    index, block = index_and_block
    namespace: dict[str, object] = {"__name__": f"readme_block_{index}"}
    exec(compile(block, f"README.md[block {index}]", "exec"), namespace)


@pytest.mark.parametrize("example", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(example, capsys):
    runpy.run_path(str(example), run_name="__main__")
    out = capsys.readouterr().out
    assert out
    if example.stem == "quickstart":
        # The README quickstart mirrors this script; a change to either
        # surfaces as a failure somewhere.
        assert "decoded all messages correctly" in out
