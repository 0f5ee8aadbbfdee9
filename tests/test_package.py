"""The package's public surface and the README's library example."""

import io
import re
from contextlib import redirect_stdout
from pathlib import Path

import jointtri

ROOT = Path(__file__).resolve().parent.parent


def test_all_names_unique_and_resolve():
    assert len(jointtri.__all__) == len(set(jointtri.__all__))
    for name in jointtri.__all__:
        assert hasattr(jointtri, name), name


def test_all_holds_every_name_the_benchmark_calls():
    """``perfbench/workloads.py`` calls the package as ``jointtri.<name>``;
    a name trimmed from ``__all__`` would break the benchmark only."""
    text = (ROOT / "perfbench" / "workloads.py").read_text(encoding="utf-8")
    called = set(re.findall(r"\bjointtri\.(\w+)", text))
    assert "check_legal_nonempty" in called
    assert called <= set(jointtri.__all__), called - set(jointtri.__all__)


def test_readme_library_example_runs():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library example\n\n```python\n(.*?)```", text, re.S)
    assert block is not None
    out = io.StringIO()
    with redirect_stdout(out):
        exec(compile(block.group(1), "README.md", "exec"), {})
    assert out.getvalue() == ("[(0, 1, 2), (0, 2, 3)] True\n"
                              "frozenset({(0, 1, 2), (0, 2, 3)})\n")
