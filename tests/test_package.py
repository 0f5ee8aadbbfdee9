"""The package's public surface and the README's library example."""

import io
import re
import shutil
import subprocess
from contextlib import redirect_stdout
from pathlib import Path

import pytest

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


def _run_blocks(workflow):
    """Every ``run: |`` block of a workflow's text, dedented, read with the
    standard library: a literal block holds the lines after its key that
    are blank or indented past it."""
    lines = workflow.splitlines()
    blocks = []
    for at, line in enumerate(lines):
        key = re.match(r"( *)(- )?run: \|$", line)
        if not key:
            continue
        body = []
        for text in lines[at + 1:]:
            if text.strip() and len(text) - len(text.lstrip()) <= len(key.group(1)):
                break
            body.append(text)
        indent = min(len(t) - len(t.lstrip()) for t in body if t.strip())
        blocks.append("\n".join(t[indent:] for t in body) + "\n")
    return blocks


def test_ci_inline_scripts_parse():
    """Each CI step hands its Python to ``python3 -c '...'`` inside a
    single-quoted bash string, so one apostrophe in a Python comment ends
    the string early and the step runs something else.  Every ``run``
    block must parse as bash, and every inline script as Python."""
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    blocks = _run_blocks(workflow)
    scripts = [m.group(1) for b in blocks
               for m in re.finditer(r"python3 -c '\n(.*?)^'", b, re.S | re.M)]
    assert blocks and len(scripts) == workflow.count("python3 -c '")
    for n, script in enumerate(scripts):
        compile(script, f"tests.yml inline script {n}", "exec")
    if shutil.which("bash") is None:
        pytest.skip("no bash to parse the run blocks")
    for block in blocks:
        done = subprocess.run(["bash", "-n"], input=block, capture_output=True, text=True)
        assert done.returncode == 0, (done.stderr, block)
