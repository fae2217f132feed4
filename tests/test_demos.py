"""Every demo script and every ``python`` block of README.md runs to completion
(exit 0) in a fresh interpreter against the package in ``src``."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text(encoding="utf-8")
# (line of the opening fence, code) per python block
README_BLOCKS = [
    (README.count("\n", 0, m.start()) + 1, m.group(1))
    for m in re.finditer(r"^```python\n(.*?)^```", README, re.M | re.S)
]


def run_python(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    done = run_python([str(demo)])
    assert done.returncode == 0, done.stderr


def test_readme_has_python_examples():
    assert len(README_BLOCKS) >= 2


@pytest.mark.parametrize("line, code", README_BLOCKS, ids=[f"line-{n}" for n, _ in README_BLOCKS])
def test_readme_example_runs(line, code):
    done = run_python(["-c", code])
    assert done.returncode == 0, done.stderr
