"""The demos and the README's library quickstart, run as a reader would.

Each demo runs in its own process and must exit 0 with the stdout committed
under ``tests/data/demos``; the quickstart's python block is executed and
each line it prints must read as the comment on its ``print`` says.
"""

import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
EXPECTED = Path(__file__).parent / "data" / "demos"
DEMOS = sorted(p.stem for p in (ROOT / "demos").glob("demo_*.py"))


def test_every_demo_has_an_expectation():
    assert DEMOS == sorted(p.stem for p in EXPECTED.glob("*.txt"))


@pytest.mark.parametrize("name", DEMOS)
def test_demo_output(name):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (EXPECTED / f"{name}.txt").read_text(encoding="utf-8")


def test_readme_quickstart_prints_what_its_comments_say():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library quickstart\s+```python\n(.*?)```", readme,
                      re.S).group(1)
    # the printed value is the comment up to its first double space
    expected = [line.split("#", 1)[1].strip().split("  ")[0]
                for line in block.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    assert len(expected) == 2
    assert out.getvalue().splitlines() == expected
