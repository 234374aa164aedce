"""The README's library sketch runs as documented."""

import os
import re
import subprocess
import sys
from pathlib import Path

import sqcomm

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_sketch_runs():
    # a fresh process with only the package on its path, so a change to the
    # documented API fails here
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    env = dict(os.environ, PYTHONPATH=str(Path(sqcomm.__file__).resolve().parent.parent))
    out = subprocess.run([sys.executable, "-c", blocks[0]], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    j, bits, total, law_sum = out.stdout.split()
    assert 0 <= int(j) < 24 and int(bits) <= int(total) and abs(float(law_sum) - 1.0) < 1e-12
