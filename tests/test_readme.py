"""The README's library sketch runs as documented, and its config example parses."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import sqcomm
from sqcomm import default_config, parse_config

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


def test_readme_config_example_is_a_canonical_config():
    # the example must parse under today's schema, so it changes with it
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    block = json.loads(blocks[0])
    assert parse_config(block) == default_config(block["experiment"])
