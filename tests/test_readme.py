"""The README's library example runs as written."""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    block = re.search(r"## Library example\n\n```python\n(.*?)```", README.read_text(), re.S)
    assert block is not None, "README has no Python block under 'Library example'"
    ns: dict = {}
    exec(compile(block.group(1), str(README), "exec"), ns)
    # f = x1^2 + x2^2 on [3, 4] x [1, 2]: the box limit is (47/7, 19/7)
    assert np.allclose(ns["limit"].estimate, [47 / 7, 19 / 7], rtol=0.0, atol=1e-6)
    assert ns["est"].error <= ns["bound"].value
