"""Every ```python block of README.md runs against the current API."""

import os
import re

import pytest

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")

with open(README, encoding="utf-8") as fh:
    BLOCKS = re.findall(r"^```python\n(.*?)^```$", fh.read(), re.M | re.S)


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs(code):
    exec(compile(code, "README.md", "exec"), {"__name__": "__readme__"})
