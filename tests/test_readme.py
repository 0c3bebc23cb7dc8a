"""The README's Python examples run as written.

Every ```python block is executed in order in one namespace, so a later
block may use names an earlier one defined.  A public name renamed or
deleted without a README edit fails here.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks, "README has no python blocks"
    namespace: dict = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)
    assert namespace["report"].passed
    assert namespace["lr"].theta.shape == (namespace["s_run"].grid.steps + 1,)
    s_run = namespace["s_run"]
    assert namespace["traj"].etas.shape == (s_run.grid.steps + 1, s_run.dim, s_run.dim)
    assert namespace["h"].shape == (s_run.dim, s_run.dim)
