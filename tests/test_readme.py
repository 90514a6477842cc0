"""Every python block of README.md runs against the current API."""

import re
from pathlib import Path

import pytest

from heteroselect.simlab import SeedPolicy, get_scenario, sample

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.S | re.M)


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_block_runs(index):
    # The quick start fits `y1, y2`, two replicates it leaves to the reader.
    obs = sample(get_scenario("M1"), 1024, SeedPolicy(0).stream(0))
    namespace = {"y1": obs.y1, "y2": obs.y2}
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), namespace)
