"""The README's library quickstart runs as written, at a short horizon."""

import re
from pathlib import Path

import numpy as np

from rons import core, fv

README = Path(__file__).resolve().parent.parent / "README.md"


def quickstart() -> str:
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) == 1, "the README has one Python block"
    return blocks[0]


def test_quickstart_runs_and_prepares_its_constraints_once():
    code = quickstart()
    horizon = "t_final=10.0"
    assert code.count(horizon) == 1
    namespace = {}
    exec(compile(code.replace(horizon, "t_final=0.05"), str(README), "exec"), namespace)
    quantities, grid = namespace["quantities"], namespace["grid"]
    # prepared against the metric fvrons_rhs uses, so no call prepares it again
    assert isinstance(quantities, core.ConstraintSet)
    assert quantities.metric is fv.fv_metric(grid, 2)
    trajectory = namespace["trajectory"]
    assert trajectory.times[-1] == 0.05 and len(trajectory.dt_history) > 1
    assert np.isfinite(trajectory.states[-1]).all()
