"""The side-by-side imports and pair statistics of ``tools/ab_inprocess.py``,
without exporting a revision or starting a process."""

import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_ROOT / "tools"))
import ab_inprocess  # noqa: E402

import rons  # noqa: E402
from rons import nls  # noqa: E402


@pytest.fixture(scope="module")
def twin():
    """This tree's package imported a second time, and its workloads."""
    package = ab_inprocess.load_package(_ROOT / "src", "rons_ab_twin")
    workloads = ab_inprocess.load_workloads(_ROOT, package, "workloads_ab_twin")
    yield package, workloads
    for key in [k for k in sys.modules if k.split(".")[0] in ("rons_ab_twin", "workloads_ab_twin")]:
        del sys.modules[key]


class TestSideBySideImport:
    def test_twin_package_is_a_separate_copy(self, twin):
        package, _ = twin
        assert package is not rons and package.nls is not nls
        assert package.nls.core is package.core and package.core is not rons.core
        assert Path(package.__file__).resolve() == _ROOT / "src" / "rons" / "__init__.py"
        assert package.runner.nls is package.nls   # relative imports stay inside the copy
        assert package.nls.stable_dt(64, 10.0) == nls.stable_dt(64, 10.0)

    def test_workloads_bind_their_own_package(self, twin):
        package, workloads = twin
        assert workloads.nls is package.nls and workloads.runner is package.runner
        assert workloads.RunConfig is package.config.RunConfig
        # the ordinary import is back afterwards
        assert sys.modules["rons"] is rons and sys.modules["rons.nls"] is nls
        assert set(workloads.WORKLOADS) == {"swe-pulse", "swe-ensemble", "nls-rom"}

    def test_rate_runs_the_workload_phase(self, tmp_path, twin):
        _, workloads = twin

        class Short(workloads.NlsRom):
            TRAINING_HORIZON = 2.0
            HORIZON = 0.25
            MEMBERS = 2
            GRID = 32
            ROM_MODES = 3

        workload = Short(tmp_path)
        state = workload.setup(workload.inputs(0))
        assert ab_inprocess.rate(workload, "rons_single", state) > 0


class TestPairs:
    def test_alternate_swaps_the_first_side(self):
        order = []
        runs = {side: (lambda side=side: order.append(side) or len(order))
                for side in ab_inprocess.SIDES}
        parent, change = ab_inprocess.alternate(runs, 3)
        assert order == ["parent", "change", "change", "parent", "parent", "change"]
        assert parent == [1, 4, 5] and change == [2, 3, 6]

    def test_fastest_keeps_the_highest_of_the_repeats(self):
        rates = iter([3.0, 5.0, 4.0, 9.0])
        calls = []
        run = lambda: calls.append(1) or next(rates)  # noqa: E731
        assert ab_inprocess.fastest(run, 3) == 5.0 and len(calls) == 3
        assert ab_inprocess.fastest(run, 1) == 9.0 and len(calls) == 4

    def test_repeats_run_within_each_sides_turn(self):
        order = []
        runs = {side: (lambda side=side: ab_inprocess.fastest(
                    lambda: order.append(side) or len(order), 2))
                for side in ab_inprocess.SIDES}
        parent, change = ab_inprocess.alternate(runs, 2)
        assert order == ["parent"] * 2 + ["change"] * 4 + ["parent"] * 2
        assert parent == [2, 8] and change == [4, 6]

    def test_pair_ratios(self):
        out = ab_inprocess.pair_ratios([10.0, 10.0, 20.0, 10.0], [15.0, 12.0, 20.0, 9.0])
        assert out["ratio_per_pair"] == [1.5, 1.2, 1.0, 0.9]
        assert out["ratio_median"] == pytest.approx(1.1)
        assert out["ratio_quartiles"] == pytest.approx([0.975, 1.275])
        assert out["ratio_iqr"] == pytest.approx(0.3)
        assert out["change_wins"] == "2/4"       # higher is better; a tie is no win
        assert out["parent_median"] == 10.0 and out["change_median"] == 13.5
