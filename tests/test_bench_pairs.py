"""The pair statistics of ``tools/bench_pairs.py``, without running perfbench."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


class TestQuartiles:
    def test_odd_count(self):
        assert bench_pairs.quartiles([5.0, 1.0, 3.0, 2.0, 4.0]) == (2.0, 3.0, 4.0)

    def test_even_count_interpolates(self):
        # numpy.percentile([1, 2, 3, 4], [25, 50, 75]) == 1.75, 2.5, 3.25
        assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0]) == (1.75, 2.5, 3.25)

    def test_one_value(self):
        assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


class TestSummarize:
    def test_higher_is_better(self):
        parent = [10.0, 11.0, 9.0, 10.0, 12.0]
        change = [12.0, 13.0, 8.0, 12.5, 14.0]
        out = bench_pairs.summarize(parent, change, "higher")
        assert out["parent_median"] == 10.0
        assert out["change_median"] == 12.5
        assert out["parent_quartiles"] == [10.0, 11.0]
        assert out["parent_iqr"] == 1.0
        assert out["change_over_parent"] == 1.25
        assert out["change_wins"] == "4/5"   # pair 2 went the other way
        assert out["resolved"] is True
        assert out["parent_per_pair"] == parent and out["change_per_pair"] == change

    def test_lower_is_better_counts_the_other_way(self):
        out = bench_pairs.summarize([1.0, 1.0, 1.0], [0.5, 2.0, 0.9], "lower")
        assert out["change_wins"] == "2/3"
        assert out["change_median"] == 0.9

    def test_spread_wider_than_the_difference_is_unresolved(self):
        out = bench_pairs.summarize([1.0, 2.0, 3.0, 4.0], [2.0, 3.0, 3.0, 4.0], "lower")
        assert out["parent_iqr"] == 1.5
        assert out["change_median"] - out["parent_median"] == 0.5
        assert out["resolved"] is False

    def test_no_direction_counts_no_wins(self):
        out = bench_pairs.summarize([1.0, 2.0], [3.0, 4.0], None)
        assert "change_wins" not in out
        assert out["change_over_parent"] == 2.3333333333333335

    def test_ties_are_not_wins(self):
        assert bench_pairs.summarize([1.0, 1.0], [1.0, 1.0], "higher")["change_wins"] == "0/2"

    def test_unpaired_values_rejected(self):
        with pytest.raises(ValueError):
            bench_pairs.summarize([1.0, 2.0], [1.0], "higher")


def test_seed_ranges_and_lists():
    assert bench_pairs.parse_seeds("301..304") == [301, 302, 303, 304]
    assert bench_pairs.parse_seeds("911, 912,913") == [911, 912, 913]


def test_directions_come_from_the_benchmark_file():
    benchmark = json.loads((_PATH.parent.parent / "BENCHMARK.json").read_text())
    directions = bench_pairs.metric_directions(benchmark)
    assert directions["rons.member_steps_per_s"] == "higher"
    assert directions["wall_s"] == "lower"
    assert directions["rons.core.lagrange.s"] == "lower"


def test_collect_summarises_metrics_every_run_reported():
    def record(rate, extra=None):
        metrics = {"rons.member_steps_per_s": {"value": rate, "unit": "member-steps/s"}}
        if extra is not None:
            metrics["only_sometimes"] = {"value": extra, "unit": "s"}
        return {"metrics": metrics}

    records = [(record(10.0, 1.0), record(12.0)), (record(11.0), record(13.0, 2.0))]
    out = bench_pairs.collect(records, {"rons.member_steps_per_s": "higher"})
    assert list(out) == ["rons.member_steps_per_s"]
    assert out["rons.member_steps_per_s"]["change_wins"] == "2/2"


def test_runs_pin_the_hash_seed_to_the_pair_seed(monkeypatch, tmp_path):
    # the hash seed moves the heap layout, so both sides of a pair get the
    # pair's perfbench seed and the pair can be re-run exactly
    calls = []

    def fake_run(args, **kwargs):
        calls.append((args, kwargs))
        record = {"correct": True, "metrics": {}}
        return bench_pairs.subprocess.CompletedProcess(args, 0, "log\n" + json.dumps(record), "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    monkeypatch.setenv("PYTHONHASHSEED", "0")
    record = bench_pairs.run_perfbench(tmp_path, "nls-rom", 17, 5.0, 0)
    assert record == {"correct": True, "metrics": {}, "ok": True}
    (args, kwargs), = calls
    assert args[1:] == ["perfbench/run.py", "--workload", "nls-rom", "--seed", "17",
                        "--seconds", "5.0", "--trace", "0"]
    assert kwargs["cwd"] == tmp_path
    assert kwargs["env"]["PYTHONHASHSEED"] == "17"


def fake_passes():
    """A ``passes.json`` of two untraced passes and one traced pass."""
    def one(index, traced, raw_plain, raw_rons):
        return {"index": index, "traced": traced, "seconds": {"plain": 9.0, "rons": 9.0},
                "raw_seconds": {"plain": raw_plain, "rons": raw_rons},
                "member_steps": {"plain": 100, "rons": 50}}
    return {"setup_seconds": [9.0, 9.0, 9.0], "raw_setup_seconds": [0.3, 0.1, 0.2],
            "passes": [one(0, False, 0.5, 0.25), one(1, True, 0.01, 0.01),
                       one(2, False, 0.25, 0.5)]}


def test_raw_medians_skip_traced_passes():
    out = bench_pairs.raw_medians(fake_passes())
    assert out == {
        "median_raw.setup_s": {"value": 0.2, "unit": "s"},
        # per-pass rates 200 and 400 (plain), 200 and 100 (rons)
        "median_raw.plain.member_steps_per_s": {"value": 300.0, "unit": "member-steps/s"},
        "median_raw.rons.member_steps_per_s": {"value": 150.0, "unit": "member-steps/s"},
    }


def test_runs_add_raw_medians_from_the_side_passes_file(monkeypatch, tmp_path):
    def fake_run(args, **kwargs):
        # perfbench writes passes.json under the checkout it ran in
        out = kwargs["cwd"] / "perfbench_out" / "swe-pulse"
        out.mkdir(parents=True)
        (out / "passes.json").write_text(json.dumps(fake_passes()))
        record = {"correct": True, "metrics": {"setup_s": {"value": 1.0, "unit": "s"}}}
        return bench_pairs.subprocess.CompletedProcess(args, 0, json.dumps(record), "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    record = bench_pairs.run_perfbench(tmp_path, "swe-pulse", 3, 5.0, 0)
    assert record["metrics"]["median_raw.setup_s"]["value"] == 0.2
    assert record["metrics"]["median_raw.rons.member_steps_per_s"]["value"] == 150.0

    benchmark = json.loads((_PATH.parent.parent / "BENCHMARK.json").read_text())
    directions = bench_pairs.metric_directions(benchmark)
    faster = {"metrics": {**record["metrics"],
                          "median_raw.setup_s": {"value": 0.1, "unit": "s"},
                          "median_raw.rons.member_steps_per_s": {"value": 160.0,
                                                                 "unit": "member-steps/s"}}}
    out = bench_pairs.collect([(record, faster)], directions)
    assert out["median_raw.setup_s"]["better"] == "lower"
    assert out["median_raw.setup_s"]["change_wins"] == "1/1"
    assert out["median_raw.rons.member_steps_per_s"]["better"] == "higher"
    assert out["median_raw.rons.member_steps_per_s"]["change_wins"] == "1/1"
    assert out["median_raw.plain.member_steps_per_s"]["change_wins"] == "0/1"


def test_runs_count_minor_faults_per_pass(monkeypatch, tmp_path):
    # the children's fault counter is read around the perfbench process and
    # the difference spread over the run's three passes
    readings = iter([1_000, 4_000])
    calls = []

    def fake_rusage(who):
        calls.append(who)
        return bench_pairs.resource.struct_rusage((0,) * 6 + (next(readings),) + (0,) * 9)

    def fake_run(args, **kwargs):
        assert len(calls) == 1   # read before the run
        out = kwargs["cwd"] / "perfbench_out" / "swe-ensemble"
        out.mkdir(parents=True)
        (out / "passes.json").write_text(json.dumps(fake_passes()))
        record = {"correct": True, "metrics": {}}
        return bench_pairs.subprocess.CompletedProcess(args, 0, json.dumps(record), "")

    monkeypatch.setattr(bench_pairs.resource, "getrusage", fake_rusage)
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    record = bench_pairs.run_perfbench(tmp_path, "swe-ensemble", 3, 5.0, 0)
    assert calls == [bench_pairs.resource.RUSAGE_CHILDREN] * 2
    assert record["metrics"]["run.minor_faults_per_pass"] == {"value": 1000.0,
                                                              "unit": "faults"}
    assert bench_pairs.metric_directions({})["run.minor_faults_per_pass"] == "lower"


@pytest.mark.parametrize("pairs", [5, 10])
def test_each_workload_records_its_pair_count_and_warns_below_ten(monkeypatch, tmp_path,
                                                                  capsys, pairs):
    def fake_export(repo, rev, dest):
        dest.mkdir(parents=True)
        (dest / "BENCHMARK.json").write_text((_PATH.parent.parent / "BENCHMARK.json").read_text())
        return rev

    def fake_run(args, **kwargs):
        rate = {"value": 100.0, "unit": "member-steps/s"}
        record = {"correct": True, "metrics": {"rons.member_steps_per_s": rate}}
        return bench_pairs.subprocess.CompletedProcess(args, 0, json.dumps(record), "")

    monkeypatch.setattr(bench_pairs, "export", fake_export)
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    assert bench_pairs.main(["--parent", "a", "--change", "b", "--workloads", "nls-rom",
                             "--seeds", f"1..{pairs}", "--label", "t", "--work",
                             str(tmp_path / "work"), "--out", str(tmp_path)]) == 0
    out = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert out["workloads"]["nls-rom"]["pairs"] == pairs
    warned = "warning: nls-rom has 5 usable pair(s), fewer than 10" in capsys.readouterr().err
    assert warned == (pairs < 10)
