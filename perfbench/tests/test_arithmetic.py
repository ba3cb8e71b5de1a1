"""Tests of the benchmark's own arithmetic and of its declared form.

Run from the root of the repository::

    python -m pytest perfbench/tests -q
"""

import json
import multiprocessing
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from stats import latency_summary, tail_percentile  # noqa: E402
from tracer import Span, Tracer, self_times  # noqa: E402

ROOT = BENCH.parent


# -- the percentile rule ------------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [(1, None), (39, None), (40, 75.0), (99, 75.0), (100, 90.0), (199, 90.0),
     (200, 95.0), (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_every_reported_tail_has_ten_samples_beyond_and_no_higher_one_does():
    candidates = (75.0, 90.0, 95.0, 99.0, 99.9)
    for n in range(40, 12000, 7):
        p = tail_percentile(n)
        assert round(n * (100 - p) / 100, 6) >= 10
        higher = [c for c in candidates if c > p]
        assert all(round(n * (100 - c) / 100, 6) < 10 for c in higher)


def test_median_alone_under_forty_samples():
    summary = latency_summary(range(39))
    assert summary == {"n": 39, "p50": 19}


def test_summary_reports_median_and_tail():
    summary = latency_summary([float(i) for i in range(1, 201)])
    assert summary["p50"] == 100.5
    assert summary["tail_p"] == 95.0
    assert summary["tail"] == pytest.approx(190.05)


# -- self time ----------------------------------------------------------------------

LANE = (1, 1)


def _span(name, start, end, lane=LANE, lines=0):
    return Span(lane=lane, name=name, start=start, end=end, lines=lines)


def test_self_time_subtracts_nested_children():
    times = self_times([
        _span("a", 0.0, 10.0),
        _span("b", 2.0, 5.0),
        _span("c", 3.0, 4.0),
    ])
    assert times["a"]["self_s"] == pytest.approx(7.0)
    assert times["b"]["self_s"] == pytest.approx(2.0)
    assert times["c"]["self_s"] == pytest.approx(1.0)
    assert sum(t["self_s"] for t in times.values()) == pytest.approx(10.0)


def test_self_time_subtracts_siblings_and_sums_repeated_names():
    times = self_times([
        _span("a", 0.0, 10.0),
        _span("b", 1.0, 3.0, lines=5),
        _span("b", 5.0, 8.0, lines=7),
    ])
    assert times["a"]["self_s"] == pytest.approx(5.0)
    assert times["b"]["self_s"] == pytest.approx(5.0)
    assert times["b"]["calls"] == 2
    assert times["b"]["lines"] == 12


def test_nested_spans_of_one_name_are_not_added_together():
    # a recursive call: the outer span's self time excludes the inner one
    times = self_times([_span("a", 0.0, 10.0), _span("a", 2.0, 6.0)])
    assert times["a"]["self_s"] == pytest.approx(10.0)
    assert times["a"]["busy_s"] == pytest.approx(10.0)


def test_concurrent_lanes_share_wall_time():
    times = self_times([
        _span("x", 0.0, 10.0, lane=(1, 1)),
        _span("y", 0.0, 10.0, lane=(2, 1)),
    ])
    assert times["x"]["self_s"] == pytest.approx(5.0)
    assert times["y"]["self_s"] == pytest.approx(5.0)
    assert times["x"]["busy_s"] == pytest.approx(10.0)


def test_a_dispatcher_waiting_on_workers_gets_no_share():
    times = self_times([
        _span("core.parallel.run_sweep", 0.0, 10.0, lane=(1, 1)),
        _span("core.harness.point", 2.0, 8.0, lane=(2, 1)),
        _span("core.harness.point", 2.0, 6.0, lane=(3, 1)),
    ])
    assert times["core.parallel.run_sweep"]["self_s"] == pytest.approx(4.0)
    # 2..6 shared by two workers, 6..8 one worker alone
    assert times["core.harness.point"]["self_s"] == pytest.approx(6.0)
    assert sum(t["self_s"] for t in times.values()) == pytest.approx(10.0)


def test_forked_child_spans_are_collected(tmp_path):
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("needs the fork start method")
    tracer = Tracer(tmp_path)
    work = tracer._wrap("workloads.chunk", lambda: sum(range(1000)), None, None)
    work()
    ctx = multiprocessing.get_context("fork")
    child = ctx.Process(target=work)
    child.start()
    child.join(timeout=30)
    assert child.exitcode == 0
    spans = tracer.collect()
    assert [s.name for s in spans] == ["workloads.chunk", "workloads.chunk"]
    assert len({s.lane for s in spans}) == 2
    assert not list(tmp_path.glob("spans-*.pkl"))


# -- the declared form --------------------------------------------------------------


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_has_its_fixed_form():
    spec = _benchmark_json()
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    names = [w["name"] for w in spec["workloads"]]
    assert names == ["sweep", "validate", "grid", "service"]
    assert all(set(w) == {"name", "why"} and "\n" not in w["why"] for w in spec["workloads"])
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_every_declared_metric_is_printed_with_its_unit():
    spec = _benchmark_json()
    e2e = run._with_units(run.end_to_end_values([0.5, 0.6], [1.0, 2.0]), run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: v["unit"] for k, v in e2e.items()
    }
    layers = run._with_units(run.layer_metrics({}, 1.0, 0.0, 0), run.PER_LAYER)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: v["unit"] for k, v in layers.items()
    }


def test_runner_refuses_a_directory_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "sweep", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
