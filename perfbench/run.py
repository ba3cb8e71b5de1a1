"""End-to-end benchmark of the cache-pirating reproduction, with a per-layer trace.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 8 --trace 0

``--workload`` is one of ``sweep``, ``validate``, ``grid``, ``service``
(see README.md).  The run measures whole rounds of the workload until
``--seconds`` have passed (at least one round), checks the outputs, prints
human-readable figures and then, as its last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``END_TO_END``.  With ``--trace 1`` the run measures the same untraced
rounds, then installs the layer trace (``tracer.py``) and runs the
workload's set-up and one more round traced; the metrics are the
per-layer metrics of ``PER_LAYER``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import logging
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

#: end-to-end metrics: name -> unit (every workload reports every one)
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

#: layers whose lines are counted: self and busy time, calls, lines, rate
RATE_LAYERS = ("caches.full", "caches.l3_only", "reference.replay")
#: layers reported by self time alone
SELF_LAYERS = (
    "workloads.chunk",
    "core.pirate.chunk",
    "core.harness.point",
    "core.parallel.run_sweep",
    "core.parallel.cache_load",
    "core.parallel.cache_store",
    "hardware.machine",
    "hardware.timing",
    "tracing.capture",
    "tracing.profile",
    "surrogate.model",
    "scenarios.compile",
    "scenarios.cell",
    "service.server",
    "service.store",
    "service.client",
)


def _per_layer_units() -> dict[str, str]:
    units = {}
    for layer in RATE_LAYERS:
        units.update({
            f"{layer}.self_s": "s",
            f"{layer}.busy_s": "s",
            f"{layer}.calls": "count",
            f"{layer}.lines": "count",
            f"{layer}.lines_per_s": "1/s",
        })
    for layer in SELF_LAYERS:
        units[f"{layer}.self_s"] = "s"
    units.update({
        "core.parallel.cache_load.calls": "count",
        "core.parallel.cache_hit_ratio": "ratio",
        "trace.wall_s": "s",
        "trace.self_sum_s": "s",
        "trace.spans": "count",
        "trace_overhead_s": "s",
    })
    return units


#: per-layer metrics: name -> unit (every traced run reports every one)
PER_LAYER = _per_layer_units()

#: fresh interpreters whose set-up time is measured per run
SETUP_SAMPLES = 3
#: a set-up child that has not exited by then is killed
SETUP_TIMEOUT_S = 60.0


def end_to_end_values(setup: list[float], walls: list[float]) -> dict:
    """The :data:`END_TO_END` values: medians of the set-up and round samples."""
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def layer_metrics(times: dict, phase_wall: float, overhead: float, n_spans: int) -> dict:
    """The :data:`PER_LAYER` values from :func:`tracer.self_times` output.

    ``phase_wall`` is the wall time of the traced phase (set-up plus one
    round), which the layer self times must not exceed; ``overhead`` is the
    traced round's wall time minus the untraced rounds' median.
    """

    def row(name):
        return times.get(name, {"self_s": 0.0, "busy_s": 0.0, "calls": 0, "lines": 0, "hits": 0})

    out = {}
    for layer in RATE_LAYERS:
        r = row(layer)
        out[f"{layer}.self_s"] = r["self_s"]
        out[f"{layer}.busy_s"] = r["busy_s"]
        out[f"{layer}.calls"] = r["calls"]
        out[f"{layer}.lines"] = r["lines"]
        out[f"{layer}.lines_per_s"] = r["lines"] / r["busy_s"] if r["busy_s"] else 0.0
    for layer in SELF_LAYERS:
        out[f"{layer}.self_s"] = row(layer)["self_s"]
    load = row("core.parallel.cache_load")
    out["core.parallel.cache_load.calls"] = load["calls"]
    out["core.parallel.cache_hit_ratio"] = load["hits"] / load["calls"] if load["calls"] else 0.0
    out["trace.wall_s"] = phase_wall
    out["trace.self_sum_s"] = sum(r["self_s"] for r in times.values())
    out["trace.spans"] = n_spans
    out["trace_overhead_s"] = overhead
    return out


def _with_units(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def measure_setup(argv_base: list[str]) -> list[float]:
    """Seconds from starting a fresh interpreter until it is ready to time."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), *argv_base, "--setup-only"],
            stdout=subprocess.PIPE,
            text=True,
        )
        # the reads below block, so a timer enforces the time limit
        timer = threading.Timer(SETUP_TIMEOUT_S, child.kill)
        timer.start()
        try:
            line = child.stdout.readline()
            ready = time.perf_counter() - t0
            child.stdout.read()
            code = child.wait()
        finally:
            timer.cancel()
            if child.poll() is None:
                child.kill()
                child.wait()
            child.stdout.close()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up child failed (exit {code}, said {line.strip()!r})")
        samples.append(ready)
    return samples


def run_rounds(wl, seconds: float) -> list:
    """Whole rounds until ``seconds`` have passed; at least one."""
    rounds = []
    start = time.perf_counter()
    i = 0
    while True:
        wl.prepare_round(i)
        rounds.append(wl.round(i))
        i += 1
        if time.perf_counter() - start >= seconds:
            return rounds


def run(args) -> dict:
    work = Path.cwd() / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    wl = WORKLOADS[args.workload](args.seed, work)
    try:
        if args.setup_only:
            wl.setup()
            wl.prepare_round(0)
            print("ready", flush=True)
            return {}
        setup = measure_setup(["--workload", args.workload, "--seed", str(args.seed)])
        wl.setup()
        rounds = run_rounds(wl, args.seconds)
        walls = [r.wall_s for r in rounds]
        problems = []
        if args.trace:
            from tracer import Tracer, self_times

            tracer = Tracer(work)
            tracer.install()
            t0 = time.perf_counter()
            wl.setup()
            wl.prepare_round(len(rounds))
            traced = wl.round(len(rounds))
            phase_wall = time.perf_counter() - t0
            spans = tracer.collect()
            times = self_times(spans)
            values = layer_metrics(times, phase_wall, traced.wall_s - statistics.median(walls),
                                   len(spans))
            if values["trace.self_sum_s"] > phase_wall * (1 + 1e-9):
                problems.append("layer self times add up to more than the traced wall time")
            metrics = _with_units(values, PER_LAYER)
        else:
            metrics = _with_units(end_to_end_values(setup, walls), END_TO_END)
        checked = rounds + [traced] if args.trace else rounds
        try:
            problems += wl.check(checked)
        except Exception as e:  # a check that cannot run is a failed check
            logging.exception("check raised")
            problems.append(f"check raised {type(e).__name__}: {e}")
        attempted = sum(r.attempted for r in checked)
        failed = sum(r.failed for r in checked)
        print(f"workload {args.workload}  seed {args.seed}  rounds {len(checked)}  "
              f"attempted {attempted}  failed {failed}")
        print("setup_s samples: " + " ".join(f"{s:.4f}" for s in setup))
        print("round wall_s: " + " ".join(f"{w:.4f}" for w in walls))
        for line in wl.report(rounds):
            print(line)
        for name, m in metrics.items():
            print(f"{name} {m['value']:.6g} {m['unit']}")
        for p in problems:
            print(f"CHECK FAILED: {p}")
        return {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }
    finally:
        wl.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there


def _one_malloc_arena() -> None:
    """Give glibc's malloc a single arena in this process.

    A thread's first allocation otherwise lands in a new or a reused arena
    depending on timing, so the peak resident memory of a run with threads
    (the service's server and job threads) changed by ~20 MB from run to
    run with the same work.  With one arena it repeats.  Other C libraries
    have no such call and are left as they are.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
        mallopt = libc.mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    m_arena_max = -8
    mallopt(m_arena_max, 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr)

    src = Path.cwd() / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {src / 'repro'} is missing; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    _one_malloc_arena()
    result = run(args)
    if not args.setup_only:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
