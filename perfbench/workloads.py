"""The benchmark's four workloads, each a closed loop driven by one caller.

Every workload has the same life cycle, driven by ``run.py``:

* ``setup()`` — imports and work shared by all rounds (grid compile).
* ``prepare_round(i)`` — untimed per-round state: fresh directories, the
  round's job set.
* ``round(i)`` — the timed operations; returns a :class:`Round`.
* ``check(rounds)`` — verifies the outputs outside the timed region and
  returns a list of problems (empty when correct).
* ``report(rounds)`` — workload-specific figures as text lines.

A round always attempts the same operations, so the share of failed
operations is the same in every run, whatever the seed or run length.
"""

from __future__ import annotations

import json
import logging
import os
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

from stats import latency_summary

_log = logging.getLogger("perfbench")

HERE = Path(__file__).resolve().parent


@dataclass
class Round:
    """One timed round: its wall time, operation counts and outputs."""

    wall_s: float
    attempted: int
    failed: int
    outputs: dict = field(default_factory=dict)


def _failure(what: str) -> None:
    """Record a failed operation's traceback on stderr (never on stdout)."""
    _log.error("%s failed:\n%s", what, traceback.format_exc())


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class Workload:
    name = ""

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = Path(work_dir)

    def setup(self) -> None:
        pass

    def prepare_round(self, i: int) -> None:
        pass

    def round(self, i: int) -> Round:
        raise NotImplementedError

    def check(self, rounds: list[Round]) -> list[str]:
        return []

    def report(self, rounds: list[Round]) -> list[str]:
        return []

    def close(self) -> None:
        pass


# -- sweep ------------------------------------------------------------------------


class SweepWorkload(Workload):
    """``repro sweep mcf --sizes 1,2,4,6 --serial``: one measured sweep per round.

    Runs the measured-engine body of ``measure_curve_fixed`` (the same
    ``SweepSpec`` through ``run_sweep`` and ``assemble_curve``) with the
    default kernel and no result cache, so the returned counters can be
    checked.  Operations are sweep points.
    """

    name = "sweep"
    sizes_mb = (1.0, 2.0, 4.0, 6.0)
    interval_instructions = 1e6
    n_intervals = 2
    #: the point re-measured under the scalar reference kernel: the
    #: largest size, where the Pirate steals least
    check_index = 3

    def setup(self) -> None:
        from repro.config import nehalem_config
        from repro.core.parallel import SweepSpec
        from repro.workloads import benchmark_target

        self.spec = SweepSpec(
            target=benchmark_target("mcf", seed=self.seed),
            benchmark="mcf",
            config=nehalem_config(),
            interval_instructions=self.interval_instructions,
            n_intervals=self.n_intervals,
            seed=self.seed,
        )

    def round(self, i: int) -> Round:
        from repro.analysis.merge import assemble_curve
        from repro.core import parallel

        n = len(self.sizes_mb)
        t0 = time.perf_counter()
        try:
            results, _ = parallel.run_sweep(self.spec, list(self.sizes_mb), workers=0)
            curve = assemble_curve(
                "mcf", results, self.spec.config.core.clock_hz
            )
        except Exception:
            _failure("sweep")
            return Round(time.perf_counter() - t0, n, n)
        wall = time.perf_counter() - t0
        failed = sum(1 for r in results if r.quality is not None and r.quality.quarantined)
        return Round(wall, n, failed, {"results": results, "curve": curve})

    def check(self, rounds: list[Round]) -> list[str]:
        from repro.core import parallel

        problems = []
        clock = self.spec.config.core.clock_hz
        line = self.spec.config.l3.line_size
        done = [r for r in rounds if "results" in r.outputs]
        for r in done:
            results = sorted(r.outputs["results"], key=lambda p: p.index)
            for p in results:
                for s in p.samples:
                    t = s.target
                    where = f"{p.size_mb:g}MB"
                    if t.l3_misses > t.l3_fetches:
                        problems.append(f"{where}: misses {t.l3_misses} > fetches {t.l3_fetches}")
                    if t.dram_bytes != (t.l3_fetches + t.dram_writeback_lines) * line:
                        problems.append(f"{where}: DRAM bytes != (fetches + write-backs) x line")
                    if t.instructions < self.interval_instructions:
                        problems.append(f"{where}: {t.instructions} instructions < interval")
            points = r.outputs["curve"].points
            for p in points:
                # bandwidth over simulated time, recomputed from the counters
                group = [s.target for q in results for s in q.samples
                         if s.target_cache_bytes == p.cache_bytes]
                nbytes = sum((t.l3_fetches + t.dram_writeback_lines) * line for t in group)
                seconds = sum(t.cycles for t in group) / clock
                expect = nbytes / seconds / 1e9
                if abs(p.bandwidth_gbps - expect) > 1e-9 * expect:
                    problems.append(f"{p.cache_mb:g}MB: bandwidth {p.bandwidth_gbps} != {expect}")
            ratios = [p.fetch_ratio for p in points]
            if any(b >= a for a, b in zip(ratios, ratios[1:])):
                problems.append(f"fetch ratio does not fall as the cache grows: {ratios}")
        if done:
            # the scalar reference kernel must reproduce one timed point bit for bit
            spec = replace(self.spec, config=replace(self.spec.config, kernel="scalar"))
            point = parallel.sweep_points(spec, self.sizes_mb)[self.check_index]
            ref = parallel.measure_sweep_point(spec, point)
            timed = next(p for p in done[0].outputs["results"] if p.index == point.index)
            if ref.samples != timed.samples:
                problems.append(f"{point.size_mb:g}MB point differs under --kernel scalar")
        return problems

    def report(self, rounds: list[Round]) -> list[str]:
        done = [r for r in rounds if "results" in r.outputs]
        if not done:
            return []
        instr = [
            sum(s.target.instructions for p in r.outputs["results"] for s in p.samples)
            for r in done
        ]
        rate = statistics.median(i / r.wall_s for i, r in zip(instr, done)) / 1e6
        lines = [f"sim_minstr_per_s {rate:.4f} M instr/s "
                 f"(base: {instr[0]:.0f} Target instructions in measured intervals)"]
        for p in done[0].outputs["curve"].points:
            lines.append(
                f"  {p.cache_mb:4g} MB  fetch {p.fetch_ratio:.5f}  miss {p.miss_ratio:.5f}  "
                f"pirate {p.pirate_fetch_ratio:.4f}  trusted {p.valid}"
            )
        return lines


# -- validate ---------------------------------------------------------------------


class ValidateWorkload(Workload):
    """``repro validate --quick mcf --serial``: one conformance run per round.

    The operation is the benchmark; a non-passing suite is what makes the
    CLI exit non-zero, so it counts as a failure.
    """

    name = "validate"
    benchmarks = ("mcf",)

    def setup(self) -> None:
        from repro.config import nehalem_config
        from repro.validation.tiers import resolve_tier

        self.tier = resolve_tier("quick")
        self.config = nehalem_config(prefetch_enabled=False)

    def round(self, i: int) -> Round:
        from repro.validation import validate_suite

        n = len(self.benchmarks)
        t0 = time.perf_counter()
        try:
            suite = validate_suite(
                list(self.benchmarks), self.tier, config=self.config,
                seed=self.seed, workers=0,
            )
        except Exception:
            _failure("validate")
            return Round(time.perf_counter() - t0, n, n)
        wall = time.perf_counter() - t0
        failed = sum(1 for rep in suite.reports if not rep.passed)
        return Round(wall, n, failed, {"suite": suite})

    def check(self, rounds: list[Round]) -> list[str]:
        problems = []
        for r in rounds:
            suite = r.outputs.get("suite")
            if suite is None:
                continue
            for rep in suite.reports:
                trusted = [p for p in rep.points if p.trusted]
                if not trusted:
                    problems.append(f"{rep.benchmark}: no trusted point")
                for p in trusted:
                    diff = abs(p.pirate_fetch_ratio - p.reference_fetch_ratio)
                    if diff > self.tier.bound:
                        problems.append(
                            f"{rep.benchmark} {p.size_mb:g}MB: |pirate - reference| "
                            f"{diff:.5f} > bound {self.tier.bound}"
                        )
        return problems

    def report(self, rounds: list[Round]) -> list[str]:
        lines = []
        for r in rounds[:1]:
            suite = r.outputs.get("suite")
            for rep in suite.reports if suite else ():
                for p in rep.points:
                    lines.append(
                        f"  {rep.benchmark} {p.size_mb:4g} MB  pirate {p.pirate_fetch_ratio:.5f}  "
                        f"reference {p.reference_fetch_ratio:.5f}  trusted {p.trusted}"
                    )
        return lines


# -- grid -------------------------------------------------------------------------


def host_cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class GridWorkload(Workload):
    """``grid.json`` cold into a fresh cache with a process pool, then warm.

    Operations are grid points, once per pass.
    """

    name = "grid"

    def setup(self) -> None:
        from repro.scenarios import grid as grid_mod

        config = json.loads((HERE / "grid.json").read_text())
        config["seed"] = self.seed
        self.grid = grid_mod.compile_grid(config)
        self.workers = host_cores()

    def prepare_round(self, i: int) -> None:
        # kept until the run ends: the checks read them after the rounds
        base = self.work_dir / f"grid-{i}"
        self.dirs = {k: _fresh(base / k) for k in ("cache", "cold", "warm")}

    def _pass(self, out_key: str):
        from repro.scenarios import emit, run_grid

        result = run_grid(
            self.grid, workers=self.workers, cache_dir=self.dirs["cache"],
            out_dir=self.dirs[out_key],
        )
        emit(result, self.dirs[out_key], csv_out=self.grid.report.csv,
             jsonl_out=self.grid.report.jsonl)
        return result

    def round(self, i: int) -> Round:
        n = self.grid.n_points
        outputs, failed = {"dirs": self.dirs}, 0
        t0 = time.perf_counter()
        for key in ("cold", "warm"):
            t = time.perf_counter()
            try:
                outputs[key] = self._pass(key)
            except Exception:
                _failure(f"grid {key} pass")
                failed += n
            outputs[f"{key}_s"] = time.perf_counter() - t
        return Round(time.perf_counter() - t0, 2 * n, failed, outputs)

    def check(self, rounds: list[Round]) -> list[str]:
        from repro.core.parallel import SweepCache

        problems = []
        n = self.grid.n_points
        expected_rows = sum(len(c.sizes_mb) for c in self.grid.cells)
        for r in rounds:
            cold, warm = r.outputs.get("cold"), r.outputs.get("warm")
            if cold is None or warm is None:
                continue
            if cold.cache_hits != 0 or cold.measured != n:
                problems.append(f"cold pass: {cold.measured} measured, {cold.cache_hits} cached")
            if warm.measured != 0 or warm.cache_hits != n:
                problems.append(f"warm pass: {warm.measured} measured, {warm.cache_hits} cached")
            if len(cold.rows()) != expected_rows:
                problems.append(f"{len(cold.rows())} rows, expected {expected_rows}")
            dirs = r.outputs["dirs"]
            files = {
                key: {p.name: p.read_bytes() for p in sorted(dirs[key].glob("*.*"))}
                for key in ("cold", "warm")
            }
            if not files["cold"] or files["cold"] != files["warm"]:
                problems.append("warm rows are not byte-identical to cold rows")
            audit = SweepCache(dirs["cache"]).verify()
            if not audit.clean:
                problems.append(f"point cache audit: {audit.format()}")
        return problems

    @staticmethod
    def _measured_instructions(cache_dir: Path) -> float:
        """Target instructions of the measured (not synthesized) points,
        read from the counters the cold pass stored."""
        from repro.core.parallel import SweepCache

        cache = SweepCache(cache_dir)
        points = [cache.load(p.stem) for p in cache_dir.glob("*.json")]
        return sum(s.target.instructions for p in points if p.quality is None for s in p.samples)

    def report(self, rounds: list[Round]) -> list[str]:
        done = [r for r in rounds if "cold" in r.outputs and "warm" in r.outputs]
        if not done:
            return []
        cold = statistics.median(r.outputs["cold_s"] for r in done)
        warm = statistics.median(r.outputs["warm_s"] for r in done)
        instr = self._measured_instructions(done[0].outputs["dirs"]["cache"])
        g = self.grid
        return [
            f"grid: {len(g.cells)} cells, {g.n_points} points, {self.workers} workers",
            f"cold_s {cold:.4f} s   warm_s {warm:.4f} s (every warm point a cache hit)",
            f"sim_minstr_per_s {instr / done[0].outputs['cold_s'] / 1e6:.4f} M instr/s "
            f"over the cold pass (base: {instr:.0f} Target instructions of measured points)",
        ]


# -- service ----------------------------------------------------------------------

#: the service job set: small, distinct measured curves
SERVICE_JOBS = (
    {"kind": "micro.random", "working_set_mb": 1.0},
    {"kind": "micro.sequential", "working_set_mb": 1.0},
    {"kind": "zipf", "working_set_mb": 1.0, "alpha": 1.0},
    {"kind": "sharing", "working_set_mb": 1.0, "shared_fraction": 0.5},
)
#: resubmissions of every job per round, each answered from the store
SERVICE_HIT_PASSES = 100


class ServiceWorkload(Workload):
    """A ``ServerThread`` on a unix socket with one client, one request at a time.

    The server starts on a fresh state directory in set-up.  Each round
    submits a fresh set of jobs (seeded by the run seed and the round) and
    waits for and fetches each one (cold), then resubmits and fetches every
    job :data:`SERVICE_HIT_PASSES` times (hits).  An operation is one
    submit-to-fetch round trip.
    """

    name = "service"
    server = None

    def setup(self) -> None:
        from repro.service import ServerThread

        self.close()
        base = _fresh(self.work_dir / "svc")
        # a relative socket path stays under the unix socket path limit
        # wherever the checkout is
        sock = os.path.relpath(base / "s.sock")
        self.server = ServerThread(base / "state", sock, job_workers=1, sweep_workers=0)
        self.client = self.server.client(client_id="perfbench")
        self.round_jobs = {}

    def jobs(self, i: int) -> list:
        """Round ``i``'s job set: one small measured curve per entry of SERVICE_JOBS."""
        from repro.service import JobSpec
        from repro.workloads import TargetSpec

        seed = self.seed * 1000 + i
        return [
            JobSpec(
                workload=TargetSpec(seed=seed, **w),
                sizes_mb=(6.0, 8.0),
                benchmark=f"perfbench.{w['kind']}",
                interval_instructions=20_000.0,
                n_intervals=1,
                seed=seed,
            )
            for w in SERVICE_JOBS
        ]

    def prepare_round(self, i: int) -> None:
        self.round_jobs[i] = self.jobs(i)

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def round(self, i: int) -> Round:
        from repro.service import ServiceError

        client = self.client
        jobs = self.round_jobs[i]
        cold, hits, fetched = [], [], {}
        failed = not_hit = differ = 0
        t0 = time.perf_counter()
        for j, job in enumerate(jobs):
            t = time.perf_counter()
            try:
                key = client.submit(job)["key"]
                result = client.wait(key)["result"]
            except (ServiceError, OSError):
                _failure("service cold request")
                failed += 1
                continue
            cold.append(time.perf_counter() - t)
            fetched[j] = result["rows"]
        for _ in range(SERVICE_HIT_PASSES):
            for j, job in enumerate(jobs):
                t = time.perf_counter()
                try:
                    reply = client.submit(job)
                    result = client.fetch(reply["key"])["result"]
                except (ServiceError, OSError):
                    _failure("service hit request")
                    failed += 1
                    continue
                hits.append(time.perf_counter() - t)
                # kept as counts, not copies: a run holds thousands of replies
                not_hit += not (reply.get("cached") and reply.get("state") == "done")
                differ += result["rows"] != fetched.get(j)
        wall = time.perf_counter() - t0
        attempted = len(jobs) * (1 + SERVICE_HIT_PASSES)
        return Round(wall, attempted, failed, {
            "jobs": jobs, "cold": cold, "hits": hits, "fetched": fetched,
            "not_hit": not_hit, "differ": differ,
        })

    def check(self, rounds: list[Round]) -> list[str]:
        from repro.core import measure_curve_fixed

        problems = []
        for r in rounds:
            out = r.outputs
            for j, job in enumerate(out["jobs"]):
                # service == batch: the same spec run directly, outside the server
                expected = measure_curve_fixed(
                    job.workload, list(job.sizes_mb), benchmark=job.benchmark,
                    interval_instructions=job.interval_instructions,
                    n_intervals=job.n_intervals, seed=job.seed, engine=job.engine,
                ).to_rows()
                if out["fetched"].get(j) != expected:
                    problems.append(f"{job.benchmark}: fetched curve differs from "
                                    "measure_curve_fixed")
            if out["differ"]:
                problems.append(f"{out['differ']} resubmissions returned a different curve")
            if out["not_hit"]:
                problems.append(f"{out['not_hit']} resubmissions not answered from the store")
        return problems

    def report(self, rounds: list[Round]) -> list[str]:
        cold = [x for r in rounds for x in r.outputs["cold"]]
        hits = [x * 1e3 for r in rounds for x in r.outputs["hits"]]
        lines = []
        if cold:
            c = latency_summary(cold)
            lines.append(f"rtt_cold_s_p50 {c['p50']:.4f} s (n={c['n']})")
        if hits:
            h = latency_summary(hits)
            line = f"rtt_hit_ms_p50 {h['p50']:.4f} ms"
            if "tail" in h:
                line += f"   rtt_hit_ms_p{h['tail_p']:g} {h['tail']:.4f} ms"
            lines.append(line + f" (n={h['n']})")
        return lines


WORKLOADS = {
    w.name: w for w in (SweepWorkload, ValidateWorkload, GridWorkload, ServiceWorkload)
}
