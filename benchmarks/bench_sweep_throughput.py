"""Sweep throughput benchmark: serial vs parallel vs batch, FULL vs COUNTERS.

Measures Monte-Carlo sweep throughput (runs/second) along the three
axes the harness optimizes:

* **trace mode** -- ``FULL`` (every ``TraceRecord`` allocated, the
  replay/forensics default) against ``COUNTERS`` (integer counters
  only, the sweep fast path);
* **execution** -- serial against ``--jobs``-parallel worker processes;
* **engine** -- the scalar discrete-event kernel against the
  vectorized ``repro.batch`` engine (``--engine auto``), at the
  sweep's own batch size and again at a 32x bulk batch where the
  vectorization has room to amortize.

Every leg of a point is timed :data:`REPEATS` times
(:data:`SMOKE_REPEATS` under ``--smoke``), each repeat timing every
leg once in turn after one untimed run of that leg, and recorded as
the median with its quartiles, so the speedup ratios, taken from the
medians, are not one noisy timing over another, nor timings taken
minutes apart.  For every measured
point the benchmark also *verifies* that the decision histograms are
identical across all repeats and all four scalar configurations --
throughput must never change results -- and
cross-checks every batch-supported spec with
``repro.verify.diff_batch_scalar``: the vectorized engine's decisions,
crash sets, and verdicts must match run-by-run scalar replays of the
identical plan.

A fourth series, ``batch_memory``, runs one batch sweep per run count
in a freshly spawned interpreter and records its peak RSS (``VmHWM``):
a batch sweep holds one chunk at a time, so the peak should stay flat
as the run count grows.  The artifact is stamped with the machine it
ran on (``cpu_count``, the Python version) and the worker count of
every series (``jobs``).

Run as a script to (re)generate ``BENCH_sweep_throughput.json`` at the
repository root::

    python benchmarks/bench_sweep_throughput.py            # full grid
    python benchmarks/bench_sweep_throughput.py --smoke    # quick CI run

Under ``pytest benchmarks/ --benchmark-only`` a smoke-sized measurement
runs without touching the JSON artifact.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import functools
import json
import multiprocessing
import os
import pathlib
import platform
import statistics
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence

from bench_exhaustive_explorer import _peak_rss_mib
from repro.harness.parallel import available_jobs, derive_seed
from repro.io import atomic_write_json
from repro.harness.sweep import SweepConfig, sweep_spec
from repro.protocols.base import get_spec
from repro.runtime.traces import TraceMode

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_sweep_throughput.json"

#: A cheap, always-solvable MP crash-model protocol: the sweep cost is
#: dominated by kernel events, which is exactly what we want to measure.
SPEC_NAME = "protocol-a@mp-cr"
BASE_SEED = 20260805

FULL_N_VALUES = (8, 16, 24)
FULL_RUNS = 48
SMOKE_N_VALUES = (8,)
SMOKE_RUNS = 12

#: Timed repeats of every leg of a point.  One timing of a 48-run
#: sweep takes 0.03 to 0.24 s on a 2-CPU box, too short to compare
#: alone; odd counts keep the median an actual repeat.
REPEATS = 7
SMOKE_REPEATS = 3

#: Bulk multiplier for the large-batch measurement: one vectorized
#: evaluation over ``runs * BULK_FACTOR`` runs.
BULK_FACTOR = 32

#: Per-spec differential sample size (batch vs scalar replays).
DIFFERENTIAL_RUNS = 12

#: The batch memory series: run counts of one spawned sweep each at
#: ``MEMORY_N``, where a batch chunk holds 1,736 runs.
MEMORY_N = 24
FULL_MEMORY_RUNS = (2_000, 8_000, 32_000)
SMOKE_MEMORY_RUNS = (200, 800)


def _point_for(n: int) -> Dict[str, int]:
    """A (k, t) point inside the spec's solvable region at ``n``."""
    spec = get_spec(SPEC_NAME)
    k = max(2, n // 2)
    for t in range(n, 0, -1):
        if spec.solvable(n, k, t):
            return {"n": n, "k": k, "t": t}
    raise RuntimeError(f"no solvable t for {SPEC_NAME} at n={n}, k={k}")


def _measure(
    n: int, k: int, t: int, runs: int, jobs: int, trace_mode: TraceMode
) -> Dict:
    spec = get_spec(SPEC_NAME)
    config = SweepConfig(
        runs=runs,
        seed=derive_seed(BASE_SEED, SPEC_NAME, n, k, t),
        trace_mode=trace_mode,
    )
    started = time.perf_counter()
    stats = sweep_spec(spec, n, k, t, config, jobs=jobs)
    elapsed = time.perf_counter() - started
    return {
        "jobs": jobs,
        "execution": stats.execution,
        "trace_mode": str(trace_mode),
        "seconds": round(elapsed, 4),
        "runs_per_sec": round(runs / elapsed, 2) if elapsed > 0 else None,
        "violations": len(stats.violations),
        "decisions_histogram": {
            str(key): value
            for key, value in sorted(stats.decisions_histogram.items())
        },
    }


def _measure_batch(n: int, k: int, t: int, runs: int) -> Dict:
    """One vectorized sweep through the ``repro.batch`` engine."""
    spec = get_spec(SPEC_NAME)
    config = SweepConfig(
        runs=runs,
        seed=derive_seed(BASE_SEED, SPEC_NAME, n, k, t),
        trace_mode=TraceMode.COUNTERS,
    )
    started = time.perf_counter()
    stats = sweep_spec(spec, n, k, t, config, engine="auto")
    elapsed = time.perf_counter() - started
    assert stats.engine == "batch", (
        f"batch engine fell back to scalar at n={n}: {stats.execution}"
    )
    return {
        "runs": runs,
        "engine": stats.engine,
        "jobs": 1,
        "seconds": round(elapsed, 4),
        "runs_per_sec": round(runs / elapsed, 2) if elapsed > 0 else None,
        "violations": len(stats.violations),
        "decisions_histogram": {
            str(key): value
            for key, value in sorted(stats.decisions_histogram.items())
        },
    }


def _take_turns(
    legs: Dict[str, Callable[[], Dict]], repeats: int
) -> Dict[str, List[Dict]]:
    """Time every leg once per repeat, the legs in turn.

    Host load that drifts during a point then reaches every leg's
    samples alike, so the ratios of their medians compare timings taken
    under the same conditions.  Each timed run follows an untimed run of
    the same leg: on a 2-CPU box a 48-run batch sweep takes about 1.4 ms
    when it follows itself and 2.4 ms right after a parallel leg, so
    without it a short leg would be timed on the caches of the leg
    before.
    """
    samples: Dict[str, List[Dict]] = {label: [] for label in legs}
    for _ in range(repeats):
        for label, measure in legs.items():
            measure()
            samples[label].append(measure())
    return samples


def _summarize(
    label: str, samples: List[Dict], reference: Optional[Dict[str, int]] = None,
) -> Dict:
    """One leg's repeats as the median and quartiles.

    Every repeat's decision histogram must equal ``reference``, or the
    first repeat's when none is given: timing never changes results.
    """
    if reference is None:
        reference = samples[0]["decisions_histogram"]
    for sample in samples:
        assert sample["decisions_histogram"] == reference, (
            f"determinism broken in {label}: histogram "
            f"{sample['decisions_histogram']} != {reference}"
        )
    leg = {**samples[0], "repeats": len(samples)}
    for key, digits in (("seconds", 4), ("runs_per_sec", 2)):
        q1, median, q3 = statistics.quantiles(
            [sample[key] for sample in samples], n=4, method="inclusive"
        )
        leg[key] = round(median, digits)
        leg[f"{key}_quartiles"] = [round(q1, digits), round(q3, digits)]
    return leg


def _batch_memory_run(n: int, k: int, t: int, runs: int) -> Dict:
    """One batch sweep; meant to run alone in a freshly spawned process."""
    measured = _measure_batch(n, k, t, runs)
    return {**measured, "peak_rss_mib": round(_peak_rss_mib(), 1)}


def _measure_batch_memory(run_counts: Sequence[int]) -> Dict:
    """Peak RSS of a batch sweep at each run count.

    Each sweep runs in its own spawned interpreter, so its peak is the
    sweep's own and not this process's.
    """
    point = _point_for(MEMORY_N)
    context = multiprocessing.get_context("spawn")
    series = []
    for runs in run_counts:
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=1, mp_context=context
        ) as pool:
            series.append(
                pool.submit(_batch_memory_run, **point, runs=runs).result()
            )
    return {
        **point,
        "series": series,
        "peak_rss_ratio": round(
            series[-1]["peak_rss_mib"] / series[0]["peak_rss_mib"], 3
        ),
    }


def _differential_suite(runs: int) -> List[Dict]:
    """Batch-vs-scalar cross-check over every batch-supported spec.

    Replays each vectorized plan run-by-run through the scalar kernel
    and asserts identical histograms, violation counts, and zero
    per-run mismatches (decisions, crash sets, verdicts).
    """
    from repro.batch import BATCH_FAMILIES, supports_point
    from repro.verify.differential import diff_batch_scalar

    checks: List[Dict] = []
    for spec_name in sorted(BATCH_FAMILIES):
        spec = get_spec(spec_name)
        point = None
        # The last two points cover the trivial specs (solvable only at
        # k = n).
        for n, k, t in (
            (6, 3, 2), (6, 2, 1), (5, 2, 1), (4, 2, 0), (6, 6, 2), (4, 4, 3)
        ):
            if spec.solvable(n, k, t) and supports_point(spec, n, k, t):
                point = (n, k, t)
                break
        if point is None:
            continue
        n, k, t = point
        config = SweepConfig(
            runs=runs, seed=derive_seed(BASE_SEED, "diff", spec_name)
        )
        diff = diff_batch_scalar(spec, n, k, t, config)
        assert diff.ok, (
            f"batch/scalar differential failed for {spec_name} at "
            f"n={n} k={k} t={t}: {diff.summary()}"
        )
        checks.append(
            {
                "spec": spec_name,
                "n": n,
                "k": k,
                "t": t,
                "runs": runs,
                "mismatched_runs": diff.mismatched_runs,
                "ok": diff.ok,
            }
        )
    return checks


def run_suite(smoke: bool = False, jobs: Optional[int] = None) -> Dict:
    """Measure the full grid; returns the JSON-ready payload.

    Asserts that every repeat of every scalar configuration of one
    point produced the same decision histogram (the determinism
    contract).
    """
    n_values = SMOKE_N_VALUES if smoke else FULL_N_VALUES
    runs = SMOKE_RUNS if smoke else FULL_RUNS
    repeats = SMOKE_REPEATS if smoke else REPEATS
    parallel_jobs = jobs if jobs else available_jobs()

    # Warm up the batch engine (numpy import, kernel compilation of
    # nothing -- just module load) so the measured series reflects
    # steady-state throughput, not one-off import cost.
    _measure_batch(**_point_for(4), runs=4)

    points: List[Dict] = []
    for n in n_values:
        point = _point_for(n)
        k, t = point["k"], point["t"]
        configs = {
            "serial_full": (1, TraceMode.FULL),
            "serial_counters": (1, TraceMode.COUNTERS),
            "parallel_full": (parallel_jobs, TraceMode.FULL),
            "parallel_counters": (parallel_jobs, TraceMode.COUNTERS),
        }
        # The four scalar configurations share one run stream and must
        # be bit-identical to serial_full.  The batch engine draws its
        # plan from its own seeded streams (different sampling path,
        # same distribution), so its correctness is checked run-by-run
        # against scalar *replays of that plan* in the differential
        # section below, not against the scalar sweep's histogram.
        legs: Dict[str, Callable[[], Dict]] = {
            label: functools.partial(_measure, n, k, t, runs, j, mode)
            for label, (j, mode) in configs.items()
        }
        legs["batch"] = functools.partial(_measure_batch, n, k, t, runs)
        legs["batch_bulk"] = functools.partial(
            _measure_batch, n, k, t, runs * BULK_FACTOR
        )
        samples = _take_turns(legs, repeats)
        reference = samples["serial_full"][0]["decisions_histogram"]
        measured = {
            label: _summarize(
                f"n={n} {label}", samples[label],
                reference if label in configs else None,
            )
            for label in legs
        }
        serial = measured["serial_counters"]["runs_per_sec"]
        parallel = measured["parallel_counters"]["runs_per_sec"]
        full = measured["serial_full"]["runs_per_sec"]
        batch = measured["batch"]["runs_per_sec"]
        batch_bulk = measured["batch_bulk"]["runs_per_sec"]
        points.append(
            {
                **point,
                "runs": runs,
                **measured,
                "speedup_parallel_vs_serial": (
                    round(parallel / serial, 3) if serial and parallel else None
                ),
                "speedup_counters_vs_full": (
                    round(serial / full, 3) if serial and full else None
                ),
                "speedup_batch_vs_serial": (
                    round(batch / serial, 3) if serial and batch else None
                ),
                "speedup_batch_bulk_vs_serial": (
                    round(batch_bulk / serial, 3)
                    if serial and batch_bulk else None
                ),
            }
        )
    return {
        "benchmark": "sweep_throughput",
        "spec": SPEC_NAME,
        "base_seed": BASE_SEED,
        "smoke": smoke,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "parallel_jobs": parallel_jobs,
        "bulk_factor": BULK_FACTOR,
        "points": points,
        "batch_memory": _measure_batch_memory(
            SMOKE_MEMORY_RUNS if smoke else FULL_MEMORY_RUNS
        ),
        "differential": _differential_suite(DIFFERENTIAL_RUNS),
    }


def test_sweep_throughput_smoke(benchmark):
    """Benchmark-suite entry: smoke-sized, no artifact written."""
    payload = benchmark.pedantic(
        run_suite, kwargs={"smoke": True}, rounds=1, iterations=1
    )
    assert payload["points"], "no points measured"
    print(json.dumps(payload["points"][0], indent=2))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small grid for CI (still writes the artifact)")
    parser.add_argument("--jobs", type=int, default=0,
                        help="parallel worker count (0 = all cores)")
    parser.add_argument("--out", default=str(DEFAULT_OUT),
                        help="output JSON path")
    args = parser.parse_args(argv)

    payload = run_suite(smoke=args.smoke, jobs=args.jobs or None)
    out = pathlib.Path(args.out)
    atomic_write_json(out, payload)
    for point in payload["points"]:
        print(
            f"n={point['n']} k={point['k']} t={point['t']} "
            f"({point['runs']} runs, medians of "
            f"{point['serial_full']['repeats']} repeats): "
            f"serial FULL {point['serial_full']['runs_per_sec']}/s, "
            f"serial COUNTERS {point['serial_counters']['runs_per_sec']}/s, "
            f"parallel COUNTERS {point['parallel_counters']['runs_per_sec']}/s "
            f"(x{point['speedup_parallel_vs_serial']} vs serial, "
            f"counters x{point['speedup_counters_vs_full']} vs full), "
            f"batch {point['batch']['runs_per_sec']}/s "
            f"(x{point['speedup_batch_vs_serial']}), "
            f"batch x{BULK_FACTOR} bulk "
            f"{point['batch_bulk']['runs_per_sec']}/s "
            f"(x{point['speedup_batch_bulk_vs_serial']})"
        )
    memory = payload["batch_memory"]
    print(
        f"batch memory at n={memory['n']}: "
        + ", ".join(
            f"{m['runs']} runs {m['peak_rss_mib']} MiB in {m['seconds']} s"
            for m in memory["series"]
        )
        + f" (peak x{memory['peak_rss_ratio']})"
    )
    checked = [c["spec"] for c in payload["differential"]]
    print(f"differential batch-vs-scalar OK for {len(checked)} specs: "
          + ", ".join(checked))
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
