"""Exhaustive explorer throughput and reductions.

Measures the mechanisms of the snapshot/restore explorer, all on the
same instances in the same run:

* **states/sec** -- snapshot+POR (the default) against the snapshot
  full DFS, both expanding the same budget of distinct states on the
  n=4 PROTOCOL A grid, with the process copies and re-installs the
  copy-on-write kernel snapshots made on the way;
* **POR reduction** -- states/runs/probes of sleep-set exploration
  against the unreduced full DFS on exhaustible n=3 points, asserting
  both see identical decision sets and violation kinds;
* **visited-store effectiveness** -- cache hit rate over probes;
* **symmetry reduction** -- POR-only against POR+process-permutation
  symmetry on instances with interchangeable processes, asserting equal
  findings and strictly fewer states (the n=4 chaudhuri uniform point
  is the headline: POR alone exhausts its 400k budget, the quotient
  finishes in ~24k states);
* **event allocation** -- ``__slots__``-backed frozen events against a
  ``__dict__``-backed clone (the pre-slots layout);
* **early exit** -- ``stop_on_violation`` wall time against the full
  sweep on outside-region (violating) points;
* **shared memory** -- PROTOCOL E at n=3 with symmetry on (states,
  cache hits, restores, re-fed results, states/sec), plus one
  timing-only PROTOCOL F point whose results logs grow with its state
  cap, run in a fresh process for its own peak RSS.

Run as a script to (re)generate ``BENCH_exhaustive.json`` at the
repository root::

    python benchmarks/bench_exhaustive_explorer.py            # full
    python benchmarks/bench_exhaustive_explorer.py --smoke    # quick CI run
    python benchmarks/bench_exhaustive_explorer.py --check-baseline

``--check-baseline`` re-explores the pinned POR, symmetry, early-exit
and shared-memory points and fails (exit 1) if any point now expands
*more* states than the committed artifact records -- the state-count
regression guard.  It never rewrites the artifact.

The artifact is stamped with the machine it ran on (``cpu_count``, the
Python version) and the worker count of every series (``jobs``); every
series runs serially.

Under ``pytest benchmarks/ --benchmark-only`` a smoke-sized measurement
runs without touching the JSON artifact.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import dataclasses
import json
import multiprocessing
import os
import pathlib
import platform
import resource
import sys
import time
from typing import Any, Dict, List, Optional

from repro.core.validity import RV1, RV2, SV2
from repro.failures.crash import CrashPlan, CrashPoint
from repro.harness.exhaustive import SpecFactory, explore_mp, explore_sm
from repro.io import atomic_write_json
from repro.protocols.ablations import ProtocolBStrictQuorum
from repro.protocols.chaudhuri import ChaudhuriKSet
from repro.protocols.protocol_a import ProtocolA
from repro.runtime.events import Delivery
from repro.runtime.process import Process

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_exhaustive.json"

#: Throughput instance: the n=4 PROTOCOL A grid point.  Both modes
#: expand the same number of distinct states (the budget cap), so
#: rates are directly comparable.
THROUGHPUT_N = 4
THROUGHPUT_INPUTS = ("v", "v", "w", "w")
THROUGHPUT_K = 2
THROUGHPUT_T = 1
FULL_CAP = 10_000
SMOKE_CAP = 1_500

ALLOC_COUNT_FULL = 200_000
ALLOC_COUNT_SMOKE = 20_000

#: Pinned exhaustible points for the POR reduction ratio and the
#: ``--check-baseline`` regression guard.  Every point fully exhausts,
#: so state counts are properties of the algorithm, not of a budget.
POR_GRID = (
    {
        "name": "protocol-a n=3 failure-free",
        "protocol": "a",
        "inputs": ("v", "v", "w"),
        "k": 2, "t": 1,
        "crash": None,
    },
    {
        "name": "protocol-a n=3 crash p0@1send",
        "protocol": "a",
        "inputs": ("v", "v", "w"),
        "k": 2, "t": 1,
        "crash": ("sends", 0, 1),
    },
    {
        "name": "strict-quorum ablation n=3 (violating)",
        "protocol": "b-strict",
        "inputs": ("w", "v", "v"),
        "k": 2, "t": 1,
        "crash": ("steps", 0, 1),
    },
)

#: Symmetry-reduction series: POR-only vs POR+symmetry.  ``smoke``
#: marks the points cheap enough for CI; ``guard`` marks the ones the
#: ``--check-baseline`` regression guard re-measures.  ``cap`` bounds
#: the POR-only side where it cannot exhaust (the symmetry side must
#: always exhaust -- that asymmetry *is* the result).
SYM_GRID = (
    {
        "name": "protocol-a n=3 (v,v,w)",
        "protocol": "a",
        "inputs": ("v", "v", "w"),
        "k": 2, "t": 1,
        "crash": None,
        "smoke": True, "guard": True, "cap": 200_000,
    },
    {
        "name": "protocol-a n=4 (v,v,v,w)",
        "protocol": "a",
        "inputs": ("v", "v", "v", "w"),
        "k": 2, "t": 1,
        "crash": None,
        "smoke": False, "guard": False, "cap": 400_000,
    },
    {
        "name": "chaudhuri n=4 uniform",
        "protocol": "chaudhuri",
        "inputs": ("v", "v", "v", "v"),
        "k": 3, "t": 2,
        "crash": None,
        "smoke": False, "guard": False, "cap": 400_000,
    },
)


#: Early-exit series: outside-region points where the full sweep keeps
#: exploring long after the first counterexample.  ``guard`` points pin
#: the *serial* early-exit state count (deterministic) in the artifact;
#: exceeding it later means the search order now reaches the first
#: violation more slowly.
EARLY_EXIT_GRID = (
    {
        "name": "protocol-a n=3 k=1 (outside)",
        "protocol": "a",
        "inputs": ("v", "v", "w"),
        "k": 1, "t": 1,
        "crash": None,
        "cap": 200_000,
        "smoke": True, "guard": True,
    },
    {
        "name": "chaudhuri n=4 k=2 t=2 (outside)",
        "protocol": "chaudhuri",
        "inputs": ("v", "w", "x", "y"),
        "k": 2, "t": 2,
        "crash": None,
        "cap": 150_000,
        "smoke": False, "guard": False,
    },
)


#: Shared-memory series: PROTOCOL E (``protocol-e@sm-cr``) at n=3,
#: k=2, t=0 with symmetry on and the exact store.  Every point
#: exhausts; ``--check-baseline`` re-checks each state count.
SM_SPEC = "protocol-e@sm-cr"
SM_K, SM_T = 2, 0
SM_GRID = (
    {"name": "protocol-e n=3 distinct (a,b,c)", "inputs": ("a", "b", "c")},
    {"name": "protocol-e n=3 split (v,v,w)", "inputs": ("v", "v", "w")},
    {"name": "protocol-e n=3 uniform (v,v,v)", "inputs": ("v", "v", "v")},
)

#: Timing-only shared-memory point: PROTOCOL F scans until enough
#: registers are written, so the search descends one ever-longer path
#: and every results log on it grows with the cap.  Skipped by
#: ``--smoke``.
SM_TIMING_POINT = {
    "name": "protocol-f n=3 (v,v,w) capped",
    "spec": "protocol-f@sm-cr",
    "inputs": ("v", "v", "w"),
    "k": 2, "t": 0,
    "cap": 3_000,
}


def _grid_factory(point: Dict[str, Any]):
    n = len(point["inputs"])
    if point["protocol"] == "a":
        return lambda: [ProtocolA() for _ in range(n)]
    if point["protocol"] == "chaudhuri":
        return lambda: [ChaudhuriKSet() for _ in range(n)]
    return lambda: [ProtocolBStrictQuorum() for _ in range(n)]


def _grid_adversary(point: Dict[str, Any]) -> Optional[CrashPlan]:
    crash = point["crash"]
    if crash is None:
        return None
    kind, victim, count = crash
    crash_point = (
        CrashPoint(after_sends=count)
        if kind == "sends" else CrashPoint(after_steps=count)
    )
    return CrashPlan({victim: crash_point})


def _grid_validity(point: Dict[str, Any]):
    if point["protocol"] == "b-strict":
        return SV2
    if point["protocol"] == "chaudhuri":
        return RV1
    return RV2


@contextlib.contextmanager
def _count_process_forks():
    """Count ``Process.snapshot_state`` calls (process copies) and
    ``Process.restore_state`` calls (process re-installs) while active.

    Counted from outside ``src/`` by wrapping the two hooks on the class;
    the wrappers add well under a microsecond per call to the timing.
    """
    counts = {"process_copies": 0, "process_installs": 0}
    snapshot_state = Process.snapshot_state
    restore_state = Process.restore_state

    def counted_snapshot(process):
        counts["process_copies"] += 1
        return snapshot_state(process)

    def counted_restore(process, state):
        counts["process_installs"] += 1
        restore_state(process, state)

    Process.snapshot_state = counted_snapshot
    Process.restore_state = counted_restore
    try:
        yield counts
    finally:
        Process.snapshot_state = snapshot_state
        Process.restore_state = restore_state


def _measure_throughput(por: bool, cap: int) -> Dict[str, Any]:
    """One throughput point: states/sec at a fixed expansion budget."""
    with _count_process_forks() as forks:
        started = time.perf_counter()
        result = explore_mp(
            lambda: [ProtocolA() for _ in range(THROUGHPUT_N)],
            list(THROUGHPUT_INPUTS),
            k=THROUGHPUT_K, t=THROUGHPUT_T, validity=RV2,
            max_states=cap, por=por,
        )
        elapsed = time.perf_counter() - started
    assert result.all_ok, result.violations[:2]
    return {
        "por": por,
        "states": result.states,
        "runs": result.runs,
        "seconds": round(elapsed, 4),
        "states_per_sec": (
            round(result.states / elapsed, 1) if elapsed > 0 else None
        ),
        "cache_hits": result.cache_hits,
        "cache_misses": result.cache_misses,
        "cache_hit_rate": round(result.cache_hit_rate, 4),
        "sleep_pruned": result.sleep_pruned,
        "reexpansions": result.reexpansions,
        **forks,
    }


def _measure_por_point(point: Dict[str, Any]) -> Dict[str, Any]:
    """Full DFS vs POR on one exhaustible point; asserts equivalence."""
    kwargs = dict(
        inputs=list(point["inputs"]),
        k=point["k"], t=point["t"],
        validity=_grid_validity(point),
        crash_adversary=_grid_adversary(point),
    )
    full = explore_mp(_grid_factory(point), por=False, **kwargs)
    por = explore_mp(_grid_factory(point), por=True, **kwargs)
    assert full.exhausted and por.exhausted, point["name"]
    assert full.decision_sets == por.decision_sets, point["name"]
    assert full.violation_kinds() == por.violation_kinds(), point["name"]
    assert por.states <= full.states, (
        f"{point['name']}: POR expanded more states "
        f"({por.states} > {full.states})"
    )
    return {
        "point": point["name"],
        "full_states": full.states,
        "por_states": por.states,
        "full_runs": full.runs,
        "por_runs": por.runs,
        "full_probes": full.cache_hits + full.cache_misses,
        "por_probes": por.cache_hits + por.cache_misses,
        "states_reduction": round(por.states / full.states, 4),
        "runs_reduction": round(por.runs / full.runs, 4),
        "violations": len(por.violations),
    }


def _measure_sym_point(point: Dict[str, Any]) -> Dict[str, Any]:
    """POR-only vs POR+symmetry on one instance; asserts equivalence.

    The symmetry side must exhaust; the POR-only side may hit ``cap``
    (recorded in ``por_exhausted``), in which case only the violation
    verdicts are comparable -- when both exhaust, decision sets must
    match exactly.
    """
    kwargs = dict(
        inputs=list(point["inputs"]),
        k=point["k"], t=point["t"],
        validity=_grid_validity(point),
        crash_adversary=_grid_adversary(point),
        max_states=point["cap"],
    )
    started = time.perf_counter()
    por = explore_mp(_grid_factory(point), **kwargs)
    por_seconds = time.perf_counter() - started
    started = time.perf_counter()
    sym = explore_mp(_grid_factory(point), symmetry=True, **kwargs)
    sym_seconds = time.perf_counter() - started
    assert sym.exhausted, f"{point['name']}: symmetry side must exhaust"
    assert sym.stats.symmetry, f"{point['name']}: symmetry was disabled"
    assert sym.violation_kinds() == por.violation_kinds(), point["name"]
    if por.exhausted:
        assert sym.decision_sets == por.decision_sets, point["name"]
    assert sym.states < por.states, (
        f"{point['name']}: symmetry explored {sym.states} >= "
        f"POR-only {por.states}"
    )
    return {
        "point": point["name"],
        "por_states": por.states,
        "por_exhausted": por.exhausted,
        "por_seconds": round(por_seconds, 4),
        "sym_states": sym.states,
        "sym_seconds": round(sym_seconds, 4),
        "group_size": sym.stats.group_size,
        "canonicalizations": sym.stats.canonicalizations,
        "orbit_hits": sym.stats.orbit_hits,
        "states_reduction": round(sym.states / por.states, 4),
        "violations": len(sym.violations),
    }


def _grid_kwargs(point: Dict[str, Any]) -> Dict[str, Any]:
    return dict(
        inputs=list(point["inputs"]),
        k=point["k"], t=point["t"],
        validity=_grid_validity(point),
        crash_adversary=_grid_adversary(point),
        max_states=point["cap"],
    )


#: Registered spec names for the timed grid protocols: the early-exit
#: state baselines were recorded on registry-built processes.
_SPEC_NAMES = {"a": "protocol-a@mp-cr", "chaudhuri": "chaudhuri@mp-cr"}


def _timed_explore(point: Dict[str, Any], **overrides):
    kwargs = _grid_kwargs(point)
    kwargs.update(overrides)
    factory = SpecFactory(
        _SPEC_NAMES[point["protocol"]],
        len(point["inputs"]), point["k"], point["t"],
    )
    started = time.perf_counter()
    result = explore_mp(factory, **kwargs)
    return result, time.perf_counter() - started


def _measure_early_exit_point(point: Dict[str, Any]) -> Dict[str, Any]:
    """Full sweep vs ``stop_on_violation`` on an outside-region point."""
    full, full_s = _timed_explore(point)
    early, early_s = _timed_explore(point, stop_on_violation=True)
    assert full.violations, f"{point['name']}: not an outside point"
    assert early.violations, f"{point['name']}: early exit"
    assert not early.all_ok, point["name"]
    assert early.violation_kinds() <= full.violation_kinds(), point["name"]
    assert early.states < full.states, point["name"]
    return {
        "point": point["name"],
        "full_states": full.states,
        "full_exhausted": full.exhausted,
        "full_seconds": round(full_s, 4),
        "full_violations": len(full.violations),
        "early_exit_states": early.states,
        "early_exit_seconds": round(early_s, 4),
        "early_exit_speedup": (
            round(full_s / early_s, 2) if early_s > 0 else None
        ),
    }


def _measure_sm_point(point: Dict[str, Any]) -> Dict[str, Any]:
    """One exhaustive shared-memory search with symmetry on."""
    n = len(point["inputs"])
    started = time.perf_counter()
    result = explore_sm(
        SpecFactory(SM_SPEC, n, SM_K, SM_T), list(point["inputs"]),
        k=SM_K, t=SM_T, validity=RV2, symmetry=True, visited="exact",
    )
    elapsed = time.perf_counter() - started
    assert result.exhausted and result.all_ok, point["name"]
    return {
        "point": point["name"],
        "inputs": list(point["inputs"]),
        "symmetry": result.stats.symmetry,
        "states": result.states,
        "runs": result.runs,
        "cache_hits": result.cache_hits,
        "restores": result.replays,
        "refed_results": result.replayed_steps,
        "seconds": round(elapsed, 4),
        "states_per_sec": (
            round(result.states / elapsed, 1) if elapsed > 0 else None
        ),
    }


def _sm_timing_run(point: Dict[str, Any]) -> Dict[str, Any]:
    """The timing-only point; meant to run alone in a fresh process."""
    n = len(point["inputs"])
    started = time.perf_counter()
    result = explore_sm(
        SpecFactory(point["spec"], n, point["k"], point["t"]),
        list(point["inputs"]), k=point["k"], t=point["t"], validity=SV2,
        symmetry=True, max_states=point["cap"],
    )
    elapsed = time.perf_counter() - started
    return {
        "point": point["name"],
        "cap": point["cap"],
        "states": result.states,
        "exhausted": result.exhausted,
        "restores": result.replays,
        "refed_results": result.replayed_steps,
        "seconds": round(elapsed, 4),
        "states_per_sec": round(result.states / elapsed, 1),
        "peak_rss_mib": round(_peak_rss_mib(), 1),
    }


def _peak_rss_mib() -> float:
    """This process's peak resident set size, in MiB.

    Linux's ``VmHWM`` covers only the current program image.  The
    fallback where ``/proc`` is missing, ``ru_maxrss``, also counts the
    parent image a spawned worker was forked from before ``exec``.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _measure_sm_timing_point(point: Dict[str, Any]) -> Dict[str, Any]:
    """Run :func:`_sm_timing_run` in a freshly spawned interpreter, so
    its peak RSS is the point's own and not this process's."""
    context = multiprocessing.get_context("spawn")
    with concurrent.futures.ProcessPoolExecutor(
        max_workers=1, mp_context=context
    ) as pool:
        return pool.submit(_sm_timing_run, point).result()


def _measure_event_allocation(count: int) -> Dict[str, Any]:
    """``__slots__`` events against the pre-slots ``__dict__`` layout."""

    @dataclasses.dataclass(frozen=True)
    class DictDelivery:  # the layout events.py had before slots=True
        seq: int
        sender: int
        receiver: int
        payload: Any

    def alloc(cls) -> float:
        started = time.perf_counter()
        for i in range(count):
            cls(i, 0, 1, ("VAL", i))
        return time.perf_counter() - started

    alloc(Delivery)  # warm-up
    slots_seconds = alloc(Delivery)
    dict_seconds = alloc(DictDelivery)
    slotted = Delivery(0, 0, 1, ("VAL", 0))
    boxed = DictDelivery(0, 0, 1, ("VAL", 0))
    return {
        "count": count,
        "slots_seconds": round(slots_seconds, 4),
        "dict_seconds": round(dict_seconds, 4),
        "slots_allocs_per_sec": round(count / slots_seconds, 1),
        "dict_allocs_per_sec": round(count / dict_seconds, 1),
        "alloc_speedup": round(dict_seconds / slots_seconds, 3),
        "slots_bytes": sys.getsizeof(slotted),
        "dict_bytes": sys.getsizeof(boxed) + sys.getsizeof(boxed.__dict__),
    }


def run_suite(smoke: bool = False) -> Dict[str, Any]:
    """Measure everything; returns the JSON-ready payload."""
    cap = SMOKE_CAP if smoke else FULL_CAP

    throughput = {
        "cap": cap,
        "snapshot_full_dfs": _measure_throughput(False, cap),
        "snapshot_por": _measure_throughput(True, cap),
    }

    por_points = [_measure_por_point(point) for point in POR_GRID]
    sym_points = [
        _measure_sym_point(point)
        for point in SYM_GRID
        if point["smoke"] or not smoke
    ]
    early_points = [
        _measure_early_exit_point(point)
        for point in EARLY_EXIT_GRID
        if point["smoke"] or not smoke
    ]
    sm_points = [_measure_sm_point(point) for point in SM_GRID]
    sm_timing = (
        None if smoke else _measure_sm_timing_point(SM_TIMING_POINT)
    )

    return {
        "benchmark": "exhaustive_explorer",
        "smoke": smoke,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        # Worker processes per series: every search here is serial.
        "jobs": {
            "throughput": 1,
            "por_reduction": 1,
            "symmetry_reduction": 1,
            "early_exit": 1,
            "shared_memory": 1,
            "sm_timing": 1,
            "event_allocation": 1,
        },
        "instance": {
            "protocol": "protocol-a",
            "n": THROUGHPUT_N,
            "inputs": list(THROUGHPUT_INPUTS),
            "k": THROUGHPUT_K,
            "t": THROUGHPUT_T,
        },
        "throughput": throughput,
        "por_reduction": por_points,
        "por_states_baseline": {
            point["point"]: point["por_states"] for point in por_points
        },
        "symmetry_reduction": sym_points,
        "symmetry_states_baseline": {
            point["point"]: point["sym_states"] for point in sym_points
        },
        "early_exit": early_points,
        "early_exit_states_baseline": {
            point["point"]: point["early_exit_states"]
            for point in early_points
        },
        "shared_memory": {
            "spec": SM_SPEC, "n": 3, "k": SM_K, "t": SM_T,
            "symmetry": True, "visited": "exact",
            "points": sm_points,
        },
        "sm_states_baseline": {
            point["point"]: point["states"] for point in sm_points
        },
        "sm_timing": sm_timing,
        "event_allocation": _measure_event_allocation(
            ALLOC_COUNT_SMOKE if smoke else ALLOC_COUNT_FULL
        ),
    }


def check_baseline(artifact_path: pathlib.Path) -> List[str]:
    """State-count regression guard: re-run the pinned points, compare.

    Returns human-readable failures (empty = guard passed).  A point
    may explore *fewer* states than recorded (an improvement); more is
    a regression in the reduction.
    """
    recorded = json.loads(artifact_path.read_text())["por_states_baseline"]
    failures = []
    for point in POR_GRID:
        name = point["name"]
        if name not in recorded:
            failures.append(f"{name}: missing from {artifact_path.name}")
            continue
        measured = _measure_por_point(point)
        if measured["por_states"] > recorded[name]:
            failures.append(
                f"{name}: POR now expands {measured['por_states']} states "
                f"(baseline {recorded[name]})"
            )
    recorded_sym = json.loads(artifact_path.read_text()).get(
        "symmetry_states_baseline", {}
    )
    for point in SYM_GRID:
        if not point["guard"]:
            continue  # the expensive n=4 points are artifact-only
        name = point["name"]
        if name not in recorded_sym:
            failures.append(f"{name}: missing from {artifact_path.name}")
            continue
        measured = _measure_sym_point(point)
        if measured["sym_states"] > recorded_sym[name]:
            failures.append(
                f"{name}: symmetry now expands {measured['sym_states']} "
                f"states (baseline {recorded_sym[name]})"
            )
    recorded_early = json.loads(artifact_path.read_text()).get(
        "early_exit_states_baseline", {}
    )
    for point in EARLY_EXIT_GRID:
        if not point["guard"]:
            continue
        name = point["name"]
        if name not in recorded_early:
            failures.append(f"{name}: missing from {artifact_path.name}")
            continue
        early, _ = _timed_explore(point, stop_on_violation=True)
        if early.states > recorded_early[name]:
            failures.append(
                f"{name}: early exit now takes {early.states} states to "
                f"the first violation (baseline {recorded_early[name]})"
            )
    recorded_sm = json.loads(artifact_path.read_text()).get(
        "sm_states_baseline", {}
    )
    for point in SM_GRID:
        name = point["name"]
        if name not in recorded_sm:
            failures.append(f"{name}: missing from {artifact_path.name}")
            continue
        measured = _measure_sm_point(point)
        if measured["states"] > recorded_sm[name]:
            failures.append(
                f"{name}: shared memory now expands {measured['states']} "
                f"states (baseline {recorded_sm[name]})"
            )
    return failures


def test_exhaustive_throughput_smoke(benchmark):
    """Benchmark-suite entry: smoke-sized, no artifact written."""
    payload = benchmark.pedantic(
        run_suite, kwargs={"smoke": True}, rounds=1, iterations=1
    )
    throughput = payload["throughput"]
    assert payload["por_reduction"], "no POR points measured"
    assert payload["symmetry_reduction"], "no symmetry points measured"
    for point in payload["symmetry_reduction"]:
        assert point["sym_states"] < point["por_states"], point
    assert payload["early_exit"], "no early-exit points measured"
    for point in payload["early_exit"]:
        assert point["early_exit_states"] < point["full_states"], point
    assert payload["shared_memory"]["points"], "no SM points measured"
    print(json.dumps(throughput, indent=2))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small budget for CI (still writes the artifact)")
    parser.add_argument("--out", default=str(DEFAULT_OUT),
                        help="output JSON path")
    parser.add_argument("--check-baseline", action="store_true",
                        help="state-count regression guard against the "
                             "committed artifact; writes nothing")
    args = parser.parse_args(argv)

    if args.check_baseline:
        failures = check_baseline(pathlib.Path(args.out))
        for failure in failures:
            print(f"STATE-COUNT REGRESSION: {failure}")
        if not failures:
            print("state-count baseline guard passed")
        return 1 if failures else 0

    payload = run_suite(smoke=args.smoke)
    out = pathlib.Path(args.out)
    atomic_write_json(out, payload)
    throughput = payload["throughput"]
    print(
        f"n={THROUGHPUT_N} cap={throughput['cap']}: snapshot full-DFS "
        f"{throughput['snapshot_full_dfs']['states_per_sec']}/s, "
        f"snapshot+POR {throughput['snapshot_por']['states_per_sec']}/s"
    )
    for mode in ("snapshot_full_dfs", "snapshot_por"):
        point = throughput[mode]
        print(
            f"{mode}: {point['process_copies']} process copies, "
            f"{point['process_installs']} process re-installs"
        )
    for point in payload["por_reduction"]:
        print(
            f"POR {point['point']}: {point['full_states']} -> "
            f"{point['por_states']} states, {point['full_runs']} -> "
            f"{point['por_runs']} runs"
        )
    for point in payload["symmetry_reduction"]:
        capped = "" if point["por_exhausted"] else " (POR capped)"
        print(
            f"SYM {point['point']}: {point['por_states']} -> "
            f"{point['sym_states']} states, group {point['group_size']}, "
            f"{point['orbit_hits']} orbit hits{capped}, "
            f"{point['por_seconds']} s -> {point['sym_seconds']} s"
        )
    for point in payload["early_exit"]:
        print(
            f"EARLY-EXIT {point['point']}: {point['full_states']} -> "
            f"{point['early_exit_states']} states, "
            f"x{point['early_exit_speedup']} wall time"
        )
    for point in payload["shared_memory"]["points"]:
        print(
            f"SM {point['point']}: {point['states']} states, "
            f"{point['restores']} restores, {point['refed_results']} "
            f"re-fed results, {point['states_per_sec']}/s"
        )
    timing = payload["sm_timing"]
    if timing is not None:
        print(
            f"SM {timing['point']}: {timing['states']} states in "
            f"{timing['seconds']} s, peak RSS {timing['peak_rss_mib']} MiB"
        )
    alloc = payload["event_allocation"]
    print(
        f"events: slots {alloc['slots_bytes']}B vs dict "
        f"{alloc['dict_bytes']}B per Delivery, alloc "
        f"x{alloc['alloc_speedup']} faster"
    )
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
