"""End-to-end benchmark for explore, certify and sweep, with a layer trace.

Three ways to run it, all from the repository root:

``python benchmarks/e2e/run.py [--seed S] [--out FILE]``
    Runs every workload :data:`REPEATS` times, each repeat in a fresh
    process, with the workloads taking turns so that machine drift
    spreads over all of them.  Prints each end-to-end metric (median,
    quartiles, sample count), then one traced repeat per workload as a
    layer table.  Exits 1 if any output disagrees with ``expected.json``.

``python benchmarks/e2e/run.py --workload W --seed S --seconds T --trace 0|1``
    Repeats one workload for about ``T`` seconds (at least
    :data:`MIN_REPEATS` times) and prints two JSON lines: the
    provenance stamp, then the result: the medians of the end-to-end
    metrics of ``BENCHMARK.json`` (``--trace 0``) or its per-layer
    metrics (``--trace 1``; traced and untraced repeats alternate so
    ``trace.overhead`` has a baseline).  The result line has exactly the
    keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Its
    per-layer metrics are counts and ratios only: a layer's ``self_s``
    would read 0.0 on every run of a workload that never enters the
    layer, so it is reported as ``share`` (``self_s`` over the share
    base) there and in seconds by the default mode.

``python benchmarks/e2e/run.py --compare PARENT.json CHANGE.json``
    Compares two ``--out`` files metric by metric and exits 1 if any
    metric got worse by more than its bound or the error rate rose.

End-to-end metrics are measured untraced.  ``cpu_s`` and
``peak_rss_mib`` come from the ``os.wait4`` rusage of the repeat's
whole process tree; ``cpu_s`` leaves out the CPU its set-up used.  The
``norm_*`` metrics and ``setup_s`` are scaled to a reference CPU speed:
each time is multiplied by :data:`REF_TICK_S` over the time the
worker's speed sampler took per tick during the same interval.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
#: Scratch space for trace dumps and temp files, inside the checkout.
SCRATCH = os.path.join(ROOT, ".bench_e2e")
WORKLOADS = tuple(workloads.WHY)
#: A repeat that runs longer than this is killed and the run fails.
WORKER_TIMEOUT_S = 120
#: Untraced repeats a ``--seconds`` run makes at least.
MIN_REPEATS = 3
#: Repeats per workload in the default mode.  ``--compare`` pairs them
#: up and calls a change ``better`` when it wins 9 of the 10 pairs.
REPEATS = 10
#: A fixed tick time, near the fastest the speed sampler reads on the
#: reference box (2-CPU Xeon at 2.1 GHz, Python 3.11).  A scaled time
#: is what the interval would have taken at that speed; the constant
#: only sets the scale.
REF_TICK_S = 0.00025

E2E_UNITS = {
    "norm_wall_s": "s",
    "norm_work_per_s": "1/s",
    "norm_cpu_s": "s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}

COUNT_UNITS = {
    "harness.exhaustive.states": "count",
    "harness.exhaustive.cache_hits": "count",
    "harness.exhaustive.sleep_pruned": "count",
    "harness.exhaustive.reexpansions": "count",
    "harness.exhaustive.replayed_steps": "count",
    "harness.exhaustive.duplicate_work_ratio": "ratio",
    "harness.symmetry.canonicalizations": "count",
    "harness.symmetry.orbit_hits": "count",
    "harness.visited.hit_ratio": "ratio",
    "verify.certify.point.calls": "count",
    "verify.certify.explorations": "count",
    "verify.certify.escalations": "count",
    "harness.sweep.fallback_points": "count",
    "batch.engine.chunks": "count",
    "trace.overhead": "ratio",
    "trace.coverage": "ratio",
}


def per_layer_units() -> Dict[str, str]:
    units = {}
    for layer in tracer.LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.share"] = "ratio"
    units.update(COUNT_UNITS)
    return units


class BenchError(RuntimeError):
    """A repeat crashed, hung, or printed no result."""


# ---------------------------------------------------------------------------
# one repeat


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_repeat(name: str, seed: int, trace: bool, smoke: bool) -> Dict[str, Any]:
    """Run one repeat of ``name`` in a fresh process and return its sample."""
    os.makedirs(os.path.join(SCRATCH, "tmp"), exist_ok=True)
    command = [sys.executable, WORKER, "--workload", name, "--seed", str(seed)]
    if smoke:
        command.append("--smoke")
    trace_dir = None
    if trace:
        trace_dir = tempfile.mkdtemp(prefix="trace-", dir=SCRATCH)
        command += ["--trace-dir", trace_dir]
    env = dict(os.environ, TMPDIR=os.path.join(SCRATCH, "tmp"))
    # A session of its own, so a hung repeat's pool workers, which hold
    # the stdout pipe open too, die with it.
    proc = subprocess.Popen(
        command, cwd=ROOT, env=env, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
    )
    timer = threading.Timer(WORKER_TIMEOUT_S, _kill_group, (proc.pid,))
    timer.start()
    try:
        text = proc.stdout.read().decode(errors="replace")
        # wait4 (not Popen.wait) so the tree's rusage comes back too.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        proc.stdout.close()
        if proc.returncode is None:
            _kill_group(proc.pid)
            proc.wait()
        if trace_dir is not None:
            shutil.rmtree(trace_dir, ignore_errors=True)
    lines = text.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(lines[-20:])
        raise BenchError(
            f"{name}: worker exited with {proc.returncode}\n{tail}"
        )
    try:
        sample = json.loads(lines[-1])
    except ValueError:
        raise BenchError(f"{name}: worker printed no result\n{lines[-1]}")
    sample["cpu_s"] = usage.ru_utime + usage.ru_stime - sample.pop("cpu_pre_s")
    sample["peak_rss_mib"] = usage.ru_maxrss / 1024
    sample["setup_s"] = sample["setup_wall_s"] * REF_TICK_S / sample["setup_tick_s"]
    speed = REF_TICK_S / sample["tick_s"]
    sample["norm_wall_s"] = sample["wall_s"] * speed
    sample["norm_cpu_s"] = sample["cpu_s"] * speed
    sample["norm_work_per_s"] = sample["work"] / sample["norm_wall_s"]
    return sample


# ---------------------------------------------------------------------------
# aggregation


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def e2e_metrics(samples: List[Dict[str, Any]]) -> Dict[str, float]:
    """One ``--seconds`` run's end-to-end metrics: medians over repeats."""
    return {
        metric: statistics.median(s[metric] for s in samples)
        for metric in E2E_UNITS
    }


def _share_base(name: str, sample: Dict[str, Any]) -> float:
    # Layer self times add up across processes, so a workload that fans
    # out is measured against the CPU time of its whole process tree.
    return sample["cpu_s"] if workloads.JOBS[name] > 1 else sample["wall_s"]


def layer_seconds(sample: Dict[str, Any]) -> Dict[str, float]:
    return {layer: entry[1] for layer, entry in sample["layers"].items()}


def per_layer_metrics(
    name: str, traced: List[Dict[str, Any]], untraced: List[Dict[str, Any]]
) -> Dict[str, float]:
    """The ``per_layer`` metrics of ``BENCHMARK.json`` for one workload.

    Counts are exact and taken from the first traced repeat; shares and
    coverage are medians over the traced repeats, and overhead compares
    the median speed-scaled wall time of the traced and untraced ones.
    """
    first = traced[0]
    metrics: Dict[str, float] = {}
    for layer in tracer.LAYERS:
        metrics[f"{layer}.calls"] = first["layers"][layer][0]
        metrics[f"{layer}.share"] = statistics.median(
            s["layers"][layer][1] / _share_base(name, s) for s in traced
        )
    counts = first["counts"]
    output = first["output"]
    for field in ("states", "cache_hits", "sleep_pruned", "reexpansions",
                  "replayed_steps"):
        metrics[f"harness.exhaustive.{field}"] = counts.get(field, 0)
    reference = first["work"] if name.startswith(("explore-", "certify-")) else 0
    metrics["harness.exhaustive.duplicate_work_ratio"] = (
        counts.get("states", 0) / reference if reference else 0.0
    )
    metrics["harness.symmetry.canonicalizations"] = counts.get("canonicalizations", 0)
    metrics["harness.symmetry.orbit_hits"] = counts.get("orbit_hits", 0)
    probes = counts.get("cache_hits", 0) + counts.get("cache_misses", 0)
    metrics["harness.visited.hit_ratio"] = (
        counts.get("cache_hits", 0) / probes if probes else 0.0
    )
    metrics["verify.certify.point.calls"] = len(first["point_seconds"])
    metrics["verify.certify.explorations"] = output.get("explorations", 0)
    metrics["verify.certify.escalations"] = output.get("escalations", 0)
    metrics["harness.sweep.fallback_points"] = sum(
        1 for point in output.get("points", {}).values() if point["fallback"]
    )
    metrics["batch.engine.chunks"] = first["layers"]["batch.plan.build_plan"][0]
    metrics["trace.overhead"] = (
        statistics.median(s["norm_wall_s"] for s in traced)
        / statistics.median(s["norm_wall_s"] for s in untraced) - 1
    )
    metrics["trace.coverage"] = statistics.median(
        sum(layer_seconds(s).values()) / _share_base(name, s) for s in traced
    )
    return metrics


def judge(samples: List[Dict[str, Any]]) -> Tuple[int, int, List[str]]:
    """Sum the gate over repeats.

    A repeat whose output differs from the first one's fails once more:
    traced or not, timing must never reach results.
    """
    attempted = failed = 0
    problems: List[str] = []
    for sample in samples:
        attempted += sample["attempted"]
        failed += sample["failed"]
        problems += sample["problems"]
        if sample["digest"] != samples[0]["digest"]:
            failed += 1
            problems.append("output differs between repeats")
    return attempted, failed, problems


# ---------------------------------------------------------------------------
# provenance


def _git(*args: str) -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(seed: int) -> Dict[str, Any]:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "kernel": platform.release(),
        "python": platform.python_version(),
        "numpy": numpy,
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "seed": seed,
        "jobs": dict(workloads.JOBS),
    }


def provenance_line(stamp: Dict[str, Any]) -> str:
    sha = (stamp["git_sha"] or "unknown")[:12]
    dirty = " (dirty)" if stamp["git_dirty"] else ""
    return (
        f"cpu_count={stamp['cpu_count']} affinity={stamp['affinity']} "
        f"python={stamp['python']} numpy={stamp['numpy']} "
        f"kernel={stamp['kernel']} git={sha}{dirty} seed={stamp['seed']}"
    )


# ---------------------------------------------------------------------------
# --seconds mode: one workload, one JSON line


def timed_run(name: str, seed: int, seconds: int, trace: bool, smoke: bool) -> int:
    start = time.perf_counter()
    untraced: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    need = 1 if trace else MIN_REPEATS
    while True:
        untraced.append(run_repeat(name, seed, False, smoke))
        if trace:
            traced.append(run_repeat(name, seed, True, smoke))
        rounds = len(untraced)
        # Another round only if, at the mean round time so far, it ends
        # within the budget.
        elapsed = time.perf_counter() - start
        if rounds >= need and elapsed * (rounds + 1) / rounds > seconds:
            break
    attempted, failed, problems = judge(untraced + traced)
    if trace:
        values = per_layer_metrics(name, traced, untraced)
        units = per_layer_units()
    else:
        values = e2e_metrics(untraced)
        units = E2E_UNITS
    for problem in sorted(set(problems)):
        print(f"{name}: {problem}", file=sys.stderr)
    print(json.dumps({"provenance": provenance(seed)}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": values[metric], "unit": unit}
            for metric, unit in units.items()
        },
    }))
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# default mode: every workload, interleaved, then one traced repeat each


def full_run(seed: int, smoke: bool, out: Optional[str]) -> int:
    names = WORKLOADS
    stamp = provenance(seed)
    print(provenance_line(stamp))
    samples: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    for rep in range(REPEATS):
        shift = rep % len(names)
        for name in names[shift:] + names[:shift]:
            samples[name].append(run_repeat(name, seed, False, smoke))
        print(f"repeat {rep + 1}/{REPEATS} done", file=sys.stderr)
    traced = {name: [run_repeat(name, seed, True, smoke)] for name in names}

    result: Dict[str, Any] = {
        "format": "repro-e2e/1", "provenance": stamp, "workloads": {},
    }
    failed_any = False
    print(f"\n{'workload':<13} {'metric':<15} {'unit':<6} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'n':>3}")
    for name in names:
        attempted, failed, problems = judge(samples[name] + traced[name])
        failed_any = failed_any or failed > 0
        # The unscaled wall time is shown beside the norm_* metrics.
        units = dict(E2E_UNITS, wall_s="s", error_rate="ratio")
        rows = {metric: [s[metric] for s in samples[name]]
                for metric in units if metric != "error_rate"}
        rows["error_rate"] = [failed / attempted]
        for metric, values in rows.items():
            q1, med, q3 = quartiles(values)
            print(f"{name:<13} {metric:<15} {units[metric]:<6} {med:>12.6g} "
                  f"{q1:>12.6g} {q3:>12.6g} {len(values):>3}")
        for problem in sorted(set(problems)):
            print(f"  FAILED {name}: {problem}")
        point_seconds = traced[name][0]["point_seconds"]
        result["workloads"][name] = {
            "why": workloads.WHY[name],
            "jobs": workloads.JOBS[name],
            "attempted": attempted,
            "failed": failed,
            "error_rate": failed / attempted,
            "problems": sorted(set(problems)),
            "samples": {metric: rows[metric] for metric in units
                        if metric != "error_rate"},
            "per_layer": per_layer_metrics(name, traced[name], samples[name]),
            "layer_self_s": layer_seconds(traced[name][0]),
            "certify_point_p50_s": (
                statistics.median(point_seconds) if point_seconds else None
            ),
            "certify_point_max_s": max(point_seconds, default=None),
        }

    for name in names:
        entry = result["workloads"][name]
        layers = entry["per_layer"]
        base = "cpu_s" if workloads.JOBS[name] > 1 else "wall"
        print(f"\n{name}: traced repeat, share of {base}")
        print(f"  {'layer':<32} {'calls':>9} {'self_s':>10} {'share':>7}")
        ranked = sorted(tracer.LAYERS, key=lambda l: -entry["layer_self_s"][l])
        for layer in ranked:
            if layers[f"{layer}.calls"]:
                print(f"  {layer:<32} {layers[f'{layer}.calls']:>9} "
                      f"{entry['layer_self_s'][layer]:>10.4f} "
                      f"{layers[f'{layer}.share']:>7.3f}")
        if entry["certify_point_p50_s"] is not None:
            print(f"  verify.certify.point p50_s={entry['certify_point_p50_s']:.4f} "
                  f"max_s={entry['certify_point_max_s']:.4f}")
        print("  " + " ".join(
            f"{metric}={layers[metric]:.6g}" for metric in COUNT_UNITS
            if layers[metric]
        ))

    if out:
        with open(out, "w") as handle:
            json.dump(result, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 1 if failed_any else 0


# ---------------------------------------------------------------------------
# --compare


def verdict(
    parent: Sequence[float], change: Sequence[float], bound: float, better: str
) -> Tuple[str, int]:
    """Verdict and pairs won for one metric on one workload.

    ``better`` when the change wins at least 9 of 10 pairs and the
    medians differ by more than the parent's quartile spread; ``worse``
    when the change's median is worse by more than ``bound``; where the
    run-to-run spread exceeds ``bound``, ``unresolved`` unless every
    change run beats (or loses to) every parent run.
    """
    sign = 1 if better == "lower" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    worse_by = sign * (cmed - pmed) / pmed
    spread = max((pq3 - pq1) / pmed, (cq3 - cq1) / cmed)
    if spread > bound:
        if all(sign * (c - p) < 0 for c in change for p in parent):
            return "better", wins
        if worse_by > bound and all(
                sign * (c - p) > 0 for c in change for p in parent):
            return "worse", wins
        return "unresolved", wins
    if worse_by > bound:
        return "worse", wins
    pairs = min(len(parent), len(change))
    if wins >= 0.9 * pairs and abs(cmed - pmed) > pq3 - pq1:
        return "better", wins
    return "unchanged", wins


def load_bounds() -> Dict[str, Dict[str, Any]]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {metric["name"]: metric for metric in spec["end_to_end"]}


def compare(parent_path: str, change_path: str) -> int:
    with open(parent_path) as handle:
        parent = json.load(handle)
    with open(change_path) as handle:
        change = json.load(handle)
    bounds = load_bounds()
    pa, ch = parent["provenance"], change["provenance"]
    print(f"parent: {provenance_line(pa)}\nchange: {provenance_line(ch)}")
    for key in ("cpu_count", "affinity"):
        if pa[key] != ch[key]:
            print(f"WARNING: {key} differs ({pa[key]} vs {ch[key]})")
    if pa["python"].split(".")[:2] != ch["python"].split(".")[:2]:
        print(f"WARNING: Python minor versions differ ({pa['python']} vs {ch['python']})")
    bad = False
    print(f"\n{'workload':<13} {'metric':<15} {'parent q1/med/q3':>30} "
          f"{'change q1/med/q3':>30} {'won':>6}  verdict")
    for name in parent["workloads"]:
        if name not in change["workloads"]:
            print(f"{name:<13} missing from {change_path}")
            bad = True
            continue
        p, c = parent["workloads"][name], change["workloads"][name]
        for metric, info in bounds.items():
            ps, cs = p["samples"][metric], c["samples"][metric]
            result, wins = verdict(ps, cs, info["bound"], info["better"])
            bad = bad or result == "worse"
            print(f"{name:<13} {metric:<15} "
                  f"{'/'.join(f'{v:.4g}' for v in quartiles(ps)):>30} "
                  f"{'/'.join(f'{v:.4g}' for v in quartiles(cs)):>30} "
                  f"{wins:>3}/{min(len(ps), len(cs)):<2}  {result}")
        if c["error_rate"] > p["error_rate"]:
            print(f"{name:<13} error_rate rose: {p['error_rate']} -> {c['error_rate']}")
            bad = True
    return 1 if bad else 0


# ---------------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="the workload to measure (with --seconds)")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int,
                        help="measure one workload for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny instances, for the self-tests")
    parser.add_argument("--out", help="write the full result as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if (args.workload is None) != (args.seconds is None):
        parser.error("--workload and --seconds go together")
    try:
        if args.seconds is not None:
            return timed_run(args.workload, args.seed, args.seconds,
                             bool(args.trace), args.smoke)
        return full_run(args.seed, args.smoke, args.out)
    except BenchError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
