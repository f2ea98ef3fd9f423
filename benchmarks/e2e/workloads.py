"""The five end-to-end workloads and the gate that checks their outputs.

Each workload is a fixed job run through public entry points only
(``explore_mp``, ``certify_claims``, ``sweep_spec``, ``SpecFactory``).
:func:`prepare` does the imports and construction (timed as set-up) and
returns the job; the job returns a plain-data result, and :func:`check`
compares it with the pinned expectations in ``expected.json``.

The explore and certify jobs are deterministic exhaustive searches and
ignore the seed.  The sweeps draw their runs from
``derive_seed(seed, spec, n, k, t)``; their decision histograms are
pinned at :data:`DEFAULT_SEED` only.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Callable, Dict, List, Tuple

DEFAULT_SEED = 0

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")

#: Why each workload is in the benchmark (printed by ``run.py``).
WHY = {
    "explore-por": "one long POR search: per-state fingerprint, DFS, "
                   "kernel snapshot/restore and store costs dominate",
    "explore-sym": "the same search with symmetry on: canonicalization "
                   "dominates and fingerprinting is never called",
    "certify-grid": "what users run to check the claims: many short "
                    "searches on both kernels over the --jobs 2 fan-out",
    "sweep-scalar": "Byzantine points the batch engine refuses: scalar "
                    "kernel runs dominate",
    "sweep-batch": "crash points on the vectorized batch engine: plan "
                   "building and closed-form solving dominate",
}

#: Worker processes each workload asks for (recorded in provenance).
JOBS = {
    "explore-por": 1, "explore-sym": 1, "certify-grid": 2,
    "sweep-scalar": 1, "sweep-batch": 1,
}

# Instance sizes.  "smoke" sizes finish in well under a second and
# exist for the self-tests.
_EXPLORE = {
    # Process 3 (input w) crashes before its first step, so the three
    # live processes are interchangeable and symmetry finds group 6.
    "full": dict(spec="protocol-a@mp-cr", n=4, k=2, t=1,
                 inputs=["v", "v", "v", "w"], crashed=[3]),
    "smoke": dict(spec="protocol-a@mp-cr", n=3, k=2, t=0,
                  inputs=["v", "v", "w"], crashed=[]),
}
#: ``certify_claims`` calls, one per sub-grid.  At n=3 the full
#: protocol-e grid takes ~22 s at jobs=2, so the benchmark keeps one
#: skipped, one solvable and one counterexample point of it.
_CERTIFY = {
    "full": [dict(n=3, specs=["protocol-b@mp-cr"]),
             dict(n=3, specs=["protocol-e@sm-cr"], ks=[1, 2], ts=[0]),
             dict(n=3, specs=["protocol-e@sm-cr"], ks=[1], ts=[1])],
    "smoke": [dict(n=2, specs=["protocol-b@mp-cr", "protocol-e@sm-cr"])],
}
#: (spec, n, k, t, runs): Byzantine and shared-memory points, which
#: ``engine="auto"`` runs on the scalar kernels.
_SWEEP_SCALAR = {
    "full": [("protocol-c@mp-byz", 8, 2, 1, 250),
             ("protocol-d@mp-byz", 8, 3, 1, 500),
             ("protocol-f@sm-byz", 6, 3, 1, 1200)],
    "smoke": [("protocol-c@mp-byz", 8, 2, 1, 10),
              ("protocol-d@mp-byz", 8, 3, 1, 20),
              ("protocol-f@sm-byz", 6, 3, 1, 40)],
}
_BATCH_SPECS = ("protocol-a@mp-cr", "protocol-a-wv2@mp-cr",
                "protocol-b@mp-cr", "chaudhuri@mp-cr")
#: Runs per batch point.  At n=24 a chunk holds 6,944 runs, so 8,000
#: runs take two chunks and exercise ``concat_plans``.
_BATCH_RUNS = {"full": 8000, "smoke": 200}


def _size(smoke: bool) -> str:
    return "smoke" if smoke else "full"


def load_expected(smoke: bool) -> Dict[str, Any]:
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)[_size(smoke)]


def _point_key(spec: str, n: int, k: int, t: int) -> str:
    return f"{spec} n={n} k={k} t={t}"


# ---------------------------------------------------------------------------
# jobs


def _prepare_explore(symmetry: bool, smoke: bool) -> Callable:
    import repro.harness.symmetry  # noqa: F401 -- imported lazily by the explorer
    import repro.protocols  # noqa: F401 -- populates the registry
    from repro.core.validity import by_code
    from repro.failures.crash import CrashPlan, CrashPoint
    from repro.harness import exhaustive
    from repro.protocols.base import get_spec

    size = _EXPLORE[_size(smoke)]
    spec = get_spec(size["spec"])
    n, k, t = size["n"], size["k"], size["t"]
    factory = exhaustive.SpecFactory(spec.name, n, k, t)
    validity = by_code(spec.validity)
    plan = None
    if size["crashed"]:
        plan = CrashPlan({
            pid: CrashPoint(after_steps=0) for pid in size["crashed"]
        })

    def job() -> Dict[str, Any]:
        result = exhaustive.explore_mp(
            factory, size["inputs"], k, t, validity,
            crash_adversary=plan, por=True, symmetry=symmetry,
            visited="exact",
        )
        return {
            "exhausted": result.exhausted,
            "violations": len(result.violations),
            "states": result.states,
            "decision_sets": sorted(
                sorted(map(repr, decided)) for decided in result.decision_sets
            ),
        }

    return job


def _prepare_certify(smoke: bool) -> Callable:
    import repro.protocols  # noqa: F401 -- populates the registry
    from repro.verify import certify

    grids = _CERTIFY[_size(smoke)]

    def job() -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "verdicts": {}, "states": 0, "explorations": 0, "escalations": 0,
            # Timing, not a result: kept out of the output digest.
            "point_seconds": [],
        }
        for grid in grids:
            marks = [time.perf_counter()]
            report = certify.certify_claims(
                **grid, jobs=JOBS["certify-grid"],
                progress=lambda message: marks.append(time.perf_counter()),
            )
            for claim in report.claims:
                for point in claim.points:
                    key = _point_key(claim.spec_name, grid["n"], point.k, point.t)
                    out["verdicts"][key] = point.verdict
                    out["explorations"] += point.explorations
                    out["escalations"] += point.escalated
            out["states"] += report.total_states
            out["point_seconds"] += [b - a for a, b in zip(marks, marks[1:])]
        return out

    return job


def _sweep_points(name: str, smoke: bool) -> List[Tuple[str, int, int, int, int]]:
    if name == "sweep-scalar":
        return list(_SWEEP_SCALAR[_size(smoke)])
    import repro.protocols  # noqa: F401 -- populates the registry
    from repro.protocols.base import get_spec

    points = []
    for spec_name in _BATCH_SPECS:
        spec = get_spec(spec_name)
        for n in (16, 24):
            k = n // 2
            t = max(t for t in range(n) if spec.solvable(n, k, t))
            points.append((spec_name, n, k, t, _BATCH_RUNS[_size(smoke)]))
    return points


def _prepare_sweep(name: str, seed: int, smoke: bool) -> Callable:
    import repro.batch  # noqa: F401 -- numpy; imported lazily by engine="auto"
    import repro.protocols  # noqa: F401 -- populates the registry
    from repro.harness import sweep
    from repro.harness.parallel import derive_seed
    from repro.protocols.base import get_spec

    points = [
        (get_spec(spec_name), n, k, t,
         sweep.SweepConfig(runs=runs, seed=derive_seed(seed, spec_name, n, k, t)))
        for spec_name, n, k, t, runs in _sweep_points(name, smoke)
    ]

    def job() -> Dict[str, Any]:
        out = {}
        for spec, n, k, t, config in points:
            stats = sweep.sweep_spec(spec, n, k, t, config, engine="auto")
            decided = sum(stats.decisions_histogram.values())
            out[_point_key(spec.name, n, k, t)] = {
                "runs": stats.runs,
                "engine": stats.engine,
                "fallback": stats.fallback_reason,
                "violations": len(stats.violations),
                "tick_hits": stats.runs - decided,
                "histogram": {
                    str(d): c for d, c in sorted(stats.decisions_histogram.items())
                },
            }
        return {"points": out}

    return job


def prepare(name: str, seed: int, smoke: bool = False) -> Callable[[], Dict[str, Any]]:
    """Import and construct everything ``name`` needs; return its job."""
    if name == "explore-por":
        return _prepare_explore(False, smoke)
    if name == "explore-sym":
        return _prepare_explore(True, smoke)
    if name == "certify-grid":
        return _prepare_certify(smoke)
    if name in ("sweep-scalar", "sweep-batch"):
        return _prepare_sweep(name, seed, smoke)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# the gate


def reference_work(name: str, expected: Dict[str, Any]) -> int:
    """The fixed work ``norm_work_per_s`` divides by the scaled wall time.

    Searches count the pinned *serial* state count, so states expanded
    twice by a parallel mode count as lost rate; sweeps count runs.
    """
    pinned = expected[name]
    if name.startswith("sweep-"):
        return sum(p["runs"] for p in pinned["points"].values())
    return pinned["reference_states"]


def check(
    name: str, output: Dict[str, Any], expected: Dict[str, Any], seed: int
) -> Tuple[int, int, List[str]]:
    """Judge one job's output: ``(attempted, failed, problems)``.

    An operation is one exploration, one certify point, or one sweep
    run; it fails if it disagrees with its pinned expectation.
    """
    pinned = expected[name]
    problems: List[str] = []
    if name.startswith("explore-"):
        if not output["exhausted"]:
            problems.append("search did not exhaust")
        if output["violations"]:
            problems.append(f"{output['violations']} violations")
        if output["states"] > pinned["reference_states"]:
            problems.append(
                f"{output['states']} states > pinned "
                f"{pinned['reference_states']}"
            )
        if output["decision_sets"] != pinned["decision_sets"]:
            problems.append(f"decision sets {output['decision_sets']}")
        return 1, int(bool(problems)), problems
    if name == "certify-grid":
        want, got = pinned["verdicts"], output["verdicts"]
        for key in sorted(set(want) | set(got)):
            if want.get(key) != got.get(key):
                problems.append(f"{key}: {got.get(key)} != {want.get(key)}")
        return len(want), len(problems), problems
    failed = 0
    attempted = 0
    for key, point in sorted(pinned["points"].items()):
        got = output["points"].get(key)
        attempted += point["runs"]
        if got is None:
            problems.append(f"{key}: missing")
            failed += point["runs"]
            continue
        wrong = [
            field for field in ("runs", "engine", "fallback")
            if got[field] != point[field]
        ]
        if seed == DEFAULT_SEED and got["histogram"] != point["histogram"]:
            wrong.append("histogram")
        if wrong:
            problems.append(f"{key}: {', '.join(wrong)} differ")
            failed += point["runs"]
        elif got["violations"] or got["tick_hits"]:
            problems.append(
                f"{key}: {got['violations']} violations, "
                f"{got['tick_hits']} tick-budget hits"
            )
            failed += got["violations"]
    return attempted, failed, problems
