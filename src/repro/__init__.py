"""repro -- reproduction of "On k-Set Consensus Problems in Asynchronous
Systems" (De Prisco, Malkhi, Reiter; PODC 1999 / IEEE TPDS 2001).

The library provides, from scratch:

* the problem family ``SC(k, t, C)`` with the paper's six validity
  conditions and their Fig. 1 lattice (:mod:`repro.core`);
* the complete solvability characterization -- every possibility and
  impossibility lemma as an executable region, with the paper's
  carrying rules (:func:`repro.core.solvability.classify`);
* all seven protocols (Chaudhuri's flood-min, PROTOCOLs A, B, C(l), D,
  E, F), the l-echo broadcast, and the MP->SM SIMULATION transform
  (:mod:`repro.protocols`);
* deterministic discrete-event substrates for asynchronous message
  passing and shared memory with crash/Byzantine fault injection
  (:mod:`repro.runtime`, :mod:`repro.net`, :mod:`repro.shm`,
  :mod:`repro.failures`);
* executable versions of the impossibility proofs' adversarial runs
  (:mod:`repro.adversary`) and figure/report generators
  (:mod:`repro.analysis`, :mod:`repro.harness`);
* a conformance oracle layer with counterexample shrinking, replayable
  witness files, and differential kernel testing (:mod:`repro.verify`).

Quickstart::

    from repro import classify, Model, RV1, run_spec, get_spec

    print(classify(Model.MP_CR, RV1, n=64, k=5, t=4))   # possible [Lemma 3.1]
    spec = get_spec("chaudhuri@mp-cr")
    report = run_spec(spec, n=7, k=3, t=2, inputs=list("abcdefg"))
    assert report.ok
"""

from repro.core.problem import Outcome, SCProblem, Verdict
from repro.core.bounds import Thresholds, threshold
from repro.core.regions import RegionMap, frontier, region_map, separation_points
from repro.core.solvability import (
    Classification,
    Solvability,
    classify,
    z_function,
)
from repro.core.validity import (
    ALL_VALIDITY_CONDITIONS,
    RV1,
    RV2,
    SV1,
    SV2,
    WV1,
    WV2,
    ValidityCondition,
    by_code,
)
from repro.core.values import DEFAULT, EMPTY
from repro.harness.parallel import derive_seed, parallel_map
from repro.harness.runner import ExperimentReport, run_mp, run_sm, run_spec
from repro.harness.sweep import SweepConfig, SweepStats, sweep_spec
from repro.models import ALL_MODELS, Model
from repro.runtime.traces import TraceMode
from repro.protocols import all_specs, get_spec, recommend, solve
from repro.verify.oracles import Violation, check_execution

__version__ = "1.0.0"

__all__ = [
    "ALL_MODELS",
    "ALL_VALIDITY_CONDITIONS",
    "Classification",
    "DEFAULT",
    "EMPTY",
    "ExperimentReport",
    "Model",
    "Outcome",
    "RV1",
    "RV2",
    "RegionMap",
    "SCProblem",
    "SV1",
    "SV2",
    "Solvability",
    "SweepConfig",
    "SweepStats",
    "TraceMode",
    "ValidityCondition",
    "Verdict",
    "Violation",
    "check_execution",
    "WV1",
    "WV2",
    "all_specs",
    "by_code",
    "classify",
    "derive_seed",
    "parallel_map",
    "frontier",
    "separation_points",
    "threshold",
    "Thresholds",
    "get_spec",
    "recommend",
    "region_map",
    "run_mp",
    "run_sm",
    "run_spec",
    "solve",
    "sweep_spec",
    "z_function",
    "__version__",
]
