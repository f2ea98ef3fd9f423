"""``repro.staticcheck`` -- determinism & protocol-conformance linter.

A dependency-free AST linter enforcing, at review time, the invariants
the :mod:`repro.verify` layer can only check per-execution:

* **DET** rules -- no wall-clock time, no process-global RNG, no
  order-sensitive picks over unordered collections, no mutable
  class-level state on the deterministic-replay path;
* **PROTO** rules -- decide-once irrevocability, and every protocol's
  claimed ``(k, t, C)`` region declared and cross-checked against the
  paper's claimed-regions table in :mod:`repro.paper`;
* **SM** rules -- non-atomic read-modify-write hazards against the
  SWMR register file;
* **ROB** rules -- no bare ``except:`` or swallowed-and-ignored
  exception handlers in the harness/jobs execution layers (silent
  failure hides exactly the faults the crash-safe supervisor exists
  to surface);
* **FLOW** rules -- whole-program passes over an import-resolved call
  graph (:mod:`repro.staticcheck.callgraph`) with fixpoint taint
  propagation (:mod:`repro.staticcheck.flow`): interprocedural
  nondeterminism reaching decision/message sites with the full
  source-to-sink chain (FLOW001), decide-once proven across helper
  calls (FLOW002), and static conformance of every
  :mod:`repro.jobs` store call site to the
  pending->leased->done/failed lease automaton (FLOW003).

Run it as ``repro staticcheck [paths] [--format text|json|sarif]
[--baseline FILE] [--strict] [--no-flow] [--explain RULE]``;
accepted findings live in a committed baseline file with per-entry
justifications.  The linter lints its own package (``staticcheck`` is
in the DET scope).
"""

from repro.staticcheck.baseline import (
    Baseline,
    BaselineEntry,
    DEFAULT_BASELINE_NAME,
    fingerprint,
    load_baseline,
    save_baseline,
)
from repro.staticcheck.callgraph import Program
from repro.staticcheck.engine import (
    CheckResult,
    FileContext,
    Finding,
    Rule,
    TraceStep,
    all_rules,
    check_paths,
    check_source,
)
from repro.staticcheck.runner import (
    CheckReport,
    UsageError,
    explain,
    render,
    render_text,
    run_check,
    write_baseline,
)
from repro.staticcheck.sarif import render_sarif, to_sarif

__all__ = [
    "Baseline",
    "BaselineEntry",
    "CheckReport",
    "CheckResult",
    "DEFAULT_BASELINE_NAME",
    "FileContext",
    "Finding",
    "Program",
    "Rule",
    "TraceStep",
    "UsageError",
    "all_rules",
    "check_paths",
    "check_program",
    "check_source",
    "explain",
    "fingerprint",
    "load_baseline",
    "render",
    "render_sarif",
    "render_text",
    "run_check",
    "save_baseline",
    "to_sarif",
    "write_baseline",
]


def check_program(paths, root=None, program=None):
    """Run the whole-program FLOW rules; see
    :func:`repro.staticcheck.rules_flow.check_program`."""
    from repro.staticcheck.rules_flow import check_program as impl

    return impl(paths, root=root, program=program)
