"""Per-layer span accounting attached to the repro package from outside.

The benchmark may not edit ``src/``, so layers are measured by wrapping
their entry points where the caller looks them up: a module attribute
(``repro.verify.certify.explore_mp``) or a class attribute
(``MPKernel.step``).  Every wrapper keeps ``functools.wraps`` identity,
so functions that worker pools pickle by name still resolve, and
:meth:`Tracer.restore` puts every original object back.

A span records nothing per call.  Each layer keeps a running call count
and *self* time: the span's duration minus the time spent in nested
wrapped spans.  ``explore-por`` makes close to a million layer calls, so
per-span records would cost more than the work being measured.

Forked workers inherit the wrappers.  A fork hook zeroes the child's
totals, and the child writes them to ``<dump_dir>/<pid>-<fork time>.json``
whenever its outermost span ends.  :meth:`Tracer.merged` then adds every
child's totals to the parent's.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import Counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Layer name -> wrapped entry points as ``(module, attribute path)``.
#: A path ``Class.*probe`` wraps ``probe`` on every class of the module
#: that defines it.
LAYERS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "runtime.kernel.step": (("repro.runtime.kernel", "MPKernel.step"),),
    "runtime.kernel.snapshot": (("repro.runtime.kernel", "MPKernel.snapshot"),),
    "runtime.kernel.restore": (("repro.runtime.kernel", "MPKernel.restore"),),
    "runtime.kernel.run": (("repro.runtime.kernel", "MPKernel.run"),),
    "shm.kernel.step": (("repro.shm.kernel", "SMKernel.step_pid"),),
    "shm.kernel.restore": (("repro.shm.kernel", "SMKernel.restore"),),
    "shm.kernel.run": (("repro.shm.kernel", "SMKernel.run"),),
    "harness.exhaustive.fingerprint": (
        ("repro.harness.exhaustive", "_fingerprint_mp"),
        ("repro.harness.exhaustive", "_fingerprint_sm"),
    ),
    "harness.symmetry.canonical": (
        ("repro.harness.symmetry", "MPSymmetryContext.canonical"),
        ("repro.harness.symmetry", "SMSymmetryContext.canonical"),
    ),
    "harness.visited.probe": (
        ("repro.harness.visited", "*.probe"),
        ("repro.harness.visited", "*.set_covered"),
    ),
    "harness.exhaustive.judge": (("repro.harness.exhaustive", "_judge_leaf"),),
    # explore_mp/explore_sm as both callers see them; the frontier
    # workers carry the DFS bookkeeping inside forked pool processes.
    "harness.exhaustive.explore": (
        ("repro.harness.exhaustive", "explore_mp"),
        ("repro.harness.exhaustive", "explore_sm"),
        ("repro.verify.certify", "explore_mp"),
        ("repro.verify.certify", "explore_sm"),
        ("repro.harness.exhaustive", "_mp_frontier_worker"),
        ("repro.harness.exhaustive", "_sm_frontier_worker"),
    ),
    "harness.parallel.fanout": (("repro.harness.exhaustive", "parallel_map"),),
    "verify.witness.confirm": (("repro.verify.certify", "confirm_exploration"),),
    "harness.sweep.plan": (("repro.harness.sweep", "_sweep_run"),),
    "harness.runner.build": (("repro.harness.sweep", "run_spec"),),
    "core.problem.check": (("repro.core.problem", "SCProblem.check"),),
    "batch.plan.build_plan": (("repro.batch.engine", "build_plan"),),
    "batch.engine.solve": (("repro.batch.engine", "_solve_chunk"),),
    "batch.plan.concat_plans": (("repro.batch.engine", "concat_plans"),),
    "batch.engine.stats": (("repro.batch.engine", "BatchResult.stats"),),
}

#: Layers whose spans mostly wait for forked workers, whose own spans are
#: counted in their processes.  Their self time is the parent's CPU time
#: during the span (forking, pickling, collecting results), so the layer
#: shares of a fanned-out workload add up against the CPU time of its
#: process tree.
CPU_LAYERS = frozenset({"harness.parallel.fanout"})

#: Entry points whose return value is an ExplorationResult of a whole
#: search (frontier workers return parts already merged into these).
_OBSERVED = frozenset({"explore_mp", "explore_sm"})

#: ExplorationResult counters summed over every observed search.
RESULT_COUNTERS = (
    "states", "cache_hits", "cache_misses", "sleep_pruned", "reexpansions",
    "replayed_steps",
)
STATS_COUNTERS = ("canonicalizations", "orbit_hits")


def _targets(module_name: str, path: str) -> Iterator[Tuple[Any, str]]:
    """Resolve ``(owner, attribute)`` pairs for one LAYERS entry."""
    module = importlib.import_module(module_name)
    owner_name, _, attr = path.rpartition(".")
    if owner_name == "*":
        for value in vars(module).values():
            if (isinstance(value, type) and value.__module__ == module_name
                    and attr in vars(value)):
                yield value, attr
    elif owner_name:
        yield getattr(module, owner_name), attr
    else:
        yield module, attr


class Tracer:
    """Wraps the :data:`LAYERS` entry points and totals their spans."""

    def __init__(
        self,
        dump_dir: Optional[str] = None,
        clock: Callable[[], float] = time.perf_counter,
        cpu_clock: Callable[[], float] = time.process_time,
    ) -> None:
        self.clock = clock
        self.cpu_clock = cpu_clock
        self.dump_dir = dump_dir
        #: layer -> [calls, self seconds]
        self.totals: Dict[str, List[float]] = {
            layer: [0, 0.0] for layer in LAYERS
        }
        self.counts: Counter = Counter()
        self._stack: List[float] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self._dump_path: Optional[str] = None

    # -- spans ----------------------------------------------------------

    def wrap(self, layer: str, fn: Callable, observe: bool = False) -> Callable:
        """Return ``fn`` wrapped in a span charged to ``layer``."""
        totals = self.totals[layer]
        stack = self._stack
        clock = self.clock

        if layer in CPU_LAYERS:
            cpu_clock = self.cpu_clock

            @functools.wraps(fn)
            def cpu_span(*args, **kwargs):
                # Nesting stays on the wall clock; only self time is CPU.
                stack.append(0.0)
                start, cpu_start = clock(), cpu_clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    totals[0] += 1
                    totals[1] += cpu_clock() - cpu_start - stack.pop()
                    if stack:
                        stack[-1] += elapsed
                    elif self._dump_path is not None:
                        self._dump()

            return cpu_span

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                totals[0] += 1
                totals[1] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                elif self._dump_path is not None:
                    self._dump()
            if observe:
                self._observe(result)
            return result

        return span

    def _observe(self, result) -> None:
        counts = self.counts
        counts["explorations"] += 1
        for name in RESULT_COUNTERS:
            counts[name] += getattr(result, name)
        for name in STATS_COUNTERS:
            counts[name] += getattr(result.stats, name)

    # -- patching -------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point in :data:`LAYERS`."""
        for layer, entries in LAYERS.items():
            for module_name, path in entries:
                for owner, attr in _targets(module_name, path):
                    original = vars(owner)[attr]
                    observe = (
                        attr in _OBSERVED and not isinstance(owner, type)
                    )
                    setattr(owner, attr, self.wrap(layer, original, observe))
                    self._patches.append((owner, attr, original))
        if self.dump_dir is not None:
            os.register_at_fork(after_in_child=self._after_fork)

    def restore(self) -> None:
        """Put back every original object :meth:`install` replaced."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- forked workers -------------------------------------------------

    def _after_fork(self) -> None:
        # The child continues inside the parent's open spans but never
        # returns through them; it starts its own totals from zero.
        self._stack.clear()
        for entry in self.totals.values():
            entry[0], entry[1] = 0, 0.0
        self.counts.clear()
        self._dump_path = os.path.join(
            self.dump_dir, f"{os.getpid()}-{time.monotonic_ns()}.json"
        )

    def _dump(self) -> None:
        partial = self._dump_path + ".tmp"
        with open(partial, "w") as handle:
            json.dump(self.totals, handle)
        os.replace(partial, self._dump_path)

    def merged(self) -> Dict[str, List[float]]:
        """This process's totals plus every forked child's last dump."""
        merged = {layer: list(entry) for layer, entry in self.totals.items()}
        if self.dump_dir is None:
            return merged
        for name in sorted(os.listdir(self.dump_dir)):
            if not name.endswith(".json"):
                continue
            with open(os.path.join(self.dump_dir, name)) as handle:
                for layer, (calls, seconds) in json.load(handle).items():
                    merged[layer][0] += calls
                    merged[layer][1] += seconds
        return merged
