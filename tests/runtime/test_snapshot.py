"""Snapshot/restore round-trips for both kernels, across the registry.

The exhaustive explorer's fast-fork path is sound only if ``restore()``
reproduces exactly the state a ``copy.deepcopy`` fork would have: the
same structural fingerprint at the restore point, and the same
behaviour on every subsequent step.  These tests pin that equivalence
for every protocol in the registry, not just the ones the explorer
happens to exercise.
"""

import copy

import pytest

from repro.harness.exhaustive import (
    _fingerprint_mp,
    _fingerprint_sm,
    _state_ids,
    _StateTable,
)
from repro.protocols.base import all_specs, get_spec
from repro.runtime.events import Delivery, Event, Start
from repro.runtime.kernel import MPKernel
from repro.runtime.traces import TraceMode
from repro.shm.kernel import SMKernel

MP_SPECS = sorted(s.name for s in all_specs() if not s.is_shared_memory)
SM_SPECS = sorted(s.name for s in all_specs() if s.is_shared_memory)


def _instance(spec):
    """A small (n, k, t) point the spec's factory accepts."""
    for n in range(3, 8):
        for t in range(n):
            for k in range(1, n + 1):
                if not spec.solvable(n, k, t):
                    continue
                try:
                    spec.make(n, k, t)
                except ValueError:
                    continue
                return n, k, t
    raise RuntimeError(f"no small instance for {spec.name}")


def _inputs(n):
    return ["a", "b"] * (n // 2) + ["a"] * (n % 2)


def _mp_fp(kernel, table):
    """Fingerprint built from scratch; one table per comparison, so equal
    ids mean structurally equal states."""
    return _fingerprint_mp(
        kernel, _state_ids(kernel, table), include_counters=True
    )


def _mp_kernel(spec_name):
    spec = get_spec(spec_name)
    n, k, t = _instance(spec)
    return MPKernel(
        [spec.make(n, k, t) for _ in range(n)],
        _inputs(n),
        t=t,
        scheduler=None,
        stop_when_decided=True,
        trace_mode=TraceMode.OFF,
    )


def _sm_kernel(spec_name):
    spec = get_spec(spec_name)
    n, k, t = _instance(spec)
    return SMKernel(
        [spec.make(n, k, t)] * n,
        _inputs(n),
        t=t,
        scheduler=None,
        stop_when_decided=True,
        trace_mode=TraceMode.OFF,
    )


class TestMPSnapshotRoundTrip:
    @pytest.mark.parametrize("spec_name", MP_SPECS)
    def test_restore_equals_deepcopy_fork(self, spec_name):
        kernel = _mp_kernel(spec_name)
        # walk a deterministic prefix into the run
        for _ in range(4):
            if not kernel._pending:
                break
            kernel.step(min(kernel._pending))

        snap = kernel.snapshot()
        fork = copy.deepcopy(kernel)

        # diverge the live kernel, then rewind
        for _ in range(5):
            if not kernel._pending:
                break
            kernel.step(max(kernel._pending))
        kernel.restore(snap)

        table = _StateTable()
        assert _mp_fp(kernel, table) == _mp_fp(fork, table)

        # the restored kernel and the deepcopy fork must now agree
        # step-for-step on any common schedule
        for _ in range(60):
            if not kernel._pending or kernel.all_correct_decided():
                break
            seq = min(kernel._pending)
            kernel.step(seq)
            fork.step(seq)
            assert _mp_fp(kernel, table) == _mp_fp(fork, table)

    @pytest.mark.parametrize("spec_name", MP_SPECS)
    def test_snapshot_survives_live_mutation(self, spec_name):
        """A snapshot is a value, not a view of the live kernel."""
        kernel = _mp_kernel(spec_name)
        kernel.step(min(kernel._pending))
        snap = kernel.snapshot()
        table = _StateTable()
        before = _mp_fp(kernel, table)
        for _ in range(6):
            if not kernel._pending:
                break
            kernel.step(min(kernel._pending))
        kernel.restore(snap)
        assert _mp_fp(kernel, table) == before
        kernel.restore(snap)  # restoring twice is idempotent
        assert _mp_fp(kernel, table) == before


class TestSMSnapshotRoundTrip:
    """Generator frames cannot be deepcopied -- that impossibility is
    why SM snapshots are replay-based.  The fork reference here is a
    *fresh kernel replaying the same choice prefix*, which is exactly
    what a deepcopy fork would have produced if one existed."""

    @pytest.mark.parametrize("spec_name", SM_SPECS)
    def test_replay_restore_equals_fresh_replay(self, spec_name):
        kernel = _sm_kernel(spec_name)
        kernel._apply_dynamic_crashes()
        for _ in range(4):
            runnable = kernel.runnable_pids()
            if not runnable:
                break
            kernel.step_pid(min(runnable))

        snap = kernel.snapshot()
        fork = _sm_kernel(spec_name)
        fork.restore(snap)  # fresh kernel, same prefix

        for _ in range(5):
            runnable = kernel.runnable_pids()
            if not runnable:
                break
            kernel.step_pid(max(runnable))
        kernel.restore(snap)

        assert _fingerprint_sm(kernel) == _fingerprint_sm(fork)

        # bounded lockstep: a fixed schedule may starve a looping
        # program, so this compares a window, not a complete run
        for _ in range(40):
            if not kernel.runnable_pids() or kernel.all_correct_decided():
                break
            pid = min(kernel.runnable_pids())
            kernel.step_pid(pid)
            fork.step_pid(pid)
            assert _fingerprint_sm(kernel) == _fingerprint_sm(fork)

    def test_snapshot_is_choice_prefix(self):
        """SM snapshots record the schedule, not copied generator frames."""
        kernel = _sm_kernel("trivial@sm-cr")
        kernel._apply_dynamic_crashes()
        kernel.step_pid(0)
        kernel.step_pid(1)
        snap = kernel.snapshot()
        assert snap.choices == (0, 1)


class TestEventSlots:
    """Satellite guard: events stay ``__slots__``-backed plain data."""

    def test_no_instance_dict(self):
        event = Delivery(seq=0, sender=0, receiver=1, payload=("VAL", "a"))
        assert not hasattr(event, "__dict__")
        with pytest.raises(AttributeError):
            object.__setattr__(event, "not_a_field", 1)

    def test_all_event_classes_are_slotted(self):
        for cls in (Event, Start, Delivery):
            assert "__slots__" in vars(cls), cls.__name__
