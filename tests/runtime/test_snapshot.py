"""Snapshot/restore round-trips for both kernels, across the registry.

The exhaustive explorer's fast-fork path is sound only if ``restore()``
reproduces exactly the state an independent fork would have: the same
structural fingerprint at the restore point, and the same behaviour on
every subsequent step.  The message-passing fork is a
``copy.deepcopy``; generator frames cannot be copied, so the
shared-memory fork is a fresh kernel stepping the same choices.  These
tests pin that equivalence for every protocol in the registry, not just
the ones the explorer happens to exercise.
"""

import copy
import pickle

import pytest

from repro.harness.exhaustive import (
    _fingerprint_mp,
    _fingerprint_sm,
    _sm_state_ids,
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


def _sm_fp(kernel, table):
    """SM counterpart of :func:`_mp_fp`: ids built from scratch."""
    return _fingerprint_sm(kernel, _sm_state_ids(kernel, table))


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


def _sm_walk(kernel, pick, steps):
    """Step ``pick(runnable pids)`` up to ``steps`` times."""
    for _ in range(steps):
        runnable = kernel.runnable_pids()
        if not runnable:
            break
        kernel.step_pid(pick(runnable))


def _sm_fork(spec_name, choices):
    """The independent reference: a fresh kernel stepping ``choices``
    with ``step_pid``, never ``restore``."""
    fork = _sm_kernel(spec_name)
    fork._apply_dynamic_crashes()
    for pid in choices:
        fork.step_pid(pid)
    return fork


def _sm_lockstep(kernel, fork, table):
    """Equal fingerprints now and after every step of a common schedule.

    Bounded: a fixed schedule may starve a looping program, so this
    compares a window, not a complete run.
    """
    assert _sm_fp(kernel, table) == _sm_fp(fork, table)
    for _ in range(40):
        if not kernel.runnable_pids() or kernel.all_correct_decided():
            break
        pid = min(kernel.runnable_pids())
        kernel.step_pid(pid)
        fork.step_pid(pid)
        assert _sm_fp(kernel, table) == _sm_fp(fork, table)
    assert kernel.choices == fork.choices


class TestSMSnapshotRoundTrip:
    """Generator frames cannot be deepcopied, so an SM snapshot holds
    the results logs and ``restore`` re-feeds rebuilt generators.  The
    fork reference here is a *fresh kernel stepping the same choice
    prefix* with ``step_pid``, which is exactly what a deepcopy fork
    would have produced if one existed."""

    @pytest.mark.parametrize("spec_name", SM_SPECS)
    def test_replay_restore_equals_fresh_replay(self, spec_name):
        """Restore after the live kernel ran a different branch."""
        kernel = _sm_kernel(spec_name)
        kernel._apply_dynamic_crashes()
        _sm_walk(kernel, min, 4)
        snap = kernel.snapshot()
        fork = _sm_fork(spec_name, snap.choices)

        _sm_walk(kernel, max, 5)  # diverge, then rewind
        kernel.restore(snap)
        _sm_lockstep(kernel, fork, _StateTable())

    @pytest.mark.parametrize("spec_name", SM_SPECS)
    def test_restore_into_fresh_kernel(self, spec_name):
        """A frontier root: the snapshot of one kernel restored into
        another that never ran."""
        kernel = _sm_kernel(spec_name)
        kernel._apply_dynamic_crashes()
        _sm_walk(kernel, max, 5)
        snap = pickle.loads(pickle.dumps(kernel.snapshot()))
        fresh = _sm_kernel(spec_name)
        fresh.restore(snap)
        _sm_lockstep(fresh, _sm_fork(spec_name, snap.choices), _StateTable())

    @pytest.mark.parametrize("spec_name", SM_SPECS)
    def test_restore_twice(self, spec_name):
        """Restoring is idempotent, and a snapshot is a value, not a
        view of the live kernel."""
        kernel = _sm_kernel(spec_name)
        kernel._apply_dynamic_crashes()
        _sm_walk(kernel, min, 3)
        snap = kernel.snapshot()
        table = _StateTable()
        before = _sm_fp(kernel, table)
        _sm_walk(kernel, max, 6)
        kernel.restore(snap)
        kernel.restore(snap)
        assert _sm_fp(kernel, table) == before
        assert kernel.snapshot() == snap
        _sm_lockstep(kernel, _sm_fork(spec_name, snap.choices), table)

    def test_restore_refeeds_only_changed_logs(self):
        """Only a process whose log differs from the snapshot's -- here
        equally long but with other results -- loses its generator, and
        it is re-fed its whole log when it next steps."""
        spec = get_spec("protocol-e@sm-cr")

        def kernel_after(choices):
            kernel = SMKernel(
                [spec.make(3, 2, 0)] * 3, ["a", "b", "c"], t=0,
                scheduler=None, trace_mode=TraceMode.OFF,
            )
            for pid in choices:
                kernel.step_pid(pid)
            return kernel

        # Both branches: p2 writes; p0 scans owners 0 and 1, p1 owner 0.
        # Only the order of the p0/p1 operations differs, so p0 reads
        # owner 1 empty in one branch and "b" in the other.
        snap = kernel_after((2, 0, 0, 0, 1, 1)).snapshot()
        kernel = kernel_after((2, 1, 1, 0, 0, 0))
        live = [state.generator for state in kernel._states]
        kernel.restore(snap)
        kept = [
            state.generator is generator
            for state, generator in zip(kernel._states, live)
        ]
        assert kept == [False, False, True]
        assert kernel.refed_results == 0

        kernel.step_pid(2)
        assert kernel.refed_results == 0
        kernel.step_pid(0)
        assert kernel.refed_results == 3
        kernel.step_pid(1)
        assert kernel.refed_results == 5
        _sm_lockstep(kernel, kernel_after(kernel.choices), _StateTable())

    def test_snapshot_is_choice_prefix(self):
        """SM snapshots record the schedule and the results logs, not
        copied generator frames; they are plain, picklable data."""
        kernel = _sm_kernel("trivial@sm-cr")
        kernel._apply_dynamic_crashes()
        kernel.step_pid(0)
        kernel.step_pid(1)
        snap = kernel.snapshot()
        assert snap.choices == (0, 1)
        assert [log for log, *_ in snap.processes] == [(None,), (None,), ()]
        assert pickle.loads(pickle.dumps(snap)) == snap


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
