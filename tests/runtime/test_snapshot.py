"""Snapshot/restore round-trips for both kernels, across the registry.

The exhaustive explorer's fast-fork path is sound only if ``restore()``
reproduces exactly the state an independent fork would have: the same
structural fingerprint at the restore point, and the same behaviour on
every subsequent step.  The message-passing fork is a
``copy.deepcopy``; generator frames cannot be copied, so the
shared-memory fork is a fresh kernel stepping the same choices.  These
tests pin that equivalence for every protocol in the registry, not just
the ones the explorer happens to exercise.

Message-passing snapshots are copy-on-write per process: a snapshot
copies only the processes that ran a handler since their last copy,
and a restore re-installs only the processes whose live state is not
the snapshot's entry.  :class:`TestMPCopyOnWrite` compares restored
kernels with deep copies field by field, dicts in insertion order,
because iteration order decides the order of sends.
"""

import copy
import pickle
import random
import types

import pytest

from repro.harness.exhaustive import (
    _fingerprint_mp,
    _fingerprint_sm,
    _sm_state_ids,
    _state_ids,
    _StateTable,
)
from repro.failures.crash import CrashPlan, CrashPoint
from repro.net.schedulers import RandomScheduler
from repro.protocols.base import all_specs, get_spec
from repro.runtime.events import Delivery, Event, Start
from repro.runtime.kernel import MPKernel
from repro.runtime.process import Process
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
    return _fingerprint_mp(_state_ids(kernel, table), include_counters=True)


def _sm_fp(kernel, table):
    """SM counterpart of :func:`_mp_fp`: ids built from scratch."""
    return _fingerprint_sm(_sm_state_ids(kernel, table))


def _mp_kernel(spec_name, scheduler=None, crash_sends=None):
    """A fresh kernel of the spec's small instance.  ``crash_sends``
    makes p0 crash after that many sends when the instance has t >= 1."""
    spec = get_spec(spec_name)
    n, k, t = _instance(spec)
    plan = None
    if crash_sends is not None and t >= 1:
        plan = CrashPlan({0: CrashPoint(after_sends=crash_sends)})
    return MPKernel(
        [spec.make(n, k, t) for _ in range(n)],
        _inputs(n),
        t=t,
        scheduler=scheduler,
        crash_adversary=plan,
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


def _plain(value):
    """A comparable image of ``value``: dicts as item lists in insertion
    order, objects as their ``__dict__``, bound methods as their
    function (whose binding :func:`_assert_bound_to_owner` checks)."""
    cls = value.__class__
    if cls is dict:
        return ("dict", [(key, _plain(item)) for key, item in value.items()])
    if cls in (list, tuple):
        return (cls.__name__, [_plain(item) for item in value])
    if cls in (set, frozenset):
        return (cls.__name__, frozenset(value))
    if isinstance(value, types.MethodType):
        return ("method", value.__func__)
    if hasattr(value, "__dict__") and not callable(value):
        return (cls.__name__, _plain(vars(value)))
    return value


def _image(kernel):
    """Everything a restore must reproduce, kernel and processes."""
    return (
        kernel.tick,
        kernel._seq,
        list(kernel._pending.items()),
        kernel._crashed,
        kernel._halted_at_send,
        kernel._steps_taken,
        kernel._sends_made,
        [_plain(process) for process in kernel._processes],
        [(ctx._decided, _plain(ctx._decision)) for ctx in kernel._contexts],
        kernel.all_correct_decided(),
    )


def _assert_bound_to_owner(kernel):
    """PROTOCOL C's l-echo engine calls back into the process that owns
    it; a restore must never hand it another process's callback."""
    for process in kernel._processes:
        engine = getattr(process, "_engine", None)
        if engine is not None:
            assert engine._on_accept.__self__ is process


def _undecided(kernel):
    return kernel._pending and not kernel.all_correct_decided()


class TestMPCopyOnWrite:
    """Restores against deep copies taken at snapshot time."""

    @pytest.mark.parametrize("spec_name", MP_SPECS)
    def test_random_step_snapshot_restore_run(self, spec_name):
        rng = random.Random(f"cow {spec_name}")
        for trial in range(6):
            kernel = _mp_kernel(
                spec_name, RandomScheduler(trial),
                crash_sends=trial % 3 if trial % 2 else None,
            )
            taken = []  # (snapshot, deep copy at that snapshot)
            for _ in range(40):
                op = rng.random()
                if op < 0.5:
                    if _undecided(kernel):
                        kernel.step(rng.choice(sorted(kernel._pending)))
                elif op < 0.7:
                    taken.append((kernel.snapshot(), copy.deepcopy(kernel)))
                elif op < 0.9:
                    if taken:
                        snap, fork = rng.choice(taken)
                        kernel.restore(snap)
                        assert _image(kernel) == _image(fork)
                        _assert_bound_to_owner(kernel)
                elif _undecided(kernel):
                    kernel.run()

    @pytest.mark.parametrize("spec_name", MP_SPECS)
    def test_restore_after_run(self, spec_name):
        """``run()`` executes handlers without ``step()``: the processes
        it ran must be re-installed too."""
        kernel = _mp_kernel(spec_name, RandomScheduler(0))
        kernel.step(min(kernel._pending))
        snap, fork = kernel.snapshot(), copy.deepcopy(kernel)
        kernel.run()
        kernel.restore(snap)
        assert _image(kernel) == _image(fork)
        _assert_bound_to_owner(kernel)
        assert kernel.snapshot() == snap

    def test_copies_and_installs_only_processes_that_ran(self, monkeypatch):
        installed = []
        restore_state = Process.restore_state

        def counting(process, state):
            installed.append(process)
            restore_state(process, state)

        monkeypatch.setattr(Process, "restore_state", counting)
        kernel = _mp_kernel("protocol-a@mp-cr")
        first = kernel.snapshot()
        seq = min(kernel._pending)
        target = kernel._pending[seq].pid
        kernel.step(seq)
        second = kernel.snapshot()
        assert [a is b for a, b in zip(first.processes, second.processes)] \
            == [pid != target for pid in range(kernel.n)]
        kernel.restore(first)
        assert installed == [kernel._processes[target]]
        kernel.restore(second)
        kernel.restore(second)
        assert installed == [kernel._processes[target]] * 2
        # Kernels that never saw the entries re-install everyone.
        for other in (
            _mp_kernel("protocol-a@mp-cr"),
            copy.deepcopy(kernel),
            pickle.loads(pickle.dumps(kernel)),
        ):
            del installed[:]
            other.restore(first)
            assert installed == other._processes

    @pytest.mark.parametrize("spec_name", MP_SPECS)
    def test_pickled_snapshots_sharing_an_entry(self, spec_name):
        kernel = _mp_kernel(spec_name)
        kernel.step(min(kernel._pending))
        first, first_fork = kernel.snapshot(), copy.deepcopy(kernel)
        kernel.step(min(kernel._pending))
        second, second_fork = kernel.snapshot(), copy.deepcopy(kernel)
        assert any(
            a is b for a, b in zip(first.processes, second.processes)
        )
        for snap, fork in ((first, first_fork), (second, second_fork)):
            fresh = _mp_kernel(spec_name)
            fresh.restore(pickle.loads(pickle.dumps(snap)))
            assert _image(fresh) == _image(fork)
            _assert_bound_to_owner(fresh)
        # Pickled together, the pair keeps its shared entry.
        first, second = pickle.loads(pickle.dumps((first, second)))
        assert any(
            a is b for a, b in zip(first.processes, second.processes)
        )
        fresh = _mp_kernel(spec_name)
        fresh.restore(first)
        assert _image(fresh) == _image(first_fork)
        fresh.restore(second)
        assert _image(fresh) == _image(second_fork)
        _assert_bound_to_owner(fresh)


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


def _sm_view(kernel, table):
    """The fingerprint, the runnable list and the stop test."""
    return (
        _sm_fp(kernel, table),
        kernel.runnable_pids(),
        kernel.all_correct_decided(),
    )


def _sm_lockstep(kernel, fork, table):
    """Equal views now and after every step of a common schedule.

    Bounded: a fixed schedule may starve a looping program, so this
    compares a window, not a complete run.
    """
    assert _sm_view(kernel, table) == _sm_view(fork, table)
    for _ in range(40):
        if not kernel.runnable_pids() or kernel.all_correct_decided():
            break
        pid = min(kernel.runnable_pids())
        kernel.step_pid(pid)
        fork.step_pid(pid)
        assert _sm_view(kernel, table) == _sm_view(fork, table)
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
