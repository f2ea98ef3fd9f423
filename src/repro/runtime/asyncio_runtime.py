"""asyncio-backed runtime: the message-passing model over real tasks.

The deterministic kernel (:mod:`repro.runtime.kernel`) is the primary
substrate -- it makes runs reproducible and lets adversaries control
asynchrony exactly.  This module provides the complementary *concurrent*
backend: each process is an ``asyncio`` task, each channel an
``asyncio.Queue``, and delays come from a seeded random jitter, i.e.
asynchrony arises from genuine interleaving rather than an explicit
scheduler.  The same :class:`~repro.runtime.process.Process` objects run
unchanged on both backends; tests cross-check that decisions satisfy the
same conditions.

Failures follow the same fault model as the deterministic kernels
(:class:`~repro.runtime.kernel.KernelBase`): the failure budget is
enforced, a :class:`~repro.failures.adversary.CrashAdversary` halts
processes before a step, at a send or dynamically, and Byzantine
behaviour is a misbehaving process object at a faulty index.  As in
:class:`~repro.runtime.kernel.MPKernel`, one tick is one executed start
or delivery.
"""

from __future__ import annotations

import asyncio
import random
from typing import Any, List, Optional, Sequence

from repro.core.values import Value
from repro.failures.adversary import CrashAdversary
from repro.runtime.kernel import ExecutionResult, KernelBase, _KernelContext
from repro.runtime.process import Process

__all__ = ["AsyncMPRuntime", "run_async"]


class AsyncMPRuntime(KernelBase):
    """Run a message-passing protocol over asyncio tasks and queues.

    Args:
        processes: one process object per id; misbehaving objects at
            indices listed in ``byzantine`` model Byzantine failures.
        inputs: nominal input per process.
        t: failure budget; like the deterministic kernels, the runtime
            refuses Byzantine ids and crash victims that exceed it.
        seed: drives delivery jitter -- each message sleeps a small
            random time before the receiver handles it.
        max_jitter: upper bound, in seconds, of the per-message delay.
        timeout: seconds to wait for every correct process to decide.
    """

    def __init__(
        self,
        processes: Sequence[Process],
        inputs: Sequence[Value],
        t: int,
        crash_adversary: Optional[CrashAdversary] = None,
        byzantine: Sequence[int] = (),
        seed: int = 0,
        max_jitter: float = 0.002,
        timeout: float = 30.0,
    ) -> None:
        super().__init__(processes, inputs, t, crash_adversary, byzantine)
        self._processes = list(processes)
        self._rng = random.Random(seed)
        self._max_jitter = max_jitter
        self._timeout = timeout
        self._contexts = self._deciders = [
            _KernelContext(self, pid, self._inputs[pid]) for pid in range(self.n)
        ]
        self._queues: List[asyncio.Queue] = []
        self._all_decided: Optional[asyncio.Event] = None  # made in run_async()

    # -- internals ----------------------------------------------------------

    def _transmit(self, sender: int, dst: int, payload: Any) -> None:
        self._queues[dst].put_nowait((sender, payload))

    def _quiescent(self) -> bool:
        return True

    def _advance(self) -> None:
        """Close one step: dynamic crashes, the tick, the stop check."""
        self._apply_dynamic_crashes()
        self.tick += 1
        if self.all_correct_decided():
            self._all_decided.set()

    async def _process_main(self, pid: int) -> None:
        process, ctx, queue = (
            self._processes[pid], self._contexts[pid], self._queues[pid]
        )
        if self._may_step(pid, self._steps_taken[pid]):
            self.trace.record(self.tick, "start", pid)
            process.on_start(ctx)
            self._end_step(pid)
        self._advance()
        while pid not in self._crashed:
            sender, payload = await queue.get()
            if self._max_jitter > 0:
                await asyncio.sleep(self._rng.random() * self._max_jitter)
            if pid in self._crashed:
                break
            self.trace.record(self.tick, "deliver", pid, sender, payload)
            if self._may_step(pid, self._steps_taken[pid]):
                process.on_message(ctx, sender, payload)
                self._end_step(pid)
            self._advance()

    async def run_async(self) -> ExecutionResult:
        """Execute until every correct process decided (or timeout)."""
        self._queues = [asyncio.Queue() for _ in range(self.n)]
        self._all_decided = asyncio.Event()
        self._apply_dynamic_crashes()
        tasks = [
            asyncio.create_task(self._process_main(pid)) for pid in range(self.n)
        ]
        try:
            await asyncio.wait_for(self._all_decided.wait(), timeout=self._timeout)
        except asyncio.TimeoutError:
            # Non-terminating run: return the partial outcome; undecided
            # correct processes surface as a termination violation.
            pass
        finally:
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
        return self._result()


def run_async(
    processes: Sequence[Process],
    inputs: Sequence[Value],
    t: int,
    crash_adversary: Optional[CrashAdversary] = None,
    byzantine: Sequence[int] = (),
    seed: int = 0,
    timeout: float = 30.0,
) -> ExecutionResult:
    """Synchronous wrapper: run a protocol on the asyncio backend."""
    runtime = AsyncMPRuntime(
        processes,
        inputs,
        t,
        crash_adversary=crash_adversary,
        byzantine=byzantine,
        seed=seed,
        timeout=timeout,
    )
    return asyncio.run(runtime.run_async())
