"""One repeat of one workload, in a fresh process.

``run.py`` starts this script once per repeat and reads the JSON object
it prints last.  Set-up time runs from the first line below to the first
timed call, so it covers interpreter-level imports of the repro package
(numpy included where the workload uses it), the protocol registry, and
factory construction.  With ``--trace-dir`` the layer wrappers of
:mod:`tracer` are installed around the timed call and restored after.

Throughout set-up and job, a :class:`SpeedSampler` thread times a fixed
tick of interpreter work every few milliseconds.  ``run.py`` scales the
set-up and job times by the tick time measured over the same interval,
so a host that runs the vCPUs slower for a while slows the tick with the
job and the scaled times hold still.

Usage: python benchmarks/e2e/worker.py --workload NAME --seed S
       [--trace-dir DIR] [--smoke]
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from typing import List  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"), HERE]

import workloads  # noqa: E402

#: Lookup table of the tick, built once so a tick allocates no object
#: the garbage collector tracks (a collection inside a tick would charge
#: it for the job's heap).
_TABLE = {str(i): i * 2654435761 % 65521 for i in range(256)}


def _tick() -> int:
    """A fixed bit of dict, string and integer work, about 0.3 ms."""
    table = _TABLE
    acc = 0
    for i in range(1200):
        acc = (acc * 31 + table[str((acc ^ i) & 255)]) & 0xFFFFF
    return acc


class SpeedSampler:
    """Times :func:`_tick` on a thread of its own, interval by interval.

    Each tick is timed in thread CPU time, so waiting for the GIL or for
    a core the job's own processes hold does not count; what does count
    is the host running this vCPU slower.
    """

    #: Pause between ticks; with the GIL's 5 ms switch interval a tick
    #: lands every 10 to 15 ms, about 3% of the measured time.
    PERIOD_S = 0.01
    #: Ticks :meth:`lap` takes itself when an interval was too short.
    MIN_TICKS = 9

    def __init__(self) -> None:
        self.ticks: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _timed_tick(self) -> None:
        start = time.thread_time()
        _tick()
        self.ticks.append(time.thread_time() - start)

    def _loop(self) -> None:
        while not self._stop.wait(self.PERIOD_S):
            self._timed_tick()

    def lap(self) -> float:
        """Trimmed mean tick time since the last lap; starts a new one."""
        while len(self.ticks) < self.MIN_TICKS:
            self._timed_tick()
        ticks, self.ticks = sorted(self.ticks), []
        cut = len(ticks) // 10
        kept = ticks[cut:len(ticks) - cut]
        return sum(kept) / len(kept)

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()


def _cpu_self() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main() -> None:
    sampler = SpeedSampler()
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace-dir")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    job = workloads.prepare(args.workload, args.seed, args.smoke)
    tracer = None
    if args.trace_dir:
        from tracer import Tracer

        tracer = Tracer(dump_dir=args.trace_dir)
        tracer.install()
    setup = time.perf_counter() - T0
    setup_tick = sampler.lap()
    cpu_pre = _cpu_self()
    start = time.perf_counter()
    try:
        output = job()
    finally:
        wall = time.perf_counter() - start
        tick = sampler.lap()
        sampler.stop()
        if tracer is not None:
            tracer.restore()

    expected = workloads.load_expected(args.smoke)
    attempted, failed, problems = workloads.check(
        args.workload, output, expected, args.seed
    )
    point_seconds = output.pop("point_seconds", [])
    record = {
        "setup_wall_s": setup,
        "setup_tick_s": setup_tick,
        "wall_s": wall,
        "tick_s": tick,
        "cpu_pre_s": cpu_pre,
        "work": workloads.reference_work(args.workload, expected),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "output": output,
        "digest": hashlib.sha256(
            json.dumps(output, sort_keys=True).encode()
        ).hexdigest(),
        "point_seconds": point_seconds,
    }
    if tracer is not None:
        record["layers"] = tracer.merged()
        record["counts"] = dict(tracer.counts)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
