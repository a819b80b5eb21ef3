"""How the end-to-end times are measured: CPU time at a reference host speed.

The benchmark shares a virtual machine's few vCPUs with other tenants.
On the 2-vCPU VM it was built on, two things slowed identical work.
The hypervisor took vCPUs away (CPU steal, at times about half of
both); the kernel leaves that out of a thread's CPU time, so times are
CPU seconds: the benchmark process's threads plus the pool workers it
reaped.  And with no steal at all, the same work ran at speeds up to
1.5x apart, in stretches from under a second to minutes, which moved
the CPU time of whole 25 s runs 10-25%.  So a fixed interpreter kernel
is timed every ``SpeedSampler.interval`` seconds while operations run,
and each operation's CPU time is scaled by ``PROBE_REF_S`` over the
kernel's mean time around it: the time it would take on a host that
runs the kernel in ``PROBE_REF_S``.
"""

from __future__ import annotations

import dataclasses
import importlib
import resource
import statistics
import threading
import time
import types

#: Thread CPU seconds of one :func:`host_probe` on the VM the benchmark
#: was built on, at its faster speed.
PROBE_REF_S = 0.0017


def cpu_s() -> float:
    """CPU seconds of this process and of every child it has reaped."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _kernel() -> int:
    """Fixed interpreter work: indexing, dict updates, int arithmetic."""
    table: dict[int, int] = {}
    values = list(range(64))
    total = 0
    for i in range(3000):
        j = values[i & 63]
        table[j] = table.get(j, 0) + (i ^ j)
        total += (j * 3) & 0xFF
    return total


def host_probe() -> float:
    """Thread CPU seconds of a fixed kernel: how fast the host runs now."""
    start = time.thread_time()
    for _ in range(4):
        _kernel()
    return time.thread_time() - start


def scale_between(before: float) -> float:
    """Reference-speed factor for work that ran since a probe read ``before``."""
    return 2 * PROBE_REF_S / (before + host_probe())


class SpeedSampler:
    """Runs :func:`host_probe` on a background thread every ``interval`` s.

    The probe holds the interpreter lock while it runs, so an operation
    in this process pauses meanwhile and its CPU time does not grow;
    the probe's own CPU time, which the process's does count, is taken
    back out by :meth:`apply`.
    """

    interval = 0.05
    #: Samples this close before or after an operation count for it, so
    #: one shorter than ``interval`` still has some.
    margin = 0.1

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (end, probe seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="perfbench-speed")

    def __enter__(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while True:
            probe = host_probe()
            self.samples.append((time.perf_counter(), probe))
            if self._stop.wait(self.interval):
                return

    def apply(self, ops: list[dict]) -> None:
        """Set each op's ``scale`` and ``s`` from its ``t0``/``t1``/``cpu``."""
        for op in ops:
            start, stop = op["t0"], op["t1"]
            near = [p for end, p in self.samples
                    if start - self.margin <= end <= stop + self.margin]
            if not near:  # the sampler was held off: take the closest sample
                near = [min(self.samples, key=lambda sample: abs(sample[0] - stop))[1]]
            inside = sum(p for end, p in self.samples if start <= end - p and end <= stop)
            op["scale"] = PROBE_REF_S / statistics.fmean(near)
            op["s"] = (op["cpu"] - inside) * op["scale"]


def lend_clocks():
    """Time the program's DIPs and shards on the thread CPU clock.

    The DIP loop's timer reads thread CPU time, and each shard's time is
    scaled to the reference speed by probes around it, in whichever
    process runs it (pool workers forked meanwhile inherit both).
    Returns the function that undoes both.
    """
    sat_attack = importlib.import_module("repro.attacks.sat_attack")
    engine = importlib.import_module("repro.core.sharded").ShardEngine
    saved_time, run_shard = sat_attack.time, engine.run_shard

    def scaled_run_shard(self, *args, **kwargs):
        before = host_probe()
        result = run_shard(self, *args, **kwargs)
        scale = scale_between(before)
        return dataclasses.replace(result, elapsed_seconds=result.elapsed_seconds * scale)

    sat_attack.time = types.SimpleNamespace(perf_counter=time.thread_time)
    engine.run_shard = scaled_run_shard

    def restore() -> None:
        sat_attack.time = saved_time
        engine.run_shard = run_shard

    return restore
