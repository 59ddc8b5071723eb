"""Host-speed reference for normalising the benchmark's timings.

The shared host this benchmark runs on changes speed by up to a factor
of two over minutes, and a run's timings move with it.  To take the
host out of the end-to-end times, a fixed pure-Python reference task is
timed between operations, in processes of their own that never import
``repro``, so nothing the program does (its heap, its GC) changes the
reference.  The task allocates and sorts small objects; with ``heap``
it also runs a full garbage collection over a heap far larger than the
CPU caches and a scattered walk over it (``workloads.make_calibrator``
picks the kind and the number of processes to match each workload).

A timing divided by its nominal value is the *host factor*: how much
slower than the nominal host this one runs right now.  Every operation's
wall time is divided by the host factor measured around it, so the
result reads as seconds on the nominal host, an idle 2.1 GHz Xeon vCPU.
The SPEC CPU ratios use the same idea with a fixed reference machine.

    python3 calib.py HEAP_OBJECTS   # serve: one timing per stdin line
"""

import gc
import os
import random
import subprocess
import sys
import time

#: Objects allocated and sorted per task, and held in the large
#: long-lived heap (about 60 MB, beyond any last-level cache).
OBJECTS = 70_000
HEAP_OBJECTS = 400_000
#: Seconds the task takes on the nominal host (about its median there),
#: without and with the large heap.
NOMINAL_S = {False: 0.025, True: 0.10}


class _Item:
    __slots__ = ("a", "b", "c")

    def __init__(self, a):
        self.a = a
        self.b = a + 1
        self.c = [a]


def reference_task(heap):
    """Seconds the fixed reference task takes right now."""
    start = time.perf_counter()
    items = [_Item(i) for i in range(OBJECTS)]
    total = 0
    for item in items:
        total += item.a * item.b + len(item.c)
    items.sort(key=lambda item: -item.b)
    del items
    if heap:
        gc.collect()
        for item in heap[::3]:
            total += item.a + item.c[0]
    return time.perf_counter() - start


class Calibrator:
    """``width`` reference-task processes, kept idle between timings.

    A workload that keeps ``width`` CPUs busy is timed against the task
    run on ``width`` CPUs at once, so contention between the host's
    CPUs shows in the reference as it does in the workload.
    """

    def __init__(self, width, heap):
        self.nominal = NOMINAL_S[heap]
        size = HEAP_OBJECTS if heap else 0
        self.procs = [subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), str(size)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
            for _ in range(width)]

    def measure(self):
        """Time the task once in every process; returns the host factor
        (their mean time over the nominal time)."""
        for proc in self.procs:
            proc.stdin.write("\n")
            proc.stdin.flush()
        times = []
        for proc in self.procs:
            line = proc.stdout.readline()
            if not line:
                raise RuntimeError("a reference-task process exited")
            times.append(float(line))
        return sum(times) / len(times) / self.nominal

    def close(self):
        for proc in self.procs:
            if proc.poll() is None:
                proc.stdin.close()
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
            proc.stdout.close()


def main():
    # Collections run only inside the task, so each timing does the same
    # collection work.
    gc.disable()
    heap = [_Item(i) for i in range(int(sys.argv[1]))]
    random.Random(2).shuffle(heap)
    reference_task(heap)  # the first timing pays for warming the allocator
    for _ in sys.stdin:
        print(repr(reference_task(heap)), flush=True)


if __name__ == "__main__":
    main()
