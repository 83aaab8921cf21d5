"""Host-speed probe: scales measured times to a fixed reference speed.

The benchmark runs on a few vCPUs of a shared host.  The same call can take
1.6 times longer when the host is busy, and busy phases come and go within
seconds and last up to minutes, so a median over a run still follows the
host's load.  The probe measures that load while the program runs.

A fixed kernel of pure-Python dict and tuple work, which calls nothing in
unimoments, is timed with the thread's CPU clock.  A ``SIGALRM`` timer runs
it every ``INTERVAL_S`` of wall time while a call is timed; the handler runs
in this process's main thread between bytecodes.  Its samples are uniform in
time, so the mean of ``REFERENCE_S / kernel time`` over a call is the share of
reference speed the host gave during that call.  A call's time at reference
speed is its wall time, less the wall time the samples took, multiplied by
that mean: the time it would have taken on a host where the kernel takes
``REFERENCE_S``.  A program change moves this number as it moves wall time;
host load moves it far less.

Pool workers do not inherit the timer, so they are never interrupted.  Work
done on other CPUs, by pool workers or BLAS threads, is scaled by the speed
that the main thread saw meanwhile.
"""

from __future__ import annotations

import signal
import time

# The kernel's work, and its time at the reference speed.
KERNEL_ITERATIONS = 2000
REFERENCE_S = 0.0005
# Wall time between two samples while a call is timed.
INTERVAL_S = 0.02
# Samples taken back to back before each call, so short calls get some too.
LEAD_SAMPLES = 3


def kernel() -> int:
    counts: dict[tuple[int, int], int] = {}
    for i in range(KERNEL_ITERATIONS):
        key = (i & 31, i % 7)
        n = counts.get(key, 0) + 1
        if n & 3:
            counts[key] = n
        else:
            counts.pop(key, None)
    return len(counts)


def sample() -> tuple[float, float]:
    """One run of the kernel: (seconds of this thread's CPU time, wall seconds)."""
    w0, t0 = time.perf_counter(), time.thread_time()
    kernel()
    return time.thread_time() - t0, time.perf_counter() - w0


class SpeedProbe:
    """Samples the kernel's time before and, by timer, during timed work.

    Use as a context manager around a block of timed work.  Inside it,
    ``start()`` and ``stop()`` bracket one piece of work; ``stop()`` returns
    the mean of ``REFERENCE_S / kernel time`` over the samples taken since
    ``start()``, and the wall seconds those samples took.  ``timed(fn)`` runs
    ``fn`` between the two and returns (result or exception, wall seconds
    without the samples, speed).
    """

    def __init__(self):
        self.samples: list[float] = []
        self.sampling_s = 0.0  # wall time spent in samples
        self._first = 0
        self._sampling_at_start = 0.0
        self._previous = None

    def _sample(self, *_signal_args) -> None:
        cpu, wall = sample()
        self.samples.append(cpu)
        self.sampling_s += wall

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def start(self) -> None:
        self._first = len(self.samples)
        self._sampling_at_start = self.sampling_s
        for _ in range(LEAD_SAMPLES):
            self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> tuple[float, float]:
        signal.setitimer(signal.ITIMER_REAL, 0)
        return speed(self.samples[self._first:]), self.sampling_s - self._sampling_at_start

    def timed(self, fn):
        started = time.perf_counter()
        self.start()
        try:
            out = fn()
        except Exception as exc:  # a failed call is counted by the caller
            out = exc
        finally:
            call_speed, sampling = self.stop()
            elapsed = time.perf_counter() - started - sampling
        return out, elapsed, call_speed


def speed(samples: list[float]) -> float:
    """Mean share of reference speed over kernel samples (1.0 = reference)."""
    return sum(REFERENCE_S / max(s, 1e-9) for s in samples) / len(samples)
