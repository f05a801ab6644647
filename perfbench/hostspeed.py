"""Host-speed probes: how the timings stay steady on a shared host.

On a host shared with other machines the interpreter's speed moves by up to
2x from second to second, and the CPU time moves with it, so a wall time of
seconds of work reads 1.3-1.9x longer while the host is busy.  A probe is a
fixed piece of Fraction arithmetic, some 20 microseconds long.  While a
session or a set-up import runs, a SIGALRM interval timer runs one probe
every PROBE_INTERVAL_S in the main thread, between the program's own
bytecodes, and records its duration: a sample of the host's speed at that
moment.

A timed interval, at the host's uncontended speed, is its wall time times
the mean of reference / probe over the probes inside it (quiet_seconds),
where the reference is the probe's time on the uncontended reference host.
The reference is a constant, not a low quantile of each run's own probes,
because the host can stay busy for a whole run.
"""
from __future__ import annotations

import signal
import time
from fractions import Fraction

PROBE_INTERVAL_S = 0.004
MIN_PROBES = 25  # fewer probes in an interval: use the session's probes instead

# The probe's uncontended time in ns on the reference host (2-vCPU Intel Xeon,
# Python 3.11.7), the 1st percentile of many Sampler probes: during sessions,
# and during `import cmfamilies.cli` in a fresh interpreter, where the probes
# run colder and mostly before the interpreter has specialised them.
SESSION_REFERENCE_NS = 21_000
IMPORT_REFERENCE_NS = 37_600

_clock = time.perf_counter_ns
_OPERANDS = [Fraction(p, q) for p, q in
             ((355, 113), (-22, 7), (103993, 33102), (17, 12), (-577, 408), (99, 70))]


def probe() -> Fraction:
    """A fixed piece of Fraction arithmetic, about 20 microseconds long: the
    kind of work the package does, so that contention slows both alike."""
    s = _OPERANDS[0]
    for f in _OPERANDS[1:]:
        s = s * f + f
    return s


class Sampler:
    """Runs a probe every PROBE_INTERVAL_S while started; probes_ns holds
    their durations in ns, in order."""

    def __init__(self) -> None:
        self.probes_ns: list[int] = []

    def _on_alarm(self, signum, frame) -> None:
        start = _clock()
        probe()
        self.probes_ns.append(_clock() - start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def quiet_seconds(seconds: float, probes_ns: list[int], ref_ns: float) -> float:
    """`seconds` of wall time rescaled to the host's uncontended speed."""
    return seconds * ref_ns * sum(1 / p for p in probes_ns) / len(probes_ns)
