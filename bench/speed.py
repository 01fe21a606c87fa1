"""Host-speed probe: converts measured times to seconds at nominal speed.

On a shared host the same work can take 1.5 times longer for tens of
seconds at a time, because other tenants compete for the cores' shared
resources. A run that only reads the clock then measures the host as
much as the program. The probe measures the host at the same moments:
every 10 ms, whatever the program is doing, a SIGALRM handler runs a
fixed integer kernel and records the CPU time it took (thread CPU time,
so time the process is descheduled does not count). A span of work is
then reported as

    (wall time - time spent in the probe) * NOMINAL_PROBE_S / mean probe time

that is, the time it would have taken at the speed where one probe
takes ``NOMINAL_PROBE_S``. Only the samples taken inside a span scale
it; a span that holds none is an error, not a guess. The probe costs
about 2.5% of one core. Raw times are kept next to the normalised ones.

The samples come from inside the span because the host's speed changes
within seconds: bursts of the same kernel taken only between repetitions
read 160 to 300 us at random and did not follow the repetitions' times.
The price is that the probe also feels the program: while a workload's
own worker processes run, they slow the probe as well as the work, so
the scaling absorbs part of their contention.

Only ``signal`` and ``time`` are imported, so that the set-up time
measured after importing this module still pays for nearly every module
the package needs.
"""

import signal
from time import perf_counter, thread_time

PERIOD_S = 0.01
NOMINAL_PROBE_S = 250e-6


def _kernel() -> int:
    acc = 0
    for x in range(1500):
        acc ^= (x * 2654435761 & 0xFFFF).bit_count()
    return acc


class SpeedProbe:
    """Samples the probe kernel's CPU time every ``PERIOD_S`` while started."""

    def __init__(self) -> None:
        self.cpu: list[float] = []  # CPU seconds of each probe run
        self.wall = 0.0  # wall seconds spent in the probe so far
        self.spent_cpu = 0.0  # CPU seconds spent in the probe so far

    def _on_alarm(self, signum, frame) -> None:
        c0 = thread_time()
        t0 = perf_counter()
        _kernel()
        self.wall += perf_counter() - t0
        used = thread_time() - c0
        self.spent_cpu += used
        self.cpu.append(used)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[int, float, float]:
        return len(self.cpu), self.wall, self.spent_cpu

    def nominal(self, wall: float, cpu: float, since: tuple[int, float, float]) -> dict:
        """A span since ``since``: wall and CPU less the probe, at nominal speed."""
        samples = self.cpu[since[0]:]
        if not samples:
            raise RuntimeError(f"a {wall:.4f} s span holds no probe sample (period {PERIOD_S} s)")
        f = NOMINAL_PROBE_S * len(samples) / sum(samples)
        return {
            "nominal_wall": (wall - (self.wall - since[1])) * f,
            "nominal_cpu": (cpu - (self.spent_cpu - since[2])) * f,
            "probe_samples": len(samples),
            "probe_mean": sum(samples) / len(samples),
        }
