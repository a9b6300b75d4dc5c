"""Host-speed calibration for the campaign and set-up timings.

The benchmark was written on a shared 2-vCPU VM whose speed drifts by
about ±9% over tens of seconds and sometimes halves for a minute or
more, with the process still on the CPU (no steal time to subtract).
A fixed pure-Python slice that uses no program code is timed between
operations, and a timing is reported at the speed the slice had on
that VM (``REFERENCE_SLICE_S``): a slow or fast host period scales the
operations and the slices alike and cancels out, while a change to the
program moves only the operations.
"""

from __future__ import annotations

import statistics

from tracing import now

#: median slice time on the reference host (a shared 2-vCPU VM, Python
#: 3.11); the unit the normalized timings are expressed in
REFERENCE_SLICE_S = 0.0080
#: share of the measured window spent timing slices
CALIBRATION_SHARE = 0.05


def slice_s() -> float:
    """Seconds one fixed slice of interpreter work takes right now: small
    allocations, a sort and dict lookups over a few hundred KB, like the
    simulators' trace building."""
    start = now()
    items = [((i * 2654435761) % 100003, str(i), [i]) for i in range(8000)]
    index = {item[1]: item for item in items}
    items.sort()
    total = 0
    for key in range(0, 8000, 3):
        total += index[str(key)][0]
    return now() - start


class HostSpeed:
    """Slice timings taken across one measured window."""

    def __init__(self) -> None:
        self.slices: list[float] = []

    def sample(self, seconds: float) -> None:
        """Time slices for ``CALIBRATION_SHARE`` of ``seconds`` (at
        least one), e.g. after an operation that took ``seconds``."""
        budget = seconds * CALIBRATION_SHARE
        spent = 0.0
        while True:
            took = slice_s()
            self.slices.append(took)
            spent += took
            if spent >= budget:
                return

    def normalize(self, seconds: float) -> float:
        """``seconds`` as they would read at the reference host speed."""
        return seconds * REFERENCE_SLICE_S / statistics.median(self.slices)
