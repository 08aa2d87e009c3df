"""How fast the host runs plain Python right now.

The shared 2-vCPU host this benchmark was sized on switches between
speed states 20-40% apart that last seconds to minutes, so two runs of
the same code can differ by more than any useful regression bound.  A
round therefore times a fixed pure-Python loop between its units of
work, outside the timed windows, and reports the probes' median over
``REFERENCE_S`` as its *host factor*; ``run.py`` divides the round's
end-to-end times by it.  ``study_jobs2`` keeps both vCPUs busy, leaves
no gap to probe in, and stays raw.

The loop touches only builtins (dicts, tuples, strings, a sort), never
``repro`` code, so no change to the program under test can make it
faster.  Measured on that host over 9-14 cold rounds per workload, the
factor tracked the round walls with a correlation of 0.87-0.93 and cut
their spread (interquartile range over median) from 8-13% to 2-6%.
"""

import statistics
import time

#: about the loop's median time on the host the benchmark was sized on;
#: it only sets the scale of the normalized times
REFERENCE_S = 0.003


def reference_loop() -> int:
    table = {}
    items = []
    for i in range(3000):
        key = (i, i * 3, "k%d" % (i % 97))
        table[key] = len(items)
        items.append(key)
    items.sort(key=lambda t: (t[2], -t[0]))
    return sum(table[t] for t in items[::7])


class HostProbe:
    """Timings of ``reference_loop()`` taken through one round."""

    def __init__(self) -> None:
        self.samples = []

    def sample(self) -> None:
        start = time.perf_counter()
        reference_loop()
        self.samples.append(time.perf_counter() - start)

    def factor(self) -> float:
        """The round's host factor: above 1 when the host ran slow, and
        1 (no correction) for a round that took no samples."""
        if not self.samples:
            return 1.0
        return statistics.median(self.samples) / REFERENCE_S
