"""Set-up time in a fresh interpreter: import groupgeo, which selects the
kernel, and build the given zoo groups.  Prints the seconds.

    python3 perfbench/setup_probe.py free2 z2

Nothing but ``sys`` and ``time`` is imported before the clock starts, so
the figure includes groupgeo's own imports (numpy among them).
"""

import sys
from time import perf_counter

t0 = perf_counter()
from groupgeo import experiments  # noqa: E402

for name in sys.argv[1:]:
    experiments.get_group(name)
print(perf_counter() - t0)
