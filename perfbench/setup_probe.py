"""Time a fresh interpreter's import of semilab.cli plus parsing every config.

Usage: python3 setup_probe.py <src dir> <config>...  Prints the seconds.
This is the fixed cost every `semilab` CLI invocation pays before work.
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import semilab.cli  # noqa: E402

for path in sys.argv[2:]:
    with open(path, encoding="utf-8") as handle:
        semilab.cli.parse_config(handle.read())
print(repr(time.perf_counter() - start))
