"""Set-up probe: a fresh interpreter made ready for its first command.

    python3 setup_probe.py SRC_DIR [INPUT_FILE ...]

Imports ulrich_forge and its CLI from SRC_DIR, reads each presentation
file, then prints time.perf_counter() so the parent can time the whole
start-up from its own clock.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])

import ulrich_forge.cli  # noqa: E402,F401
from ulrich_forge.presentation import load  # noqa: E402

for path in sys.argv[2:]:
    load(path)
print(time.perf_counter())
