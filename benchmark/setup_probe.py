"""One fresh set-up: import blueskylab and load and validate the given configs.

Usage: python3 setup_probe.py SRC_DIR CONFIG.json [CONFIG.json ...]

Prints ``ready`` when done; the caller times it from process start.
"""

import sys

sys.path.insert(0, sys.argv[1])

import blueskylab  # noqa: E402

for path in sys.argv[2:]:
    blueskylab.load_model(path)
print("ready", flush=True)
