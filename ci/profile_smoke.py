"""Check of the ``profile-smoke`` CI job's wall-clock profile.

Run from the repository root after the job's profiled micro bench::

    python -m repro profile bench --repeats 2 --no-history \
        --profile-interval-ms 1 \
        --profile-out profile.speedscope.json \
        --folded-out profile.folded
    python ci/profile_smoke.py profile.speedscope.json profile.folded

The speedscope document must hold one sampled profile with a weight
per sample and at least one device-layer frame (``device/nanowire.py``
or ``arch/dbc.py``); the folded stacks must be non-empty, each line a
stack and its count. A failed check raises AssertionError (exit 1); a
passing one prints one line.
"""

from __future__ import annotations

import json
import sys
from typing import List

#: A frame from one of these files is a device-layer frame.
DEVICE_FILES = ("device/nanowire.py", "arch/dbc.py")


def check_profile(speedscope_path: str, folded_path: str) -> str:
    """The speedscope document and the folded stacks; a summary line."""
    with open(speedscope_path) as fh:
        doc = json.load(fh)
    assert doc["$schema"].endswith("file-format-schema.json")
    assert len(doc["profiles"]) == 1, len(doc["profiles"])
    (profile,) = doc["profiles"]
    assert profile["type"] == "sampled"
    assert len(profile["samples"]) == len(profile["weights"])
    names = [f["name"] for f in doc["shared"]["frames"]]
    hot = [n for n in names if any(path in n for path in DEVICE_FILES)]
    assert hot, f"no device-layer frame in {len(names)} frames"

    with open(folded_path) as fh:
        folded = fh.read().splitlines()
    assert folded and all(" " in line for line in folded)
    return f"speedscope OK: {len(names)} frames, {len(hot)} device-layer"


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    print(check_profile(*argv))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
