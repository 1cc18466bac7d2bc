"""The faulted RNG stream, pinned: five ``repro campaign --json`` outputs.

A seeded campaign draws every TR and shift fault from one
``random.Random``, so its output is a pure function of the seed, and a
change to how the device layer draws (bulk draws, one call per command)
must leave every draw where it was. Each command below runs in-process
and its output's sha256 prefix must equal the one pinned here. On a
mismatch the test names the summary counters that moved, against the
values pinned beside the digest (measured on Python 3.11).
"""

import contextlib
import hashlib
import io
import json

import pytest

from repro import cli

FAULTED = [
    "--ops", "200", "--fault-rate", "1e-2", "--shift-fault-rate", "1e-3",
    "--storage-rows", "8", "--adaptive", "--json",
]
SHIFT_1E2 = [
    "--ops", "200", "--fault-rate", "1e-2", "--shift-fault-rate", "1e-2",
    "--storage-rows", "8", "--json",
]

COUNTERS = (
    "injected", "detected", "corrected", "escaped", "retries", "escalations",
    "uncorrectable", "storage_ops", "storage_wrong", "overhead_cycles",
    "total_cycles",
)

#: name -> (campaign flags, sha256 prefix of the output, COUNTERS of the
#: recovery-on and the recovery-off summary; None where a summary has no
#: such counter).
PINS = {
    "adaptive-trd3": (
        FAULTED + ["--trd", "3"], "8969f559e1e30c8d",
        (1570, 1446, 1444, 1, 0, 0, 0, 396, 29, 31604, 38190),
        (227, 0, 0, 24, 0, 0, 0, 396, 22, 0, 6400),
    ),
    "adaptive-trd5": (
        FAULTED + ["--trd", "5"], "ca01df3556746a13",
        (1499, 1404, 1400, 0, 0, 0, 0, 396, 28, 30886, 37469),
        (235, 0, 0, 26, 0, 0, 0, 396, 21, 0, 6400),
    ),
    "adaptive-trd7": (
        FAULTED + ["--trd", "7"], "5b283e51cee54bda",
        (1582, 1475, 1471, 0, 0, 0, 0, 396, 39, 30886, 37469),
        (239, 0, 0, 23, 0, 0, 0, 396, 19, 0, 6400),
    ),
    "shift-1e-2": (
        SHIFT_1E2, "2b75518624360a0b",
        (1372, 395, 394, 0, 1, 0, 0, 396, 146, 6665, 13065),
        (1117, 0, 0, 26, 0, 0, 0, 396, 138, 0, 6400),
    ),
    "fault-free-shifts": (
        ["--ops", "200", "--json"], "ea20f09bec52bcd8",
        (36, 36, 36, 0, 0, 0, 0, None, None, 6600, 13000),
        (12, 0, 0, 2, 0, 0, 0, None, None, 0, 6400),
    ),
}

SECTIONS = ("Fault campaign (recovery_on)", "Fault campaign (recovery_off)")


def _campaign(flags):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["campaign", *flags])
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(PINS))
def test_campaign_output_is_pinned(name):
    flags, digest, *pinned = PINS[name]
    code, text = _campaign(flags)
    assert code == 0, text
    got = hashlib.sha256(text.encode()).hexdigest()[:16]
    if got == digest:
        return
    document = json.loads(text)
    moved = [
        f"{section}: {counter} {want} -> {document[section].get(counter)}"
        for section, counters in zip(SECTIONS, pinned)
        for counter, want in zip(COUNTERS, counters)
        if document[section].get(counter) != want
    ]
    pytest.fail(
        f"campaign {' '.join(flags)}: sha256 {got}, pinned {digest}; "
        + ("counters moved: " + "; ".join(moved) if moved
           else "every pinned counter holds, so another field moved")
    )
