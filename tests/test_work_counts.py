"""Work-count ratchet: how much simulator work one kernel call makes.

Wall-clock timings on a shared host swing by 1.6-2x between runs, but
the work a kernel asks of the device layer is exact for fixed inputs.
This module counts it for each kernel of the repository benchmark, at
the paper's geometry (512 tracks, TRD 7), on fixed inputs:

- calls of the public :class:`DomainBlockCluster` methods;
- calls of the :class:`DeviceStats` entry points that account device
  ops (``record`` and ``record_batch``).

Each count must *equal* its budget in :data:`BUDGETS`. The ratchet rule:
a change that lowers a count lowers its budget in the same change; a
change that raises one raises the budget and says why in
``CHANGES.md``, since a higher budget loosens the check.
"""

import inspect
import random

import pytest

from repro import CoruscantSystem
from repro.arch.dbc import DomainBlockCluster
from repro.core.pim_logic import BulkOp
from repro.device.stats import DeviceStats

_RNG = random.Random(21)
_BITS = [_RNG.getrandbits(1) for _ in range(512)]
_ROWS = [[_RNG.getrandbits(1) for _ in range(512)] for _ in range(3)]
_WORDS = [173, 58, 99, 7, 255]

#: kernel -> (call on a fresh system, its answer).
KERNELS = {
    "add": (lambda s: s.add(_WORDS, 8, exact=False).value, sum(_WORDS) % 256),
    "multiply": (lambda s: s.multiply(173, 219, 8).value, 173 * 219),
    "maximum": (lambda s: s.maximum(_WORDS, 8).value, max(_WORDS)),
    "popcount": (lambda s: s.popcount(_BITS), sum(_BITS)),
    "bulk_xor": (
        lambda s: s.bulk_op(BulkOp.XOR, _ROWS).bits,
        [a ^ b ^ c for a, b, c in zip(*_ROWS)],
    ),
}

#: kernel -> (DeviceStats entry-point calls, DomainBlockCluster calls).
BUDGETS = {
    "add": (1, 2),
    "multiply": (33, 37),
    "maximum": (128, 142),
    "popcount": (20, 40),
    "bulk_xor": (2, 8),
}

STATS_ENTRY_POINTS = ("record", "record_batch")


def _public_methods(cls):
    return [
        name for name, value in vars(cls).items()
        if inspect.isfunction(value) and not name.startswith("_")
    ]


def _count_calls(monkeypatch, cls, names, target, counts, key):
    """Wrap ``cls.<name>`` to count calls made on ``target``."""
    for name in names:
        method = getattr(cls, name)

        def counted(self, *args, _method=method, **kwargs):
            if self is target:
                counts[key] += 1
            return _method(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, counted)


def work_counts(monkeypatch, kernel):
    """(answer, stats calls, cluster calls) of one call of ``kernel``."""
    system = CoruscantSystem(trd=7)
    dbc = system.pim_dbc(0, 0)
    counts = {"stats": 0, "dbc": 0}
    _count_calls(
        monkeypatch, DomainBlockCluster, _public_methods(DomainBlockCluster),
        dbc, counts, "dbc",
    )
    _count_calls(
        monkeypatch, DeviceStats, STATS_ENTRY_POINTS, dbc.stats, counts, "stats"
    )
    answer = KERNELS[kernel][0](system)
    return answer, counts["stats"], counts["dbc"]


def test_every_kernel_has_a_budget():
    assert set(BUDGETS) == set(KERNELS)


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_kernel_work_equals_its_budget(monkeypatch, kernel):
    answer, stats_calls, dbc_calls = work_counts(monkeypatch, kernel)
    assert answer == KERNELS[kernel][1]
    assert (stats_calls, dbc_calls) == BUDGETS[kernel], (
        f"{kernel}: {stats_calls} DeviceStats / {dbc_calls} cluster calls "
        f"against a budget of {BUDGETS[kernel]}; lower the budget with the "
        "count, or explain a rise in CHANGES.md"
    )

