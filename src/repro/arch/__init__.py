"""Memory-architecture layer: DBCs, tiles, subarrays, banks, timing.

Mirrors Fig. 2 of the paper: a DRAM-compatible channel/bank organisation
whose tiles are built from domain-block clusters (DBCs) of racetracks, a
subset of which carry the CORUSCANT PIM extensions.
"""

from repro.arch.geometry import MemoryGeometry
from repro.arch.dbc import DomainBlockCluster
from repro.arch.timing import DDRTimings, DRAM_DDR3_1600, DWM_DDR3_1600
from repro.arch.rowbuffer import RowBuffer
from repro.arch.tile import Tile
from repro.arch.subarray import Subarray
from repro.arch.bank import Bank
from repro.arch.memory import MainMemory
from repro.arch.controller import MemoryController

__all__ = [
    "Bank",
    "DDRTimings",
    "DRAM_DDR3_1600",
    "DWM_DDR3_1600",
    "DomainBlockCluster",
    "MainMemory",
    "MemoryController",
    "MemoryGeometry",
    "RowBuffer",
    "Subarray",
    "Tile",
]
