"""In-memory data movement between DBCs (RowClone-style, Section III-A).

"Given the hierarchical row buffer in the memory, the shared row buffer
in the subarray or across subarrays can be used to move data from
non-PIM DBCs to PIM-enabled DBCs." This module implements those copies
at the functional + cost level: intra-tile (fastest, shared local
sensing), intra-subarray (shared row buffer), and inter-bank (through
the global buffer, slowest).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.arch.dbc import DomainBlockCluster
from repro.arch.rowbuffer import RowBuffer


class CopyScope(enum.Enum):
    """How far a row copy travels."""

    INTRA_TILE = "intra_tile"
    INTRA_SUBARRAY = "intra_subarray"
    INTER_BANK = "inter_bank"


# Memory cycles per row copy at each scope: sense + drive for the local
# case, plus buffer hops for the wider ones (RowClone-inspired).
COPY_CYCLES = {
    CopyScope.INTRA_TILE: 2,
    CopyScope.INTRA_SUBARRAY: 4,
    CopyScope.INTER_BANK: 10,
}


@dataclass(frozen=True)
class CopyResult:
    """Outcome of one row copy."""

    cycles: int
    shifts: int
    scope: CopyScope


class DataMover:
    """Copies rows between DBCs through the row-buffer hierarchy."""

    def __init__(self, row_buffer_width: int = 512) -> None:
        self.buffer = RowBuffer(row_buffer_width)
        self.copies = 0
        self.total_cycles = 0

    def copy_row(
        self,
        src: DomainBlockCluster,
        src_row: int,
        dst: DomainBlockCluster,
        dst_row: int,
        scope: CopyScope = CopyScope.INTRA_SUBARRAY,
    ) -> CopyResult:
        """Move one row: align src, sense, align dst, drive.

        Both DBCs pay their alignment shifts; the hop itself costs the
        scope's buffer cycles. Contents move bit-exactly.
        """
        if src.tracks != dst.tracks:
            raise ValueError(
                f"track widths differ: {src.tracks} vs {dst.tracks}"
            )
        if src.tracks > self.buffer.width:
            raise ValueError(
                f"row of {src.tracks} bits exceeds the "
                f"{self.buffer.width}-bit row buffer"
            )
        shifts = src.align(src_row, port_index=0)
        bits = src.read_row(port_index=0).tolist()
        self.buffer.latch(
            bits + [0] * (self.buffer.width - len(bits)), row=src_row
        )
        shifts += dst.align(dst_row, port_index=0)
        dst.write_row(self.buffer.data()[: dst.tracks], port_index=0)
        hop = COPY_CYCLES[scope]
        dst.tick(hop, f"copy_{scope.value}")
        self.copies += 1
        cycles = shifts + 2 + hop  # shifts + read + write + hop
        self.total_cycles += cycles
        return CopyResult(cycles=cycles, shifts=shifts, scope=scope)

    def broadcast_row(
        self,
        src: DomainBlockCluster,
        src_row: int,
        targets,
        dst_row: int,
        scope: CopyScope = CopyScope.INTRA_SUBARRAY,
    ) -> int:
        """Copy one source row into several DBCs; returns total cycles.

        The source is sensed once; each target pays its own drive and
        hop (the buffer holds the data between drives).
        """
        before = self.total_cycles
        shifts = src.align(src_row, port_index=0)
        bits = src.read_row(port_index=0).tolist()
        self.buffer.latch(
            bits + [0] * (self.buffer.width - len(bits)), row=src_row
        )
        total = shifts + 1
        for dst in targets:
            if dst.tracks != src.tracks:
                raise ValueError("track widths differ in broadcast")
            total += dst.align(dst_row, port_index=0)
            dst.write_row(self.buffer.data()[: dst.tracks], port_index=0)
            hop = COPY_CYCLES[scope]
            dst.tick(hop, f"copy_{scope.value}")
            total += 1 + hop
            self.copies += 1
        self.total_cycles = before + total
        return total
