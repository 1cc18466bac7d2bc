"""A memory tile: a grid of DBCs sharing local sensing (Fig. 2c)."""

from __future__ import annotations

from typing import List, Optional

from repro.arch.dbc import DomainBlockCluster
from repro.device.faults import FaultInjector
from repro.device.parameters import DeviceParameters


class Tile:
    """One 512x512 tile built from DBCs; a subset is PIM-enabled.

    With the Table II configuration each tile holds 16 DBCs of 512 tracks
    by 32 domains; the "15 + 1-PIM" layout makes the first DBC PIM-enabled
    (two access ports spaced by the TRD) and the rest plain storage.
    """

    def __init__(
        self,
        dbcs: int = 16,
        pim_dbcs: int = 1,
        tracks: int = 512,
        domains: int = 32,
        params: Optional[DeviceParameters] = None,
        injector: Optional[FaultInjector] = None,
        lazy: bool = True,
    ) -> None:
        if not 0 <= pim_dbcs <= dbcs:
            raise ValueError("pim_dbcs must be between 0 and dbcs")
        self.params = params or DeviceParameters()
        self.num_dbcs = dbcs
        self.num_pim_dbcs = pim_dbcs
        self.tracks = tracks
        self.domains = domains
        self.injector = injector or FaultInjector()
        self._lazy = lazy
        self._dbcs: List[Optional[DomainBlockCluster]] = [None] * dbcs
        if not lazy:
            for i in range(dbcs):
                self.dbc(i)

    def dbc(self, index: int) -> DomainBlockCluster:
        """The DBC at ``index``, materialising it on first use.

        Lazy construction keeps full-memory geometry experiments cheap:
        only the clusters an experiment touches allocate track state.
        """
        if not 0 <= index < self.num_dbcs:
            raise IndexError(f"dbc index {index} outside [0, {self.num_dbcs})")
        cluster = self._dbcs[index]
        if cluster is None:
            cluster = DomainBlockCluster(
                tracks=self.tracks,
                domains=self.domains,
                params=self.params,
                pim_enabled=index < self.num_pim_dbcs,
                injector=self.injector,
            )
            self._dbcs[index] = cluster
        return cluster

    def pim_dbc(self, index: int = 0) -> DomainBlockCluster:
        """A PIM-enabled DBC (raises if the tile has none)."""
        if self.num_pim_dbcs == 0:
            raise ValueError("tile has no PIM-enabled DBCs")
        if not 0 <= index < self.num_pim_dbcs:
            raise IndexError(
                f"pim dbc index {index} outside [0, {self.num_pim_dbcs})"
            )
        return self.dbc(index)

    @property
    def materialized_dbcs(self) -> int:
        """How many DBCs have been constructed so far."""
        return sum(1 for d in self._dbcs if d is not None)

    def iter_materialized(self):
        """Yield ``(index, dbc)`` for every DBC constructed so far."""
        for index, cluster in enumerate(self._dbcs):
            if cluster is not None:
                yield index, cluster

    def total_cycles(self) -> int:
        """Cycles accumulated across materialised DBCs."""
        return sum(d.stats.cycles for d in self._dbcs if d is not None)

    def total_energy_pj(self) -> float:
        """Energy accumulated across materialised DBCs."""
        return sum(d.stats.energy_pj for d in self._dbcs if d is not None)
