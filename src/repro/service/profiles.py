"""Device-configuration profiles the gateway's worker pools are keyed by.

A profile names one hardware scenario — TRD, DBC width, and (for fault
drills and CI smoke tests) injected fault rates — and knows how to
build the :class:`~repro.sim.system.CoruscantSystem` its workers
compute on. Profiles are the gateway's isolation domain: each has its
own bounded queues, its own worker pool, and its own request-level
circuit breaker, so an error storm on one device configuration cannot
take down service for the others.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

_PROFILE_FIELD_TYPES = {
    "trd": int,
    "tracks": int,
    "tr_fault_rate": float,
    "seed": int,
    "adaptive": lambda v: v.lower() in ("1", "true", "yes"),
}


@dataclass(frozen=True)
class DeviceProfile:
    """One device configuration a worker pool serves requests on.

    Attributes:
        name: profile key requests select with ``"profile": name``.
        trd: transverse-read distance (3, 5, or 7).
        tracks: tracks per DBC.
        tr_fault_rate: injected per-TR fault probability (fault drills).
            Only TR faults: no served kernel shifts a cluster.
        seed: fault-injector seed, derived per profile name.
        adaptive: run the BARE->VOTED->NMR ladder on this profile.
    """

    name: str = "default"
    trd: int = 7
    tracks: int = 64
    tr_fault_rate: float = 0.0
    seed: int = 0
    adaptive: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("profile name must be non-empty")
        if self.trd not in (3, 5, 7):
            raise ValueError(f"trd must be 3, 5 or 7, got {self.trd}")
        if self.tracks < 8:
            raise ValueError(f"tracks must be >= 8, got {self.tracks}")
        if not 0.0 <= self.tr_fault_rate <= 1.0:
            raise ValueError(
                f"tr_fault_rate must be in [0, 1], got {self.tr_fault_rate}"
            )

    @classmethod
    def parse(cls, spec: str) -> "DeviceProfile":
        """Parse a CLI spec: ``NAME[:key=value,key=value,...]``.

        Example: ``storm:trd=7,tr_fault_rate=0.4`` builds a profile
        named ``storm`` with 40% injected TR faults — the CI smoke
        job's error-storm target.
        """
        name, _, rest = spec.partition(":")
        if not name:
            raise ValueError(f"profile spec needs a name: {spec!r}")
        kwargs: Dict[str, object] = {"name": name}
        if rest:
            for pair in rest.split(","):
                key, sep, value = pair.partition("=")
                if not sep:
                    raise ValueError(
                        f"profile option {pair!r} is not key=value"
                    )
                caster = _PROFILE_FIELD_TYPES.get(key)
                if caster is None:
                    raise ValueError(
                        f"unknown profile option {key!r}; pick from "
                        f"{', '.join(sorted(_PROFILE_FIELD_TYPES))}"
                    )
                try:
                    kwargs[key] = caster(value)
                except ValueError as exc:
                    raise ValueError(
                        f"bad value for profile option {key!r}: {value!r}"
                    ) from exc
        return cls(**kwargs)  # type: ignore[arg-type]

    def build_system(self, telemetry=None):
        """A fresh :class:`CoruscantSystem` for one worker.

        Each worker owns its own system (they are not thread-safe);
        resilience is always on so transient injected faults surface as
        typed, retryable errors rather than silent corruption, and
        fault streams derive from the profile name so two profiles
        never share an injector stream.
        """
        from repro.arch.geometry import MemoryGeometry
        from repro.device.faults import FaultConfig
        from repro.sim.system import CoruscantSystem
        from repro.utils.streams import derive_seed

        fault_config = None
        if self.tr_fault_rate:
            fault_config = FaultConfig(
                tr_fault_rate=self.tr_fault_rate,
                seed=derive_seed(self.seed, f"service.faults.{self.name}"),
            )
        return CoruscantSystem(
            trd=self.trd,
            geometry=MemoryGeometry(tracks_per_dbc=self.tracks),
            fault_config=fault_config,
            resilience=True,
            adaptive=self.adaptive,
            telemetry=telemetry if telemetry is not None else False,
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "trd": self.trd,
            "tracks": self.tracks,
            "tr_fault_rate": self.tr_fault_rate,
            "adaptive": self.adaptive,
        }


def default_profiles(
    extra: Optional[Dict[str, DeviceProfile]] = None,
) -> Dict[str, DeviceProfile]:
    """The gateway's profile table: ``default`` plus any extras."""
    profiles: Dict[str, DeviceProfile] = {"default": DeviceProfile()}
    if extra:
        profiles.update(extra)
    return profiles


__all__ = ["DeviceProfile", "default_profiles"]
