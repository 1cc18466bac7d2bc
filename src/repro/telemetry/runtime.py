"""Process-wide active telemetry hub.

Most wiring is explicit — ``CoruscantSystem(telemetry=hub)`` attaches
the hub to the objects it owns. Experiment regenerators, however, build
:class:`~repro.arch.dbc.DomainBlockCluster` objects internally with no
injection point; for those, :func:`activated` installs a hub that
watches every :class:`~repro.device.stats.DeviceStats` recording inside
the scope with no hub of its own. Such stats join the active hub on
their first record (:func:`adopt`); when the scope ends the hub folds in
what they recorded and releases them, so records made after the scope
never reach it::

    hub = TelemetryHub()
    with activated(hub):
        generate_report()          # every DBC that records is watched
    hub.metrics_dict()

Entering a nested scope releases the outer hub's stats the same way, so
each record is counted by the hub that was active when it was made.
When nothing is activated a record pays one module-global ``None``
check.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

_ACTIVE = None  # type: Optional[object]


def _switch(hub) -> None:
    """Make ``hub`` the active one; the hub it replaces lets go of its stats.

    ``_ACTIVE`` changes first: :meth:`TelemetryHub.adopt` checks it under
    the hub lock, so a record racing the switch cannot join the old hub
    after it released its stats.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = hub
    if previous is not None:
        previous.release_adopted()


def activate(hub) -> None:
    """Install ``hub`` as the process-wide default telemetry hub."""
    _switch(hub)


def deactivate() -> None:
    """Remove the process-wide default hub."""
    _switch(None)


def active_hub():
    """The currently installed hub, or ``None``."""
    return _ACTIVE


def adopt(stats) -> None:
    """Have the active hub watch ``stats`` until its scope ends.

    :meth:`DeviceStats.record <repro.device.stats.DeviceStats.record>`
    calls this once, on the first record of stats that have no hub.
    """
    hub = _ACTIVE
    if hub is not None:
        hub.adopt(stats)


@contextmanager
def activated(hub) -> Iterator[object]:
    """Scope ``hub`` as the active hub, restoring the previous one."""
    previous = _ACTIVE
    _switch(hub)
    try:
        yield hub
    finally:
        _switch(previous)


__all__ = ["activate", "activated", "active_hub", "adopt", "deactivate"]
