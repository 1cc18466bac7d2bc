"""OpenMetrics text exposition for the metrics registry.

Renders a :class:`~repro.telemetry.metrics.MetricsRegistry` snapshot in
the OpenMetrics text format (the Prometheus exposition format's
standardised successor): ``# TYPE`` headers, ``_total`` counter
samples, histogram families with *cumulative* ``_bucket{le="..."}``
series ending in ``le="+Inf"`` plus ``_sum``/``_count``, and a final
``# EOF`` terminator. The gateway serves this from ``GET /metrics``
when the client's ``Accept`` header asks for it; the JSON snapshot
stays the default.

Instrument names are dotted (``service.request_seconds``); OpenMetrics
names must match ``[a-zA-Z_][a-zA-Z0-9_]*`` and dimensions belong in
labels, not name segments. The mapping:

* the dynamic name segments the hub and the dispatchers mint
  (per-kernel latency, per priority/reason/stage/status counters,
  per-queue depth gauges, resilience verdicts) become **labels** on one
  family, e.g.
  ``service.mult.request_seconds`` ->
  ``coruscant_service_request_seconds{kernel="mult"}`` and
  ``service.rejected.queue_full`` ->
  ``coruscant_service_rejected{reason="queue_full"}``;
* every other name is flattened: dots/dashes -> underscores, prefixed
  ``coruscant_`` (``device.mult.cycles`` ->
  ``coruscant_device_mult_cycles``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

CONTENT_TYPE = "application/openmetrics-text; version=1.0.0; charset=utf-8"

PREFIX = "coruscant_"

# (family, label-key) targets for hub-minted dynamic name segments.
_LEAF_FAMILIES = {
    # service.admitted.<priority> etc. — known stem, dynamic leaf.
    "service.admitted": ("service_admitted", "priority"),
    "service.rejected": ("service_rejected", "reason"),
    "service.shed": ("service_shed", "stage"),
    "service.status": ("service_requests", "status"),
    "resilience.verdict": ("resilience_verdict", "verdict"),
}
# service.<kernel>.<leaf> — dynamic middle, known leaf.
_KERNEL_LEAVES = {
    "request_seconds": "service_request_seconds",
    "admitted": "service_kernel_admitted",
    "retries": "service_kernel_retries",
}


def _sanitize(name: str) -> str:
    cleaned = "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in name
    )
    if cleaned and cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return PREFIX + cleaned


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_number(value: Any) -> str:
    if isinstance(value, bool):  # pragma: no cover - defensive
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float) and value == int(value) and abs(value) < 1e15:
        return str(int(value)) + ".0"
    return repr(float(value))


def _map_name(name: str) -> Tuple[str, Dict[str, str]]:
    """Dotted instrument name -> (OpenMetrics family, labels)."""
    parts = name.split(".")
    if len(parts) == 3:
        stem = f"{parts[0]}.{parts[1]}"
        if stem in _LEAF_FAMILIES:
            family, key = _LEAF_FAMILIES[stem]
            return PREFIX + family, {key: parts[2]}
        if parts[0] == "service" and parts[2] in _KERNEL_LEAVES:
            return PREFIX + _KERNEL_LEAVES[parts[2]], {"kernel": parts[1]}
    if (
        len(parts) == 4
        and parts[0] == "service"
        and parts[1] == "queue_depth"
    ):
        return (
            PREFIX + "service_queue_depth",
            {"profile": parts[2], "kernel": parts[3]},
        )
    # slo.<name>.burn_rate.<window> / slo.<name>.compliance etc. — the
    # SLO engine's gauges, labelled by objective (and window).
    if parts[0] == "slo" and len(parts) == 4 and parts[2] == "burn_rate":
        return (
            PREFIX + "slo_burn_rate",
            {"slo": parts[1], "window": parts[3]},
        )
    if parts[0] == "slo" and len(parts) == 3:
        return PREFIX + f"slo_{parts[2]}", {"slo": parts[1]}
    if name == "service.request_seconds":
        return PREFIX + "service_request_seconds", {}
    return _sanitize(name), {}


def _label_str(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape_label(str(value))}"'
        for key, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def render_openmetrics(registry) -> str:
    """The registry snapshot as an OpenMetrics text document."""
    snapshot = registry.as_dict()
    families: Dict[str, Dict[str, Any]] = {}

    def family(name: str, kind: str) -> List[str]:
        entry = families.get(name)
        if entry is None:
            entry = families[name] = {"type": kind, "lines": []}
        elif entry["type"] != kind:
            raise ValueError(
                f"metric family {name!r} rendered as both "
                f"{entry['type']} and {kind}"
            )
        return entry["lines"]

    for name, value in snapshot["counters"].items():
        fam, labels = _map_name(name)
        family(fam, "counter").append(
            f"{fam}_total{_label_str(labels)} {_format_number(value)}"
        )

    for name, value in snapshot["gauges"].items():
        fam, labels = _map_name(name)
        # A gauge sample must never look like a counter: ``_total`` is
        # the counter-sample suffix, so a dotted gauge name ending in
        # ``.total`` would otherwise render ambiguously.
        while fam.endswith("_total"):
            fam = fam[: -len("_total")]
        family(fam, "gauge").append(
            f"{fam}{_label_str(labels)} {_format_number(value)}"
        )

    for name, hist in snapshot["histograms"].items():
        fam, labels = _map_name(name)
        lines = family(fam, "histogram")
        edges = hist["edges"]
        cumulative = hist["cumulative"]
        for edge, total in zip(edges, cumulative[:-1]):
            bucket_labels = dict(labels, le=_format_edge(edge))
            lines.append(
                f"{fam}_bucket{_label_str(bucket_labels)} {total}"
            )
        inf_labels = dict(labels, le="+Inf")
        lines.append(
            f"{fam}_bucket{_label_str(inf_labels)} {cumulative[-1]}"
        )
        lines.append(
            f"{fam}_sum{_label_str(labels)} {_format_number(hist['sum'])}"
        )
        lines.append(f"{fam}_count{_label_str(labels)} {hist['count']}")

    # Every exposition names the running build, version-labelled from
    # the package itself (imported lazily: repro.__init__ imports this
    # module, so a top-level import would cycle).
    from repro import __version__

    info_family = PREFIX + "build_info"
    family(info_family, "gauge").append(
        f'{info_family}{{version="{_escape_label(__version__)}"}} 1'
    )

    out: List[str] = []
    for fam in sorted(families):
        out.append(f"# TYPE {fam} {families[fam]['type']}")
        if fam.endswith("_seconds"):
            out.append(f"# UNIT {fam} seconds")
        out.extend(families[fam]["lines"])
    out.append("# EOF")
    return "\n".join(out) + "\n"


def _format_edge(edge: Any) -> str:
    if isinstance(edge, int):
        return f"{edge}.0"
    return _format_number(edge)


def negotiates_openmetrics(accept: Optional[str]) -> bool:
    """Does this ``Accept`` header ask for the OpenMetrics text form?

    Deliberately minimal: an explicit ``application/openmetrics-text``
    (any parameters) or ``text/plain`` selects text exposition; missing
    headers, ``application/json``, and wildcards keep the historical
    JSON form, so existing scrapers see byte-identical output.
    """
    if not accept:
        return False
    for part in accept.split(","):
        media = part.split(";", 1)[0].strip().lower()
        if media in ("application/openmetrics-text", "text/plain"):
            return True
    return False


__all__ = [
    "CONTENT_TYPE",
    "negotiates_openmetrics",
    "render_openmetrics",
]
