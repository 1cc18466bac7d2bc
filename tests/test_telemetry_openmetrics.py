"""OpenMetrics text exposition: rendering, name mapping, negotiation."""

import pytest

from repro.telemetry import (
    MetricsRegistry,
    OPENMETRICS_CONTENT_TYPE,
    TelemetryHub,
    negotiates_openmetrics,
    render_openmetrics,
)
from repro.telemetry.hub import KINDS


def lines_of(registry):
    return render_openmetrics(registry).splitlines()


class TestRendering:
    def test_document_shape(self):
        registry = MetricsRegistry()
        registry.counter("device.ops").inc(3)
        registry.gauge("mem.row_buffer_hit_rate").set(0.5)
        text = render_openmetrics(registry)
        assert text.endswith("# EOF\n")
        lines = text.splitlines()
        assert "# TYPE coruscant_device_ops counter" in lines
        assert "coruscant_device_ops_total 3" in lines
        assert "# TYPE coruscant_mem_row_buffer_hit_rate gauge" in lines
        assert "coruscant_mem_row_buffer_hit_rate 0.5" in lines

    def test_empty_registry_is_build_info_plus_eof(self):
        from repro import __version__

        assert render_openmetrics(MetricsRegistry()) == (
            "# TYPE coruscant_build_info gauge\n"
            f'coruscant_build_info{{version="{__version__}"}} 1\n'
            "# EOF\n"
        )

    def test_unit_lines_follow_type_for_seconds_families(self):
        hub = TelemetryHub()
        hub.emit(
            "service.request", kernel="add", status="ok", seconds=0.002
        )
        lines = lines_of(hub.metrics)
        fam = "coruscant_service_request_seconds"
        type_index = lines.index(f"# TYPE {fam} histogram")
        assert lines[type_index + 1] == f"# UNIT {fam} seconds"
        # Non-seconds families carry no UNIT line.
        assert not any(
            line.startswith("# UNIT") and fam not in line
            for line in lines
        )

    def test_gauge_families_never_end_in_total(self):
        registry = MetricsRegistry()
        registry.gauge("scrub.repaired.total").set(3)
        lines = lines_of(registry)
        assert "# TYPE coruscant_scrub_repaired gauge" in lines
        assert "coruscant_scrub_repaired 3" in lines
        assert not any(
            "coruscant_scrub_repaired_total" in line for line in lines
        )

    def test_slo_gauges_map_to_labelled_families(self):
        registry = MetricsRegistry()
        registry.gauge("slo.latency.burn_rate.fast").set(1.5)
        registry.gauge("slo.latency.compliance").set(0.995)
        lines = lines_of(registry)
        assert "# TYPE coruscant_slo_burn_rate gauge" in lines
        assert (
            'coruscant_slo_burn_rate{slo="latency",window="fast"} 1.5'
            in lines
        )
        assert 'coruscant_slo_compliance{slo="latency"} 0.995' in lines

    def test_histogram_buckets_are_cumulative_with_inf(self):
        registry = MetricsRegistry()
        hist = registry.histogram("resilience.retry_depth", (1, 2, 3))
        for value in (1, 1, 2, 9):
            hist.observe(value)
        lines = lines_of(registry)
        fam = "coruscant_resilience_retry_depth"
        assert f"# TYPE {fam} histogram" in lines
        assert f'{fam}_bucket{{le="1.0"}} 2' in lines
        assert f'{fam}_bucket{{le="2.0"}} 3' in lines
        assert f'{fam}_bucket{{le="3.0"}} 3' in lines
        assert f'{fam}_bucket{{le="+Inf"}} 4' in lines
        assert f"{fam}_sum 13" in lines
        assert f"{fam}_count 4" in lines

    def test_dynamic_segments_become_labels(self):
        hub = TelemetryHub()
        hub.emit("service.admitted", kernel="multiply", priority="batch")
        hub.emit("service.rejected", kernel="add", reason="queue_full")
        hub.emit("service.shed", kernel="add", stage="queue")
        hub.emit(
            "service.request", kernel="multiply", status="ok", seconds=0.002
        )
        hub.metrics.gauge("service.queue_depth.storm.add").set(5)
        hub.emit("resilience.op", attempts=2, verdict="recovered")
        lines = lines_of(hub.metrics)
        assert 'coruscant_service_admitted_total{priority="batch"} 1' in lines
        assert 'coruscant_service_kernel_admitted_total{kernel="multiply"} 1' in lines
        assert 'coruscant_service_rejected_total{reason="queue_full"} 1' in lines
        assert 'coruscant_service_shed_total{stage="queue"} 1' in lines
        assert 'coruscant_service_requests_total{status="ok"} 1' in lines
        assert (
            'coruscant_service_queue_depth{kernel="add",profile="storm"} 5'
            in lines
        )
        assert 'coruscant_resilience_verdict_total{verdict="recovered"} 1' in lines

    def test_per_kernel_latency_merges_into_one_family(self):
        hub = TelemetryHub()
        hub.emit(
            "service.request", kernel="add", status="ok", seconds=0.002
        )
        hub.emit(
            "service.request", kernel="multiply", status="ok", seconds=0.004
        )
        lines = lines_of(hub.metrics)
        fam = "coruscant_service_request_seconds"
        # One TYPE header covers the bare aggregate and both kernels.
        assert lines.count(f"# TYPE {fam} histogram") == 1
        assert f'{fam}_bucket{{kernel="add",le="+Inf"}} 1' in lines
        assert f'{fam}_bucket{{kernel="multiply",le="+Inf"}} 1' in lines
        assert f'{fam}_bucket{{le="+Inf"}} 2' in lines
        assert f"{fam}_count 2" in lines
        # Bucket edges render as floats per the exposition grammar.
        _name, edges, _field = KINDS["service.request"].histograms[0]
        edge = edges[0]
        assert f'{fam}_bucket{{le="{edge}"}} 0' in lines

    def test_families_are_sorted_and_unique(self):
        hub = TelemetryHub()
        hub.emit("service.admitted", kernel="add", priority="interactive")
        hub.emit(
            "device.op", op="shift", cycles=4, energy_pj=0.6, count=1
        )
        text = render_openmetrics(hub.metrics)
        type_lines = [
            line for line in text.splitlines() if line.startswith("# TYPE")
        ]
        assert type_lines == sorted(type_lines)
        families = [line.split()[2] for line in type_lines]
        assert len(families) == len(set(families))


class TestNegotiation:
    @pytest.mark.parametrize(
        "accept",
        [
            "application/openmetrics-text",
            "application/openmetrics-text; version=1.0.0",
            "text/plain",
            "application/json, text/plain;q=0.5",
            "TEXT/PLAIN",
        ],
    )
    def test_text_forms_negotiate(self, accept):
        assert negotiates_openmetrics(accept) is True

    @pytest.mark.parametrize(
        "accept", [None, "", "application/json", "*/*", "text/html"]
    )
    def test_json_stays_default(self, accept):
        assert negotiates_openmetrics(accept) is False

    def test_content_type_names_the_version(self):
        assert "openmetrics-text" in OPENMETRICS_CONTENT_TYPE
        assert "version=1.0.0" in OPENMETRICS_CONTENT_TYPE
