"""End-to-end tests for the kernel gateway.

Three layers: the in-process client (full admission/retry/breaker
pipeline, no sockets), the raw HTTP front end, and the `serve` CLI as
a subprocess with a real SIGTERM drain.
"""

import asyncio
import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chaos.campaign import _storm
from repro.device.nanowire import DataLossError
from repro.resilience.errors import BudgetExhaustedError
from repro.service.admission import AdmissionPolicy
from repro.service.breaker import CLOSED, OPEN, RequestBreakerConfig
from repro.service.client import ServiceClient
from repro.service.dispatch import RetryConfig
from repro.service.gateway import _REASONS, Gateway, _BadHttp
from repro.service.kernels import CATALOGUE, KERNELS
from repro.service.profiles import DeviceProfile, default_profiles
from repro.service.protocol import (
    PRIORITY_BATCH,
    KernelRequest,
    ServiceReject,
)
from repro.utils.deadline import Deadline

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="class")
def client():
    with ServiceClient(workers=1) as active:
        yield active


class TestClientKernels:
    def test_add(self, client):
        response = client.request(
            "add", {"words": [1, 2, 4, 8], "n_bits": 8}
        )
        assert response.status == "ok"
        assert response.body["result"]["sum"] == 15
        assert response.body["result"]["cycles"] > 0

    def test_multiply(self, client):
        response = client.request(
            "multiply", {"a": 12, "b": 11, "n_bits": 8}
        )
        assert response.status == "ok"
        assert response.body["result"]["product"] == 132

    def test_popcount(self, client):
        response = client.request(
            "popcount", {"bits": [1, 0, 1, 1, 0, 1]}
        )
        assert response.status == "ok"
        assert response.body["result"]["count"] == 4

    def test_bulk_op(self, client):
        response = client.request(
            "bulk-op",
            {"op": "xor", "operands": [[1, 0, 1], [1, 1, 0]]},
        )
        assert response.status == "ok"
        assert response.body["result"]["bits"] == [0, 1, 1]

    def test_bitmap_query(self, client):
        response = client.request(
            "bitmap-query", {"users": 16, "weeks": 2, "seed": 7}
        )
        assert response.status == "ok"
        result = response.body["result"]
        assert 0 <= result["count"] <= 16
        assert result["tr_passes"] > 0

    def test_cnn_infer(self, client):
        response = client.request(
            "cnn-infer", {"size": 4, "seed": 3}, budget_s=60.0
        )
        assert response.status == "ok"
        assert len(response.body["result"]["logits"]) == 4

    def test_envelope_shape(self, client):
        response = client.request("add", {"words": [1, 1], "n_bits": 4})
        body = response.body
        assert body["schema"] == "coruscant-service/1"
        assert body["kernel"] == "add"
        assert body["profile"] == "default"
        assert body["request_id"] > 0
        assert body["retries"] == []

    def test_bad_payload_rejected(self, client):
        response = client.request("add", {"words": "nope"})
        assert response.http_status == 400
        assert response.status == "rejected"
        assert response.body["error"] == "bad_request"

    def test_unknown_kernel_rejected(self, client):
        response = client.request("transmogrify", {})
        assert response.http_status == 400
        assert "unknown kernel" in response.body["message"]

    def test_unknown_profile_rejected(self, client):
        response = client.request(
            "add", {"words": [1, 2], "n_bits": 4}, profile="nope"
        )
        assert response.http_status == 400
        assert "unknown profile" in response.body["message"]

    def test_expired_budget_shed_with_504(self, client):
        response = client.request(
            "add", {"words": [1, 2], "n_bits": 4}, budget_s=1e-9
        )
        assert response.http_status == 504
        assert response.status == "expired"
        assert response.body["error"] == "deadline_exceeded"

    def test_batch_degrades_instead_of_failing_whole(self, client):
        items = [
            {"words": [1, 2], "n_bits": 4},
            {"words": [3, 4], "n_bits": 4},
            {"words": "broken"},
        ]
        response = client.request("add", {"items": items})
        assert response.http_status == 200
        assert response.status == "degraded"
        results = response.body["results"]
        assert results[0]["sum"] == 3
        assert results[1]["sum"] == 7
        assert results[2] is None
        assert response.body["incomplete"] == [
            {"index": 2, "reason": "bad_request"}
        ]

    def test_batch_all_ok(self, client):
        items = [{"words": [1, n], "n_bits": 4} for n in range(3)]
        response = client.request("add", {"items": items})
        assert response.status == "ok"
        assert [r["sum"] for r in response.body["results"]] == [1, 2, 3]

    def test_healthz_reports_profiles(self, client):
        body = client.healthz()
        assert body["status"] == "ok"
        snapshot = body["profiles"]["default"]
        assert snapshot["breaker"]["state"] == "CLOSED"
        assert set(snapshot["queue_depths"]) == set(KERNELS)

    def test_readyz_ready(self, client):
        body = client.readyz()
        assert body["ready"] is True
        assert body["draining"] is False


class TestAdmissionBackpressure:
    def run(self, coro):
        return asyncio.run(coro)

    def gateway(self):
        return Gateway(
            admission=AdmissionPolicy(capacity=1, high_reserve=1)
        )

    def request(self, priority="interactive"):
        return KernelRequest(
            kernel="add",
            payload={"words": [1, 2], "n_bits": 4},
            deadline=Deadline.never(),
            priority=priority,
        )

    def test_queue_full_is_429_with_retry_after(self):
        async def scenario():
            dispatcher = self.gateway().dispatchers["default"]
            dispatcher.submit(self.request())
            dispatcher.submit(self.request())
            with pytest.raises(ServiceReject) as exc:
                dispatcher.submit(self.request())
            assert exc.value.http_status == 429
            assert exc.value.error == "queue_full"
            assert exc.value.retry_after > 0

        self.run(scenario())

    def test_batch_refused_while_reserve_open(self):
        async def scenario():
            dispatcher = self.gateway().dispatchers["default"]
            dispatcher.submit(self.request(PRIORITY_BATCH))
            with pytest.raises(ServiceReject):
                dispatcher.submit(self.request(PRIORITY_BATCH))
            # The reserve slot still admits interactive traffic.
            dispatcher.submit(self.request())

        self.run(scenario())

    def test_pre_expired_deadline_refused_at_admission(self):
        async def scenario():
            dispatcher = self.gateway().dispatchers["default"]
            request = self.request()
            request.deadline = Deadline(0.0)
            with pytest.raises(ServiceReject) as exc:
                dispatcher.submit(request)
            assert exc.value.http_status == 504

        self.run(scenario())


class TestBreakerIsolation:
    def test_storm_profile_opens_while_default_serves(self):
        profiles = default_profiles(
            {
                "storm": DeviceProfile(
                    name="storm", tr_fault_rate=0.2, seed=11
                )
            }
        )
        gateway = Gateway(
            profiles=profiles,
            breaker=RequestBreakerConfig(
                window=8, min_samples=4, trip_threshold=0.5,
                open_seconds=30.0, probe_requests=2,
            ),
            retry=RetryConfig(attempts=2, base=0.001, cap=0.002),
            workers=1,
        )
        with ServiceClient(gateway=gateway) as client:
            statuses = []
            for _ in range(16):
                response = client.request(
                    "add",
                    {"words": [3, 4], "n_bits": 8},
                    profile="storm",
                )
                statuses.append(
                    response.body.get("error", response.status)
                )
                if "breaker_open" in statuses:
                    break
            assert "breaker_open" in statuses
            snap = gateway.dispatchers["storm"].breaker.snapshot()
            assert snap["state"] == OPEN
            # The healthy profile is untouched by its neighbour's storm.
            response = client.request(
                "add", {"words": [3, 4], "n_bits": 8}
            )
            assert response.status == "ok"
            assert client.readyz()["ready"] is True

    def test_product_wider_than_the_dbc_is_refused_not_a_fault(self):
        # A bad payload is never device evidence: 30 of them leave the
        # breaker closed for the valid request after them.
        profiles = default_profiles(
            {"small": DeviceProfile(name="small", tracks=8)}
        )
        gateway = Gateway(profiles=profiles, workers=1)
        with ServiceClient(gateway=gateway) as client:
            for _ in range(30):
                response = client.request(
                    "multiply", {"a": 173, "b": 219, "n_bits": 8},
                    profile="small",
                )
                assert response.http_status == 400, response.body
                assert response.body["error"] == "bad_request"
            snap = gateway.dispatchers["small"].breaker.snapshot()
            assert snap["state"] == CLOSED
            response = client.request(
                "multiply", {"a": 3, "b": 5, "n_bits": 4}, profile="small"
            )
            assert response.http_status == 200, response.body
            assert response.body["result"]["product"] == 15


class TestBatchOutcomes:
    """A batch with no completed item: fault, then deadline, then 400."""

    @pytest.fixture
    def send(self, monkeypatch):
        add = CATALOGUE["add"].run

        def scripted(system, payload, deadline):
            if payload.get("fault"):
                raise DataLossError("a shift pushed a data domain off")
            if payload.get("expire"):
                raise BudgetExhaustedError("budget spent mid-ladder")
            return add(system, payload, deadline)

        monkeypatch.setitem(
            CATALOGUE, "add", CATALOGUE["add"]._replace(run=scripted)
        )
        gateway = Gateway(
            retry=RetryConfig(attempts=2, base=0.001, cap=0.002), workers=1
        )
        with ServiceClient(gateway=gateway) as client:
            yield lambda items: client.request("add", {"items": items})

    def test_all_malformed_is_400_not_504(self, send):
        response = send([{"words": "x"}, {"n_bits": 3}])
        assert response.http_status == 400, response.body
        assert response.status == "rejected"
        assert response.body["error"] == "all_items_incomplete"
        assert response.body["results"] == [None, None]
        assert response.body["incomplete"] == [
            {"index": 0, "reason": "bad_request"},
            {"index": 1, "reason": "bad_request"},
        ]

    def test_malformed_and_faulted_is_500(self, send):
        response = send([{"words": "x"}, {"fault": True}])
        assert response.http_status == 500, response.body
        assert response.status == "error"
        assert [i["reason"] for i in response.body["incomplete"]] == [
            "bad_request", "data_loss",
        ]

    def test_malformed_and_expired_is_504(self, send):
        response = send([{"expire": True}, {"words": "x"}])
        assert response.http_status == 504, response.body
        assert response.status == "expired"
        assert [i["reason"] for i in response.body["incomplete"]] == [
            "deadline_exceeded", "bad_request",
        ]


class TestSloCountsEveryAnswer:
    """The gateway's SLO engine sees every answer, refused or completed."""

    ADD = {"payload": {"words": [3, 4], "n_bits": 8}}

    def test_refusals_burn_availability(self):
        gateway = Gateway(
            profiles=default_profiles(
                {"victim": DeviceProfile(name="victim")}
            ),
            breaker=RequestBreakerConfig(open_seconds=300.0),
            workers=1,
        )
        with ServiceClient(gateway=gateway) as client:
            for _ in range(5):
                response = client.request(
                    "add", self.ADD["payload"], profile="victim"
                )
                assert response.status == "ok"
            _storm(gateway.dispatchers["victim"].breaker)
            for _ in range(45):
                response = client.request(
                    "add", self.ADD["payload"], profile="victim"
                )
                assert response.http_status == 503
                assert response.body["error"] == "breaker_open"
            report = client.readyz()["slo"]
        counters = gateway.telemetry.metrics.as_dict()["counters"]
        assert counters["service.requests"] == 5
        assert counters["service.rejected"] == 45
        entry = {e["name"]: e for e in report["slos"]}["availability"]
        assert entry["compliance"] == 0.1
        assert entry["status"] == "burning"
        assert report["burning"] is True

    @pytest.mark.parametrize("journalled", [False, True])
    def test_bad_idempotency_key_is_a_counted_refusal(self, tmp_path, journalled):
        from repro.service.journal import RequestJournal

        journal = (
            RequestJournal(str(tmp_path / "journal.jsonl")) if journalled else None
        )
        gateway = Gateway(workers=1, journal=journal)
        with ServiceClient(gateway=gateway) as client:
            response = client.request(
                "add", {"words": [1, 2], "n_bits": 4}, idempotency_key=""
            )
        assert response.http_status == 400
        assert response.body["error"] == "bad_request"
        assert response.body["message"] == (
            "'idempotency_key' must be a non-empty string"
        )
        counters = gateway.telemetry.metrics.as_dict()["counters"]
        assert counters["service.rejected"] == 1
        counts = gateway.slo_engine.counts()
        assert counts and all(total == 1 for _good, total in counts.values())

    def test_engine_total_is_requests_plus_rejected(self):
        async def scenario():
            gateway = Gateway(
                profiles=default_profiles(
                    {"victim": DeviceProfile(name="victim")}
                ),
                admission=AdmissionPolicy(capacity=1, high_reserve=0),
                breaker=RequestBreakerConfig(open_seconds=300.0),
                workers=1,
            )
            await gateway.start_core()
            _storm(gateway.dispatchers["victim"].breaker)
            calls = (
                [("add", self.ADD)] * 6
                + [("add", {**self.ADD, "profile": "victim"})] * 3
                + [("add", {"payload": {"words": "x"}})] * 2
                + [("transmogrify", {})]
            )
            responses = await asyncio.gather(
                *(gateway.handle(kernel, body) for kernel, body in calls)
            )
            await gateway.shutdown()
            return gateway, responses

        gateway, responses = asyncio.run(scenario())
        assert {r.http_status for r in responses} >= {200, 400, 429, 503}
        counters = gateway.telemetry.metrics.as_dict()["counters"]
        answers = counters["service.requests"] + counters["service.rejected"]
        assert answers == len(responses)
        counts = gateway.slo_engine.counts()
        good = sum(r.status in ("ok", "degraded") for r in responses)
        assert counts["availability"] == [good, answers]
        assert counts["latency"][1] == answers


class TestHttpServer:
    def run(self, coro):
        return asyncio.run(coro)

    async def http(self, port, method, path, body=None):
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", port
        )
        payload = json.dumps(body).encode() if body is not None else b""
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: localhost\r\n"
            f"Content-Length: {len(payload)}\r\n\r\n"
        )
        writer.write(head.encode() + payload)
        await writer.drain()
        raw = await reader.read()
        writer.close()
        status = int(raw.split(b" ", 2)[1])
        headers, _, content = raw.partition(b"\r\n\r\n")
        return status, json.loads(content), headers.decode("latin-1")

    def test_http_surface(self):
        async def scenario():
            gateway = Gateway(port=0, workers=1)
            await gateway.start()
            try:
                port = gateway.port
                status, body, _ = await self.http(
                    port, "GET", "/healthz"
                )
                assert status == 200 and body["status"] == "ok"
                status, body, _ = await self.http(
                    port, "GET", "/readyz"
                )
                assert status == 200 and body["ready"] is True
                status, body, _ = await self.http(
                    port, "GET", "/metrics"
                )
                assert status == 200 and "counters" in body
                status, body, _ = await self.http(
                    port, "POST", "/v1/add",
                    {"payload": {"words": [20, 22], "n_bits": 8}},
                )
                assert status == 200
                assert body["result"]["sum"] == 42
                status, body, _ = await self.http(
                    port, "POST", "/v1/transmogrify", {"payload": {}}
                )
                assert status == 400
                status, body, _ = await self.http(
                    port, "GET", "/nope"
                )
                assert status == 404
                status, body, _ = await self.http(
                    port, "DELETE", "/v1/add", {}
                )
                assert status == 405
            finally:
                await gateway.shutdown()

        self.run(scenario())

    def test_shutdown_refuses_new_then_drains(self):
        async def scenario():
            gateway = Gateway(port=0, workers=1)
            await gateway.start()
            await gateway.shutdown()
            response = await gateway.handle(
                "add", {"payload": {"words": [1, 2], "n_bits": 4}}
            )
            assert response.http_status == 503
            assert response.body["error"] == "draining"
            assert "Retry-After" in response.headers

        self.run(scenario())


class TestServeCliSigterm:
    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        port_file = tmp_path / "port"
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--port", "0", "--port-file", str(port_file),
                "--workers", "1",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            deadline = time.monotonic() + 30
            while not port_file.exists():
                assert proc.poll() is None, proc.communicate()[1]
                assert time.monotonic() < deadline
                time.sleep(0.05)
            port = int(port_file.read_text())

            responses = []

            def fire():
                request = urllib.request.Request(
                    f"http://127.0.0.1:{port}/v1/add",
                    data=json.dumps(
                        {"payload": {"words": [5, 6], "n_bits": 8}}
                    ).encode(),
                    method="POST",
                )
                with urllib.request.urlopen(request, timeout=30) as r:
                    responses.append(json.loads(r.read()))

            threads = [
                threading.Thread(target=fire) for _ in range(4)
            ]
            for thread in threads:
                thread.start()
            time.sleep(0.2)
            proc.send_signal(signal.SIGTERM)
            for thread in threads:
                thread.join(timeout=30)
            stdout, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, stdout
        assert "drained clean" in stdout
        # Every request admitted before the drain got its answer.
        assert len(responses) == 4
        assert all(r["status"] == "ok" for r in responses)
        assert all(r["result"]["sum"] == 11 for r in responses)

class TestObservabilityPipeline:
    """The tentpole contract: one causally-linked trace per request."""

    def test_one_trace_spans_gateway_to_resilience(self, tmp_path):
        from repro.telemetry import (
            EventLog,
            MemorySink,
            TelemetryHub,
            Tracer,
            chrome_trace,
        )

        hub = TelemetryHub(
            tracer=Tracer(), events=EventLog(MemorySink())
        )
        gateway = Gateway(workers=1, telemetry=hub)
        with ServiceClient(gateway=gateway) as client:
            response = client.request(
                "add", {"words": [5, 6], "n_bits": 8}
            )
        assert response.status == "ok"
        trace_id = response.body["trace_id"]
        assert trace_id

        document = chrome_trace(hub.tracer)
        spans = [
            e
            for e in document["traceEvents"]
            if e["ph"] == "X"
            and e.get("args", {}).get("trace_id") == trace_id
        ]
        names = {e["name"] for e in spans}
        # The request's causal chain crosses the gateway event loop,
        # the dispatcher coroutine, the worker thread, and the
        # resilient executor — all under one trace_id.
        assert {
            "service.request",
            "service.dispatch",
            "service.execute",
            "resilience.op",
        } <= names

        by_name = {e["name"]: e for e in spans}
        # service.execute runs on the worker-pool thread, not the
        # event-loop thread the request span lives on.
        assert (
            by_name["service.execute"]["tid"]
            != by_name["service.request"]["tid"]
        )
        # resilience.op nests inside service.execute on that thread.
        assert (
            by_name["resilience.op"]["tid"]
            == by_name["service.execute"]["tid"]
        )
        # Parent links stitch the chain: dispatch under request,
        # execute under dispatch.
        assert (
            by_name["service.dispatch"]["args"]["parent_span_id"]
            == by_name["service.request"]["args"]["span_id"]
        )
        assert (
            by_name["service.execute"]["args"]["parent_span_id"]
            == by_name["service.dispatch"]["args"]["span_id"]
        )

        # Cross-thread links render as flow event pairs (ph s/f), so
        # Perfetto draws connected arrows instead of orphan tracks.
        flows = [
            e
            for e in document["traceEvents"]
            if e["ph"] in ("s", "f")
        ]
        assert flows, "expected flow events linking the threads"
        starts = {e["id"] for e in flows if e["ph"] == "s"}
        finishes = {e["id"] for e in flows if e["ph"] == "f"}
        assert starts == finishes
        execute_flow = by_name["service.execute"]["args"]["span_id"]
        assert execute_flow in starts

        # The event log saw the same request under the same trace_id.
        correlated = [
            record
            for record in hub.events.sink.records
            if record.get("trace_id") == trace_id
        ]
        events = {record["event"] for record in correlated}
        assert "service.admitted" in events
        assert "service.request.done" in events

    def test_request_ids_survive_restarts(self):
        from repro.utils.streams import process_salt

        gateway = Gateway(workers=1)
        with ServiceClient(gateway=gateway) as client:
            first = client.request(
                "add", {"words": [1, 2], "n_bits": 8}
            )
            second = client.request(
                "add", {"words": [1, 2], "n_bits": 8}
            )
        ids = {first.body["request_id"], second.body["request_id"]}
        assert len(ids) == 2
        # Salt in the high bits: a restarted gateway (new process)
        # cannot mint ids colliding with these in a shared event log.
        assert all(i >> 24 == process_salt() for i in ids)


class TestMetricsContentNegotiation:
    def run(self, coro):
        return asyncio.run(coro)

    async def http_raw(self, port, path, accept=None):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        head = f"GET {path} HTTP/1.1\r\nHost: localhost\r\n"
        if accept is not None:
            head += f"Accept: {accept}\r\n"
        head += "Content-Length: 0\r\n\r\n"
        writer.write(head.encode())
        await writer.drain()
        raw = await reader.read()
        writer.close()
        status = int(raw.split(b" ", 2)[1])
        headers, _, content = raw.partition(b"\r\n\r\n")
        return status, headers.decode("latin-1"), content

    def test_metrics_negotiation(self):
        from repro.telemetry import OPENMETRICS_CONTENT_TYPE

        async def scenario():
            gateway = Gateway(port=0, workers=1)
            await gateway.start()
            try:
                port = gateway.port
                response = await gateway.handle(
                    "add", {"payload": {"words": [3, 4], "n_bits": 8}}
                )
                assert response.status == "ok"

                # Default: the historical JSON snapshot, byte-stable.
                status, headers, content = await self.http_raw(
                    port, "/metrics"
                )
                assert status == 200
                assert "application/json" in headers
                json_body = json.loads(content)
                assert "counters" in json_body
                assert json_body["counters"]["service.requests"] == 1

                # An explicit JSON ask stays JSON too.
                status, headers, content = await self.http_raw(
                    port, "/metrics", accept="application/json"
                )
                assert status == 200
                assert json.loads(content) == json_body

                # OpenMetrics negotiation flips to text exposition.
                status, headers, content = await self.http_raw(
                    port, "/metrics",
                    accept="application/openmetrics-text; version=1.0.0",
                )
                assert status == 200
                assert OPENMETRICS_CONTENT_TYPE in headers
                text = content.decode()
                assert text.endswith("# EOF\n")
                assert (
                    'coruscant_service_requests_total{status="ok"} 1'
                    in text
                )
                assert "# TYPE coruscant_service_request_seconds " in text
                assert 'le="+Inf"' in text

                # text/plain (plain Prometheus scrapers) negotiates too.
                status, headers, content = await self.http_raw(
                    port, "/metrics", accept="text/plain"
                )
                assert status == 200
                assert content.decode().endswith("# EOF\n")
            finally:
                await gateway.shutdown()

        self.run(scenario())


class TestMetricsReadFromOwners:
    """Queue depths and journal counts are read when /metrics is."""

    def run(self, coro):
        return asyncio.run(coro)

    async def metrics(self, port, accept="application/json"):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(
            (
                "GET /metrics HTTP/1.1\r\nHost: localhost\r\n"
                f"Accept: {accept}\r\nContent-Length: 0\r\n\r\n"
            ).encode()
        )
        await writer.drain()
        raw = await reader.read()
        writer.close()
        content = raw.partition(b"\r\n\r\n")[2]
        if accept == "application/json":
            return json.loads(content)["gauges"]
        return content.decode()

    def test_live_depths_and_pending_return_to_zero(
        self, tmp_path, monkeypatch
    ):
        from repro.service import kernels
        from repro.service.journal import RequestJournal

        entered = threading.Event()
        release = threading.Event()
        entry = kernels.CATALOGUE["add"]

        def held_add(system, payload, deadline):
            entered.set()
            release.wait(timeout=30)
            return entry.run(system, payload, deadline)

        monkeypatch.setitem(
            kernels.CATALOGUE, "add", entry._replace(run=held_add)
        )
        add = {"words": [20, 22], "n_bits": 8}
        multiply = {"a": 6, "b": 7, "n_bits": 8}

        async def scenario():
            journal = RequestJournal(str(tmp_path / "journal.jsonl"))
            gateway = Gateway(port=0, workers=1, journal=journal)
            await gateway.start()
            loop = asyncio.get_running_loop()
            tasks = []

            def submit(kernel, payload, key):
                tasks.append(
                    asyncio.ensure_future(
                        gateway.handle(
                            kernel,
                            {"payload": payload, "idempotency_key": key},
                        )
                    )
                )

            try:
                submit("add", add, "held")
                assert await loop.run_in_executor(None, entered.wait, 30)
                depths = dict.fromkeys(KERNELS, 0)
                queued = [("add", add), ("multiply", multiply),
                          ("add", add)]
                for index, (kernel, payload) in enumerate(queued):
                    submit(kernel, payload, f"queued-{index}")
                    await asyncio.sleep(0)  # admit and journal it
                    depths[kernel] += 1
                    gauges = await self.metrics(gateway.port)
                    for name, depth in depths.items():
                        key = f"service.queue_depth.default.{name}"
                        assert gauges[key] == depth, key
                    # The held request is pending too: it has no ack.
                    assert gauges["journal.pending"] == index + 2
                    assert gauges["journal.intents"] == index + 2
                text = await self.metrics(
                    gateway.port, accept="application/openmetrics-text"
                )
                assert (
                    'coruscant_service_queue_depth{kernel="add",'
                    'profile="default"} 2' in text.splitlines()
                )
                assert "coruscant_journal_pending 4" in text.splitlines()
                release.set()
                responses = await asyncio.gather(*tasks)
                assert [r.status for r in responses] == ["ok"] * 4
                gauges = await self.metrics(gateway.port)
                for name in KERNELS:
                    assert gauges[f"service.queue_depth.default.{name}"] == 0
                assert gauges["journal.pending"] == 0
                assert gauges["journal.acks"] == 4
            finally:
                release.set()
                await gateway.shutdown()

        self.run(scenario())


class TestStartReplay:
    def test_run_gateway_replays_the_journal_before_serving(self, tmp_path):
        from repro.service.gateway import run_gateway
        from repro.service.journal import RequestJournal

        path = str(tmp_path / "journal.jsonl")
        body = {
            "payload": {"words": [20, 22], "n_bits": 8},
            "idempotency_key": "k1",
        }
        crashed = RequestJournal(path)  # accepted, then the process died
        crashed.record_intent("k1", "add", body)
        crashed.close()
        journal = RequestJournal(path)
        gateway = Gateway(port=0, workers=1, journal=journal)
        at_listen = {}

        def announce(_host, _port):
            at_listen["replay"] = list(gateway.last_replay)
            at_listen["counts"] = journal.counts()
            at_listen["listening"].set()

        async def scenario():
            at_listen["listening"] = asyncio.Event()
            served = asyncio.ensure_future(run_gateway(gateway, announce))
            await asyncio.wait_for(at_listen["listening"].wait(), 30)
            status, reply, _ = await TestHttpServer().http(
                gateway.port, "POST", "/v1/add", body
            )
            await gateway.shutdown()
            return status, reply, await served

        status, reply, code = asyncio.run(scenario())
        assert at_listen["replay"] == [
            {"key": "k1", "kernel": "add", "http_status": 200,
             "status": "ok"}
        ]
        assert at_listen["counts"]["pending"] == 0
        # The first connection gets the replayed request's ack.
        assert status == 200 and reply["replayed"] is True
        assert reply["result"]["sum"] == 42
        assert code == 0
        restarted = RequestJournal(path)
        assert restarted.counts()["pending"] == 0
        restarted.close()


ADD = {"words": [20, 22], "n_bits": 8}


class TestCommitPoint:
    """A keyed answer leaves the gateway only once its ack is on disk."""

    @staticmethod
    def ack_ends(path):
        """Key -> the journal offset just past the key's ack record."""
        ends, offset = {}, 0
        with open(path, "rb") as handle:
            for line in handle:
                offset += len(line)
                record = json.loads(line)
                if record["type"] == "ack":
                    ends[record["key"]] = offset
        return ends

    @staticmethod
    def send_concurrently(client, requests, callers=2):
        """``requests`` (kernel, payload, key), split over ``callers`` threads."""
        answers = {}

        def caller(share):
            for kernel, payload, key in share:
                answers[key] = client.request(
                    kernel, payload, idempotency_key=key
                )

        threads = [
            threading.Thread(target=caller, args=(requests[i::callers],))
            for i in range(callers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        return answers

    def test_every_keyed_answer_follows_the_fsync_of_its_ack(
        self, tmp_path, monkeypatch
    ):
        from repro.service.journal import RequestJournal

        path = str(tmp_path / "journal.jsonl")
        journal = RequestJournal(path)
        inode = os.stat(path).st_ino
        synced = [0]  # the journal's size at its latest fsync
        fsync = os.fsync

        def recording_fsync(fd):
            stat = os.fstat(fd)
            if stat.st_ino == inode:
                synced[0] = max(synced[0], stat.st_size)
            fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        gateway = Gateway(workers=2, journal=journal)
        handle = gateway.handle
        answered = []

        async def answering(kernel, body, journal_key=None):
            response = await handle(kernel, body, journal_key=journal_key)
            # This instant, on the loop, is the answer leaving.
            answered.append((body["idempotency_key"], synced[0]))
            return response

        gateway.handle = answering
        requests = [("add", ADD, f"k{i}") for i in range(40)]
        with ServiceClient(gateway=gateway) as client:
            answers = self.send_concurrently(client, requests)
        assert all(r.status == "ok" for r in answers.values())
        ends = self.ack_ends(path)
        assert len(answered) == len(ends) == 40
        for key, synced_size in answered:
            assert synced_size >= ends[key], (key, synced_size, ends[key])

    def test_an_intent_survives_a_process_death(self, tmp_path):
        from repro.service.journal import RequestJournal

        path = str(tmp_path / "journal.jsonl")
        body = {"payload": ADD, "idempotency_key": "k1"}
        # Journal the intent, then die without close(): the intent is
        # flushed to the OS but never fsynced.
        script = (
            "import json, os, sys\n"
            "from repro.service.journal import RequestJournal\n"
            "fsyncs = []\n"
            "fsync = os.fsync\n"
            "os.fsync = lambda fd: (fsyncs.append(fd), fsync(fd))\n"
            "journal = RequestJournal(sys.argv[1])\n"
            "journal.record_intent('k1', 'add', json.loads(sys.argv[2]))\n"
            "print(len(fsyncs), flush=True)\n"
            "os._exit(0)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
        died = subprocess.run(
            [sys.executable, "-c", script, path, json.dumps(body)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert died.returncode == 0, died.stderr
        assert died.stdout.split() == ["0"]
        recovered = RequestJournal(path)
        assert [p["key"] for p in recovered.pending()] == ["k1"]
        recovered.close()

        gateway = Gateway(workers=1, journal=RequestJournal(path))
        with ServiceClient(gateway=gateway) as client:
            assert gateway.last_replay == [
                {"key": "k1", "kernel": "add", "http_status": 200,
                 "status": "ok"}
            ]
            response = client.request("add", ADD, idempotency_key="k1")
        assert response.body["replayed"] is True
        assert response.body["result"]["sum"] == 42
        restarted = RequestJournal(path)
        counts = restarted.counts()
        restarted.close()
        assert (counts["acks"], counts["pending"]) == (1, 0)

    def test_concurrent_keyed_requests_commit_and_account(self, tmp_path):
        from repro.chaos.invariants import (
            check_accounting,
            check_events_consistency,
        )
        from repro.obs.loadgen import build_schedule
        from repro.service.journal import RequestJournal
        from repro.telemetry import EventLog, JsonlSink, TelemetryHub

        path = str(tmp_path / "journal.jsonl")
        events_path = str(tmp_path / "events.jsonl")
        events = EventLog(JsonlSink(events_path))
        hub = TelemetryHub(events=events)
        gateway = Gateway(
            workers=2, journal=RequestJournal(path), telemetry=hub
        )
        requests = [
            (item.kernel, item.payload, f"k{item.index}")
            for item in build_schedule("mixed", 200, seed=7)
        ]
        try:
            with ServiceClient(gateway=gateway) as client:
                answers = self.send_concurrently(client, requests)
        finally:
            events.close()
        assert len(answers) == 200
        assert all(r.status == "ok" for r in answers.values())
        journal = RequestJournal(path)
        counts = journal.counts()
        journal.close()
        assert (counts["acks"], counts["pending"], counts["torn_records"]) \
            == (200, 0, 0)
        counters = hub.metrics.as_dict()["counters"]
        with open(events_path) as handle:
            done = [
                record.get("trace_id")
                for record in map(json.loads, handle)
                if record["event"] == "service.request.done"
            ]
        for check in (
            check_accounting(200, counters),
            check_events_consistency(counters, done),
        ):
            assert check["ok"], check


class TestWorkerThreads:
    """Each dispatcher worker runs its kernels on a thread it owns."""

    def test_drain_leaves_no_worker_thread(self):
        before = set(threading.enumerate())
        client = ServiceClient(workers=2)
        with client:
            assert client.request("add", ADD).status == "ok"
            started = set(threading.enumerate()) - before
            workers = sum(
                d.workers for d in client.gateway.dispatchers.values()
            )
            assert sum(
                t.name.startswith("kernels-") for t in started
            ) == workers
        assert set(threading.enumerate()) - before == set()

    def test_a_long_kernel_does_not_hold_the_loop(self, monkeypatch):
        from repro.service import kernels

        entered = threading.Event()
        entry = kernels.CATALOGUE["multiply"]

        def slow_multiply(system, payload, deadline):
            entered.set()
            time.sleep(0.3)
            return entry.run(system, payload, deadline)

        monkeypatch.setitem(
            kernels.CATALOGUE, "multiply", entry._replace(run=slow_multiply)
        )
        order = []

        async def send(gateway, kernel, payload):
            started = time.monotonic()
            response = await gateway.handle(kernel, {"payload": payload})
            order.append(kernel)
            return response, time.monotonic() - started

        async def scenario():
            gateway = Gateway(workers=2)
            await gateway.start_core()
            try:
                slow = asyncio.ensure_future(
                    send(gateway, "multiply", {"a": 6, "b": 7, "n_bits": 8})
                )
                while not entered.is_set():
                    await asyncio.sleep(0.001)
                fast = await send(gateway, "add", ADD)
                return fast, await slow
            finally:
                await gateway.shutdown()

        (fast, fast_s), (slow, _slow_s) = asyncio.run(scenario())
        assert order == ["add", "multiply"]
        assert fast.status == "ok" and fast.body["result"]["sum"] == 42
        assert slow.status == "ok"
        assert fast_s < 0.15

    def test_a_failing_kernel_is_500_and_the_worker_serves_on(
        self, monkeypatch
    ):
        from repro.service import kernels

        threads = []
        entry = kernels.CATALOGUE["add"]

        def broken_once(system, payload, deadline):
            threads.append(threading.current_thread())
            if len(threads) == 1:
                raise RuntimeError("runner broke")
            return entry.run(system, payload, deadline)

        monkeypatch.setitem(
            kernels.CATALOGUE, "add", entry._replace(run=broken_once)
        )
        with ServiceClient(workers=1) as client:
            failed = client.request("add", ADD)
            served = client.request("add", ADD)
        assert failed.http_status == 500
        assert (failed.body["error"], failed.body["message"]) == (
            "internal", "runner broke"
        )
        assert served.status == "ok" and served.body["result"]["sum"] == 42
        assert threads[0] is threads[1]
        assert threads[0].name == "kernels-default-0"

    def test_more_workers_than_cores_under_a_short_switch_interval(self):
        # Futures settled from four kernel threads while the loop admits
        # from six callers: every answer arrives once, and right.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ServiceClient(workers=4) as client:
                answers = TestCommitPoint.send_concurrently(client, [
                    ("add", {"words": [i, 7], "n_bits": 8}, f"k{i}")
                    for i in range(80)
                ], callers=6)
                counters = client.gateway.telemetry.metrics.as_dict()[
                    "counters"
                ]
        finally:
            sys.setswitchinterval(interval)
        assert sorted(answers) == sorted(f"k{i}" for i in range(80))
        assert all(
            answers[f"k{i}"].body["result"]["sum"] == i + 7
            for i in range(80)
        )
        assert counters["service.requests"] == 80

    def test_the_thread_outlives_what_it_runs(self):
        from repro.service.dispatch import _KernelThread

        class Halt(BaseException):
            pass

        def halt():
            raise Halt()

        release = threading.Event()
        thread = _KernelThread("kernels-test")

        async def first_loop():
            with pytest.raises(Halt):
                await thread.call(halt)
            assert await thread.call(pow, 6, 2) == 36
            # Still running when this loop closes: its result is dropped.
            thread.call(release.wait, 30)

        async def second_loop():
            return await thread.call(pow, 2, 5)

        try:
            asyncio.run(first_loop())
            release.set()
            assert asyncio.run(second_loop()) == 32
        finally:
            release.set()
            thread.stop()
        assert not any(
            t.name == "kernels-test" for t in threading.enumerate()
        )


class TestHttpErrors:
    """Malformed wire input is a 400; a fault in a handler is a 500."""

    def exchange(self, raw, journal=None, half_close=False):
        async def scenario():
            gateway = Gateway(port=0, workers=1, journal=journal)
            await gateway.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", gateway.port
                )
                writer.write(raw)
                if half_close:
                    writer.write_eof()
                await writer.drain()
                reply = await reader.read()
                writer.close()
            finally:
                await gateway.shutdown()
            head, _, content = reply.partition(b"\r\n\r\n")
            return int(head.split(b" ", 2)[1]), json.loads(content)

        return asyncio.run(scenario())

    def test_request_line_without_three_parts(self):
        status, body = self.exchange(b"GET /healthz\r\n\r\n")
        assert status == 400 and body["error"] == "bad_http"

    @pytest.mark.parametrize("length", ["ten", "-5", "1e3", "\xb2"])
    def test_bad_content_length(self, length):
        status, body = self.exchange(
            b"POST /v1/add HTTP/1.1\r\nContent-Length: "
            + length.encode("latin-1") + b"\r\n\r\n{}"
        )
        assert status == 400 and body["error"] == "bad_http"
        assert "Content-Length" in body["message"]

    def test_body_shorter_than_content_length(self):
        status, body = self.exchange(
            b"POST /v1/add HTTP/1.1\r\nContent-Length: 10\r\n\r\n{}",
            half_close=True,
        )
        assert status == 400 and body["error"] == "bad_http"
        assert "2 of 10 bytes" in body["message"]

    def test_body_over_the_limit_stays_413(self):
        status, body = self.exchange(
            b"POST /v1/add HTTP/1.1\r\nContent-Length: 2000000\r\n\r\n"
        )
        assert status == 413 and body["error"] == "payload_too_large"

    def test_stalled_request_gets_408_and_cannot_block_drain(
        self, monkeypatch
    ):
        from repro.service import gateway as gateway_module

        monkeypatch.setattr(gateway_module, "_READ_TIMEOUT_S", 0.2)

        async def scenario():
            gateway = Gateway(port=0, workers=1)
            await gateway.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", gateway.port
            )
            # The client stops partway through a header line.
            writer.write(b"POST /v1/add HTTP/1.1\r\nContent-Len")
            await writer.drain()
            await asyncio.sleep(0.05)
            await asyncio.wait_for(gateway.shutdown(), 5.0)
            reply = await asyncio.wait_for(reader.read(), 5.0)
            writer.close()
            return reply

        head, _, content = asyncio.run(scenario()).partition(b"\r\n\r\n")
        assert int(head.split(b" ", 2)[1]) == 408
        assert json.loads(content) == {
            "status": "rejected", "error": "request_timeout"
        }

    def test_drain_waits_for_open_connections(self, monkeypatch):
        from repro.service import gateway as gateway_module

        monkeypatch.setattr(gateway_module, "_READ_TIMEOUT_S", 0.5)

        async def scenario():
            gateway = Gateway(port=0, workers=1)
            await gateway.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", gateway.port
            )
            writer.write(b"POST /v1/add HTTP/1.1\r\nContent-Len")
            await writer.drain()
            await asyncio.sleep(0.05)
            await asyncio.wait_for(gateway.shutdown(), 5.0)
            # No connection task outlives the drain: asyncio.run would
            # cancel it, and the client would get no answer.
            assert asyncio.all_tasks() == {asyncio.current_task()}
            # The answer was written before shutdown() returned.
            reply = await asyncio.wait_for(reader.read(), 0.2)
            writer.close()
            return reply

        head, _, content = asyncio.run(scenario()).partition(b"\r\n\r\n")
        assert int(head.split(b" ", 2)[1]) == 408
        assert json.loads(content)["error"] == "request_timeout"

    def test_line_over_the_stream_limit(self):
        from repro.service.gateway import _BadHttp, _read_line

        async def scenario():
            reader = asyncio.StreamReader(limit=16)
            reader.feed_data(b"GET /" + b"x" * 64 + b" HTTP/1.1\r\n")
            reader.feed_eof()
            with pytest.raises(_BadHttp, match="too long"):
                await _read_line(reader)

        asyncio.run(scenario())

    def test_fault_inside_handle_is_500_internal(
        self, tmp_path, monkeypatch
    ):
        from repro.service.journal import RequestJournal

        journal = RequestJournal(str(tmp_path / "journal.jsonl"))

        def broken_ack(*_args, **_kwargs):
            raise RuntimeError("ack write failed")

        # record_ack runs inside handle(), after admission and the
        # journal intent.
        monkeypatch.setattr(journal, "record_ack", broken_ack)
        payload = json.dumps(
            {"payload": {"words": [1, 2], "n_bits": 8},
             "idempotency_key": "k1"}
        ).encode()
        status, body = self.exchange(
            b"POST /v1/add HTTP/1.1\r\nContent-Length: "
            + str(len(payload)).encode() + b"\r\n\r\n" + payload,
            journal=journal,
        )
        assert status == 500
        assert body == {"status": "error", "error": "internal"}
        assert journal.has_intent("k1")


# ----------------------------------------------------------------------
# generated wire input

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
# Values that broke a handler once, mixed into every body field.
_EDGE_VALUES = st.sampled_from([
    float("nan"), float("inf"), -float("inf"), 1e300, 10 ** 400, 0, -1,
    True, None, "x", [1],
])
_OBJECT_BODIES = st.fixed_dictionaries({}, optional={
    key: _EDGE_VALUES | _JSON_VALUES
    for key in ("payload", "budget_s", "priority", "profile",
                "interval_ms")
})
# json.dumps writes NaN and Infinity unless told not to, as a careless
# client would.
_BODIES = (_OBJECT_BODIES | _EDGE_VALUES | _JSON_VALUES).map(
    lambda value: json.dumps(value).encode()
) | st.binary(max_size=48)
_POST_PATHS = [f"/v1/{kernel}" for kernel in KERNELS] + [
    "/v1/nope", "/debug/profile/start", "/debug/profile/stop",
    "/debug/profile/x",
]
_PATHS = st.sampled_from(
    _POST_PATHS + ["/healthz", "/readyz", "/metrics", "/"]
) | st.text(max_size=10)


@st.composite
def http_requests(draw):
    """A request line, a header block and a body; each part is well
    formed three times in four, so most examples reach a handler."""

    def part(good, bad):
        return draw(bad) if draw(st.integers(0, 3)) == 0 else good

    body = draw(_BODIES)
    method = part(draw(st.sampled_from(["GET", "POST"])), st.text(max_size=5))
    version = part("HTTP/1.1", st.text(max_size=8))
    length = part(str(len(body)), st.integers(0, 1 << 21).map(str)
                  | st.text(max_size=6))
    headers = draw(st.lists(st.tuples(
        st.sampled_from(["Accept", "Host"]) | st.text(max_size=8),
        st.sampled_from(["application/openmetrics-text", "*/*"])
        | st.text(max_size=12),
    ), max_size=2))
    head = f"{method} {draw(_PATHS)} {version}\r\n" + "".join(
        f"{name}: {value}\r\n"
        for name, value in headers + [("Content-Length", length)]
    )
    return (head + "\r\n").encode() + body


def _post(path, body):
    return (
        f"POST {path} HTTP/1.1\r\nContent-Length: {len(body)}\r\n\r\n"
    ).encode() + body


class TestHttpBoundary:
    """Whatever arrives on the wire gets a JSON-clean answer or a 400."""

    @pytest.fixture(scope="class")
    def served(self):
        async def start():
            gateway = Gateway(workers=1, enable_profiling=True)
            await gateway.start_core()
            return gateway

        loop = asyncio.new_event_loop()
        gateway = loop.run_until_complete(start())
        try:
            yield loop, gateway
        finally:
            loop.run_until_complete(gateway.shutdown())
            loop.close()

    @staticmethod
    def answer(served, raw):
        """``_handle_http`` on ``raw`` then EOF; stops any profiler."""
        loop, gateway = served

        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(raw)
            reader.feed_eof()
            return await gateway._handle_http(reader)

        try:
            return loop.run_until_complete(scenario())
        finally:
            if gateway._profiler is not None:
                gateway.profile_stop()

    @pytest.mark.parametrize("budget", ["NaN", "Infinity", "-Infinity",
                                        "1e999", "1" * 400])
    def test_non_finite_budget_is_400(self, served, budget):
        raw = _post("/v1/add", (
            '{"payload": {"words": [1, 2], "n_bits": 8}, '
            f'"budget_s": {budget}}}'
        ).encode())
        status, body, _ = self.answer(served, raw)
        assert status == 400 and body["error"] == "bad_request"
        json.dumps(body, allow_nan=False)

    @pytest.mark.parametrize("raw_body", [
        b'{"interval_ms": NaN}', b'{"interval_ms": Infinity}',
        b'{"interval_ms": -Infinity}', b'{"interval_ms": 1e300}',
        b"[1]", b'"x"', b"null",
    ])
    def test_bad_profile_start_is_400(self, served, raw_body):
        status, body, _ = self.answer(
            served, _post("/debug/profile/start", raw_body)
        )
        assert status == 400 and body["error"] == "bad_request"
        assert served[1]._profiler is None

    def test_finite_interval_starts_the_profiler(self, served):
        status, body, _ = self.answer(
            served, _post("/debug/profile/start", b'{"interval_ms": 2}')
        )
        assert (status, body["interval_ms"]) == (200, 2.0)

    @pytest.mark.parametrize("interval_ms", [b"1e-9", b"0.5"])
    def test_interval_below_the_sampling_floor_is_400(self, served, interval_ms):
        # A sub-millisecond sampler spins a core under the interpreter lock.
        status, body, _ = self.answer(
            served,
            _post("/debug/profile/start", b'{"interval_ms": ' + interval_ms + b"}"),
        )
        assert status == 400 and body["error"] == "bad_request"
        assert "[1, " in body["message"]
        assert served[1]._profiler is None

    def test_interval_at_the_sampling_floor_starts_the_profiler(self, served):
        status, body, _ = self.answer(
            served, _post("/debug/profile/start", b'{"interval_ms": 1}')
        )
        assert (status, body["interval_ms"]) == (200, 1.0)

    @staticmethod
    def check(served, raw):
        try:
            status, body, _ = TestHttpBoundary.answer(served, raw)
        except _BadHttp:
            return
        assert status in _REASONS
        if not isinstance(body, str):
            json.dumps(body, allow_nan=False)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(raw=http_requests())
    def test_generated_requests(self, served, raw):
        self.check(served, raw)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(path=st.sampled_from(_POST_PATHS), body=_BODIES)
    def test_generated_bodies(self, served, path, body):
        self.check(served, _post(path, body))
