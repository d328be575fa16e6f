"""End-to-end tests for the scenario service (``repro serve``).

The service is booted on a real socket (port 0) and exercised over HTTP
with the stdlib client, since the byte-identity contract — CLI ``--json``,
the archive file and ``GET /runs/{id}/document`` all emit the same bytes —
is only meaningful across the real serialization boundaries.
"""

from __future__ import annotations

import http.client
import json
import socket
import time
import urllib.error
import urllib.request

import pytest

from repro.experiments.options import RuntimeOptions, apply_runtime_options
from repro.experiments.results import SCHEMA_VERSION, check_document
from repro.experiments.spec import ScenarioSpec
from repro.service.archive import RunArchive
from repro.service.jobs import spec_from_request
from repro.service.server import ScenarioService


# --------------------------------------------------------------------- #
# HTTP helpers
# --------------------------------------------------------------------- #
def _get(service, path: str):
    with urllib.request.urlopen(f"{service.url}{path}") as response:
        return response.status, response.read().decode("utf-8")


def _get_json(service, path: str):
    status, body = _get(service, path)
    return status, json.loads(body)


def _post(service, payload):
    request = urllib.request.Request(
        f"{service.url}/runs", data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _wait_done(service, run_id: str, timeout_s: float = 60.0) -> dict:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        _, status = _get_json(service, f"/runs/{run_id}")
        if status["status"] in ("done", "failed"):
            return status
        time.sleep(0.05)
    raise AssertionError(f"run {run_id} did not settle within {timeout_s}s")


@pytest.fixture()
def service(tmp_path):
    instance = ScenarioService(port=0, runs_dir=str(tmp_path / "runs"))
    instance.start_background()
    yield instance
    instance.close()


# --------------------------------------------------------------------- #
# The byte-identity contract
# --------------------------------------------------------------------- #
class TestRoundTrip:
    def test_preset_roundtrip_matches_cli_json_bytes(self, service, capsys):
        """coupled-core over HTTP == coupled-core via ``scenario --json``,
        byte for byte, and the archived file is that same text."""
        from repro.__main__ import main

        assert main(["scenario", "--preset", "coupled-core", "--json"]) == 0
        cli_text = capsys.readouterr().out

        status, submitted = _post(service, {"preset": "coupled-core"})
        assert status == 202
        run_id = submitted["run_id"]
        final = _wait_done(service, run_id)
        assert final["status"] == "done"

        _, served_text = _get(service, f"/runs/{run_id}/document")
        archived_text = service.archive.read_document(run_id)
        assert served_text == cli_text
        assert archived_text == cli_text
        document = json.loads(served_text)
        check_document(document)
        assert document["schema_version"] == SCHEMA_VERSION
        assert document["label"] == "coupled-core"

    def test_status_envelope_embeds_document_when_done(self, service):
        _, submitted = _post(
            service, {"spec": {"num_ues": 1, "duration_s": 0.3}})
        final = _wait_done(service, submitted["run_id"])
        assert final["status"] == "done"
        assert final["document"]["schema_version"] == SCHEMA_VERSION
        assert final["document"]["summary"]["total_goodput_mbps"] > 0

    def test_finished_document_is_served_from_the_archive_only(
            self, service):
        """A done run's state keeps no document text; both routes read
        the archive file, byte for byte."""
        _, submitted = _post(
            service, {"spec": {"num_ues": 1, "duration_s": 0.3}})
        run_id = submitted["run_id"]
        assert _wait_done(service, run_id)["status"] == "done"
        archived = service.archive.read_document(run_id)
        state = service.jobs.get(run_id)
        assert archived and not hasattr(state, "document")
        assert archived not in [value for value in vars(state).values()
                                if isinstance(value, str)]
        _, served = _get(service, f"/runs/{run_id}/document")
        assert served == archived
        # Replace the archive file: both routes follow it.
        probe = '{"probe": [1, 2.5]}\n'
        service.archive.write_document(run_id, probe)
        assert _get(service, f"/runs/{run_id}/document")[1] == probe
        assert _get_json(service, f"/runs/{run_id}")[1]["document"] == {
            "probe": [1, 2.5]}

    def test_archive_query_by_preset_and_status(self, service):
        _, submitted = _post(service, {"preset": "coupled-core"})
        _wait_done(service, submitted["run_id"])
        _, listing = _get_json(service, "/runs?preset=coupled-core")
        assert listing["count"] >= 1
        entry = listing["runs"][-1]
        assert entry["status"] == "done"
        assert entry["label"] == "coupled-core"
        _, empty = _get_json(service, "/runs?preset=coupled-core&status=failed")
        assert empty["count"] == 0


# --------------------------------------------------------------------- #
# Shared runtime options: the flag-drift regression test
# --------------------------------------------------------------------- #
class TestRuntimeOptionParity:
    def test_cli_flags_and_service_overrides_build_identical_specs(
            self, capsys):
        """--shards/--workers through ``repro scenario`` and
        through a POSTed ``overrides`` object must resolve to the same
        spec — the drift that motivated the shared argparse parent."""
        from repro.__main__ import main

        assert main(["scenario", "--preset", "coupled-core", "--shards", "4",
                     "--workers", "2", "--dump-spec"]) == 0
        cli_spec = ScenarioSpec.from_json(capsys.readouterr().out)

        service_spec, _ = spec_from_request(
            {"preset": "coupled-core",
             "overrides": {"shards": 4, "workers": 2}})
        assert service_spec == cli_spec
        assert cli_spec.sharding.shards == 2

    def test_serve_level_defaults_yield_to_request_overrides(self):
        defaults = RuntimeOptions(workers=3, shards=4)
        spec, _ = spec_from_request(
            {"preset": "coupled-core", "overrides": {"shards": 2}}, defaults)
        assert spec.sharding.shards == 2
        capped, _ = spec_from_request({"preset": "coupled-core"}, defaults)
        assert capped.sharding.shards == 3

    def test_removed_window_policy_knob_is_rejected_by_name(self, capsys):
        """There is one window policy; the flag and the override that used
        to select the other fail like any unknown name, naming the key."""
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exit_info:
            main(["scenario", "--preset", "coupled-core", "--shards", "2",
                  "--shard-windows", "fixed", "--dump-spec"])
        assert exit_info.value.code == 2
        assert "--shard-windows" in capsys.readouterr().err
        with pytest.raises(ValueError, match="shard_windows"):
            spec_from_request({"preset": "coupled-core",
                               "overrides": {"shard_windows": "fixed"}})

    def test_workers_flag_caps_shard_count(self):
        spec = apply_runtime_options(
            ScenarioSpec(), RuntimeOptions(shards=8, workers=3))
        assert spec.sharding.mode == "auto"
        assert spec.sharding.shards == 3

    def test_unknown_override_key_rejected(self):
        with pytest.raises(ValueError, match="unknown override"):
            RuntimeOptions.from_mapping({"shard": 2})


# --------------------------------------------------------------------- #
# Malformed submissions become 400s, not tracebacks
# --------------------------------------------------------------------- #
class TestBadRequests:
    @pytest.mark.parametrize("payload, fragment", [
        ([1, 2, 3], "JSON object"),
        ({}, "exactly one of 'preset' or 'spec'"),
        ({"preset": "coupled-core", "spec": {}},
         "exactly one of 'preset' or 'spec'"),
        ({"preset": "no-such-preset"}, "unknown preset"),
        ({"spec": {"num_uess": 3}}, "unknown field"),
        ({"spec": {"num_ues": 1, "cc_name": "vegas"}}, "congestion"),
        ({"spec": {"num_ues": 1}, "overrides": {"shards": "two"}},
         "integer"),
        ({"spec": {"num_ues": 1}, "overrides": {"engine": "numpy"}},
         "override(s) ['engine']"),
        ({"bogus": 1}, "unknown request key"),
        ({"spec": {"num_ues": 1, "duration_s": float("nan")}},
         "duration_s must be a finite number > 0"),
        ({"spec": {"ues": [{"ue_id": -1}]}}, "ue_id must be in [0, 64000)"),
        # Once an AttributeError from validate(): "malformed scenario spec".
        ({"spec": {"population": None}},
         "scenario.population: expected dict, got None"),
        ({"spec": {"num_ues": 1,
                   "population": {"churn_rate_per_s": float("nan")}}},
         "population.churn_rate_per_s must be a finite number >= 0, "
         "got nan"),
        ({"preset": "ho"}, "unknown preset 'ho'"),
        # An ``Infinity`` body once passed and ran with an engine error.
        ({"spec": {"num_ues": 1, "cell": {"overhead": float("inf")}}},
         "cell.overhead must be a finite number in [0, 1), got inf"),
    ])
    def test_bad_payloads_return_400(self, service, payload, fragment):
        status, body = _post(service, payload)
        assert status == 400
        assert fragment in body["error"]

    #: Right keys, wrong JSON types: each used to escape as a TypeError /
    #: AttributeError from ``validate()`` (a dropped connection) or, for the
    #: scalar, to be accepted and fail inside the job thread.
    WRONG_TYPES = [
        ({"ues": [{"ue_id": "a"}]}, "ues[].ue_id: expected int"),
        ({"sharding": {"map": [1]}}, "sharding.map: expected dict"),
        ({"duration_s": "x"}, "scenario.duration_s: expected float"),
        ({"seed": True}, "scenario.seed: expected int"),
        ({"mobility": {"ues": ["0"]}}, "mobility.ues: expected list of int"),
        ({"sharding": {"map": {"0": "all"}}},
         "sharding.map: expected dict of int"),
        ({"cells": [{"cell_id": 0}], "ues": [{"ue_id": 0, "cell_id": None}]},
         "ues[].cell_id: expected int"),
        # Where the field checks do not look:
        ({"ues": 5}, "malformed"),
        ({"wired_bottleneck_schedule": [[0.5, "fast"]]}, "malformed"),
    ]

    @pytest.mark.parametrize("spec, fragment", WRONG_TYPES)
    def test_wrong_typed_spec_fields_name_the_field(self, spec, fragment):
        with pytest.raises(ValueError) as info:
            spec_from_request({"spec": spec})
        assert fragment in str(info.value)

    @pytest.mark.parametrize("spec, fragment", WRONG_TYPES[:3])
    def test_wrong_typed_spec_fields_return_400(self, service, spec,
                                                fragment):
        status, body = _post(service, {"spec": spec})
        assert status == 400 and fragment in body["error"]
        # The handler thread survived: the next request is served.
        assert _get_json(service, "/health")[0] == 200

    def test_non_json_body_returns_400(self, service):
        request = urllib.request.Request(f"{service.url}/runs",
                                         data=b"{not json")
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request)
        assert info.value.code == 400

    @pytest.mark.parametrize("header, expected", [
        ("abc", 400), ("-1", 400), (None, 202)])
    def test_content_length_is_validated(self, service, header, expected):
        """A non-integer or negative length is a 400 naming the header,
        answered at once (no read until the client hangs up), and the
        handler thread survives."""
        body = b""
        if header is None:
            body = json.dumps({"spec": {"num_ues": 1,
                                        "duration_s": 0.1}}).encode("utf-8")
            header = str(len(body))
        with socket.create_connection(service.address, timeout=3.0) as conn:
            conn.sendall(f"POST /runs HTTP/1.1\r\nHost: test\r\n"
                         f"Content-Length: {header}\r\n\r\n".encode("ascii")
                         + body)
            response = http.client.HTTPResponse(conn)
            response.begin()
            reply = json.loads(response.read())
        assert response.status == expected
        if expected == 400:
            assert "Content-Length" in reply["error"]
        assert _get_json(service, "/health")[0] == 200

    def test_unknown_run_and_route_return_404(self, service):
        for path in ("/runs/run-9999-nope", "/runs/run-9999-nope/document",
                     "/nonsense"):
            with pytest.raises(urllib.error.HTTPError) as info:
                urllib.request.urlopen(f"{service.url}{path}")
            assert info.value.code == 404

    def test_unknown_query_parameter_rejected(self, service):
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(f"{service.url}/runs?colour=red")
        assert info.value.code == 400


# --------------------------------------------------------------------- #
# The live event stream
# --------------------------------------------------------------------- #
class TestEventStream:
    def _read_events(self, service, run_id: str) -> list[tuple[str, dict]]:
        events = []
        with urllib.request.urlopen(
                f"{service.url}/runs/{run_id}/events") as response:
            assert response.headers["Content-Type"] == "text/event-stream"
            for block in response.read().decode("utf-8").split("\n\n"):
                kind, data = None, None
                for line in block.splitlines():
                    if line.startswith("event: "):
                        kind = line[len("event: "):]
                    elif line.startswith("data: "):
                        data = json.loads(line[len("data: "):])
                if kind is not None:
                    events.append((kind, data))
        return events

    def test_snapshots_stream_in_order_and_terminate(self, service):
        _, submitted = _post(
            service, {"spec": {"num_ues": 1, "duration_s": 1.0}})
        run_id = submitted["run_id"]
        events = self._read_events(service, run_id)
        kinds = [kind for kind, _ in events]
        assert kinds[-1] == "end"
        snapshots = [data for kind, data in events if kind == "snapshot"]
        assert len(snapshots) >= 2
        times = [snapshot["time_s"] for snapshot in snapshots]
        assert times == sorted(times)
        assert len(set(times)) == len(times)
        assert all(snapshot["events"] > 0 for snapshot in snapshots)
        assert events[-1][1]["status"] == "done"

    def test_stream_replays_after_completion(self, service):
        _, submitted = _post(
            service, {"spec": {"num_ues": 1, "duration_s": 0.6}})
        run_id = submitted["run_id"]
        _wait_done(service, run_id)
        events = self._read_events(service, run_id)
        assert [kind for kind, _ in events].count("snapshot") >= 1
        assert events[-1][0] == "end"


# --------------------------------------------------------------------- #
# Concurrency under the core-budget arbiter
# --------------------------------------------------------------------- #
class TestConcurrency:
    def test_slots_clamped_by_core_budget(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CORE_BUDGET", "2")
        instance = ScenarioService(port=0, runs_dir=str(tmp_path / "runs"),
                                   max_runs=8)
        try:
            assert instance.jobs.slots == 2
        finally:
            instance.close()

    def test_single_slot_serializes_concurrent_submissions(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CORE_BUDGET", "1")
        instance = ScenarioService(port=0, runs_dir=str(tmp_path / "runs"),
                                   max_runs=4)
        instance.start_background()
        try:
            assert instance.jobs.slots == 1
            run_ids = []
            for _ in range(3):
                _, submitted = _post(
                    instance, {"spec": {"num_ues": 1, "duration_s": 0.3}})
                run_ids.append(submitted["run_id"])
            for run_id in run_ids:
                assert _wait_done(instance, run_id)["status"] == "done"
            spans = {}
            for entry in instance.archive.entries():
                if entry["run_id"] in run_ids:
                    spans[entry["run_id"]] = (entry["started_at"],
                                              entry["finished_at"])
            assert len(spans) == 3
            ordered = sorted(spans.values())
            for (_, finished), (started, _) in zip(ordered, ordered[1:]):
                # One slot: the next run may not start before the previous
                # one finished.
                assert started >= finished
        finally:
            instance.close()


# --------------------------------------------------------------------- #
# The run archive
# --------------------------------------------------------------------- #
class TestArchive:
    def test_torn_index_line_does_not_swallow_the_next_record(self, tmp_path):
        archive = RunArchive(str(tmp_path))
        archive.record({"run_id": "run-a", "status": "done"})
        # A process that crashed mid-append left a partial final line.
        with open(archive.index_path, "a", encoding="utf-8") as handle:
            handle.write('{"run_id":"run-a","status":"runn')
        restarted = RunArchive(str(tmp_path))
        restarted.record({"run_id": "run-b", "status": "queued"})
        restarted.record({"run_id": "run-b", "status": "done"})
        entries = restarted.entries()
        assert [entry["run_id"] for entry in entries] == ["run-a", "run-b"]
        assert [entry["status"] for entry in entries] == ["done", "done"]
        lines = archive.index_path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 4 and "" not in lines

    def test_archive_error_fails_the_run_and_ends_its_stream(
            self, service, monkeypatch):
        """An OSError while archiving (disk full, runs directory removed)
        settles the run as failed, and its event stream ends instead of
        polling forever; the read timeout bounds the test."""
        def disk_full(run_id, text):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(service.archive, "write_document", disk_full)
        _, submitted = _post(
            service, {"spec": {"num_ues": 1, "duration_s": 0.1}})
        run_id = submitted["run_id"]
        with urllib.request.urlopen(f"{service.url}/runs/{run_id}/events",
                                    timeout=10.0) as response:
            stream = response.read().decode("utf-8")
        final = json.loads(stream.rsplit("event: end\ndata: ", 1)[1])
        assert final["status"] == "failed"
        assert final["error"].startswith("OSError: ")
        _, status = _get_json(service, f"/runs/{run_id}")
        assert status["status"] == "failed"
        assert status["error"] == final["error"]
        assert service.archive.get(run_id)["status"] == "failed"


# --------------------------------------------------------------------- #
# Service metadata endpoints
# --------------------------------------------------------------------- #
class TestMetadata:
    def test_health_reports_schema_version_and_slots(self, service):
        status, health = _get_json(service, "/health")
        assert status == 200
        assert health["status"] == "ok"
        assert health["schema_version"] == SCHEMA_VERSION
        assert health["slots"] >= 1

    def test_schema_endpoint_serves_result_schema(self, service):
        from repro.experiments.results import result_schema

        _, served = _get_json(service, "/schema")
        assert served == result_schema()

    def test_kept_alive_connection_does_not_stall(self, service):
        """Headers and body leave as two sends; without TCP_NODELAY every
        request after the first waits ~40 ms for a delayed ACK."""
        conn = http.client.HTTPConnection(*service.address, timeout=5.0)
        try:
            for _ in range(10):
                start = time.perf_counter()
                conn.request("GET", "/health")
                response = conn.getresponse()
                assert json.loads(response.read())["status"] == "ok"
                assert time.perf_counter() - start < 0.010
        finally:
            conn.close()
