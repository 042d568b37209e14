"""HTTP framing and submission validation."""

import asyncio
import json

import pytest

from repro.serve.protocol import (
    HttpError,
    Submission,
    json_response,
    parse_submission,
    read_request,
    stream_head,
    submission_content_key,
)


def _parse(raw: bytes):
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader)

    return asyncio.run(go())


class TestReadRequest:
    def test_get_with_query(self):
        request = _parse(
            b"GET /v1/stats?verbose=1 HTTP/1.1\r\n"
            b"Host: localhost\r\n\r\n"
        )
        assert request.method == "GET"
        assert request.path == "/v1/stats"
        assert request.query == {"verbose": "1"}
        assert request.headers["host"] == "localhost"

    def test_post_with_body(self):
        body = json.dumps({"kind": "evaluate"}).encode()
        request = _parse(
            b"POST /v1/campaigns HTTP/1.1\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode()
            + body
        )
        assert request.json() == {"kind": "evaluate"}

    def test_closed_connection_returns_none(self):
        assert _parse(b"") is None

    def test_malformed_request_line(self):
        with pytest.raises(HttpError) as exc:
            _parse(b"NONSENSE\r\n\r\n")
        assert exc.value.status == 400

    def test_oversized_body_is_413(self):
        with pytest.raises(HttpError) as exc:
            _parse(
                b"POST / HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n"
            )
        assert exc.value.status == 413

    def test_bad_content_length_is_400(self):
        with pytest.raises(HttpError) as exc:
            _parse(b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n")
        assert exc.value.code == "malformed_content_length"

    def test_empty_body_json_raises_400(self):
        request = _parse(b"POST / HTTP/1.1\r\n\r\n")
        with pytest.raises(HttpError) as exc:
            request.json()
        assert exc.value.code == "empty_body"


class TestResponses:
    def test_json_response_shape(self):
        raw = json_response(200, {"a": 1})
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"Connection: close" in head
        assert json.loads(body) == {"a": 1}
        assert f"Content-Length: {len(body)}".encode() in head

    def test_error_body(self):
        error = HttpError(429, "tenant_queue_full", "busy")
        assert error.body() == {
            "error": "tenant_queue_full",
            "detail": "busy",
        }

    def test_stream_head_has_no_content_length(self):
        head = stream_head()
        assert b"Content-Length" not in head
        assert b"x-ndjson" in head


class TestParseSubmission:
    def test_evaluate_kind_is_inferred_and_validated(self):
        submission = parse_submission(
            {"server": "Xeon-E5462", "seed": 3}, None
        )
        assert submission.kind == "evaluate"
        assert submission.tenant == "default"
        assert submission.spec == {"server": "Xeon-E5462", "seed": 3}

    def test_header_tenant_wins_over_body(self):
        submission = parse_submission(
            {"server": "Xeon-E5462", "tenant": "body"}, "header"
        )
        assert submission.tenant == "header"

    def test_unknown_server_is_404(self):
        with pytest.raises(HttpError) as exc:
            parse_submission({"server": "PDP-11"}, None)
        assert exc.value.status == 404
        assert exc.value.code == "unknown_server"

    def test_invalid_campaign_is_400(self):
        with pytest.raises(HttpError) as exc:
            parse_submission({"campaign": {"kind": "nonsense"}}, None)
        assert exc.value.code == "invalid_campaign"

    @pytest.mark.parametrize(
        "workload",
        [
            {"type": "npb", "program": "ep", "nprocs": 4},
            {"type": "npb", "program": "ep", "class": "C", "nprocs": "four"},
        ],
    )
    def test_malformed_campaign_workload_is_400(self, workload):
        from repro.fleet import campaign_to_dict, demo_campaign

        doc = campaign_to_dict(demo_campaign())
        doc["workloads"] = [workload]
        with pytest.raises(HttpError) as exc:
            parse_submission({"campaign": doc}, None)
        assert (exc.value.status, exc.value.code) == (400, "invalid_campaign")

    @pytest.mark.parametrize(
        "field, value", [("name", None), ("seed", "x"), ("workloads", [5])]
    )
    def test_malformed_campaign_field_is_400(self, field, value):
        from repro.fleet import campaign_to_dict, demo_campaign

        doc = campaign_to_dict(demo_campaign())
        if value is None:
            del doc[field]
        else:
            doc[field] = value
        with pytest.raises(HttpError) as exc:
            parse_submission({"campaign": doc}, None)
        assert (exc.value.status, exc.value.code) == (400, "invalid_campaign")
        assert field in exc.value.detail

    def test_campaign_with_a_duplicate_job_is_400(self):
        # The demo's ep.C.1 is also an evaluation-matrix state; only the
        # job expansion sees the repeat.
        from repro.fleet import campaign_to_dict, demo_campaign

        doc = campaign_to_dict(demo_campaign())
        doc["evaluation_matrix"] = True
        with pytest.raises(HttpError) as exc:
            parse_submission({"campaign": doc}, None)
        assert (exc.value.status, exc.value.code) == (400, "invalid_campaign")
        assert "duplicate job" in exc.value.detail

    @pytest.mark.parametrize("seed", [7.9, True])
    def test_non_integer_seed_is_400(self, seed):
        with pytest.raises(HttpError) as exc:
            parse_submission({"server": "Xeon-E5462", "seed": seed}, None)
        assert (exc.value.status, exc.value.code) == (400, "invalid_seed")

    def test_fleet_kind_roundtrips(self):
        from repro.fleet import campaign_to_dict, demo_campaign

        doc = campaign_to_dict(demo_campaign())
        submission = parse_submission({"campaign": doc}, "alice")
        assert submission.kind == "fleet"
        assert Submission.from_dict(submission.to_dict()) == submission

    @pytest.mark.parametrize(
        "tenant", ["a" * 65, "has space", "slash/y"]
    )
    def test_bad_tenants_rejected(self, tenant):
        with pytest.raises(HttpError) as exc:
            parse_submission({"server": "Xeon-E5462"}, tenant)
        assert exc.value.code == "invalid_tenant"

    def test_empty_tenant_falls_back_to_default(self):
        submission = parse_submission({"server": "Xeon-E5462"}, "")
        assert submission.tenant == "default"

    def test_bad_priority_rejected(self):
        with pytest.raises(HttpError) as exc:
            parse_submission(
                {"server": "Xeon-E5462", "priority": "urgent"}, None
            )
        assert exc.value.code == "invalid_priority"


class TestContentKey:
    def test_tenant_and_priority_do_not_change_the_key(self):
        a = parse_submission(
            {"server": "Xeon-E5462", "priority": "high"}, "alice"
        )
        b = parse_submission(
            {"server": "Xeon-E5462", "priority": "low"}, "bob"
        )
        assert submission_content_key(a) == submission_content_key(b)

    def test_spec_changes_the_key(self):
        a = parse_submission({"server": "Xeon-E5462", "seed": 0}, None)
        b = parse_submission({"server": "Xeon-E5462", "seed": 1}, None)
        assert submission_content_key(a) != submission_content_key(b)


class TestZooServerSubmissions:
    def test_fleet_campaign_may_name_a_zoo_server(self):
        from repro.fleet import campaign_to_dict, demo_campaign

        doc = campaign_to_dict(demo_campaign())
        doc["servers"] = ["Tesla-K20-Node"]
        submission = parse_submission({"campaign": doc}, "alice")
        assert submission.kind == "fleet"
        assert submission.spec["servers"] == ["Tesla-K20-Node"]
