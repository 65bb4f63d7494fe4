"""Serve data plane units: wire protocol, result cache, metrics windows."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.cache import LRUResultCache, MISS
from repro.serve.metrics import SAMPLE_WINDOW, ServerMetrics, percentile
from repro.serve.protocol import (
    CACHEABLE_OPS,
    ERROR_CODES,
    MAX_LINE_BYTES,
    OPS,
    ProtocolError,
    decode_request,
    encode_message,
    error_response,
    normalize_params,
    ok_response,
    query_digest,
)


class TestDecodeRequest:
    def test_accepts_bytes_and_str(self):
        assert decode_request(b'{"op": "ping"}') == {"op": "ping"}
        assert decode_request('{"op": "ping", "id": 3}') == {"op": "ping", "id": 3}

    @pytest.mark.parametrize("line", [b"not json", b"[1, 2]", b'"ping"', b"3"])
    def test_rejects_non_object(self, line):
        with pytest.raises(ProtocolError) as excinfo:
            decode_request(line)
        assert excinfo.value.code == "bad-request"

    @pytest.mark.parametrize("line", [
        b"[" * 200_000 + b"]" * 200_000,                   # deeper than the recursion limit
        b'{"op":"count","pairs":[[' + b"7" * 5_000 + b',1]]}',  # past the int digit limit
    ], ids=["deep-nesting", "long-integer"])
    def test_hostile_lines_are_bad_requests(self, line):
        assert len(line) < MAX_LINE_BYTES
        with pytest.raises(ProtocolError) as excinfo:
            decode_request(line)
        assert excinfo.value.code == "bad-request"

    def test_unknown_op_is_normalizers_job(self):
        # The envelope decoder must NOT reject a bad op: the server reads
        # the request id between decode and normalize, so the error
        # response can still echo it.
        request = decode_request(b'{"id": 9, "op": "nope"}')
        assert request["id"] == 9
        with pytest.raises(ProtocolError) as excinfo:
            normalize_params(request)
        assert excinfo.value.code == "unknown-op"


class TestNormalizeParams:
    @pytest.mark.parametrize("op", ["ping", "stats", "metrics"])
    def test_nullary_ops_drop_extras(self, op):
        assert normalize_params({"op": op, "junk": 1}) == {"op": op}

    def test_member(self):
        params = normalize_params(
            {"op": "member", "set": 2, "elements": [5, 0, 5]})
        assert params == {"op": "member", "set": 2, "elements": [5, 0, 5]}

    def test_count(self):
        params = normalize_params({"op": "count", "pairs": [[0, 1], [2, 2]]})
        assert params == {"op": "count", "pairs": [[0, 1], [2, 2]]}

    def test_multiway(self):
        params = normalize_params({"op": "multiway", "sets": [3, 1, 2]})
        assert params == {"op": "multiway", "sets": [3, 1, 2]}

    def test_topk(self):
        params = normalize_params({"op": "topk", "set": 0, "k": 4})
        assert params == {"op": "topk", "set": 0, "k": 4}

    @pytest.mark.parametrize("request_dict", [
        {"op": "member", "set": "0", "elements": [1]},
        {"op": "member", "set": 0, "elements": 1},
        {"op": "member", "set": 0, "elements": [1.5]},
        {"op": "member", "set": True, "elements": []},   # bools are not ints
        {"op": "count", "pairs": [[0]]},
        {"op": "count", "pairs": [[0, 1, 2]]},
        {"op": "count", "pairs": "0 1"},
        {"op": "multiway", "sets": [1]},
        {"op": "multiway", "sets": [1, 1]},
        {"op": "topk", "set": 0, "k": 0},
        {"op": "topk", "set": 0, "k": None},
    ])
    def test_bad_params(self, request_dict):
        with pytest.raises(ProtocolError) as excinfo:
            normalize_params(request_dict)
        assert excinfo.value.code == "bad-request"

    @pytest.mark.parametrize("op", [None, 7, "decode", "PING"])
    def test_unknown_op(self, op):
        with pytest.raises(ProtocolError) as excinfo:
            normalize_params({"op": op})
        assert excinfo.value.code == "unknown-op"

    def test_cacheable_ops_are_known(self):
        assert CACHEABLE_OPS <= set(OPS)
        assert "metrics" not in CACHEABLE_OPS   # must reflect live state


class TestQueryDigest:
    def test_identical_requests_share_a_digest(self):
        a = normalize_params({"op": "count", "pairs": [[0, 1]], "id": 1})
        b = normalize_params({"pairs": [[0, 1]], "op": "count", "id": 99})
        assert query_digest(a) == query_digest(b)

    def test_different_params_differ(self):
        a = normalize_params({"op": "count", "pairs": [[0, 1]]})
        b = normalize_params({"op": "count", "pairs": [[1, 0]]})
        assert query_digest(a) != query_digest(b)

    def test_op_is_part_of_the_key(self):
        a = normalize_params({"op": "member", "set": 1, "elements": [2]})
        b = normalize_params({"op": "topk", "set": 1, "k": 2})
        assert query_digest(a) != query_digest(b)


class TestEnvelopes:
    def test_encode_round_trips_one_line(self):
        raw = encode_message(ok_response(5, [1, 2]))
        assert raw.endswith(b"\n") and raw.count(b"\n") == 1
        assert json.loads(raw) == {"id": 5, "ok": True, "result": [1, 2]}

    def test_error_response_shape(self):
        message = error_response(None, "timeout", "too slow")
        assert message == {"id": None, "ok": False,
                           "error": {"code": "timeout", "message": "too slow"}}
        assert "timeout" in ERROR_CODES


class TestLRUResultCache:
    def test_hit_miss_and_eviction_order(self):
        cache = LRUResultCache(2)
        assert cache.get("a") is MISS
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1          # refreshes "a"
        cache.put("c", 3)                   # evicts "b", the LRU entry
        assert cache.get("b") is MISS
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_snapshot_counters(self):
        cache = LRUResultCache(1)
        cache.get("x")
        cache.put("x", 0)
        cache.get("x")
        cache.put("y", 0)                   # evicts "x"
        snap = cache.snapshot()
        assert snap["hits"] == 1
        assert snap["misses"] == 1
        assert snap["evictions"] == 1
        assert snap["entries"] == 1
        assert snap["hit_rate"] == pytest.approx(0.5)

    def test_zero_capacity_disables_caching(self):
        cache = LRUResultCache(0)
        cache.put("a", 1)
        assert cache.get("a") is MISS
        assert cache.snapshot()["entries"] == 0

    def test_put_updates_existing_key(self):
        cache = LRUResultCache(2)
        cache.put("a", 1)
        cache.put("a", 2)
        assert cache.get("a") == 2
        assert cache.snapshot()["evictions"] == 0


class TestServerMetrics:
    def test_percentile_nearest_rank(self):
        values = [10.0, 20.0, 30.0, 40.0]
        assert percentile(values, 50) == 20.0
        assert percentile(values, 99) == 40.0
        assert percentile([7.0], 50) == 7.0

    def test_request_window_snapshot(self):
        metrics = ServerMetrics()
        for ms in (1, 2, 3, 4):
            metrics.record_request("count", ms / 1000.0)
        metrics.record_request("ping", 0.0005)
        snap = metrics.snapshot()
        assert snap["requests_total"] == 5
        assert snap["requests_by_op"] == {"count": 4, "ping": 1}
        latency = snap["latency_by_op"]["count"]
        assert latency["p50_ms"] == pytest.approx(2.0)
        assert latency["max_ms"] == pytest.approx(4.0)

    def test_errors_batches_and_queue(self):
        metrics = ServerMetrics()
        metrics.record_error("timeout")
        metrics.record_error("timeout")
        metrics.record_batch(3)
        metrics.record_batch(5)
        metrics.observe_queue(2)
        metrics.observe_queue(7)
        metrics.observe_queue(1)
        snap = metrics.snapshot()
        assert snap["errors_by_code"] == {"timeout": 2}
        assert snap["batches"] == 2
        assert snap["batched_requests"] == 8
        assert snap["mean_batch_size"] == pytest.approx(4.0)
        assert snap["max_batch_size"] == 5
        assert snap["queue_high_water"] == 7

    def test_window_is_bounded(self):
        metrics = ServerMetrics()
        for _ in range(SAMPLE_WINDOW + 10):
            metrics.record_request("ping", 0.001)
        snap = metrics.snapshot()
        assert snap["requests_total"] == SAMPLE_WINDOW + 10
        # percentiles still computable over the bounded window
        assert snap["latency_by_op"]["ping"]["p99_ms"] > 0


# --------------------------------------------------------------------------- #
# Property tests: any line decodes or is refused with a ProtocolError
# --------------------------------------------------------------------------- #
JSON_SCALARS = (st.none() | st.booleans() | st.integers()
                | st.floats(allow_nan=False) | st.text(max_size=8))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=6), children, max_size=4)),
    max_leaves=12)
SET_IDS = st.integers(min_value=0, max_value=1 << 40)

#: Requests that :func:`normalize_params` must accept, one strategy per op.
VALID_REQUESTS = st.one_of(
    st.sampled_from(["ping", "stats", "metrics", "reload"]).map(lambda op: {"op": op}),
    st.builds(lambda s, e: {"op": "member", "set": s, "elements": e},
              SET_IDS, st.lists(st.integers(), max_size=8)),
    st.builds(lambda p: {"op": "count", "pairs": [list(pair) for pair in p]},
              st.lists(st.tuples(SET_IDS, SET_IDS), max_size=8)),
    st.builds(lambda s: {"op": "multiway", "sets": s},
              st.lists(SET_IDS, min_size=2, max_size=6, unique=True)),
    st.builds(lambda s, k: {"op": "topk", "set": s, "k": k},
              SET_IDS, st.integers(min_value=1, max_value=1 << 20)),
)

#: Request-shaped objects with arbitrary parameter values.
REQUEST_SHAPED = st.fixed_dictionaries(
    {"op": st.sampled_from(OPS) | JSON_SCALARS},
    optional={key: JSON_VALUES for key in ("id", "set", "elements", "pairs",
                                           "sets", "k")})


def _mutated(data: bytes, cut: int, insert: bytes) -> bytes:
    cut %= len(data) + 1
    return data[:cut] + insert + data[cut:]


LINES = st.one_of(
    st.binary(max_size=256),
    st.text(max_size=64).map(lambda text: text.encode("utf-8", "surrogatepass")),
    (VALID_REQUESTS | REQUEST_SHAPED | JSON_VALUES).map(
        lambda value: json.dumps(value).encode()),
    st.builds(_mutated,
              (VALID_REQUESTS | REQUEST_SHAPED).map(lambda v: json.dumps(v).encode()),
              st.integers(min_value=0), st.binary(min_size=1, max_size=4)),
)


class TestProtocolProperties:
    @settings(max_examples=400, deadline=None)
    @given(LINES)
    def test_any_line_normalises_or_is_refused(self, line):
        try:
            params = normalize_params(decode_request(line))
        except ProtocolError as exc:
            assert exc.code in ERROR_CODES
        else:
            assert isinstance(params, dict) and params["op"] in OPS

    @settings(max_examples=200, deadline=None)
    @given(VALID_REQUESTS, JSON_SCALARS, JSON_VALUES)
    def test_valid_requests_normalise_idempotently(self, request, request_id, junk):
        params = normalize_params(request)
        assert normalize_params(params) == params
        # the same query on the wire, with an id and an unknown key, is one cache key
        wire = json.dumps({**request, "id": request_id, "zz-extra": junk})
        again = normalize_params(decode_request(wire.encode()))
        assert again == params
        assert query_digest(again) == query_digest(params)

    @settings(max_examples=200, deadline=None)
    @given(JSON_SCALARS, JSON_VALUES, st.sampled_from(ERROR_CODES), st.text())
    def test_encode_message_round_trips(self, request_id, result, code, message):
        for envelope in (ok_response(request_id, result),
                         error_response(request_id, code, message)):
            raw = encode_message(envelope)
            assert raw.endswith(b"\n") and raw.count(b"\n") == 1
            assert json.loads(raw) == envelope
