"""Line-delimited JSON protocol of `repro serve`.

Every request is one JSON object on one line; every response is one JSON
object on one line.  Requests carry an optional ``id`` echoed verbatim in
the response, so a client may pipeline several requests on one connection
and match responses by id (the server handles each request concurrently,
so response order is not guaranteed).

Request shape::

    {"id": 7, "op": "count", "pairs": [[0, 1], [2, 5]]}

Response shape::

    {"id": 7, "ok": true, "result": [3, 0]}
    {"id": 7, "ok": false, "error": {"code": "bad-request", "message": "..."}}

Operations (see ``docs/serving.md`` for the full reference):

========== =============================================== ================
op         parameters                                      result
========== =============================================== ================
`ping`     —                                               ``"pong"``
`stats`    —                                               artifact summary
`metrics`  —                                               server counters
`reload`   —                                               new generation info
`member`   ``set`` (int), ``elements`` (list of ints)      list of bools
`count`    ``pairs`` (list of ``[i, j]``)                  list of ints
`multiway` ``sets`` (list of >= 2 distinct ints)           elements object
`topk`     ``set`` (int), ``k`` (int >= 1)                 ``[[j, count]]``
========== =============================================== ================

``reload`` re-attaches the spill directory in place — after an out-of-band
``repro ingest --append`` / ``repro delete`` / ``repro compact``, it swaps
the serving engine to the new generation with no dropped requests (queries
queued before the reload answer from the old generation, queries after it
from the new one).

This module is pure data-plane: validation, canonicalisation and digests.
It never touches sockets or NumPy, so both the asyncio server and the
synchronous test client share it.
"""

from __future__ import annotations

import hashlib
import json

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_LINE_BYTES",
    "OPS",
    "CACHEABLE_OPS",
    "ERROR_CODES",
    "ProtocolError",
    "decode_request",
    "normalize_params",
    "query_digest",
    "encode_message",
    "ok_response",
    "error_response",
]

PROTOCOL_VERSION = 1

#: Upper bound on one request line (also the asyncio stream limit).  A
#: million-element membership probe fits comfortably; anything larger should
#: be split — the batcher would serialise it into one giant gather anyway.
MAX_LINE_BYTES = 1 << 20

OPS = ("ping", "stats", "metrics", "reload",
       "member", "count", "multiway", "topk")

#: Operations whose results are immutable functions of the attached artifact
#: *generation* and may therefore be cached (the server namespaces their
#: digests with the engine's artifact token).  ``ping`` is trivial,
#: ``stats``/``metrics`` must reflect live state, and ``reload`` is a
#: lifecycle action, not a query.
CACHEABLE_OPS = frozenset({"member", "count", "multiway", "topk"})

ERROR_CODES = (
    "bad-request",   # malformed JSON / invalid parameters
    "unknown-op",    # op missing or not in OPS
    "timeout",       # per-request deadline expired before the batch ran
    "overloaded",    # bounded request queue is full (backpressure)
    "shutting-down", # server is draining; retry against a live instance
    "reload-failed", # reload target damaged/mid-commit; old engine kept serving
    "server-error",  # unexpected failure while executing the query
)


class ProtocolError(ValueError):
    """A request that cannot be executed, with its wire-level error code."""

    def __init__(self, message: str, code: str = "bad-request") -> None:
        super().__init__(message)
        self.code = code


def decode_request(line) -> dict:
    """Parse one request line into a dict, checking only the envelope.

    Raises :class:`ProtocolError` (``bad-request``) on malformed JSON or a
    non-object payload, including JSON the parser refuses: nesting deeper
    than the interpreter's recursion limit, or an integer longer than its
    digit limit.  Operation and parameter validation is
    :func:`normalize_params`'s job, so a request with a bad ``op`` still
    gets its ``id`` echoed in the error response.
    """
    if isinstance(line, (bytes, bytearray)):
        line = line.decode("utf-8", errors="replace")
    try:
        request = json.loads(line)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise ProtocolError(f"invalid JSON: {exc}") from exc
    if not isinstance(request, dict):
        raise ProtocolError(
            f"request must be a JSON object, got {type(request).__name__}")
    return request


def _require_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(f"{name} must be an integer, got {value!r}")
    return value


def _require_int_list(value, name: str) -> list:
    if not isinstance(value, list):
        raise ProtocolError(f"{name} must be a list of integers, got {value!r}")
    return [_require_int(v, f"{name}[{k}]") for k, v in enumerate(value)]


def normalize_params(request: dict) -> dict:
    """Validate and canonicalise one decoded request's parameters.

    Returns ``{"op": ..., **params}`` with every parameter in a canonical
    form (plain ints, nested lists), so that two logically identical
    requests produce identical dicts — the property :func:`query_digest`
    needs for cache keys.  Raises :class:`ProtocolError` on an unknown op
    (``unknown-op``) or bad parameters (``bad-request``).
    """
    op = request.get("op")
    if not isinstance(op, str) or op not in OPS:
        raise ProtocolError(f"unknown op {op!r}; expected one of {list(OPS)}",
                            code="unknown-op")
    if op in ("ping", "stats", "metrics", "reload"):
        return {"op": op}
    if op == "member":
        return {
            "op": op,
            "set": _require_int(request.get("set"), "set"),
            "elements": _require_int_list(request.get("elements"), "elements"),
        }
    if op == "count":
        raw = request.get("pairs")
        if not isinstance(raw, list):
            raise ProtocolError(f"pairs must be a list of [i, j] pairs, got {raw!r}")
        pairs = []
        for k, pair in enumerate(raw):
            if not isinstance(pair, list) or len(pair) != 2:
                raise ProtocolError(f"pairs[{k}] must be a [i, j] pair, got {pair!r}")
            pairs.append([_require_int(pair[0], f"pairs[{k}][0]"),
                          _require_int(pair[1], f"pairs[{k}][1]")])
        return {"op": op, "pairs": pairs}
    if op == "multiway":
        sets = _require_int_list(request.get("sets"), "sets")
        if len(sets) < 2:
            raise ProtocolError(f"multiway needs at least two sets, got {len(sets)}")
        if len(set(sets)) != len(sets):
            raise ProtocolError("multiway set indices must be distinct")
        return {"op": op, "sets": sets}
    if op == "topk":
        k = _require_int(request.get("k"), "k")
        if k < 1:
            raise ProtocolError(f"k must be >= 1, got {k}")
        return {"op": op, "set": _require_int(request.get("set"), "set"), "k": k}
    raise ProtocolError(f"unknown op {op!r}", code="unknown-op")  # pragma: no cover


def query_digest(params: dict) -> str:
    """Stable digest of one normalised request — the result-cache key.

    Canonical JSON (sorted keys, no whitespace) hashed with blake2b; two
    requests share a digest iff :func:`normalize_params` maps them to the
    same operation and parameters.
    """
    canonical = json.dumps(params, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(canonical.encode("utf-8"), digest_size=16).hexdigest()


def encode_message(message: dict) -> bytes:
    """Serialise one protocol message to its wire form (JSON + newline)."""
    return json.dumps(message, separators=(",", ":")).encode("utf-8") + b"\n"


def ok_response(request_id, result) -> dict:
    """Build a success response envelope."""
    return {"id": request_id, "ok": True, "result": result}


def error_response(request_id, code: str, message: str) -> dict:
    """Build an error response envelope with one of :data:`ERROR_CODES`."""
    return {"id": request_id, "ok": False,
            "error": {"code": code, "message": message}}
