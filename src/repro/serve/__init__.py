"""Online query serving over spilled batmap collections (`repro serve`).

The serving layer turns a PR-5 spill artifact — memory-mapped
:class:`~repro.core.batch.WidthClassIndex` buffers plus the persisted hash
family — into a long-lived TCP service answering membership probes, pairwise
and multiway intersections and top-k-similar-set queries, with request
batching, an LRU result cache and per-request latency metrics.  Everything is
stdlib ``asyncio`` + NumPy; served results are bit-identical to the
equivalent direct :class:`~repro.core.collection.BatmapCollection` /
:class:`~repro.core.sharded.ShardedCollection` calls.

See ``docs/serving.md`` for the protocol reference and operational guide.
"""

from repro import _lazy

#: Loaded on first access: ``repro query`` needs the client, not the server.
__all__, __getattr__, __dir__ = _lazy(__name__, {
    "client": "ServeClient ServeError",
    "engine": "SpillQueryEngine",
    "server": "BackgroundServer BatmapServer",
})
