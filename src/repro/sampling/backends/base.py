"""The :class:`WorldBackend` protocol and shared mask plumbing.

A *world-labeling backend* turns a chunk of sampled possible worlds —
an ``(r, m)`` boolean edge-mask matrix — into per-world connected
component labels.  Backends are the hot path of
:class:`repro.sampling.oracle.MonteCarloOracle`: every progressive
sampling step funnels its freshly drawn masks through exactly one
:meth:`WorldBackend.component_labels` call.

Canonical labeling contract
---------------------------
All backends must return the *same* ``(r, n)`` int32 array for the same
``(graph, masks)`` input: ``labels[i, v]`` is the **smallest node index
in the connected component of** ``v`` **in world** ``i``.  Because the
masks are sampled once by the oracle (backends never consume RNG state),
this makes every downstream quantity — ``connection_to_all``,
``pairwise_matrix``, MCP/ACP clusterings — bit-identical across
backends for a fixed seed.  The cross-backend equivalence suite in
``tests/test_backends.py`` pins this contract.

Packed fast path (optional)
---------------------------
Backends *may* implement ``component_labels_packed(graph, packed_cols,
n_worlds) -> labels``, accepting the store's edge-major bit-packed
columns (:func:`repro.sampling.store.pack_mask_columns`: shape
``(m, packed_words(n_worlds))`` ``uint64``, row ``e`` holding edge
``e``'s presence bitset, little-endian, pad bits zero) *without a
boolean round-trip*.  The contract: bit-identical to
``component_labels`` on the unpacked masks.  Callers discover the
method with ``getattr`` — :class:`repro.sampling.parallel.ParallelSampler`
routes freshly packed chunks through it, and
:mod:`repro.sampling.deltas` hands derived blocks straight to it when
every world needs relabeling.  The bit-parallel backend
(:mod:`repro.sampling.backends.bitparallel`) is the shipped
implementation; like ``repair_labels`` it is deliberately not part of
the runtime protocol.

Incremental relabeling (optional)
---------------------------------
Backends *may* additionally implement ``repair_labels(graph, masks,
old_labels, affected) -> labels`` — the delta-derivation fast path
(:mod:`repro.sampling.deltas`).  ``masks`` are the post-delta edge
masks of the worlds needing repair, ``old_labels`` their pre-delta
canonical labels, and ``affected`` an ``(r, n)`` boolean matrix marking
every node whose pre-delta component contains an endpoint of a flipped
edge.  The contract: the result must be **bit-identical** to
``component_labels(graph, masks)`` — incrementality is an optimization,
never a different answer.  The caller guarantees that no post-delta
present edge joins an affected node to an unaffected one (flipped
edges' endpoints are affected by construction, and unflipped present
edges connect nodes of one pre-delta component, which is affected
either wholly or not at all) — which is what makes component-local
repair sound.  The method is deliberately *not* part of the runtime
protocol: custom backends without it simply take the full-relabel path.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from repro.graph.uncertain_graph import UncertainGraph


@runtime_checkable
class WorldBackend(Protocol):
    """Labels every world of a sampled mask chunk.

    Implementations must be deterministic pure functions of
    ``(graph, masks)`` and follow the canonical labeling contract of
    this module: ``labels[i, v]`` is the smallest node index in ``v``'s
    component of world ``i``.
    """

    name: str

    def component_labels(self, graph: UncertainGraph, masks: np.ndarray) -> np.ndarray:
        """Return ``(r, n)`` int32 canonical component labels."""
        ...  # pragma: no cover - protocol


def validate_masks(graph: UncertainGraph, masks: np.ndarray) -> np.ndarray:
    """Coerce ``masks`` to a boolean ``(r, m)`` matrix for ``graph``."""
    masks = np.asarray(masks, dtype=bool)
    if masks.ndim != 2 or masks.shape[1] != graph.n_edges:
        raise ValueError(
            f"masks must have shape (r, {graph.n_edges}), got {masks.shape}"
        )
    return masks


def block_edge_endpoints(
    graph: UncertainGraph, masks: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """Endpoints of all sampled edges, shifted into their world's block.

    Returns ``(bsrc, bdst, r)`` where world ``i`` occupies the index
    range ``[i*n, (i+1)*n)``.  Because graph edges are stored with
    ``src < dst``, the returned arrays satisfy ``bsrc < bdst``
    elementwise — a property the union-find backend's first hooking
    round exploits.
    """
    masks = validate_masks(graph, masks)
    r = masks.shape[0]
    world_idx, edge_idx = np.nonzero(masks)
    offset = world_idx.astype(np.int64) * graph.n_nodes
    bsrc = graph.edge_src[edge_idx].astype(np.int64) + offset
    bdst = graph.edge_dst[edge_idx].astype(np.int64) + offset
    return bsrc, bdst, r


def receiver_sorted_arcs(
    graph: UncertainGraph, *, cover_all: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both directions of every edge, pre-sorted by receiving node.

    Returns ``(recv, src, eid)``: arc ``a`` carries edge ``eid[a]`` from
    ``src[a]`` into ``recv[a]``.  Sorting once lets a packed kernel
    cover each node's candidate segment with a single ``reduceat``.
    With ``cover_all=True`` every node receives at least one arc: a
    node without edges gets a self arc with ``eid == n_edges``, an
    index past the last edge that callers map to "never present", so
    ``reduceat`` yields exactly one row per node.
    """
    n, m = graph.n_nodes, graph.n_edges
    recv = np.concatenate([graph.edge_dst, graph.edge_src])
    src = np.concatenate([graph.edge_src, graph.edge_dst])
    eid = np.concatenate([np.arange(m)] * 2)
    if cover_all:
        bare = np.flatnonzero(np.bincount(recv, minlength=n) == 0)
        recv = np.concatenate([recv, bare])
        src = np.concatenate([src, bare])
        eid = np.concatenate([eid, np.full(len(bare), m)])
    order = np.argsort(recv, kind="stable")
    return (
        np.ascontiguousarray(recv[order]),
        np.ascontiguousarray(src[order]),
        np.ascontiguousarray(eid[order]),
    )
