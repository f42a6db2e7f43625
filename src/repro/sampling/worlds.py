"""Vectorized sampling of possible worlds.

A *possible world* of an uncertain graph keeps each edge independently
with its probability.  A batch of ``r`` sampled worlds is represented
two ways:

* an ``(r, m)`` boolean *edge mask* matrix, and
* a single **block-diagonal** sparse adjacency matrix with ``r * n``
  vertices, world ``i`` occupying the vertex range ``[i*n, (i+1)*n)``.

Component labeling is pluggable (:mod:`repro.sampling.backends`): the
``scipy`` backend labels every world with one C-level
``connected_components`` call over the block-diagonal matrix, while the
``unionfind`` backend runs a vectorized union-find that never builds
the matrix.  The block-diagonal CSR form remains the workhorse of
depth-limited queries: one sparse gather advances a BFS frontier *in
every world simultaneously*.  This substitutes for the OpenMP parallel
sampler in the authors' C++ implementation.

Hop distances from *every* source — the input of the k-median /
k-center and harmonic-centrality workloads — come from
:func:`packed_bfs`, which never builds the CSR: it runs one
level-synchronous BFS over the store's bit-packed edge columns, 64
worlds per ``uint64`` word and a batch of sources per numpy call.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.graph.uncertain_graph import UncertainGraph
from repro.sampling.backends import resolve_backend
from repro.sampling.backends.base import block_edge_endpoints, receiver_sorted_arcs
from repro.sampling.store import pack_mask_columns, packed_words
from repro.utils.rng import ensure_rng

#: Byte budget of the largest temporary of one :func:`packed_bfs` level
#: (the ``(arcs, sources, words)`` gather); it sets the source batch.
_BFS_GATHER_BYTES = 1 << 17


def sample_edge_masks(edge_prob: np.ndarray, r: int, rng=None) -> np.ndarray:
    """Sample ``r`` possible worlds as an ``(r, m)`` boolean mask matrix."""
    if r < 0:
        raise ValueError(f"r must be non-negative, got {r}")
    rng = ensure_rng(rng)
    edge_prob = np.asarray(edge_prob, dtype=np.float64)
    return rng.random((r, len(edge_prob))) < edge_prob


def world_component_labels(
    graph: UncertainGraph, masks: np.ndarray, backend=None
) -> np.ndarray:
    """Component labels for each sampled world.

    Returns an ``(r, n)`` int32 array in the canonical form shared by
    all labeling backends: ``labels[i, v]`` is the smallest node index
    in ``v``'s component of world ``i`` (so labels are directly
    comparable across backends, not just within a row).

    ``backend`` accepts anything :func:`repro.sampling.backends.resolve_backend`
    does: ``None``/``"auto"``, ``"scipy"``, ``"unionfind"``, or a
    :class:`~repro.sampling.backends.WorldBackend` instance.
    """
    return resolve_backend(backend, graph).component_labels(graph, masks)


def world_block_csr(graph: UncertainGraph, masks: np.ndarray) -> sp.csr_matrix:
    """Symmetric block-diagonal CSR adjacency of the sampled worlds.

    Shape ``(r*n, r*n)``; world ``i`` occupies rows/cols
    ``[i*n, (i+1)*n)``.  Data entries are 1 (int8).
    """
    bsrc, bdst, r = block_edge_endpoints(graph, masks)
    total = r * graph.n_nodes
    data = np.ones(2 * len(bsrc), dtype=np.int8)
    matrix = sp.coo_matrix(
        (data, (np.concatenate([bsrc, bdst]), np.concatenate([bdst, bsrc]))),
        shape=(total, total),
    )
    return matrix.tocsr()


def _gather_ranges(indptr: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Concatenate the CSR index ranges of ``nodes`` without a Python loop."""
    starts = indptr[nodes]
    lengths = indptr[nodes + 1] - starts
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    shifts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    return np.repeat(starts - shifts, lengths) + np.arange(total, dtype=np.int64)


def block_bfs_reached(
    block: sp.csr_matrix,
    n_nodes: int,
    r: int,
    source: int,
    depth: int,
) -> np.ndarray:
    """Nodes within ``depth`` hops of ``source`` in each of ``r`` worlds.

    Runs a frontier-driven BFS from ``source`` simultaneously in every
    world of a block-diagonal adjacency.  Because the matrix is
    symmetric its CSR arrays double as CSC, so the neighbours of the
    whole frontier are one vectorized gather — total work is
    proportional to the edges actually reached, not ``depth * nnz``.
    Returns an ``(r, n_nodes)`` boolean matrix.
    """
    if depth < 0:
        raise ValueError(f"depth must be non-negative, got {depth}")
    total = r * n_nodes
    reached = np.zeros(total, dtype=bool)
    frontier = source + np.arange(r, dtype=np.int64) * n_nodes
    reached[frontier] = True
    indptr, indices = block.indptr, block.indices
    for _ in range(depth):
        if len(frontier) == 0:
            break
        neighbours = indices[_gather_ranges(indptr, frontier)]
        neighbours = neighbours[~reached[neighbours]]
        if len(neighbours) == 0:
            break
        frontier = np.unique(neighbours)
        reached[frontier] = True
    return reached.reshape(r, n_nodes)


def packed_bfs(graph: UncertainGraph, packed_cols: np.ndarray, n_worlds: int, sources=None):
    """Hop distances from many sources in every packed world at once.

    ``packed_cols`` is the store's edge-major form
    (:func:`repro.sampling.store.pack_mask_columns`): ``(m, w)``
    ``uint64`` with ``w = packed_words(n_worlds)``, bit ``i`` of row
    ``e`` set iff edge ``e`` is present in world ``i``.  ``sources``
    defaults to every node.

    The BFS is level-synchronous over a batch of sources.  The state is
    node-major ``(n, sources, w)`` words: bit ``i`` of ``reached[v, j]``
    says ``v`` is reached from source ``j`` in world ``i``.  One level
    gathers ``frontier[src] & cols[edge]`` over the arcs sorted by
    receiving node, ORs each node's segment with one ``reduceat`` and
    clears what was already reached — no CSR matrix, no unpacking and
    no ``np.unique``.  When fewer than half of the arcs leave a node on
    the frontier (the long tail levels of sparse worlds), the level
    gathers only those arcs.  Sources whose BFS has ended in every world are
    dropped once they make up half of the batch, so fragmented worlds
    do not pay for a long tail of finished columns.  Pad bits at or
    above ``n_worlds`` in the last word never count: the sources start
    with the valid world bits only, and a level only ever ANDs the
    frontier with edge bits, so no pad bit is ever set.

    Yields ``(positions, planes, reached)`` per group of finished
    sources: ``positions`` indexes ``sources``; ``reached`` is the
    ``(n, g, w)`` reach bitset; ``planes[b]`` (same shape) holds bit
    ``b`` of the hop count, so a world's depth of ``v`` from source
    ``j`` is ``sum_b bit(planes[b][v, j]) << b`` (0 at the source and
    where ``v`` is unreached).  :func:`hop_levels` decodes the planes.

    Examples
    --------
    >>> g = UncertainGraph.from_edges([(0, 1, 0.5), (1, 2, 0.5)])
    >>> cols = pack_mask_columns(np.array([[True, True], [True, False]]))
    >>> [(p.tolist(), hop_levels(planes, 2).tolist())
    ...  for p, planes, _ in packed_bfs(g, cols, 2, [0])]
    [([0], [[[0, 1, 2], [0, 1, 0]]])]
    """
    n = graph.n_nodes
    words = packed_words(n_worlds)
    packed_cols = np.asarray(packed_cols, dtype=np.uint64)
    if packed_cols.shape != (graph.n_edges, words):
        raise ValueError(
            f"packed columns must have shape ({graph.n_edges}, {words}) for "
            f"{n_worlds} worlds, got {packed_cols.shape}"
        )
    sources = np.arange(n) if sources is None else np.asarray(sources, dtype=np.intp)
    if len(sources) and (sources.min() < 0 or sources.max() >= n):
        raise IndexError("packed_bfs sources out of range")
    recv, tails, edges = receiver_sorted_arcs(graph, cover_all=True)
    starts = np.flatnonzero(np.r_[True, recv[1:] != recv[:-1]])
    never = np.zeros((1, words), dtype=np.uint64)  # the edge of a bare node's self arc
    arc_cols = np.concatenate([packed_cols, never])[edges][:, None, :]
    valid = pack_mask_columns(np.ones((n_worlds, 1), dtype=bool))[0]  # the real world bits
    batch = max(1, _BFS_GATHER_BYTES // max(1, len(tails) * words * 8))
    for lo in range(0, len(sources), batch):
        positions = np.arange(lo, min(lo + batch, len(sources)))
        reached = np.zeros((n, len(positions), words), dtype=np.uint64)
        reached[sources[positions], np.arange(len(positions))] = valid
        frontier = reached.copy()
        planes = [np.zeros_like(reached)]
        depth = 0
        while True:
            depth += 1
            hot = np.bitwise_or.reduce(frontier.reshape(n, len(positions) * words), axis=1) != 0
            arcs = np.flatnonzero(hot[tails])
            if len(arcs) == 0:  # an empty frontier (only with zero worlds)
                break
            if 2 * len(arcs) < len(tails):
                heads = recv[arcs]
                cuts = np.flatnonzero(np.r_[True, heads[1:] != heads[:-1]])
                gathered = frontier[tails[arcs]]
                gathered &= arc_cols[arcs]
                frontier = np.zeros_like(reached)
                frontier[heads[cuts]] = np.bitwise_or.reduceat(gathered, cuts, axis=0)
            else:
                gathered = frontier[tails]
                gathered &= arc_cols
                frontier = np.bitwise_or.reduceat(gathered, starts, axis=0)
            frontier &= ~reached
            alive = np.bitwise_or.reduce(frontier, axis=0).any(axis=1)
            if not alive.any():
                break
            if 2 * alive.sum() <= len(positions):
                done = ~alive
                yield positions[done], [plane[:, done] for plane in planes], reached[:, done]
                positions = positions[alive]
                frontier, reached = frontier[:, alive], reached[:, alive]
                planes = [plane[:, alive] for plane in planes]
            reached |= frontier
            if depth.bit_length() > len(planes):
                planes.append(np.zeros_like(reached))
            for bit in range(depth.bit_length()):
                if depth >> bit & 1:
                    planes[bit] |= frontier
        yield positions, planes, reached


def hop_levels(planes: list[np.ndarray], n_worlds: int) -> np.ndarray:
    """Decode :func:`packed_bfs` depth planes into per-world hop counts.

    Returns ``(g, n_worlds, n)`` levels in the smallest unsigned dtype
    that holds ``n - 1``: entry ``[j, i, v]`` is the hop count of ``v``
    from source ``j`` in world ``i``, 0 at the source and where ``v``
    is unreached (tell those apart with the ``reached`` bits).  Each
    ``(n_worlds, n)`` slab is one contiguous world-by-node row block.
    """
    n, g, _words = planes[0].shape
    dtype = np.min_scalar_type(max(n - 1, 0))
    levels = np.zeros((n, g, n_worlds), dtype=dtype)
    for bit, plane in enumerate(planes):
        bits = np.unpackbits(
            np.ascontiguousarray(plane).view(np.uint8), axis=-1, count=n_worlds,
            bitorder="little",
        ).astype(dtype, copy=False)
        bits <<= dtype.type(bit)
        levels |= bits
    return np.ascontiguousarray(levels.transpose(1, 2, 0))
