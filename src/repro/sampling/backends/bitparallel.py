"""Bit-parallel world labeling: 64 worlds per ``uint64`` word.

The store already keeps sampled masks *edge-major and bit-packed*
(:func:`repro.sampling.store.pack_mask_columns`): row ``e`` is edge
``e``'s presence bitset over the chunk's worlds.  Both earlier backends
unpack that to booleans and label world-by-world, so their cost scales
with the number of *worlds*.  This backend runs connectivity directly
on the packed words, so one ``uint64`` operation advances 64 worlds at
once and labeling cost scales with *words* (``ceil(r / 64)``).

Algorithm: bit-plane min-label propagation
------------------------------------------
Each node carries its current per-world label encoded across
``B = ceil(log2 n)`` *bit planes*: plane ``b`` is an ``(n, w)``
``uint64`` matrix whose world-bit ``i`` of row ``v`` is bit ``b`` of
``v``'s label in world ``i``.  Labels start as the identity and the
kernel iterates the min-representative propagation idiom (the same
fixpoint RobinL's clustering-in-SQL reaches row-wise): every round,
each node takes the minimum of its own label and its present
neighbors' labels, **per world, across all worlds of a word at once**:

1. *Masked segment-min.*  Arcs (both directions of every edge) are
   pre-sorted by receiving node.  For each plane, most significant
   first, one ``bitwise_or.reduceat`` over the arc segment answers
   "does any still-surviving candidate have a 0 here?" for 64 worlds
   per word; the minimum's bit is 1 only where no candidate does, and
   survivors are narrowed to the zero-bit candidates where one exists.
   Candidate validity is exactly the packed edge bitset — absent edges
   never survive, so no boolean unpacking ever happens.
2. *Bit-plane compare-and-take.*  A carry-free MSB-first comparator
   marks the worlds where the segment minimum beats the node's current
   label; those planes are blended in with two bitwise ops per plane.
3. *Delta compaction.*  Only arcs whose source node changed in some
   world stay live for the next round, so late rounds (the long
   diameter tail of near-critical worlds) touch a vanishing arc
   subset.  The loop ends when no arc is live — the min-label
   fixpoint, which on every world is the canonical smallest-node
   labeling shared by all backends
   (:mod:`repro.sampling.backends.base`).

The output is bit-identical to the scipy and union-find backends —
pinned by ``tests/test_backends.py`` — and the packed fast path
(:meth:`BitParallelWorldBackend.component_labels_packed`) is pinned
bit-identical to the boolean path (``docs/ARCHITECTURE.md`` invariant).

Pad bits (world bits at or above ``r`` in the last word) carry no
edges in store-packed columns, so they idle through the propagation
and are dropped by the final ``count=r`` unpack; stray pad garbage in
caller-built columns costs work but never correctness.
"""

from __future__ import annotations

import numpy as np

from repro.graph.uncertain_graph import UncertainGraph
from repro.sampling.backends.base import receiver_sorted_arcs, validate_masks
from repro.sampling.store import WORD_BITS, pack_mask_columns, packed_words

#: All 64 bits set — the plane value of a label bit that is 1.
_FULL_WORD = np.uint64(0xFFFFFFFFFFFFFFFF)


class BitParallelWorldBackend:
    """Label worlds via bit-plane min-label propagation on packed masks.

    Examples
    --------
    >>> from repro.graph.uncertain_graph import UncertainGraph
    >>> g = UncertainGraph.from_edges([(0, 1, 0.9), (2, 3, 0.9)])
    >>> masks = np.array([[True, False], [True, True]])
    >>> BitParallelWorldBackend().component_labels(g, masks)
    array([[0, 0, 2, 3],
           [0, 0, 2, 2]], dtype=int32)
    """

    name = "bitparallel"

    def component_labels(self, graph: UncertainGraph, masks: np.ndarray) -> np.ndarray:
        """Boolean-mask entry point: packs, then runs the packed kernel."""
        masks = validate_masks(graph, masks)
        return self.component_labels_packed(graph, pack_mask_columns(masks), masks.shape[0])

    def component_labels_packed(
        self, graph: UncertainGraph, packed_cols: np.ndarray, n_worlds: int
    ) -> np.ndarray:
        """Label ``n_worlds`` worlds straight from edge-major packed columns.

        ``packed_cols`` is the store's columnar form — shape
        ``(n_edges, packed_words(n_worlds))`` ``uint64``, row ``e``
        holding edge ``e``'s presence bitset (little-endian bit order,
        pad bits zero).  Returns the same ``(r, n)`` int32 canonical
        labels as :meth:`component_labels` on the unpacked masks,
        bit-for-bit, without ever materializing the boolean matrix.
        """
        r = int(n_worlds)
        if r < 0:
            raise ValueError(f"n_worlds must be non-negative, got {n_worlds}")
        n, m = graph.n_nodes, graph.n_edges
        packed_cols = np.ascontiguousarray(packed_cols, dtype=np.uint64)
        if packed_cols.ndim != 2 or packed_cols.shape != (m, packed_words(r)):
            raise ValueError(
                f"packed columns must have shape ({m}, {packed_words(r)}) for "
                f"{r} worlds, got {packed_cols.shape}"
            )
        if r == 0 or n == 0:
            return np.empty((r, n), dtype=np.int32)
        identity = np.tile(np.arange(n, dtype=np.int32), (r, 1))
        if m == 0 or not packed_cols.any():
            return identity
        arcs = receiver_sorted_arcs(graph)
        out = np.empty((n, r), dtype=np.int32)
        for word in range(packed_cols.shape[1]):
            n_bits = min(WORD_BITS, r - word * WORD_BITS)
            batch = _label_word_batch(
                np.ascontiguousarray(packed_cols[:, word]), n, arcs
            )
            out[:, word * WORD_BITS:word * WORD_BITS + n_bits] = batch[:, :n_bits]
        return np.ascontiguousarray(out.T)

    def repair_labels(
        self,
        graph: UncertainGraph,
        masks: np.ndarray,
        old_labels: np.ndarray,
        affected: np.ndarray,
    ) -> np.ndarray:
        """Component-local repair (the delta-derivation fast path).

        Same restriction as the union-find backend's repair: an edge is
        *allowed* iff present post-delta **and** its endpoint lies in an
        affected component; unaffected nodes keep their old labels.
        Soundness rests on the caller's no-boundary-edge guarantee (see
        :meth:`~repro.sampling.backends.base.WorldBackend.repair_labels`);
        pinned bit-identical to the scipy full relabel by
        ``tests/test_deltas.py``.
        """
        masks = validate_masks(graph, masks)
        r, n = masks.shape[0], graph.n_nodes
        old_labels = np.ascontiguousarray(old_labels, dtype=np.int32)
        affected = np.asarray(affected, dtype=bool)
        if old_labels.shape != (r, n) or affected.shape != (r, n):
            raise ValueError(
                f"old_labels and affected must have shape ({r}, {n}), got "
                f"{old_labels.shape} and {affected.shape}"
            )
        if r == 0 or n == 0:
            return old_labels.copy()
        allowed = masks & affected[:, graph.edge_src]
        fresh = self.component_labels(graph, allowed)
        return np.where(affected, fresh, old_labels)


def _label_word_batch(
    edge_word: np.ndarray, n: int, arcs: tuple[np.ndarray, np.ndarray, np.ndarray]
) -> np.ndarray:
    """Canonical labels for one 64-world word: ``(n, 64)`` int32.

    Every array in the loop is a ``uint64`` *word*: bit ``i`` of a word
    is world ``i``'s value, so each bitwise op advances 64 worlds at
    once.  A round is three packed steps:

    * *Masked segment-min* — arcs are pre-sorted by receiving node, so
      one ``bitwise_or.reduceat`` per bit plane (MSB first) asks "does
      any surviving candidate have a 0 here?" for all 64 worlds of a
      word; the minimum's bit is 1 only where no candidate does, and
      survivors narrow to the zero-bit candidates where one exists.
      Candidate validity is ``edge_word & changed[src]``: an arc only
      participates in the worlds where its edge is present *and* its
      source's label improved last round, so late rounds (the diameter
      tail of a few worlds) touch a vanishing arc subset.
    * *Carry-free compare* — an MSB-first comparator marks the worlds
      where the segment minimum beats the node's current label
      (``lt |= diff & cur``, two ops per plane).
    * *Blend* — winning planes are merged in with two bitwise ops per
      plane, and the take-word *is* the next round's changed bitset —
      no packing step.

    Labels are only decoded to int32 once, at the fixpoint.
    """
    recv_s, src_s, eid_s = arcs
    n_planes = max(1, (n - 1).bit_length())
    # planes[b, v]: bit i is bit b of v's current label in world i.
    node_bits = (
        np.arange(n, dtype=np.uint64)[:, None]
        >> np.arange(n_planes, dtype=np.uint64)[None, :]
    ) & np.uint64(1)
    planes = np.ascontiguousarray(
        np.where(node_bits == 1, _FULL_WORD, np.uint64(0)).T
    )
    changed_word = np.full(n, _FULL_WORD)
    changed_any = np.ones(n, dtype=bool)
    while True:
        # Two-level liveness: cheap node-granular cut, then the packed
        # per-world candidate bits (edge present *and* source changed).
        cand = np.flatnonzero(changed_any[src_s])
        if cand.size == 0:
            break
        surv = edge_word[eid_s[cand]] & changed_word[src_s[cand]]
        rows = surv != 0
        if not rows.any():
            break
        live = cand[rows]
        surv = surv[rows]
        live_recv = recv_s[live]
        live_src = src_s[live]
        starts = np.flatnonzero(np.r_[True, live_recv[1:] != live_recv[:-1]])
        seg_nodes = live_recv[starts]
        singles = starts.size == live_recv.size  # every segment is one arc
        src_planes = planes[:, live_src]
        if singles:
            has_any = surv
            res = src_planes & surv[None, :]
        else:
            seg_of_arc = np.repeat(
                np.arange(seg_nodes.size), np.diff(np.r_[starts, live_recv.size])
            )
            has_any = np.bitwise_or.reduceat(surv, starts)
            res = np.empty((n_planes, seg_nodes.size), dtype=np.uint64)
            for b in range(n_planes - 1, -1, -1):
                cand_zero = surv & ~src_planes[b]
                has_zero = np.bitwise_or.reduceat(cand_zero, starts)
                res[b] = has_any & ~has_zero
                if b:
                    surv &= cand_zero | ~has_zero[seg_of_arc]

        # Carry-free MSB-first comparator: lt bit set where res < cur.
        # Garbage bits of res in no-candidate worlds are masked out by
        # seeding ``undecided`` with has_any.
        cur = planes[:, seg_nodes]
        lt = np.zeros(seg_nodes.size, dtype=np.uint64)
        undecided = has_any.copy()
        for b in range(n_planes - 1, -1, -1):
            diff = (cur[b] ^ res[b]) & undecided
            lt |= diff & cur[b]
            undecided &= ~diff
        if not lt.any():
            break
        keep = ~lt
        planes[:, seg_nodes] = (cur & keep[None, :]) | (res & lt[None, :])
        changed_word = np.zeros(n, dtype=np.uint64)
        changed_word[seg_nodes] = lt
        changed_any = changed_word != 0

    # Single decode at the fixpoint: planes -> (n, 64) int32.
    labels = np.zeros((n, WORD_BITS), dtype=np.int32)
    for b in range(n_planes):
        bits = np.unpackbits(
            planes[b].view(np.uint8).reshape(n, 8), axis=1, bitorder="little"
        )
        labels += bits.astype(np.int32) << np.int32(b)
    return labels
