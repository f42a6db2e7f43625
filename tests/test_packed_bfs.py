"""Cross-checks of the packed all-sources BFS kernel against networkx.

:func:`repro.sampling.worlds.packed_bfs` walks every source in every
packed world at once; these tests rebuild its per-world hop distances
and compare them with one networkx BFS per (world, source), and pin its
two consumers — ``MonteCarloOracle.expected_distances`` and
``world_harmonic`` — to per-world references.
"""

import tracemalloc

import networkx as nx
import numpy as np
import pytest

from repro.datasets import dblp_like
from repro.graph.uncertain_graph import UncertainGraph
from repro.sampling import MonteCarloOracle, WorldStore
from repro.sampling.store import (
    pack_mask_columns,
    packed_words,
    unpack_mask_columns,
)
from repro.sampling.worlds import hop_levels, packed_bfs, sample_edge_masks
from repro.workloads.measures import world_harmonic


def _graph(n, m, seed, *, isolated=0):
    """Random graph on ``n`` nodes whose last ``isolated`` nodes have no edges."""
    rng = np.random.default_rng(seed)
    linked = n - isolated
    pairs = [(u, v) for u in range(linked) for v in range(u + 1, linked)]
    picks = rng.choice(len(pairs), size=min(m, len(pairs)), replace=False)
    src = [pairs[i][0] for i in picks]
    dst = [pairs[i][1] for i in picks]
    prob = rng.uniform(0.15, 0.9, size=len(picks))
    return UncertainGraph(n, src, dst, prob)


def _reference(graph, masks, sources):
    """``(s, r, n)`` hop distances per world via networkx; -1 = unreached."""
    r, n = masks.shape[0], graph.n_nodes
    out = np.full((len(sources), r, n), -1, dtype=np.int64)
    for world in range(r):
        g = nx.Graph()
        g.add_nodes_from(range(n))
        present = np.flatnonzero(masks[world])
        g.add_edges_from(zip(graph.edge_src[present].tolist(),
                             graph.edge_dst[present].tolist(), strict=True))
        for pos, source in enumerate(sources):
            for node, hops in nx.single_source_shortest_path_length(g, int(source)).items():
                out[pos, world, node] = hops
    return out


def _kernel(graph, cols, r, sources=None):
    """``(s, r, n)`` hop distances rebuilt from the kernel; -1 = unreached."""
    n = graph.n_nodes
    count = n if sources is None else len(sources)
    out = np.full((count, r, n), -7, dtype=np.int64)
    for positions, planes, reached in packed_bfs(graph, cols, r, sources):
        levels = hop_levels(planes, r).astype(np.int64)
        bits = np.unpackbits(
            np.ascontiguousarray(reached).view(np.uint8), axis=-1, count=r,
            bitorder="little",
        ).transpose(1, 2, 0)
        out[positions] = np.where(bits == 1, levels, -1)
    assert (out != -7).all(), "every source must be yielded exactly once"
    return out


def _per_world_harmonic(graph, masks):
    """Per-world harmonic closeness by the per-source formula: one
    ``(r, n)`` distance row block per source, ``1/d`` summed per row."""
    r, n = masks.shape[0], graph.n_nodes
    dist = _reference(graph, masks, range(n)).astype(np.float64)
    values = np.zeros((r, n), dtype=np.float64)
    for source in range(n):
        d = np.ascontiguousarray(dist[source])
        with np.errstate(divide="ignore"):
            values[:, source] = np.where(d > 0, 1.0 / d, 0.0).sum(axis=1)
    return values / (n - 1)


class TestAgainstNetworkx:
    @pytest.mark.parametrize("r", [1, 63, 64, 65, 130])
    def test_all_sources(self, r):
        graph = _graph(14, 22, seed=r, isolated=2)
        masks = sample_edge_masks(graph.edge_prob, r, rng=r)
        got = _kernel(graph, pack_mask_columns(masks), r)
        assert np.array_equal(got, _reference(graph, masks, range(14)))

    def test_zero_edge_graph(self):
        graph = UncertainGraph(5, [], [], [])
        masks = np.zeros((70, 0), dtype=bool)
        got = _kernel(graph, pack_mask_columns(masks), 70)
        expected = np.full((5, 70, 5), -1)
        for source in range(5):
            expected[source, :, source] = 0
        assert np.array_equal(got, expected)

    def test_subset_of_sources(self):
        graph = _graph(16, 30, seed=3, isolated=1)
        masks = sample_edge_masks(graph.edge_prob, 65, rng=4)
        sources = [15, 3, 9, 3, 0]  # unsorted, repeated, one isolated
        got = _kernel(graph, pack_mask_columns(masks), 65, sources)
        assert np.array_equal(got, _reference(graph, masks, sources))

    def test_zero_worlds(self):
        graph = _graph(6, 8, seed=1)
        cols = pack_mask_columns(np.zeros((0, graph.n_edges), dtype=bool))
        (positions, planes, reached), = packed_bfs(graph, cols, 0)
        assert positions.tolist() == list(range(6))
        assert reached.shape == (6, 6, 0) and hop_levels(planes, 0).shape == (6, 0, 6)

    def test_no_sources(self):
        graph = _graph(6, 8, seed=1)
        cols = pack_mask_columns(sample_edge_masks(graph.edge_prob, 3, rng=1))
        assert list(packed_bfs(graph, cols, 3, [])) == []

    def test_long_path_needs_many_depth_planes(self):
        n = 300  # depths up to 299: nine planes and uint16 levels
        graph = UncertainGraph(n, np.arange(n - 1), np.arange(1, n), np.full(n - 1, 0.99))
        masks = np.ones((2, n - 1), dtype=bool)
        masks[1, 150] = False
        got = _kernel(graph, pack_mask_columns(masks), 2, [0, 299])
        assert np.array_equal(got, _reference(graph, masks, [0, 299]))

    @pytest.mark.parametrize("r", [1, 63, 65, 130])
    def test_pad_bits_never_count(self, r):
        graph = _graph(12, 20, seed=5)
        masks = sample_edge_masks(graph.edge_prob, r, rng=6)
        clean = pack_mask_columns(masks)
        dirty = clean | ~pack_mask_columns(np.ones((r, 1), dtype=bool))[0]  # all pad bits set
        assert _kernel(graph, dirty, r).tolist() == _kernel(graph, clean, r).tolist()
        sums = []
        for cols in (clean, dirty):
            total = 0
            for _positions, planes, reached in packed_bfs(graph, cols, r):
                total += int(np.bitwise_count(reached).sum())
                total += sum(int(np.bitwise_count(plane).sum()) for plane in planes)
            sums.append(total)
        assert sums[0] == sums[1]

    def test_rejects_bad_input(self):
        graph = _graph(6, 8, seed=2)
        cols = pack_mask_columns(sample_edge_masks(graph.edge_prob, 65, rng=2))
        with pytest.raises(ValueError):
            list(packed_bfs(graph, cols, 64))  # 65 worlds need 2 words
        with pytest.raises(IndexError):
            list(packed_bfs(graph, cols, 65, [6]))


class TestStoreServedPools:
    def test_misaligned_store_read(self):
        graph = _graph(15, 26, seed=8, isolated=1)
        store = WorldStore()
        oracle = MonteCarloOracle(graph, seed=2, chunk_size=128, store=store)
        oracle.ensure_samples(256)
        cols, _labels = store.read(oracle.pool_digest, 37, 150)  # re-packed slice
        assert cols.shape == (graph.n_edges, packed_words(113))
        masks = unpack_mask_columns(cols, 113)
        got = _kernel(graph, cols, 113)
        assert np.array_equal(got, _reference(graph, masks, range(15)))

    @pytest.mark.parametrize("chunk_size", [100, 37])
    def test_expected_distances_match_reference(self, chunk_size):
        graph = _graph(13, 20, seed=chunk_size, isolated=1)
        store = WorldStore()
        MonteCarloOracle(graph, seed=5, chunk_size=chunk_size, store=store).ensure_samples(250)
        warm = MonteCarloOracle(graph, seed=5, chunk_size=chunk_size, store=store)
        warm.ensure_samples(250)
        assert warm.cache_stats["worlds_sampled"] == 0
        masks = np.concatenate([warm.chunk_masks(i) for i in range(warm.n_chunks)])
        dist = _reference(graph, masks, range(13)).astype(np.float64)
        dist[dist < 0] = 13.0
        expected = dist.sum(axis=1) / 250
        assert np.array_equal(warm.expected_distances(), expected)
        assert np.array_equal(warm.expected_distances([4, 0]), expected[[4, 0]])


class TestWorldHarmonic:
    @pytest.mark.parametrize("r", [1, 65, 130])
    def test_bit_identical_to_per_world_reference(self, r):
        graph = _graph(18, 30, seed=r, isolated=2)
        masks = sample_edge_masks(graph.edge_prob, r, rng=r + 1)
        assert np.array_equal(world_harmonic(graph, masks), _per_world_harmonic(graph, masks))

    def test_bit_identical_on_dblp_pool(self):
        graph = dblp_like(120, seed=1)
        masks = sample_edge_masks(graph.edge_prob, 64, rng=0)
        assert np.array_equal(world_harmonic(graph, masks), _per_world_harmonic(graph, masks))

    def test_peak_memory_stays_small(self):
        graph = dblp_like(120, seed=1)
        masks = sample_edge_masks(graph.edge_prob, 64, rng=0)
        world_harmonic(graph, masks)
        tracemalloc.start()
        try:
            world_harmonic(graph, masks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
