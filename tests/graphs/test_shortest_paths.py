"""Unit tests for shortest-path utilities."""

import math

import numpy as np
import pytest

from repro.geometry.primitives import distance
from repro.graphs.shortest_paths import (
    dijkstra,
    dijkstra_to_target,
    dijkstra_weighted,
    euclidean_weights,
    euclidean_shortest_path,
    euclidean_shortest_path_length,
    hop_distances,
    k_hop_neighborhood,
    path_edge_lengths,
)
from repro.graphs.udg import unit_disk_graph
from repro.scenarios import perturbed_grid_scenario

# The weighted-adjacency oracle is differential against the reference
# Dijkstra; a stray divide or inf arithmetic in it fails the suite.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


@pytest.fixture(scope="module")
def chain():
    pts = np.array([[i * 0.8, 0.0] for i in range(6)])
    return pts, unit_disk_graph(pts)


@pytest.fixture(scope="module")
def random_graph():
    pts = np.random.default_rng(0).random((80, 2)) * 5
    return pts, unit_disk_graph(pts)


class TestDijkstra:
    def test_chain_distances(self, chain):
        pts, adj = chain
        dist, prev = dijkstra(pts, adj, 0)
        assert dist[5] == pytest.approx(4.0)
        assert dist[0] == 0.0

    def test_early_exit_consistent(self, random_graph):
        pts, adj = random_graph
        full, _ = dijkstra(pts, adj, 0)
        for t in (10, 40, 79):
            if t in full:
                partial, _ = dijkstra(pts, adj, 0, target=t)
                assert partial[t] == pytest.approx(full[t])

    def test_triangle_inequality_over_graph(self, random_graph):
        pts, adj = random_graph
        dist, _ = dijkstra(pts, adj, 0)
        for v, d in dist.items():
            assert d >= distance(pts[0], pts[v]) - 1e-9


class TestEuclideanShortestPath:
    def test_path_endpoints(self, random_graph):
        pts, adj = random_graph
        dist, _ = dijkstra(pts, adj, 0)
        target = max(dist, key=dist.get)
        path, length = euclidean_shortest_path(pts, adj, 0, target)
        assert path[0] == 0 and path[-1] == target

    def test_path_length_consistent(self, random_graph):
        pts, adj = random_graph
        dist, _ = dijkstra(pts, adj, 0)
        target = max(dist, key=dist.get)
        path, length = euclidean_shortest_path(pts, adj, 0, target)
        assert sum(path_edge_lengths(pts, path)) == pytest.approx(length)

    def test_edges_exist(self, random_graph):
        pts, adj = random_graph
        dist, _ = dijkstra(pts, adj, 0)
        target = max(dist, key=dist.get)
        path, _ = euclidean_shortest_path(pts, adj, 0, target)
        for a, b in zip(path, path[1:]):
            assert b in adj[a]

    def test_unreachable_raises(self):
        pts = np.array([[0.0, 0.0], [5.0, 5.0]])
        adj = unit_disk_graph(pts)
        with pytest.raises(ValueError):
            euclidean_shortest_path(pts, adj, 0, 1)

    def test_length_helper(self, chain):
        pts, adj = chain
        assert euclidean_shortest_path_length(pts, adj, 0, 3) == pytest.approx(2.4)


class TestHops:
    def test_hop_distances_chain(self, chain):
        pts, adj = chain
        hops = hop_distances(adj, 0)
        assert hops == {i: i for i in range(6)}

    def test_k_hop_neighborhood(self, chain):
        pts, adj = chain
        assert k_hop_neighborhood(adj, 0, 0) == {0}
        assert k_hop_neighborhood(adj, 0, 1) == {0, 1}
        assert k_hop_neighborhood(adj, 0, 2) == {0, 1, 2}
        assert k_hop_neighborhood(adj, 2, 2) == {0, 1, 2, 3, 4}

    def test_k_hop_matches_bfs(self, random_graph):
        pts, adj = random_graph
        hops = hop_distances(adj, 5)
        for k in (1, 2, 3):
            want = {v for v, d in hops.items() if d <= k}
            assert k_hop_neighborhood(adj, 5, k) == want

    def test_path_edge_lengths(self, chain):
        pts, adj = chain
        lens = path_edge_lengths(pts, [0, 1, 2])
        assert lens == [pytest.approx(0.8), pytest.approx(0.8)]


def _bits(dist):
    return {v: d.hex() for v, d in dist.items()}


class TestWeightedOracle:
    """``dijkstra_weighted`` over ``euclidean_weights`` ≡ :func:`dijkstra`,
    bit for bit."""

    def test_e1_udg_bit_identical(self):
        sc = perturbed_grid_scenario(
            width=12.0, height=12.0, hole_count=2, hole_scale=2.0, seed=1
        )
        adj = unit_disk_graph(sc.points)
        nbrs = euclidean_weights(sc.points, adj)
        sources = np.random.default_rng(2).choice(len(sc.points), 20, replace=False)
        for s in sources.tolist():
            want, _ = dijkstra(sc.points, adj, s)
            got = dijkstra_weighted(nbrs, s)
            assert _bits(got) == _bits(want)

    def test_random_graph_bit_identical(self, random_graph):
        pts, adj = random_graph
        nbrs = euclidean_weights(pts, adj)
        for s in range(len(pts)):
            assert _bits(dijkstra_weighted(nbrs, s)) == _bits(dijkstra(pts, adj, s)[0])

    def test_coincident_nodes_zero_weight(self):
        # Nodes 1 and 2 coincide: a zero-weight edge.
        pts = np.array([[0.0, 0.0], [0.7, 0.1], [0.7, 0.1], [1.3, 0.4], [2.0, 0.2]])
        adj = unit_disk_graph(pts)
        assert 2 in adj[1]
        nbrs = euclidean_weights(pts, adj)
        for s in range(len(pts)):
            got = dijkstra_weighted(nbrs, s)
            assert _bits(got) == _bits(dijkstra(pts, adj, s)[0])
        assert dijkstra_weighted(nbrs, 1)[2] == 0.0

    def test_unreachable_targets_absent(self):
        # Two components: the far one is missing from both maps, so
        # ``dist.get(t, inf)`` reads ``inf`` for it.
        pts = np.array([[0.0, 0.0], [0.8, 0.0], [1.6, 0.0], [9.0, 9.0], [9.5, 9.0]])
        adj = unit_disk_graph(pts)
        nbrs = euclidean_weights(pts, adj)
        got = dijkstra_weighted(nbrs, 0)
        assert _bits(got) == _bits(dijkstra(pts, adj, 0)[0])
        assert set(got) == {0, 1, 2}
        assert got.get(4, math.inf) == math.inf
        assert dijkstra_weighted(nbrs, 4) == {4: 0.0, 3: 0.5}


def _xy(pts):
    return pts[:, 0].tolist(), pts[:, 1].tolist()


class TestPairOracle:
    """``dijkstra_to_target`` ≡ :func:`dijkstra`'s ``dist[t]``, bit for bit,
    with and without a bound."""

    def _check_all_pairs(self, pts, adj):
        nbrs = euclidean_weights(pts, adj)
        xy = _xy(pts)
        for s in range(len(pts)):
            want, _ = dijkstra(pts, adj, s)
            for t in range(len(pts)):
                d = want.get(t, math.inf)
                assert dijkstra_to_target(nbrs, s, t).hex() == d.hex()
                if math.isfinite(d):
                    got = dijkstra_to_target(nbrs, s, t, coords=xy, bound=d)
                    assert got.hex() == d.hex()

    def test_random_graph_all_pairs(self, random_graph):
        self._check_all_pairs(*random_graph)

    def test_coincident_nodes_zero_weight(self):
        pts = np.array(
            [[0.0, 0.0], [0.7, 0.1], [0.7, 0.1], [1.3, 0.4], [2.0, 0.2], [2.0, 0.2]]
        )
        adj = unit_disk_graph(pts)
        assert 2 in adj[1] and 5 in adj[4]
        self._check_all_pairs(pts, adj)
        nbrs = euclidean_weights(pts, adj)
        assert dijkstra_to_target(nbrs, 1, 2, coords=_xy(pts), bound=0.0) == 0.0

    def test_unreachable_target(self):
        pts = np.array([[0.0, 0.0], [0.8, 0.0], [1.6, 0.0], [9.0, 9.0], [9.5, 9.0]])
        adj = unit_disk_graph(pts)
        nbrs = euclidean_weights(pts, adj)
        assert dijkstra_to_target(nbrs, 0, 4) == math.inf
        assert dijkstra_to_target(nbrs, 0, 4, coords=_xy(pts), bound=100.0) == math.inf
        self._check_all_pairs(pts, adj)

    def test_bound_below_distance_never_returns_less(self, random_graph):
        # A bound below d(s, t) prunes the minimising path: the result is
        # inf or a walk longer than the bound, never a wrong value at or
        # under it, so a caller that accepts only ``d <= bound`` is exact.
        pts, adj = random_graph
        nbrs = euclidean_weights(pts, adj)
        xy = _xy(pts)
        for s in range(0, len(pts), 7):
            want, _ = dijkstra(pts, adj, s)
            for t, d in want.items():
                if d == 0.0:
                    continue
                for bound in (0.5 * d, d * (1 - 1e-6), d * (1 - 1e-12)):
                    got = dijkstra_to_target(nbrs, s, t, coords=xy, bound=bound)
                    assert got > bound
                    assert got == math.inf or got >= d

    def test_bound_needs_coordinates(self, chain):
        pts, adj = chain
        with pytest.raises(ValueError):
            dijkstra_to_target(euclidean_weights(pts, adj), 0, 5, bound=10.0)
