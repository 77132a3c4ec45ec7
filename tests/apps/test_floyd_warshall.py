"""E1 + §4 correctness: all Floyd-Warshall variants against Figure 1 and oracles."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.floyd_warshall import (
    INF,
    figure1_edge,
    figure1_path,
    shortest_paths_barrier,
    shortest_paths_counter,
    shortest_paths_events,
    shortest_paths_reference,
    shortest_paths_sequential,
    validate_edge_matrix,
)
from repro.apps.graphs import random_dense_graph, random_negative_graph, random_sparse_graph

ALL_PARALLEL = [shortest_paths_barrier, shortest_paths_events, shortest_paths_counter]


class TestFigure1:
    """Experiment E1: the paper's example input/output matrices."""

    def test_edge_matrix_shape_and_contract(self):
        edge = figure1_edge()
        assert edge.shape == (3, 3)
        assert np.all(np.diag(edge) == 0)
        assert edge[1, 2] == INF  # the missing 1 -> 2 edge

    def test_reference_reproduces_figure1(self):
        assert np.array_equal(shortest_paths_reference(figure1_edge()), figure1_path())

    def test_sequential_reproduces_figure1(self):
        assert np.array_equal(shortest_paths_sequential(figure1_edge()), figure1_path())

    @pytest.mark.parametrize("solver", ALL_PARALLEL)
    @pytest.mark.parametrize("num_threads", [1, 2, 3])
    def test_parallel_variants_reproduce_figure1(self, solver, num_threads):
        assert np.array_equal(solver(figure1_edge(), num_threads), figure1_path())

    def test_figure1_has_negative_edge_but_no_negative_cycle(self):
        edge = figure1_edge()
        assert edge.min() == -3.0
        path = shortest_paths_reference(edge)
        assert np.all(np.diag(path) == 0)


class TestValidation:
    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            validate_edge_matrix(np.zeros((2, 3)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            validate_edge_matrix(np.zeros((0, 0)))

    def test_nonzero_diagonal_rejected(self):
        edge = np.ones((2, 2))
        with pytest.raises(ValueError, match="zero"):
            validate_edge_matrix(edge)

    def test_negative_cycle_detected(self):
        edge = np.array([[0.0, 1.0], [-2.0, 0.0]])  # cycle weight -1
        with pytest.raises(ValueError, match="negative"):
            shortest_paths_reference(edge)

    def test_thread_count_validated(self):
        for solver in ALL_PARALLEL:
            with pytest.raises(ValueError):
                solver(figure1_edge(), 0)

    def test_input_not_mutated(self):
        edge = figure1_edge()
        original = edge.copy()
        shortest_paths_counter(edge, 2)
        assert np.array_equal(edge, original)


class TestAgainstOracles:
    @pytest.mark.parametrize("solver", ALL_PARALLEL)
    def test_random_dense(self, solver):
        edge = random_dense_graph(32, seed=7)
        expected = shortest_paths_reference(edge)
        assert np.allclose(solver(edge, 4), expected)

    @pytest.mark.parametrize("solver", ALL_PARALLEL)
    def test_random_sparse_with_unreachable_pairs(self, solver):
        edge = random_sparse_graph(24, p=0.1, seed=11)
        expected = shortest_paths_reference(edge)
        got = solver(edge, 3)
        finite = np.isfinite(expected)
        assert np.array_equal(np.isfinite(got), finite)
        assert np.allclose(got[finite], expected[finite])

    @pytest.mark.parametrize("solver", ALL_PARALLEL)
    def test_negative_edges_no_negative_cycles(self, solver):
        edge = random_negative_graph(20, seed=3)
        assert (edge < 0).any(), "workload should contain negative edges"
        expected = shortest_paths_reference(edge)
        assert np.allclose(solver(edge, 4), expected)

    def test_networkx_cross_oracle(self):
        """Independent oracle: networkx's Floyd-Warshall on a sparse graph."""
        nx = pytest.importorskip("networkx")
        edge = random_sparse_graph(12, p=0.3, seed=5)
        n = edge.shape[0]
        graph = nx.DiGraph()
        graph.add_nodes_from(range(n))
        for i in range(n):
            for j in range(n):
                if i != j and np.isfinite(edge[i, j]):
                    graph.add_edge(i, j, weight=edge[i, j])
        expected = np.full((n, n), INF)
        np.fill_diagonal(expected, 0.0)
        for src, lengths in nx.all_pairs_dijkstra_path_length(graph):
            for dst, dist in lengths.items():
                expected[src, dst] = dist
        assert np.allclose(shortest_paths_counter(edge, 4), expected)

    @pytest.mark.parametrize("num_threads", [1, 2, 5, 8, 32])
    def test_more_threads_than_rows_is_capped(self, num_threads):
        edge = random_dense_graph(8, seed=0)
        expected = shortest_paths_reference(edge)
        for solver in ALL_PARALLEL:
            assert np.allclose(solver(edge, num_threads), expected)

    def test_single_vertex(self):
        edge = np.zeros((1, 1))
        for solver in ALL_PARALLEL:
            assert np.array_equal(solver(edge, 1), np.zeros((1, 1)))


class TestDeterminacyIntegration:
    def test_counter_variant_with_traced_counter_race_free(self):
        """§6 applied to §4.5: the production algorithm, instrumented —
        its counter discipline must pass the checker.  (The path matrix
        itself is partitioned by rows, so we instrument the counter's own
        protocol rather than each matrix cell.)"""
        from repro.determinism import DeterminismChecker

        checker = DeterminismChecker()
        counter = checker.counter("kCount")
        edge = random_dense_graph(16, seed=2)
        expected = shortest_paths_reference(edge)
        got = shortest_paths_counter(edge, 4, counter=counter)
        assert np.allclose(got, expected)
        checker.assert_race_free()

    def test_repeated_runs_bitwise_identical(self):
        edge = random_dense_graph(24, seed=9)
        results = {shortest_paths_counter(edge, 4).tobytes() for _ in range(5)}
        assert len(results) == 1


class TestLevelTiled:
    """§4.5 + monotonicity: snapshot-elided checks must not change results."""

    @pytest.mark.parametrize("num_threads", [1, 2, 4])
    def test_matches_reference(self, num_threads):
        edge = random_dense_graph(32, seed=21)
        expected = shortest_paths_reference(edge)
        got = shortest_paths_counter(edge, num_threads, level_tiled=True)
        assert np.allclose(got, expected)

    def test_negative_edges(self):
        edge = random_negative_graph(20, seed=9)
        expected = shortest_paths_reference(edge)
        assert np.allclose(shortest_paths_counter(edge, 4, level_tiled=True), expected)

    def test_elides_counter_checks(self):
        """The whole point: strictly fewer check calls than iterations
        whenever the snapshot covers future levels."""
        from tests.helpers import CallCountingCounter

        calls = {}
        for level_tiled in (False, True):
            counter = CallCountingCounter()
            shortest_paths_counter(
                random_dense_graph(24, seed=5),
                2,
                counter=counter,
                level_tiled=level_tiled,
            )
            calls[level_tiled] = counter.checks
        assert calls[True] < calls[False]

    def test_figure1(self):
        got = shortest_paths_counter(figure1_edge(), 3, level_tiled=True)
        assert np.allclose(got, figure1_path())
