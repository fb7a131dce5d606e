"""Property-based tests for the graph and update substrate."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import random_edge_batch, random_graph
from repro.graph import Batch, Graph, apply_updates, updated_copy

settings.register_profile("repro", deadline=None, max_examples=40)
settings.load_profile("repro")


graph_params = st.tuples(
    st.integers(min_value=2, max_value=18),  # nodes
    st.integers(min_value=0, max_value=40),  # edge attempts
    st.booleans(),  # directed
    st.integers(),  # rng seed
)


@given(graph_params)
def test_edges_iteration_matches_edge_count(params):
    n, m, directed, seed = params
    g = random_graph(random.Random(seed), n, m, directed)
    assert len(list(g.edges())) == g.num_edges


@given(graph_params)
def test_copy_equals_original_and_detaches(params):
    n, m, directed, seed = params
    g = random_graph(random.Random(seed), n, m, directed)
    h = g.copy()
    assert h == g
    h.add_node("fresh")
    assert h != g


@given(graph_params)
def test_adjacency_symmetry(params):
    n, m, directed, seed = params
    g = random_graph(random.Random(seed), n, m, directed)
    for u, v in g.edges():
        assert v in set(g.out_neighbors(u))
        assert u in set(g.in_neighbors(v))
        if not directed:
            assert u in set(g.out_neighbors(v))


@given(graph_params, st.integers(min_value=1, max_value=10))
def test_apply_then_inverse_roundtrips(params, batch_size):
    n, m, directed, seed = params
    rng = random.Random(seed)
    g = random_graph(rng, n, m, directed)
    original = g.copy()
    delta = random_edge_batch(rng, g, batch_size)
    apply_updates(g, delta)
    apply_updates(g, delta.inverted())
    assert g == original


@given(graph_params, st.integers(min_value=1, max_value=10))
def test_normalized_batch_has_same_net_effect(params, batch_size):
    n, m, directed, seed = params
    rng = random.Random(seed)
    g = random_graph(rng, n, m, directed)
    delta = random_edge_batch(rng, g, batch_size)
    full = updated_copy(g, delta)
    net = updated_copy(g, delta.normalized(directed=directed))
    assert full == net


@given(graph_params, st.integers(min_value=1, max_value=8))
def test_expanded_batch_applies_to_same_result(params, batch_size):
    n, m, directed, seed = params
    rng = random.Random(seed)
    g = random_graph(rng, n, m, directed)
    delta = random_edge_batch(rng, g, batch_size)
    assert updated_copy(g, delta) == updated_copy(g, delta.expanded(g))


@given(graph_params)
def test_degree_sums(params):
    n, m, directed, seed = params
    g = random_graph(random.Random(seed), n, m, directed)
    if directed:
        assert sum(g.out_degree(v) for v in g.nodes()) == g.num_edges
        assert sum(g.in_degree(v) for v in g.nodes()) == g.num_edges
    else:
        loops = sum(1 for u, v in g.edges() if u == v)
        assert sum(g.degree(v) for v in g.nodes()) == 2 * g.num_edges - loops
