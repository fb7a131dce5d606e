"""Unit tests for the update model ΔG."""

import pytest

from repro.errors import UpdateError
from repro.graph import (
    Batch,
    EdgeDeletion,
    EdgeInsertion,
    Graph,
    VertexDeletion,
    VertexInsertion,
    apply_updates,
    from_edges,
    updated_copy,
)


class TestUnitUpdates:
    def test_edge_insertion_inverts_to_deletion(self):
        ins = EdgeInsertion(1, 2, weight=3.0)
        assert ins.inverted() == EdgeDeletion(1, 2)
        assert ins.touched() == (1, 2)

    def test_edge_deletion_inverts_to_insertion(self):
        assert EdgeDeletion(1, 2).inverted() == EdgeInsertion(1, 2)

    def test_vertex_insertion_touches_edge_endpoints(self):
        vi = VertexInsertion(9, edges=(EdgeInsertion(1, 9),))
        assert set(vi.touched()) == {9, 1}
        assert vi.inverted() == VertexDeletion(9)


class TestBatch:
    def test_collection_protocol(self):
        batch = Batch([EdgeInsertion(0, 1)])
        batch.append(EdgeDeletion(2, 3))
        batch.extend([EdgeInsertion(4, 5)])
        assert len(batch) == batch.size == 3
        assert batch[0] == EdgeInsertion(0, 1)
        assert list(batch)[1] == EdgeDeletion(2, 3)

    def test_split_by_kind(self):
        batch = Batch([EdgeInsertion(0, 1), EdgeDeletion(2, 3), VertexInsertion(9)])
        assert batch.insertions().size == 2
        assert batch.deletions().size == 1

    def test_touched_nodes(self):
        batch = Batch([EdgeInsertion(0, 1), VertexDeletion(7)])
        assert batch.touched_nodes() == {0, 1, 7}

    def test_unit_batches(self):
        batch = Batch([EdgeInsertion(0, 1), EdgeDeletion(2, 3)])
        units = list(batch.unit_batches())
        assert [u.size for u in units] == [1, 1]
        assert units[1][0] == EdgeDeletion(2, 3)

    def test_inverted_reverses_order(self):
        batch = Batch([EdgeInsertion(0, 1), EdgeDeletion(2, 3)])
        inv = batch.inverted()
        assert inv.updates == [EdgeInsertion(2, 3), EdgeDeletion(0, 1)]

    def test_inverted_vertex_deletion_raises(self):
        with pytest.raises(UpdateError):
            Batch([VertexDeletion(1)]).inverted()

    def test_apply_then_inverse_roundtrip(self):
        g = from_edges([(0, 1), (1, 2), (2, 3)])
        original = g.copy()
        batch = Batch([EdgeDeletion(1, 2), EdgeInsertion(0, 3)])
        apply_updates(g, batch)
        apply_updates(g, batch.inverted())
        assert g == original

    def test_normalized_cancels_opposites(self):
        batch = Batch([EdgeInsertion(0, 1), EdgeDeletion(0, 1), EdgeInsertion(4, 5)])
        net = batch.normalized()
        assert net.updates == [EdgeInsertion(4, 5)]

    def test_normalized_graphless_keeps_delete_then_reinsert(self):
        # Without the graph the original weight of (2, 3) is unknowable,
        # so the pair must survive as delete + reinsert — cancelling it
        # would silently drop a weight change.
        batch = Batch([EdgeDeletion(2, 3), EdgeInsertion(2, 3, weight=7.0)])
        net = batch.normalized()
        assert net.updates == [EdgeDeletion(2, 3), EdgeInsertion(2, 3, weight=7.0)]

    def test_normalized_undirected_canonicalizes_endpoints(self):
        batch = Batch([EdgeInsertion(0, 1), EdgeDeletion(1, 0)])
        assert batch.normalized(directed=False).updates == []
        # With directed semantics the two ops touch different edges.
        assert len(batch.normalized(directed=True)) == 2

    def test_normalized_keeps_effective_insertion(self):
        # Under (non-strict) replay the second insertion of an already-
        # present edge is skipped, so the *first* insertion is the one
        # that determines the final weight.
        batch = Batch([EdgeInsertion(0, 1, weight=1.0), EdgeInsertion(0, 1, weight=2.0)])
        net = batch.normalized()
        assert len(net) == 1
        assert net[0].weight == 1.0

    def test_repr_shows_mix(self):
        r = repr(Batch([EdgeInsertion(0, 1), EdgeDeletion(1, 2)]))
        assert "+1" in r and "-1" in r


class TestApplyUpdates:
    def test_apply_mutates_in_place(self):
        g = from_edges([(0, 1)])
        out = apply_updates(g, Batch([EdgeInsertion(1, 2)]))
        assert out is g
        assert g.has_edge(1, 2)

    def test_updated_copy_leaves_original(self):
        g = from_edges([(0, 1)])
        h = updated_copy(g, Batch([EdgeDeletion(0, 1)]))
        assert g.has_edge(0, 1)
        assert not h.has_edge(0, 1)

    def test_strict_conflicts_raise(self):
        g = from_edges([(0, 1)])
        with pytest.raises(UpdateError):
            apply_updates(g, Batch([EdgeInsertion(0, 1)]))
        with pytest.raises(UpdateError):
            apply_updates(g, Batch([EdgeDeletion(5, 6)]))
        with pytest.raises(UpdateError):
            apply_updates(g, Batch([VertexDeletion(99)]))

    def test_non_strict_skips_conflicts(self):
        g = from_edges([(0, 1)])
        apply_updates(g, Batch([EdgeInsertion(0, 1), EdgeDeletion(5, 6)]), strict=False)
        assert g.num_edges == 1

    def test_vertex_insertion_with_edges(self):
        g = from_edges([(0, 1)])
        vi = VertexInsertion(9, label="new", edges=(EdgeInsertion(0, 9, weight=2.0),))
        apply_updates(g, Batch([vi]))
        assert g.node_label(9) == "new"
        assert g.weight(0, 9) == 2.0

    def test_vertex_deletion_drops_edges(self):
        g = from_edges([(0, 1), (1, 2)])
        apply_updates(g, Batch([VertexDeletion(1)]))
        assert g.num_edges == 0

    def test_insertion_weight_and_label_applied(self):
        g = Graph(directed=True)
        g.ensure_node(0)
        g.ensure_node(1)
        apply_updates(g, Batch([EdgeInsertion(0, 1, weight=7.0, label="road")]))
        assert g.weight(0, 1) == 7.0
        assert g.edge_label(0, 1) == "road"


class TestExpanded:
    def test_vertex_deletion_expands_to_edge_deletions(self):
        g = from_edges([(0, 1), (1, 2), (3, 1)], directed=True)
        expanded = Batch([VertexDeletion(1)]).expanded(g)
        deletions = {(u.u, u.v) for u in expanded if isinstance(u, EdgeDeletion)}
        assert deletions == {(1, 2), (3, 1), (0, 1)}
        assert isinstance(expanded.updates[-1], VertexDeletion)

    def test_vertex_deletion_expansion_undirected(self):
        g = from_edges([(0, 1), (1, 2)])
        expanded = Batch([VertexDeletion(1)]).expanded(g)
        deletions = {frozenset((u.u, u.v)) for u in expanded if isinstance(u, EdgeDeletion)}
        assert deletions == {frozenset((0, 1)), frozenset((1, 2))}

    def test_vertex_insertion_expands_edges(self):
        g = Graph()
        g.ensure_node(0)
        vi = VertexInsertion(5, edges=(EdgeInsertion(0, 5),))
        expanded = Batch([vi]).expanded(g)
        kinds = [type(u).__name__ for u in expanded]
        assert kinds == ["VertexInsertion", "EdgeInsertion"]
        assert expanded[0].edges == ()

    def test_implicitly_created_endpoints_become_vertex_insertions(self):
        g = from_edges([(0, 1)])
        expanded = Batch([EdgeInsertion(0, 7)]).expanded(g)
        assert expanded.updates[0] == VertexInsertion(7)
        assert isinstance(expanded.updates[1], EdgeInsertion)

    def test_expansion_respects_sequence_for_reinserted_nodes(self):
        g = from_edges([(0, 1)])
        batch = Batch([VertexDeletion(1), EdgeInsertion(0, 1)])
        expanded = batch.expanded(g)
        kinds = [type(u).__name__ for u in expanded]
        # delete edge (0,1), delete node 1, re-create node 1, insert edge
        assert kinds == ["EdgeDeletion", "VertexDeletion", "VertexInsertion", "EdgeInsertion"]

    def test_expanded_applies_cleanly(self):
        g = from_edges([(0, 1), (1, 2), (2, 3)])
        batch = Batch([VertexDeletion(1), EdgeInsertion(2, 9), VertexInsertion(10)])
        expanded = batch.expanded(g)
        apply_updates(g, expanded)
        assert not g.has_node(1)
        assert g.has_edge(2, 9)
        assert g.has_node(10)

    def test_expansion_does_not_mutate_source_graph(self):
        g = from_edges([(0, 1)])
        before = g.copy()
        Batch([VertexDeletion(0), EdgeInsertion(5, 6)]).expanded(g)
        assert g == before


def _expanded_by_copy(batch, graph):
    """Reference expansion: replay the batch on a full copy of ``G``."""
    sim = graph.copy()
    created, removed, out = set(), set(), []

    def known(node):
        return node not in removed and (node in created or graph.has_node(node))

    def materialize(node):
        if not known(node):
            out.append(VertexInsertion(node))
            created.add(node)
            removed.discard(node)

    for u in batch.updates:
        if isinstance(u, VertexInsertion):
            out.append(VertexInsertion(u.v, u.label, ()))
            created.add(u.v)
            removed.discard(u.v)
            for e in u.edges:
                materialize(e.u)
                materialize(e.v)
                out.append(e)
        elif isinstance(u, EdgeInsertion):
            materialize(u.u)
            materialize(u.v)
            out.append(u)
        elif isinstance(u, VertexDeletion):
            if sim.has_node(u.v):
                out.extend(EdgeDeletion(u.v, w) for w in list(sim.out_neighbors(u.v)))
                if sim.directed:
                    out.extend(
                        EdgeDeletion(w, u.v) for w in list(sim.in_neighbors(u.v)) if w != u.v
                    )
            out.append(VertexDeletion(u.v))
            removed.add(u.v)
            created.discard(u.v)
        else:
            out.append(u)
        if isinstance(u, VertexDeletion):
            if sim.has_node(u.v):
                sim.remove_node(u.v)
        else:
            apply_updates(sim, [u], strict=False)
    return out


def _churn_case(rng):
    """A small graph (self-loops included) and a vertex-churn batch that
    also re-adds, re-deletes and no-ops edges around deleted vertices."""
    directed = rng.random() < 0.5
    g = Graph(directed=directed)
    n = rng.randint(1, 7)
    for v in range(n):
        g.ensure_node(v)
    for _ in range(rng.randint(0, 3 * n)):
        a, b = rng.randrange(n), rng.randrange(n)
        if not g.has_edge(a, b):
            g.add_edge(a, b)
    ops = []
    for _ in range(rng.randint(1, 10)):
        a, b = rng.randrange(n + 2), rng.randrange(n + 2)
        kind = rng.random()
        if kind < 0.3:
            ops.append(VertexDeletion(a))
        elif kind < 0.45:
            ops.append(VertexInsertion(a, edges=(EdgeInsertion(a, b),)))
        elif kind < 0.75:
            ops.append(EdgeInsertion(a, b))
        else:
            ops.append(EdgeDeletion(a, b))
    return g, Batch(ops)


class TestExpandedWithoutCopy:
    """The overlay expansion lists the same ops as replaying on a copy."""

    def test_matches_copy_replay_on_vertex_churn(self, monkeypatch):
        import random

        cases = [_churn_case(random.Random(seed)) for seed in range(600)]
        expected = [_expanded_by_copy(batch, g) for g, batch in cases]
        copies = []
        original = Graph.copy
        monkeypatch.setattr(Graph, "copy", lambda self: copies.append(1) or original(self))
        for (g, batch), want in zip(cases, expected):
            assert batch.expanded(g).updates == want
        assert copies == []
        assert sum(isinstance(u, VertexDeletion) for _g, b in cases for u in b) > 300

    @staticmethod
    def _weighted(case, rng):
        """``case`` with random weights, edge labels and node labels."""
        g, batch = case
        for v in list(g.nodes()):
            if rng.random() < 0.5:
                g.set_node_label(v, rng.choice("ab"))
        for u, v in list(g.edges()):
            g.set_weight(u, v, float(rng.randint(1, 5)))
            if rng.random() < 0.5:
                g.set_edge_label(u, v, rng.choice("xy"))

        def edge(e):
            return EdgeInsertion(e.u, e.v, float(rng.randint(1, 5)), rng.choice([None, "x"]))

        ops = []
        for op in batch:
            if isinstance(op, EdgeInsertion):
                op = edge(op)
            elif isinstance(op, VertexInsertion):
                op = VertexInsertion(op.v, rng.choice([None, "b"]), tuple(map(edge, op.edges)))
            ops.append(op)
        return g, Batch(ops)

    @staticmethod
    def _strict_replay(graph, batch):
        """Apply ``batch`` op by op through ``Graph`` methods; return the
        index of the first op a strict apply rejects, or ``None``."""
        for k, op in enumerate(batch):
            if isinstance(op, EdgeInsertion):
                if graph.has_edge(op.u, op.v):
                    return k
                graph.add_edge(op.u, op.v, op.weight, op.label)
            elif isinstance(op, EdgeDeletion):
                if not graph.has_edge(op.u, op.v):
                    return k
                graph.remove_edge(op.u, op.v)
            elif isinstance(op, VertexInsertion):
                if graph.has_node(op.v):
                    return k
                graph.add_node(op.v, op.label)
                for e in op.edges:
                    if graph.has_edge(e.u, e.v):
                        return k
                    graph.add_edge(e.u, e.v, e.weight, e.label)
            else:
                if not graph.has_node(op.v):
                    return k
                graph.remove_node(op.v)
        return None

    def test_apply_pass_expands_and_reads_old_weights_on_vertex_churn(self):
        import random

        from repro.graph import ExpandedBatch

        for seed in range(600):
            g, batch = self._weighted(_churn_case(random.Random(seed)), random.Random(seed))
            want = _expanded_by_copy(batch, g)
            work = g.copy()
            record = apply_updates(work, batch, strict=False, expand=True)
            assert isinstance(record, ExpandedBatch)
            assert record.updates == want, seed
            assert record.edges == [
                (op.u, op.v, isinstance(op, EdgeInsertion))
                for op in want
                if isinstance(op, (EdgeInsertion, EdgeDeletion))
            ]
            assert record.vertices == [
                (op.v, isinstance(op, VertexInsertion))
                for op in want
                if isinstance(op, (VertexInsertion, VertexDeletion))
            ]
            assert record.old_weights == {
                (op.u, op.v): g.weight(op.u, op.v)
                for op in want
                if isinstance(op, EdgeDeletion) and g.has_edge(op.u, op.v)
            }, seed
            replay = g.copy()
            for op in batch:
                apply_updates(replay, [op], strict=False)
            assert work == replay and work.num_edges == replay.num_edges

    def test_apply_pass_matches_strict_op_by_op_apply(self):
        import random

        raised = 0
        for seed in range(600):
            g, batch = self._weighted(_churn_case(random.Random(seed)), random.Random(seed))
            ref = g.copy()
            k = self._strict_replay(ref, batch)
            work = g.copy()
            if k is None:
                reported = []
                record = apply_updates(work, batch, expand=True, on_op=reported.append)
                assert reported == record.updates  # a strict pass applies every op
            else:
                raised += 1
                with pytest.raises(UpdateError):
                    apply_updates(g.copy(), Batch(batch.updates[: k + 1]))
                apply_updates(work, Batch(batch.updates[:k]))
            # Edges, weights, edge and node labels, and the edge count.
            assert work == ref, seed
            assert work.num_edges == ref.num_edges == sum(1 for _e in ref.edges())
        assert 100 < raised < 600  # both outcomes are exercised


class TestNormalizedNetEffect:
    """Property: normalizing a strictly consistent batch keeps its effect.

    Sequences that insert and delete the same weighted edge in any order
    must net to the single update (or pair) with the same effect as
    replaying the whole sequence — including delete-then-reinsert chains
    that change the weight of a pre-existing edge.
    """

    from hypothesis import given, settings
    from hypothesis import strategies as st

    edge_ops = st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=4),  # u
            st.integers(min_value=0, max_value=4),  # v
            st.booleans(),  # insert?
            st.integers(min_value=1, max_value=4),  # weight
        ),
        min_size=1,
        max_size=12,
    )
    seeds = st.integers(min_value=0, max_value=2**16)

    @staticmethod
    def _base_graph(seed, directed):
        import random

        rng = random.Random(seed)
        g = Graph(directed=directed)
        for v in range(5):
            g.ensure_node(v)
        for u in range(5):
            for v in range(5):
                if u != v and rng.random() < 0.4:
                    if not g.has_edge(u, v):
                        g.add_edge(u, v, weight=float(rng.randint(1, 4)))
        return g

    @given(ops=edge_ops, seed=seeds, directed=st.booleans())
    @settings(deadline=None, max_examples=120)
    def test_normalized_graphless_is_sound_on_consistent_batches(self, ops, seed, directed):
        # Build a strictly consistent batch against g, then check the
        # graphless normalization preserves its effect.
        g = self._base_graph(seed, directed)
        sim = g.copy()
        consistent = Batch()
        for u, v, ins, w in ops:
            if u == v:
                continue
            if ins and not sim.has_edge(u, v):
                sim.add_edge(u, v, weight=float(w))
                consistent.append(EdgeInsertion(u, v, weight=float(w)))
            elif not ins and sim.has_edge(u, v):
                sim.remove_edge(u, v)
                consistent.append(EdgeDeletion(u, v))
        if not consistent.size:
            return
        full = updated_copy(g, consistent)
        net = updated_copy(g, consistent.normalized(directed=directed))
        assert full == net


class TestValidateMirrorsStrictApply:
    """Property: the session's up-front validator is *exactly* strict apply.

    ``validate_batch(G, ΔG)`` must raise iff
    ``apply_updates(G.copy(), ΔG, strict=True)`` would raise — on any op
    soup, including self-loops, vertex churn, and updates referencing
    nodes removed earlier in the same batch — and must never mutate the
    graph it validates against, whichever way the verdict goes.
    """

    from hypothesis import given, settings
    from hypothesis import strategies as st

    node = st.integers(min_value=0, max_value=5)
    op = st.one_of(
        st.tuples(st.just("+e"), node, node, st.integers(min_value=0, max_value=3)),
        st.tuples(st.just("-e"), node, node, st.just(0)),
        st.tuples(st.just("+v"), node, st.just(0), st.just(0)),
        st.tuples(st.just("-v"), node, st.just(0), st.just(0)),
    )
    ops = st.lists(op, min_size=1, max_size=10)
    seeds = st.integers(min_value=0, max_value=2**16)

    @staticmethod
    def _materialize(raw):
        out = []
        for kind, a, b, w in raw:
            if kind == "+e":
                out.append(EdgeInsertion(a, b, weight=float(w)))
            elif kind == "-e":
                out.append(EdgeDeletion(a, b))
            elif kind == "+v":
                out.append(VertexInsertion(a))
            else:
                out.append(VertexDeletion(a))
        return Batch(out)

    @given(raw=ops, seed=seeds, directed=st.booleans())
    @settings(deadline=None, max_examples=150)
    def test_raises_iff_strict_apply_raises_and_never_mutates(
        self, raw, seed, directed
    ):
        from repro.errors import BatchValidationError
        from repro.resilience.validate import validate_batch

        base = TestNormalizedNetEffect._base_graph(seed, directed)
        batch = self._materialize(raw)
        fingerprint = base.copy()

        strict_error = None
        try:
            apply_updates(base.copy(), batch, strict=True)
        except UpdateError as exc:
            strict_error = exc

        validation_error = None
        try:
            validate_batch(base, batch, weight_policy="any")
        except BatchValidationError as exc:
            validation_error = exc

        assert (strict_error is None) == (validation_error is None), (
            f"strict apply said {strict_error!r}, validator said "
            f"{validation_error!r} for {batch.updates}"
        )
        assert base == fingerprint  # validation never mutates


class TestValidateStreamMirrorsStrictApply:
    """One overlay across a multi-batch window decides exactly like
    strict-applying each batch in turn: the same verdict, the same
    (batch, op) position, and the base graph is never mutated.

    A fixed seed loop (not a Hypothesis draw) over edge and vertex churn,
    including nodes re-inserted after removal, in both directednesses.
    """

    UNIVERSE = range(7)  # the base graphs hold nodes 0-4; 5 and 6 are new

    @classmethod
    def _random_op(cls, rng, shadow):
        """One op, valid against ``shadow`` four times out of five."""
        kind = rng.choice(["+e", "+e", "-e", "-e", "+v", "-v"])
        nodes = list(shadow.nodes())
        if rng.random() < 0.2 or not nodes:
            a, b = rng.choice(cls.UNIVERSE), rng.choice(cls.UNIVERSE)
        elif kind == "-e" and shadow.num_edges:
            a, b = rng.choice(sorted(shadow.edges()))[:2]
        elif kind == "+v":
            absent = [v for v in cls.UNIVERSE if not shadow.has_node(v)]
            a = b = rng.choice(absent or list(cls.UNIVERSE))
        else:
            a, b = rng.choice(nodes), rng.choice(nodes)
        if kind == "+e":
            return EdgeInsertion(a, b, weight=float(rng.randint(1, 4)))
        if kind == "-e":
            return EdgeDeletion(a, b)
        if kind == "+v":
            others = [v for v in nodes if v != a]
            edges = ()
            if others and rng.random() < 0.3:
                edges = (EdgeInsertion(a, rng.choice(others), weight=1.0),)
            return VertexInsertion(a, edges=edges)
        return VertexDeletion(a)

    @classmethod
    def _random_stream(cls, rng, base):
        shadow = base.copy()
        stream = []
        for _ in range(rng.randint(1, 4)):
            batch = Batch([cls._random_op(rng, shadow) for _ in range(rng.randint(1, 4))])
            apply_updates(shadow, batch, strict=False)
            stream.append(batch)
        return stream

    @staticmethod
    def _strict_failure(base, stream):
        """``(batch, op)`` of the first op strict apply rejects, or None."""
        graph = base.copy()
        for position, batch in enumerate(stream):
            for index, op in enumerate(batch):
                try:
                    apply_updates(graph, [op], strict=True)
                except UpdateError:
                    return position, index
        return None

    def test_stream_verdict_and_position_match_batch_by_batch_strict_apply(self):
        import random

        from repro.errors import BatchValidationError
        from repro.resilience.validate import validate_batch

        verdicts = {"accepted": 0, "rejected": 0}
        for seed in range(600):
            rng = random.Random(seed)
            base = TestNormalizedNetEffect._base_graph(seed, directed=seed % 2 == 0)
            fingerprint = base.copy()
            stream = self._random_stream(rng, base)
            expected = self._strict_failure(base, stream)
            try:
                validate_batch(base, stream, weight_policy="any")
                got = None
            except BatchValidationError as exc:
                got = (exc.batch, exc.index)
            assert got == expected, f"seed {seed}: {[b.updates for b in stream]}"
            assert base == fingerprint, f"seed {seed}: validation mutated G"
            verdicts["accepted" if got is None else "rejected"] += 1
        # the sample exercises both verdicts in earnest
        assert min(verdicts.values()) >= 100, verdicts


class TestValidateEdgeCases:
    """Pinned edge cases for the batch validator (ISSUE satellite)."""

    def _graph(self):
        return from_edges([(0, 1), (1, 2)], weights=[1.0, 2.0], directed=True)

    def test_self_loops_validate_like_strict_apply(self):
        from repro.resilience.validate import validate_batch

        g = self._graph()
        validate_batch(g, Batch([EdgeInsertion(0, 0, weight=1.0)]))  # legal
        g.add_edge(0, 0, weight=1.0)
        from repro.errors import ContradictoryUpdateError

        with pytest.raises(ContradictoryUpdateError):
            validate_batch(g, Batch([EdgeInsertion(0, 0, weight=2.0)]))

    def test_update_referencing_node_removed_earlier_in_batch(self):
        from repro.errors import UnknownNodeError
        from repro.resilience.validate import validate_batch

        g = self._graph()
        with pytest.raises(UnknownNodeError) as info:
            validate_batch(
                g, Batch([VertexDeletion(1), EdgeInsertion(2, 3, weight=1.0),
                          EdgeDeletion(0, 1)])
            )
        assert info.value.index == 2

    def test_reinsert_after_removal_starts_isolated(self):
        from repro.errors import ContradictoryUpdateError
        from repro.resilience.validate import validate_batch

        g = self._graph()
        # deleting node 1 drops edge (0, 1); re-creating node 1 does not
        # resurrect it, so deleting (0, 1) afterwards is contradictory
        with pytest.raises(ContradictoryUpdateError):
            validate_batch(
                g,
                Batch([VertexDeletion(1), VertexInsertion(1), EdgeDeletion(0, 1)]),
            )
        # ...but re-adding the edge is fine
        validate_batch(
            g,
            Batch(
                [VertexDeletion(1), VertexInsertion(1), EdgeInsertion(0, 1, weight=1.0)]
            ),
        )

    def test_zero_weight_is_always_legal(self):
        from repro.resilience.validate import validate_batch

        g = self._graph()
        for policy in ("any", "finite", "spec"):
            validate_batch(
                g, Batch([EdgeInsertion(0, 2, weight=0.0)]), weight_policy=policy,
                forbid_negative=True,
            )

    def test_negative_weight_only_rejected_under_spec_policy(self):
        from repro.errors import InvalidWeightError
        from repro.resilience.validate import validate_batch

        g = self._graph()
        delta = Batch([EdgeInsertion(0, 2, weight=-1.0)])
        validate_batch(g, delta, weight_policy="any")
        validate_batch(g, delta, weight_policy="finite")
        validate_batch(g, delta, weight_policy="spec", forbid_negative=False)
        with pytest.raises(InvalidWeightError):
            validate_batch(g, delta, weight_policy="spec", forbid_negative=True)

    def test_vertex_insertion_edges_are_weight_checked(self):
        from repro.errors import InvalidWeightError
        from repro.resilience.validate import validate_batch

        g = self._graph()
        delta = Batch(
            [VertexInsertion(9, edges=(EdgeInsertion(9, 0, weight=float("nan")),))]
        )
        with pytest.raises(InvalidWeightError):
            validate_batch(g, delta, weight_policy="finite")
