import json
import random

import pytest
from hypothesis import given, strategies as st

from latticegroups import (
    Edge,
    EdgeFlow,
    Letter,
    Plaquette,
    PlaquetteSum,
    RankMismatchError,
    VertexChain,
    Word,
    decompose_cycle,
    evaluate_letters,
    evaluate_path,
    is_loop,
    parse_word,
)
from helpers import flow_of, random_loop_flow, random_loop_word, random_word, w


def words_st(d, max_len=14):
    letters = st.tuples(st.integers(1, d), st.sampled_from((1, -1))).map(lambda t: Letter(*t))
    return st.lists(letters, max_size=max_len).map(lambda ls: Word(ls, d))


COMMUTATOR_FLOW = EdgeFlow(
    2,
    {
        Edge((0, 0), 1): 1,
        Edge((1, 0), 2): 1,
        Edge((0, 1), 1): -1,
        Edge((0, 0), 2): -1,
    },
)


class TestEvaluate:
    def test_commutator_trace(self):
        endpoint, flow = evaluate_path(w("x1 x2 x1^-1 x2^-1"))
        assert endpoint == (0, 0)
        assert flow == COMMUTATOR_FLOW

    def test_empty_word(self):
        endpoint, flow = evaluate_path(Word.identity(2))
        assert endpoint == (0, 0)
        assert not flow

    def test_back_and_forth_cancels_pre_reduction(self):
        endpoint, flow = evaluate_letters([Letter(1, 1), Letter(1, -1)], 2)
        assert endpoint == (0, 0)
        assert not flow

    @pytest.mark.parametrize("sign", [0, 5, -2])
    def test_sign_other_than_unit_refused(self, sign):
        # The same message as Word's.
        with pytest.raises(ValueError, match=f"letter sign must be \\+1 or -1, got {sign}"):
            evaluate_letters([Letter(1, 1), (1, sign)], 1)
        with pytest.raises(ValueError, match=f"letter sign must be \\+1 or -1, got {sign}"):
            Word([(1, sign)], 1)

    @given(words_st(3))
    def test_boundary_matches_endpoint(self, word):
        endpoint, flow = evaluate_path(word)
        expected = VertexChain(3, [(endpoint, 1), ((0, 0, 0), -1)])
        assert flow.boundary() == expected

    @given(st.lists(st.tuples(st.integers(1, 2), st.sampled_from((1, -1))), max_size=14))
    def test_reduction_invariance(self, raw):
        raw = [Letter(*pair) for pair in raw]
        assert evaluate_letters(raw, 2) == evaluate_path(Word(raw, 2))


class TestBoundary:
    def test_commutator_flow_is_cycle(self):
        assert COMMUTATOR_FLOW.boundary() == VertexChain(2)
        assert COMMUTATOR_FLOW.is_cycle()

    def test_single_edge(self):
        flow = EdgeFlow(2, {Edge((0, 0), 1): 1})
        assert flow.boundary() == VertexChain(2, {(1, 0): 1, (0, 0): -1})

    def test_empty(self):
        assert not EdgeFlow(2).boundary()

    def test_translate_commutes_with_boundary(self):
        rng = random.Random(7)
        for _ in range(40):
            flow = evaluate_path(random_word(rng, 3, 12)).flow
            shift = tuple(rng.randint(-4, 4) for _ in range(3))
            assert flow.translate(shift).boundary() == flow.boundary().translate(shift)


class TestFlowAlgebra:
    def test_translate_rigid(self):
        shifted = COMMUTATOR_FLOW.translate((3, 5))
        assert shifted == EdgeFlow(
            2,
            {
                Edge((3, 5), 1): 1,
                Edge((4, 5), 2): 1,
                Edge((3, 6), 1): -1,
                Edge((3, 5), 2): -1,
            },
        )

    def test_translate_identity_and_composition(self):
        assert COMMUTATOR_FLOW.translate((0, 0)) == COMMUTATOR_FLOW
        assert COMMUTATOR_FLOW.translate((1, 2)).translate((3, -1)) == COMMUTATOR_FLOW.translate((4, 1))

    def test_add_neg(self):
        assert not COMMUTATOR_FLOW + (-COMMUTATOR_FLOW)
        assert COMMUTATOR_FLOW + EdgeFlow(2) == COMMUTATOR_FLOW
        assert 2 * COMMUTATOR_FLOW == COMMUTATOR_FLOW + COMMUTATOR_FLOW

    def test_trusted_results_pass_public_checks(self):
        # Rebuilding through the public constructor changes nothing, so no
        # result stores a zero entry or a key its kind would normalise:
        # a rank-d Edge, vertex tuple or Plaquette.
        keys = {EdgeFlow: Edge, VertexChain: tuple, PlaquetteSum: Plaquette}
        rng = random.Random(13)
        for _ in range(60):
            d = rng.choice((1, 2, 3))
            f = evaluate_path(random_word(rng, d, 12)).flow
            g = evaluate_path(random_word(rng, d, 12)).flow
            shift = tuple(rng.randint(-3, 3) for _ in range(d))
            pairs = [(f, g), (f.boundary(), g.boundary())]
            if d >= 2:
                pairs.append(
                    (
                        decompose_cycle(random_loop_flow(rng, d, 6)),
                        decompose_cycle(random_loop_flow(rng, d, 6)),
                    )
                )
            for a, b in pairs:
                kind = type(a)
                results = [a + b, a - b, a - a, -a, 0 * a, a * 0, rng.randint(-3, 3) * a]
                if kind is not PlaquetteSum:
                    results.append(a.translate(shift))
                for h in results:
                    assert type(h) is kind
                    assert kind(d, h.entries()) == h
                    assert all(type(key) is keys[kind] for key, _ in h.entries())

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatchError):
            EdgeFlow(2) + EdgeFlow(3)
        with pytest.raises(RankMismatchError):
            EdgeFlow(2) - EdgeFlow(3)
        with pytest.raises(RankMismatchError):
            EdgeFlow(2).translate((1, 2, 3))

    def test_concatenation_identity_example(self):
        lhs = flow_of("x1 x2") + flow_of("x1^-1").translate((1, 1))
        assert lhs == flow_of("x1 x2 x1^-1")

    @given(words_st(2), words_st(2))
    def test_concatenation_law(self, u, v):
        eu, fu = evaluate_path(u)
        ev, fv = evaluate_path(v)
        euv, fuv = evaluate_path(u * v)
        assert euv == tuple(a + b for a, b in zip(eu, ev))
        assert fuv == fu + fv.translate(eu)


class TestChain:
    """Vertex chains, edge flows and plaquette sums share one algebra."""

    def test_kinds_never_compare_equal(self):
        kinds = [VertexChain(2), EdgeFlow(2), PlaquetteSum(2)]
        for a in kinds:
            for b in kinds:
                assert (a == b) == (a is b)
        assert VertexChain(2, {(0, 0): 1}) != EdgeFlow(2, {Edge((0, 0), 1): 1})

    def test_algebra_across_kinds_raises_type_error(self):
        with pytest.raises(TypeError):
            EdgeFlow(2) + VertexChain(2)
        with pytest.raises(TypeError):
            PlaquetteSum(2) - EdgeFlow(2)
        with pytest.raises(TypeError):
            VertexChain(2) + PlaquetteSum(2)
        with pytest.raises(TypeError):
            EdgeFlow(2) * EdgeFlow(2)

    @pytest.mark.parametrize("kind", [VertexChain, EdgeFlow, PlaquetteSum])
    def test_mixed_ranks_raise(self, kind):
        with pytest.raises(RankMismatchError):
            kind(2) + kind(3)
        with pytest.raises(RankMismatchError):
            kind(2) - kind(3)

    def test_constructor_checks_key_rank(self):
        with pytest.raises(RankMismatchError):
            VertexChain(2, {(0, 0, 0): 1})
        with pytest.raises(RankMismatchError):
            EdgeFlow(2, {((0, 0, 0), 1): 1})
        with pytest.raises(RankMismatchError):
            PlaquetteSum(2, {Plaquette((0, 0, 0), 1, 2): 1})
        # PlaquetteSum's rank errors were plain ValueErrors; they still are.
        assert issubclass(RankMismatchError, ValueError)
        with pytest.raises(ValueError):
            PlaquetteSum(2, {((0, 0), 1, 3): 1})

    def test_constructor_normalises_keys_and_drops_zeros(self):
        chain = VertexChain(2, [([1, 2], 3), ((1, 2), -3), ((0, 0), 2)])
        assert chain.entries() == [((0, 0), 2)]
        assert len(chain) == 1
        ps = PlaquetteSum(2, [(([0, 0], 1, 2), 2), (Plaquette((0, 0), 1, 2), 1)])
        assert ps.entries() == [(Plaquette((0, 0), 1, 2), 3)]
        assert type(ps.entries()[0][0]) is Plaquette

    def test_repr_names_the_kind(self):
        assert repr(VertexChain(2, {(0, 0): 1})) == "VertexChain(d=2, {(0, 0): 1})"
        assert repr(EdgeFlow(1, {((0,), 1): -2})) == "EdgeFlow(d=1, {Edge(base=(0,), axis=1): -2})"
        assert repr(PlaquetteSum(2, {Plaquette((0, 0), 1, 2): 1})) == (
            "PlaquetteSum(d=2, {Plaquette(base=(0, 0), i=1, j=2): 1})"
        )


class TestPlaquetteKey:
    def test_named_tuple_fields(self):
        p = Plaquette((1, -2, 0), 1, 3)
        base, i, j = p
        assert (base, i, j) == ((1, -2, 0), 1, 3)
        assert (p.base, p.i, p.j, p.d) == ((1, -2, 0), 1, 3, 3)
        assert repr(p) == "Plaquette(base=(1, -2, 0), i=1, j=3)"

    def test_ordering_and_hashing(self):
        ps = [
            Plaquette((1, 0), 1, 2),
            Plaquette((0, 5), 1, 2),
            Plaquette((0, 0, 0), 2, 3),
            Plaquette((0, 0, 0), 1, 3),
        ]
        assert sorted(ps) == [ps[3], ps[2], ps[1], ps[0]]
        assert hash(Plaquette((0, 5), 1, 2)) == hash(ps[1])
        assert {Plaquette((0, 5), 1, 2): 7}[ps[1]] == 7
        assert len(set(ps + [Plaquette((1, 0), 1, 2)])) == 4


class TestLoops:
    def test_examples(self):
        assert is_loop(w("x1 x2 x1^-1 x2^-1"))
        assert not is_loop(w("x1"))
        assert is_loop(w("x1^3 x1^-3"))

    @given(words_st(2))
    def test_loop_iff_cycle(self, word):
        endpoint, flow = evaluate_path(word)
        assert (endpoint == (0, 0)) == flow.is_cycle()

    def test_equivariance(self):
        rng = random.Random(11)
        for _ in range(60):
            word = random_word(rng, 2, 10)
            loop = random_loop_word(rng, 2, 6)
            conjugated = word * loop * ~word
            assert evaluate_path(conjugated).flow == evaluate_path(loop).flow.translate(
                evaluate_path(word).endpoint
            )


def test_json_encoding_sorted():
    obj = json.loads(COMMUTATOR_FLOW.as_json())
    assert obj == [
        {"base": [0, 0], "axis": 1, "mult": 1},
        {"base": [0, 0], "axis": 2, "mult": -1},
        {"base": [0, 1], "axis": 1, "mult": -1},
        {"base": [1, 0], "axis": 2, "mult": 1},
    ]
    assert json.loads(evaluate_path(w("x1 x2 x1^-1 x2^-1")).as_json()) == {
        "endpoint": [0, 0],
        "flow": obj,
    }


def test_flow_value_lookup():
    assert COMMUTATOR_FLOW.value(((0, 0), 1)) == 1
    assert COMMUTATOR_FLOW.value(((5, 5), 1)) == 0
