import random

import pytest
from hypothesis import given, strategies as st

from latticegroups import (
    Edge,
    EdgeFlow,
    Letter,
    RankMismatchError,
    VertexChain,
    Word,
    evaluate_letters,
    evaluate_path,
    is_loop,
    parse_word,
)
from helpers import flow_of, random_loop_word, random_word, w


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
        # result stores a zero entry or a key that is not a rank-d Edge.
        rng = random.Random(13)
        for _ in range(60):
            d = rng.choice((1, 2, 3))
            f = evaluate_path(random_word(rng, d, 12)).flow
            g = evaluate_path(random_word(rng, d, 12)).flow
            shift = tuple(rng.randint(-3, 3) for _ in range(d))
            for h in (f + g, f - g, f - f, -f, 0 * f, rng.randint(-3, 3) * f, f.translate(shift)):
                assert EdgeFlow(d, h.entries()) == h
                assert all(type(key) is Edge for key, _ in h.entries())

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
    obj = COMMUTATOR_FLOW.as_json()
    assert obj == [
        {"base": [0, 0], "axis": 1, "mult": 1},
        {"base": [0, 0], "axis": 2, "mult": -1},
        {"base": [0, 1], "axis": 1, "mult": -1},
        {"base": [1, 0], "axis": 2, "mult": 1},
    ]
    assert evaluate_path(w("x1 x2 x1^-1 x2^-1")).as_json() == {
        "endpoint": [0, 0],
        "flow": obj,
    }


def test_flow_value_lookup():
    assert COMMUTATOR_FLOW.value(((0, 0), 1)) == 1
    assert COMMUTATOR_FLOW.value(((5, 5), 1)) == 0
