import json
import random

import pytest
from hypothesis import given, strategies as st

from latticegroups import (
    Cocycle,
    Edge,
    EdgeFlow,
    Letter,
    MetabelianElement,
    NotACycleError,
    Plaquette,
    PlaquetteSum,
    RankMismatchError,
    VertexChain,
    Word,
    WordSyntaxError,
    algebraic_area,
    canonical_cocycle,
    decompose_cycle,
    evaluate_letters,
    evaluate_path,
    is_loop,
    parse_word,
    plaquette_boundary,
    satellite,
)
from latticegroups import lattice, words
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
        # Word, the path fold and the satellite fold (over x, y, z) report
        # the first bad letter alike, a bad axis or a bad sign.
        bad_sign = (ValueError, f"letter sign must be +1 or -1, got {sign}")
        cases = [
            ([(3, 1), (2, -1), (1, sign), (4, 1)], bad_sign),
            ([(2, -1), (4, 1), (1, sign)], (WordSyntaxError, "generator index 4 out of range 1..3")),
            ([(1, 1), (0, sign), (1, -1)], (WordSyntaxError, "generator index 0 out of range 1..3")),
            ([(3, sign), (3, -sign)], bad_sign),
        ]
        callers = [
            lambda letters: Word(letters, 3),
            lambda letters: evaluate_letters(iter(letters), 3),
            lambda letters: satellite.from_word(letters, 1),
        ]
        for letters, expected in cases:
            for caller in callers:
                with pytest.raises(ValueError) as caught:
                    caller(letters)
                assert (type(caught.value), str(caught.value)) == expected

    def test_checked_word_passes_through(self):
        # A Word was checked when it was made: at its rank or above, its
        # letters are taken as they are; below it, they are checked again.
        word = Word([(1, 1), (2, -1), (1, 1)], 2)
        for d in (2, 3, 5):
            assert words._checked_letters(word, d) is word.letters
        assert words._checked_letters(Word([(1, 1)], 4), 3) == ((1, 1),)
        wide = Word([(1, 1), (4, 1), (2, -1)], 4)
        for caller in (
            lambda: Word(wide, 3),
            lambda: evaluate_letters(wide, 3),
            lambda: satellite.from_word(wide, 1),
        ):
            with pytest.raises(WordSyntaxError) as caught:
                caller()
            assert str(caught.value) == "generator index 4 out of range 1..3"

    def test_letters_must_be_hashable(self):
        for call in (lambda: evaluate_letters([[1, 1]], 2), lambda: satellite.from_word([[1, 1]], 1)):
            with pytest.raises(TypeError, match="unhashable"):
                call()

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
        with pytest.raises(RankMismatchError, match=r"vector \(1,\) does not have rank 2"):
            VertexChain(2).translate([1])

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


class TestTranslateReadsIndex:
    """A translation vector is read through operator.index, like every
    chain coordinate."""

    FLOW = EdgeFlow(2, {((0, 0), 1): 1, ((1, 0), 2): -2})
    VERTICES = VertexChain(2, {(0, 0): 1, (1, -1): -1})

    @pytest.mark.parametrize("v", [[1.5, 0], (0, 2.0), ["1", 0], "12"])
    def test_float_and_str_vectors_are_refused(self, v):
        with pytest.raises(TypeError):
            self.FLOW.translate(v)
        with pytest.raises(TypeError):
            self.VERTICES.translate(v)

    def test_bools_read_as_ints(self):
        for chain in (self.FLOW, self.VERTICES):
            moved = chain.translate([True, False])
            assert moved == chain.translate((1, 0))
            assert all(type(n) is int for key, _ in moved.entries() for n in _ints(key))

    def test_int_lists_match_tuples(self):
        for chain in (self.FLOW, self.VERTICES):
            assert chain.translate([3, -4]) == chain.translate((3, -4))

    def test_plaquette_sums_translate_with_their_boundary(self):
        ps = PlaquetteSum(3, {((0, 1, 0), 1, 3): -4, ((2, 0, 0), 2, 3): 1})
        assert ps.translate([1, True, -2]).boundary_flow() == ps.boundary_flow().translate((1, 1, -2))
        assert ps.translate((1, 1, -2)).entries() == [
            (Plaquette((1, 2, -2), 1, 3), -4), (Plaquette((3, 1, -2), 2, 3), 1)
        ]


def _ints(key):
    """The integers of a public key: a vertex, an Edge or a Plaquette."""
    if isinstance(key, Edge):
        return (*key.base, key.axis)
    if isinstance(key, Plaquette):
        return (*key.base, key.i, key.j)
    return key


class TestLookups:
    """value() and coefficient() read any (base, ...) sequence."""

    def test_edge_value(self):
        flow = EdgeFlow(2, {((0, 0), 1): 2})
        assert flow.value(([0, 0], 1)) == flow.value(((0, 0), 1)) == flow.value(Edge((0, 0), 1)) == 2
        assert flow.value(([0, 0], 2)) == 0

    def test_plaquette_coefficient(self):
        ps = PlaquetteSum(3, {((0, 1, 0), 1, 3): -4})
        for key in (([0, 1, 0], 1, 3), ((0, 1, 0), 1, 3), Plaquette((0, 1, 0), 1, 3)):
            assert ps.coefficient(key) == -4
        assert ps.coefficient(([0, 1, 0], 1, 2)) == 0

    def test_vertex_value(self):
        chain = VertexChain(2, {(0, 0): 3})
        assert chain.value([0, 0]) == chain.value((0, 0)) == chain.value((False, 0)) == 3


class TestLookupsReadKeysLikeTheConstructor:
    """A lookup key is read through its kind's own key check: a float or a
    string is refused, not truncated, as are a wrong rank and a bad axis."""

    def test_edge_value(self):
        flow = EdgeFlow(2, {((0, 0), 1): 2})
        for key in (((0.0, 0), 1), ((0.5, 0), 1), ((0, 0), 1.0), ((0, "0"), 1)):
            with pytest.raises(TypeError):
                flow.value(key)
        with pytest.raises(RankMismatchError):
            flow.value(((0, 0, 0), 1))
        for axis in (0, 3):
            with pytest.raises(ValueError, match="out of range"):
                flow.value(((0, 0), axis))

    def test_vertex_value(self):
        chain = VertexChain(2, {(0, 0): 3})
        for key in ((0.0, False), (0.5, 0), ("0", 0)):
            with pytest.raises(TypeError):
                chain.value(key)
        with pytest.raises(RankMismatchError):
            chain.value((0, 0, 0))

    def test_plaquette_coefficient(self):
        ps = PlaquetteSum(3, {((0, 1, 0), 1, 3): -4})
        for key in (((0.0, 1, 0), 1, 3), ((0, 1, 0), 1.0, 3), ((0, 1, 0), 1, "3")):
            with pytest.raises(TypeError):
                ps.coefficient(key)
        with pytest.raises(RankMismatchError):
            ps.coefficient(((0, 1), 1, 2))
        for i, j in ((3, 1), (1, 1), (1, 4)):
            with pytest.raises(ValueError, match="bad plaquette axes"):
                ps.coefficient(((0, 1, 0), i, j))


@st.composite
def chain_pairs(draw):
    """A rank d in 1..4 and (edge, coeff) and (plaquette, coeff) pairs on
    coordinates -5..5, with repeats and zeros; bases are tuples or lists."""
    d = draw(st.integers(1, 4))
    base = st.tuples(*[st.integers(-5, 5)] * d)
    coeff = st.integers(-3, 3)
    edges = draw(st.lists(st.tuples(st.tuples(base, st.integers(1, d)), coeff), max_size=12))
    planes = [(i, j) for i in range(1, d + 1) for j in range(i + 1, d + 1)]
    plaquettes = draw(
        st.lists(st.tuples(st.tuples(base, st.sampled_from(planes)), coeff), max_size=12)
        if planes
        else st.just([])
    )
    plaquettes = [((b, i, j), c) for (b, (i, j)), c in plaquettes]
    as_list = draw(st.booleans())
    return d, edges, plaquettes, as_list


def _summed_sorted(pairs):
    """Reference: coefficients summed per nested key, zeros dropped, sorted
    on the nested keys."""
    totals = {}
    for key, coeff in pairs:
        totals[key] = totals.get(key, 0) + coeff
    return sorted((key, coeff) for key, coeff in totals.items() if coeff)


@given(chain_pairs())
def test_flat_keys_read_back_as_sorted_views(case):
    d, edges, plaquettes, as_list = case
    box = list if as_list else tuple
    flow = EdgeFlow(d, [((box(base), axis), coeff) for (base, axis), coeff in edges])
    ps = PlaquetteSum(d, [((box(base), i, j), coeff) for (base, i, j), coeff in plaquettes])
    for chain, pairs, view in ((flow, edges, Edge), (ps, plaquettes, Plaquette)):
        expected = _summed_sorted(pairs)
        assert chain.entries() == expected
        assert all(type(key) is view and type(key.base) is tuple for key, _ in chain.entries())
        assert chain == type(chain)(d, chain.entries())
    assert flow.support() == [key for key, _ in _summed_sorted(edges)]
    assert all(type(key) is Edge for key in flow.support())
    edge_rows = _summed_sorted(edges)
    assert json.loads(flow.as_json()) == [
        {"axis": axis, "base": list(base), "mult": m} for (base, axis), m in edge_rows
    ]
    assert str(flow) == "[" + ", ".join(
        f"({', '.join(map(str, base))}):{axis}:{m:+d}" for (base, axis), m in edge_rows
    ) + "]"
    plaquette_rows = _summed_sorted(plaquettes)
    assert json.loads(ps.as_json()) == [
        {"base": list(base), "i": i, "j": j, "mult": m} for (base, i, j), m in plaquette_rows
    ]
    assert str(ps) == "[" + ", ".join(
        f"({', '.join(map(str, base))}):({i},{j}):{m:+d}" for (base, i, j), m in plaquette_rows
    ) + "]"


# --- boundaries carried from the code that built a flow -----------------------


def _count_walks(monkeypatch):
    """A list that gains two items for each edge a boundary walk reads."""
    walks = []
    accumulate = lattice._accumulate

    def counted(*args):
        walks.append(args)
        accumulate(*args)

    monkeypatch.setattr(lattice, "_accumulate", counted)
    return walks


def _fresh_boundary(flow):
    """The boundary of the flow's entries rebuilt through the public
    constructor, which knows no boundary and computes it."""
    return EdgeFlow(flow.d, flow.entries()).boundary()


@st.composite
def built_flows(draw, d):
    """A rank-d flow from one of the builders that pass its boundary, or from
    the public constructor, on coordinates -4..4."""
    coord = st.integers(-4, 4)
    vec = st.tuples(*[coord] * d)
    builders = ["path", "cocycle", "public"] + (["plaquettes"] if d >= 2 else [])
    builders += ["satellite"] if d == 2 else []
    builder = draw(st.sampled_from(builders))
    if builder == "path":
        letters = draw(st.lists(st.tuples(st.integers(1, d), st.sampled_from((1, -1))), max_size=10))
        if draw(st.booleans()):  # walk back to the origin: a loop
            end = evaluate_letters(letters, d).endpoint
            letters += [(axis, -1 if c > 0 else 1) for axis, c in enumerate(end, 1) for _ in range(abs(c))]
        return evaluate_letters(letters, d).flow
    if builder == "cocycle":
        return canonical_cocycle(draw(vec), draw(vec))
    if builder == "plaquettes":
        planes = [(i, j) for i in range(1, d + 1) for j in range(i + 1, d + 1)]
        pairs = draw(st.lists(st.tuples(st.tuples(vec, st.sampled_from(planes)), coord), max_size=6))
        return PlaquetteSum(d, [((base, i, j), c) for (base, (i, j)), c in pairs]).boundary_flow()
    if builder == "satellite":
        letters = draw(st.lists(st.tuples(st.integers(1, 3), st.sampled_from((1, -1))), max_size=10))
        return satellite.from_word(letters, draw(st.integers(-3, 3))).cycle
    edges = st.tuples(st.tuples(vec, st.integers(1, d)), coord)
    return EdgeFlow(d, draw(st.lists(edges, max_size=8)))


@st.composite
def carried_flows(draw):
    """Built flows run through a random chain of +, -, negation, scalar *
    (0 and negative included) and translate; every intermediate result."""
    d = draw(st.integers(1, 4))
    flow = draw(built_flows(d))
    results = [flow]
    for step in draw(st.lists(st.sampled_from(["+", "-", "neg", "*", "rmul", "translate"]), max_size=6)):
        if step in ("+", "-"):
            other = draw(built_flows(d))
            flow = flow + other if step == "+" else flow - other
        elif step == "neg":
            flow = -flow
        elif step in ("*", "rmul"):
            n = draw(st.integers(-3, 3))
            flow = flow * n if step == "*" else n * flow
        else:
            flow = flow.translate(draw(st.tuples(*[st.integers(-4, 4)] * d)))
        results.append(flow)
    return results


class TestCarriedBoundary:
    @given(carried_flows())
    def test_carried_boundary_equals_a_fresh_one(self, results):
        for flow in results:
            assert flow.boundary() == _fresh_boundary(flow)
            assert flow.is_cycle() == (not _fresh_boundary(flow))

    def test_builders_hand_over_their_boundary(self, monkeypatch):
        # The builders' cycles, and sums, differences, negations, multiples
        # and translates of them, are known cycles: no check walks them. An
        # open path, public input and anything mixed with either are walked.
        endpoint, path = evaluate_path(parse_word("x1 x2^2 x1^-3", 2))
        loop = evaluate_path(parse_word("x1 x2^2 x1^-1 x2^-2", 2)).flow
        cycles = [
            loop,
            canonical_cocycle((2, -1), (3, 4)),
            satellite.from_word("x y z x^-1", 2).cycle,
            PlaquetteSum(2, {((0, 0), 1, 2): 5}).boundary_flow(),
            plaquette_boundary(Plaquette((1, -1), 1, 2)),
        ]
        known = cycles + [
            cycles[0] + cycles[1], cycles[2] - cycles[3], -cycles[4], 3 * cycles[1], cycles[2] * -2,
            cycles[3].translate((1, 1)),
        ]
        public = EdgeFlow(2, loop.entries())
        walked = [path, -path, 3 * path, path.translate((1, 1)), path + cycles[1], public, loop + public]
        walks = _count_walks(monkeypatch)
        for flow in known:
            assert flow and flow.is_cycle() and not flow.boundary()
        assert walks == []
        assert path.boundary() == VertexChain(2, {endpoint: 1, (0, 0): -1})
        for flow in walked:
            walks.clear()
            flow.is_cycle()
            assert len(walks) == 2 * len(flow)

    def test_is_cycle_walks_a_public_cycle_once(self, monkeypatch):
        flow = EdgeFlow(2, canonical_cocycle((2, -1), (3, 4)).entries())
        walks = _count_walks(monkeypatch)
        for _ in range(3):
            assert flow.is_cycle()
            assert not flow.boundary()
        assert len(walks) == 2 * len(flow)
        # Once known, the flow passes the bit on.
        moved = (flow + flow).translate((1, 2))
        walks.clear()
        assert moved.is_cycle()
        assert walks == []

    def test_translate_reads_an_iterator_once(self):
        path = flow_of("x1 x2")
        assert path.translate(iter((1, 2))).boundary() == VertexChain(2, {(2, 3): 1, (1, 2): -1})


class TestPublicFlowsAreChecked:
    """A flow from the public constructor carries no boundary, so every
    check computes its boundary and refuses a wrong one."""

    OPEN = EdgeFlow(2, {((0, 0), 1): 1})

    def _open_flows(self):
        # The bad flow on its own, and mixed with trusted cycles.
        cycle = canonical_cocycle((2, 1), (-1, 3))
        return [self.OPEN, self.OPEN + cycle, cycle - self.OPEN, 2 * self.OPEN.translate((1, 1))]

    def test_metabelian_element(self):
        for flow in self._open_flows():
            with pytest.raises(ValueError, match="does not match the endpoint"):
                MetabelianElement((0, 0), flow)
        with pytest.raises(ValueError, match="does not match the endpoint"):
            MetabelianElement((0, 1), self.OPEN)
        assert MetabelianElement((1, 0), self.OPEN).flow == self.OPEN

    def test_area_and_decompose(self):
        for flow in self._open_flows():
            with pytest.raises(NotACycleError):
                algebraic_area(flow)
            with pytest.raises(NotACycleError):
                decompose_cycle(flow)
        with pytest.raises(NotACycleError):
            decompose_cycle(EdgeFlow(3, {((0, 0, 0), 3): 1}))

    def test_satellite_element(self):
        for flow in self._open_flows():
            with pytest.raises(NotACycleError):
                satellite.SatelliteElement(1, (0, 0), flow)

    def test_cocycle_shifts(self):
        for flow in self._open_flows():
            with pytest.raises(ValueError, match="is not a cycle"):
                Cocycle(2, 1, {(1, 0): flow})
