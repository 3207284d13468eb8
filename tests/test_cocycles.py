import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from latticegroups import (
    CanonicalCocycle,
    Cocycle,
    EdgeFlow,
    PerturbedCocycle,
    Plaquette,
    RankMismatchError,
    ScaledCocycle,
    Word,
    algebraic_area,
    canonical_cocycle,
    check_cocycle_identity,
    coboundary,
    cocycle_index,
    commutator_defect,
    decompose_cycle_2d,
    monomial_flow,
    monomial_word,
    plaquette_boundary,
    parse_word,
    vec_add,
    vec_neg,
)
from latticegroups import cocycles
from helpers import random_loop_flow


def random_vec(rng, lo=-4, hi=4, d=2):
    return tuple(rng.randint(lo, hi) for _ in range(d))


def random_shifts(rng, count=3, d=2):
    """Finitely supported cycle assignment away from the origin."""
    shifts = {}
    for _ in range(count):
        vec = random_vec(rng, -3, 3, d)
        if all(c == 0 for c in vec):
            continue
        shifts[vec] = random_loop_flow(rng, d, 6)
    return shifts


def monomial_cocycle(g1, g2):
    """The canonical cocycle as three monomial flows: the reference for the
    rectangle form of :func:`canonical_cocycle`."""
    return monomial_flow(g1) + monomial_flow(g2).translate(g1) - monomial_flow(vec_add(g1, g2))


@st.composite
def _vector_pairs(draw):
    d = draw(st.integers(1, 5))
    vector = st.tuples(*[st.integers(-9, 9)] * d)
    return draw(vector), draw(vector)


def ext_mul(table, a, b):
    """Product in the extension twisted by ``table``, multiplied out."""
    (v1, h1), (v2, h2) = a, b
    return vec_add(v1, v2), h1 + h2.translate(v1) + table(v1, v2)


def ext_inv(table, a):
    v, h = a
    w = vec_neg(v)
    return w, -((h + table(v, w)).translate(w))


def defect_by_products(table):
    """Cycle part of ((x y) x^-1) y^-1 for the generator lifts, by explicit products."""
    zero = EdgeFlow(2)
    x = ((1, 0), zero)
    y = ((0, 1), zero)
    vec, cycle = ext_mul(
        table,
        ext_mul(table, ext_mul(table, x, y), ext_inv(table, x)),
        ext_inv(table, y),
    )
    assert vec == (0, 0)
    return cycle


class TestMonomialSection:
    def test_mixed_signs(self):
        assert monomial_word((2, -1)) == parse_word("x1^2 x2^-1", 2)

    def test_origin(self):
        assert monomial_word((0, 0)).is_identity()

    def test_single_axis(self):
        assert monomial_word((0, 3)) == parse_word("x2^3", 2)

    def test_flow_endpoint(self):
        from latticegroups import evaluate_path

        for vec in [(2, -1), (0, 0), (-3, 2), (1, 2, -2)]:
            assert evaluate_path(monomial_word(vec)).endpoint == vec

    def test_closed_form_flow_matches_walk(self):
        from latticegroups import evaluate_path

        for vec in itertools.product(range(-5, 6), repeat=3):
            assert monomial_flow(vec) == evaluate_path(monomial_word(vec)).flow
        with pytest.raises(ValueError):
            monomial_flow(())


class TestCanonicalCocycle:
    def test_straight_concatenation_vanishes(self):
        assert not canonical_cocycle((1, 0), (0, 1))

    def test_reversed_order_is_negative_plaquette(self):
        assert canonical_cocycle((0, 1), (1, 0)) == -plaquette_boundary(
            Plaquette((0, 0), 1, 2)
        )

    def test_normalized(self):
        rng = random.Random(5)
        for _ in range(20):
            g = random_vec(rng)
            assert not canonical_cocycle((0, 0), g)
            assert not canonical_cocycle(g, (0, 0))

    def test_values_are_cycles(self):
        rng = random.Random(7)
        for _ in range(40):
            assert canonical_cocycle(random_vec(rng), random_vec(rng)).is_cycle()

    def test_section_consistency(self):
        # the cocycle is exactly the defect of concatenating monomial flows
        rng = random.Random(9)
        from latticegroups import vec_add

        for _ in range(40):
            g1, g2 = random_vec(rng, -3, 3), random_vec(rng, -3, 3)
            defect = (
                monomial_flow(g1)
                + monomial_flow(g2).translate(g1)
                - monomial_flow(vec_add(g1, g2))
            )
            assert canonical_cocycle(g1, g2) == defect


    @settings(max_examples=300, deadline=None)
    @given(_vector_pairs())
    def test_rectangle_form_matches_monomial_reference(self, pair):
        g1, g2 = pair
        assert canonical_cocycle(g1, g2) == monomial_cocycle(g1, g2)

    def test_rectangle_edges_count_the_emitted_edges(self, monkeypatch):
        # The CLI bounds rank times this count before anything is emitted.
        emitted = []
        accumulate = cocycles._accumulate

        def counting(entries, key, coeff):
            emitted.append(key)
            accumulate(entries, key, coeff)

        monkeypatch.setattr(cocycles, "_accumulate", counting)
        rng = random.Random(71)
        for _ in range(200):
            d = rng.randint(1, 5)
            g1, g2 = random_vec(rng, d=d), random_vec(rng, d=d)
            emitted.clear()
            canonical_cocycle(g1, g2)
            assert cocycles._rectangle_edges(g1, g2) == len(emitted)

    def test_rank_checks(self):
        with pytest.raises(ValueError, match="rank must be positive"):
            canonical_cocycle((), ())
        with pytest.raises(RankMismatchError):
            canonical_cocycle((1, 2), (1, 2, 3))

    def test_cocycle_value_checks_its_rank(self):
        # A rank-2 table gives no rank-3 value, empty or not.
        table = Cocycle(2, 1)
        for g1, g2 in (((0, 1, 0), (1, 0, 0)), ((1, 0, 0), (0, 1, 0)), ((1, 0), (0, 1, 0)), ((1,), (0,))):
            with pytest.raises(RankMismatchError, match="do not match cocycle rank 2"):
                table.value(g1, g2)
            with pytest.raises(RankMismatchError):
                table(g1, g2)
        assert table([1, 0], [0, 1]) == canonical_cocycle((1, 0), (0, 1))

    def test_vectors_are_read_as_integers(self):
        # A float or a string is refused, not dropped; a bool reads as 0/1.
        for g1, g2 in (((1.5, 0), (0, 1)), ((0, 1), (2, 0.5)), ((0, "1"), (1, 0))):
            with pytest.raises(TypeError):
                canonical_cocycle(g1, g2)
            with pytest.raises(TypeError):
                Cocycle(2, 1)(g1, g2)
        flow = canonical_cocycle((0, True), (True, 0))
        assert flow == canonical_cocycle((0, 1), (1, 0))
        assert all(type(c) is int for edge, _ in flow.entries() for c in (*edge.base, edge.axis))
        # Each vector is read once, so iterators work as in translate.
        assert canonical_cocycle(iter((0, 2)), iter((3, 0))) == canonical_cocycle((0, 2), (3, 0))

    def test_level_is_read_as_an_integer(self):
        for k in (1.5, "2", None):
            with pytest.raises(TypeError):
                Cocycle(2, k)
        table = Cocycle(2, True)
        assert type(table.k) is int and table((1, 0), (0, 1)) == canonical_cocycle((1, 0), (0, 1))


class _CorruptedCocycle(Cocycle):
    """Canonical rule with one value overwritten by an extra plaquette."""

    def __init__(self):
        self.d = 2

    def value(self, g1, g2):
        flow = canonical_cocycle(g1, g2)
        if (tuple(g1), tuple(g2)) == ((1, 1), (1, 0)):
            flow = flow + plaquette_boundary(Plaquette((0, 0), 1, 2))
        return flow


class TestCocycleIdentity:
    def test_canonical_random_triples(self):
        rng = random.Random(11)
        table = CanonicalCocycle(2)
        for _ in range(150):
            assert check_cocycle_identity(
                table, random_vec(rng), random_vec(rng), random_vec(rng)
            )

    def test_scaled_random_triples(self):
        rng = random.Random(13)
        for k in (-3, -1, 0, 2, 3):
            table = ScaledCocycle(2, k)
            for _ in range(40):
                assert check_cocycle_identity(
                    table, random_vec(rng), random_vec(rng), random_vec(rng)
                )

    def test_perturbed_random_triples(self):
        rng = random.Random(17)
        for _ in range(10):
            table = PerturbedCocycle(CanonicalCocycle(2), random_shifts(rng))
            for _ in range(25):
                assert check_cocycle_identity(
                    table, random_vec(rng), random_vec(rng), random_vec(rng)
                )

    def test_corrupted_table_fails_somewhere(self):
        table = _CorruptedCocycle()
        box = [(a, b) for a in range(-1, 3) for b in range(-1, 3)]
        assert any(
            not check_cocycle_identity(table, g1, g2, g3)
            for g1, g2, g3 in itertools.product(box, repeat=3)
        )


class TestCoboundary:
    def test_empty_assignment(self):
        assert not coboundary({}, (1, 2), (3, -1))

    def test_single_point_normalization(self):
        point = (2, 1)
        shifts = {point: random_loop_flow(random.Random(19), 2, 5)}
        assert not coboundary(shifts, point, (0, 0))

    def test_non_cycle_value_rejected(self):
        bad = {(1, 0): EdgeFlow(2, {((0, 0), 1): 1})}
        with pytest.raises(ValueError):
            coboundary(bad, (1, 0), (0, 1))
        with pytest.raises(ValueError):
            PerturbedCocycle(CanonicalCocycle(2), bad)

    def test_origin_shift_rejected(self):
        shifts = {(0, 0): plaquette_boundary(Plaquette((0, 0), 1, 2))}
        with pytest.raises(ValueError):
            PerturbedCocycle(CanonicalCocycle(2), shifts)

    def test_shift_vectors_are_read_as_integers(self):
        # A float vector is refused, not stored under a key that no lattice
        # vector looks up; a bool reads as 0/1.
        unit = plaquette_boundary(Plaquette((0, 0), 1, 2))
        for vec in ((1.5, 0), (0, "1")):
            with pytest.raises(TypeError):
                Cocycle(2, 1, {vec: unit})
        table = Cocycle(2, 1, {(True, 0): unit})
        assert [type(c) for vec in table.shifts for c in vec] == [int, int]
        assert cocycle_index(table) == 1 and table((1, 0), (0, 1)) == canonical_cocycle((1, 0), (0, 1)) + unit

    def test_vectors_are_read_once(self):
        # Cocycle values and coboundaries read each vector once, so iterators
        # work as in canonical_cocycle and translate.
        shifts = {(1, 0): plaquette_boundary(Plaquette((0, 0), 1, 2))}
        assert coboundary(shifts, iter((1, 0)), iter((0, 1))) == coboundary(shifts, (1, 0), (0, 1)) == shifts[(1, 0)]
        for table in (Cocycle(2, 1), Cocycle(2, 2, shifts)):
            assert table(iter((1, 0)), iter((0, 1))) == table((1, 0), (0, 1))
        with pytest.raises(TypeError):
            coboundary(shifts, (1.5, 0), (0, 1))

    def test_perturbed_values_stay_normalized_cycles(self):
        rng = random.Random(23)
        table = PerturbedCocycle(ScaledCocycle(2, 2), random_shifts(rng))
        for _ in range(20):
            g = random_vec(rng)
            assert not table((0, 0), g)
            assert not table(g, (0, 0))
            assert table(g, random_vec(rng)).is_cycle()


class TestOneCocycleType:
    UNIT = plaquette_boundary(Plaquette((0, 0), 1, 2))
    BOX = [(a, b) for a in range(-2, 3) for b in range(-2, 3)]

    def test_names_are_one_class(self):
        assert CanonicalCocycle is ScaledCocycle is Cocycle
        table = PerturbedCocycle(ScaledCocycle(2, 3), {(1, 0): self.UNIT})
        assert type(table) is Cocycle and table.k == 3 and table.d == 2

    def test_scaled_is_multiple_of_canonical(self):
        rng = random.Random(37)
        for k in range(-3, 4):
            table = ScaledCocycle(2, k)
            for _ in range(15):
                g1, g2 = random_vec(rng), random_vec(rng)
                assert table(g1, g2) == k * canonical_cocycle(g1, g2)

    def test_closed_form_defect_matches_products(self):
        rng = random.Random(41)
        tables = [CanonicalCocycle(2)] + [ScaledCocycle(2, k) for k in range(-4, 5)]
        for _ in range(30):
            k = rng.randint(-4, 4)
            once = PerturbedCocycle(ScaledCocycle(2, k), random_shifts(rng))
            tables += [once, PerturbedCocycle(once, random_shifts(rng))]
        for table in tables:
            assert commutator_defect(table) == defect_by_products(table)

    def test_perturbing_twice_sums_assignments(self):
        rng = random.Random(43)
        for _ in range(5):
            base = ScaledCocycle(2, rng.randint(-2, 2))
            first, second = random_shifts(rng), random_shifts(rng)
            second[next(iter(first))] = self.UNIT  # one vector shifted twice
            summed = dict(first)
            for vec, flow in second.items():
                summed[vec] = summed.get(vec, EdgeFlow(2)) + flow
            twice = PerturbedCocycle(PerturbedCocycle(base, first), second)
            once = PerturbedCocycle(base, summed)
            for g1, g2 in itertools.product(self.BOX, repeat=2):
                expected = base(g1, g2) + coboundary(first, g1, g2) + coboundary(second, g1, g2)
                assert twice(g1, g2) == once(g1, g2) == expected

    def test_cancelling_shifts_are_dropped(self):
        table = PerturbedCocycle(
            PerturbedCocycle(CanonicalCocycle(2), {(1, 0): self.UNIT, (0, 2): self.UNIT}),
            {(1, 0): -self.UNIT},
        )
        assert list(table.shifts) == [(0, 2)]
        table = PerturbedCocycle(table, {(0, 2): -self.UNIT})
        assert table.shifts == {}
        for g1, g2 in itertools.product(self.BOX, repeat=2):
            assert table(g1, g2) == canonical_cocycle(g1, g2)

    def test_rejections_after_summing(self):
        base = PerturbedCocycle(CanonicalCocycle(2), {(1, 0): self.UNIT})
        with pytest.raises(ValueError, match="origin"):
            PerturbedCocycle(base, {(0, 0): self.UNIT})
        with pytest.raises(ValueError, match="not a cycle"):
            PerturbedCocycle(base, {(1, 0): EdgeFlow(2, {((0, 0), 1): 1})})
        with pytest.raises(RankMismatchError):
            PerturbedCocycle(base, {(1, 0, 0): self.UNIT})

    def test_wrong_rank_value_at_shifted_vector(self):
        # The check comes before the sum, which would raise the chain's own text.
        base = PerturbedCocycle(CanonicalCocycle(2), {(1, 0): self.UNIT})
        cube_face = plaquette_boundary(Plaquette((0, 0, 0), 1, 2))
        message = r"shift value at \(1, 0\) does not have rank 2"
        with pytest.raises(RankMismatchError, match=message):
            PerturbedCocycle(base, {(1, 0): cube_face})

    def test_repeated_pairs_match_the_mapping_of_their_sums(self):
        rng = random.Random(47)
        for _ in range(5):
            k = rng.randint(-2, 2)
            first, second = random_shifts(rng), random_shifts(rng)
            second[next(iter(first))] = self.UNIT  # one vector given twice
            summed = dict(first)
            for vec, flow in second.items():
                summed[vec] = summed.get(vec, EdgeFlow(2)) + flow
            by_pairs = Cocycle(2, k, [*first.items(), *second.items()])
            by_sums = Cocycle(2, k, summed)
            assert (by_pairs.d, by_pairs.k, by_pairs.shifts) == (by_sums.d, by_sums.k, by_sums.shifts)

    def test_cancelling_pairs_leave_no_shift(self):
        table = Cocycle(2, 1, [((1, 0), self.UNIT), ((0, 2), self.UNIT), ((1, 0), -self.UNIT)])
        assert table.shifts == {(0, 2): self.UNIT}
        assert Cocycle(2, 1, [((1, 0), self.UNIT), ((1, 0), -self.UNIT)]).shifts == {}

    def test_pairs_are_refused_like_mapping_entries(self):
        # Each pair is checked before any sum: a second pair that would
        # cancel the first does not hide it.
        cube_face = plaquette_boundary(Plaquette((0, 0, 0), 1, 2))
        bad = [
            ((1, 0, 0), self.UNIT, RankMismatchError, "shift vector (1, 0, 0) does not have rank 2"),
            ((1, 0), cube_face, RankMismatchError, "shift value at (1, 0) does not have rank 2"),
            ((1, 0), EdgeFlow(2, {((0, 0), 1): 1}), ValueError, "shift value at (1, 0) is not a cycle"),
            ((0, 0), self.UNIT, ValueError, "a nonzero shift at the origin breaks normalization"),
        ]
        for vec, flow, error, message in bad:
            with pytest.raises(error) as by_mapping:
                Cocycle(2, 1, {vec: flow})
            with pytest.raises(error) as by_pairs:
                Cocycle(2, 1, [((0, 1), self.UNIT), (vec, flow), (vec, -flow)])
            assert str(by_mapping.value) == str(by_pairs.value) == message


class TestIndex:
    def test_canonical_is_one(self):
        assert cocycle_index(CanonicalCocycle(2)) == 1

    def test_scaled(self):
        for k in range(-3, 4):
            assert cocycle_index(ScaledCocycle(2, k)) == k

    def test_defect_of_canonical_is_one_unit_plaquette(self):
        defect = commutator_defect(CanonicalCocycle(2))
        assert algebraic_area(defect) == 1
        entries = decompose_cycle_2d(defect).entries()
        assert len(entries) == 1 and entries[0][1] == 1

    def test_invariant_under_perturbation(self):
        rng = random.Random(29)
        for _ in range(15):
            table = PerturbedCocycle(CanonicalCocycle(2), random_shifts(rng))
            assert cocycle_index(table) == 1

    def test_invariant_under_perturbation_of_scaled(self):
        rng = random.Random(31)
        for k in (-2, 0, 3):
            table = PerturbedCocycle(ScaledCocycle(2, k), random_shifts(rng))
            assert cocycle_index(table) == k

    def test_rank_guard(self):
        with pytest.raises(ValueError):
            commutator_defect(CanonicalCocycle(3))
