import itertools
import random

import pytest

from latticegroups import (
    CanonicalCocycle,
    Cocycle,
    EdgeFlow,
    PerturbedCocycle,
    Plaquette,
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
)
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

    def test_perturbed_values_stay_normalized_cycles(self):
        rng = random.Random(23)
        table = PerturbedCocycle(ScaledCocycle(2, 2), random_shifts(rng))
        for _ in range(20):
            g = random_vec(rng)
            assert not table((0, 0), g)
            assert not table(g, (0, 0))
            assert table(g, random_vec(rng)).is_cycle()


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
