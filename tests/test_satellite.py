import random

import pytest

from latticegroups import (
    EdgeFlow,
    MetabelianElement,
    Plaquette,
    PlaquetteSum,
    WordSyntaxError,
    algebraic_area,
    canonical_cocycle,
    monomial_flow,
    plaquette_boundary,
)
from latticegroups.satellite import (
    SatelliteElement,
    element_commutator,
    from_word,
    generator,
    z_torsion_order,
)
from helpers import random_letters, random_loop_flow, random_word


def conjugated_z(k, m, n):
    shift = generator("x", k) ** m * generator("y", k) ** n
    return generator("z", k).conjugated_by(shift)


class TestRelations:
    def test_commutator_of_x_y_is_z_to_k(self):
        for k in (-3, -2, -1, 1, 2, 3):
            x, y, z = (generator(name, k) for name in "xyz")
            assert element_commutator(x, y) == z**k

    def test_split_level_commutes(self):
        assert element_commutator(generator("x", 0), generator("y", 0)).is_identity()

    def test_z_conjugates_are_translated_plaquettes(self):
        rng = random.Random(31)
        for _ in range(25):
            k = rng.choice((1, 2, 3))
            m, n = rng.randint(-4, 4), rng.randint(-4, 4)
            elem = conjugated_z(k, m, n)
            assert elem.vec == (0, 0)
            assert elem.cycle == plaquette_boundary(Plaquette((m, n), 1, 2))

    def test_z_conjugates_commute(self):
        rng = random.Random(37)
        for _ in range(25):
            k = rng.choice((0, 1, 2, 3))
            a = conjugated_z(k, rng.randint(-3, 3), rng.randint(-3, 3))
            b = conjugated_z(k, rng.randint(-3, 3), rng.randint(-3, 3))
            assert a * b == b * a

    def test_z_conjugates_commute_as_word(self):
        # commutator of (z conjugated by x) and (z conjugated by y), expanded
        word = "x z x^-1 y z y^-1 x z^-1 x^-1 y z^-1 y^-1"
        assert from_word(word, 2).is_identity()

    def test_z_squared(self):
        z = generator("z", 3)
        assert (z * z).cycle == 2 * plaquette_boundary(Plaquette((0, 0), 1, 2))

    def test_x_z_commutator_is_adjacent_plaquette_difference(self):
        for k in (1, 2, 5):
            elem = element_commutator(generator("x", k), generator("z", k))
            expected = plaquette_boundary(Plaquette((1, 0), 1, 2)) - plaquette_boundary(
                Plaquette((0, 0), 1, 2)
            )
            assert elem.vec == (0, 0)
            assert elem.cycle == expected
            assert algebraic_area(elem.cycle) == 0
            assert elem.in_commutant()


class TestWordEvaluation:
    def test_commutator_word(self):
        assert from_word("x y x^-1 y^-1", 2) == generator("z", 2) ** 2

    def test_empty(self):
        assert from_word("", 5).is_identity()

    def test_bad_alphabet(self):
        with pytest.raises(WordSyntaxError):
            from_word("x1 y", 1)

    def test_level_mismatch(self):
        with pytest.raises(ValueError):
            generator("x", 1) * generator("y", 2)

    def test_unknown_generator(self):
        with pytest.raises(ValueError):
            generator("w", 1)


class TestMembership:
    def test_z_level_three(self):
        z = generator("z", 3)
        assert z.in_N()
        assert not z.in_M()
        assert not z.in_commutant()

    def test_z_cubed_level_three(self):
        z3 = generator("z", 3) ** 3
        assert z3.in_M()
        assert z3.in_commutant()

    def test_commutant_needs_area_multiple_only(self):
        # adjacent plaquette difference: coefficients +1, -1, area 0
        elem = element_commutator(generator("x", 3), generator("z", 3))
        assert elem.in_commutant() and not elem.in_M()

    def test_mixed_vector_element_outside_n(self):
        elem = from_word("x z", 2)
        assert not elem.in_N()
        assert not elem.in_M()
        assert not elem.in_commutant()

    def test_level_zero_reads_exact_zero(self):
        z = generator("z", 0)
        assert z.in_N()
        assert not z.in_M()
        assert not z.in_commutant()
        assert SatelliteElement.identity(0).in_M()

    def test_chain_on_constructed_elements(self):
        rng = random.Random(41)
        for k in (2, 3):
            for _ in range(60):
                kind = rng.randrange(3)
                if kind == 0:
                    # product of conjugates of z^k: always in M
                    cycle = EdgeFlow(2)
                    for _ in range(rng.randint(1, 3)):
                        base = (rng.randint(-3, 3), rng.randint(-3, 3))
                        cycle = cycle + k * rng.choice((1, -1)) * plaquette_boundary(
                            Plaquette(base, 1, 2)
                        )
                    elem = SatelliteElement(k, (0, 0), cycle)
                elif kind == 1:
                    elem = SatelliteElement(k, (0, 0), random_loop_flow(rng, 2, 8))
                else:
                    elem = from_word("x y x^-1 y^-1 z", k)
                assert (not elem.in_M()) or elem.in_commutant()
                assert (not elem.in_commutant()) or elem.in_N()

    def test_level_one_commutant_is_whole_cycle_group(self):
        rng = random.Random(43)
        for k in (1, -1):
            for _ in range(25):
                elem = SatelliteElement(k, (0, 0), random_loop_flow(rng, 2, 8))
                assert elem.in_commutant()


class TestTorsion:
    def test_orders(self):
        for k in range(1, 6):
            assert z_torsion_order(k) == k
            assert z_torsion_order(-k) == k

    def test_level_zero_is_infinite(self):
        assert z_torsion_order(0) is None


class TestLevelOneIsMetabelian:
    def test_intertwines_multiplication(self):
        # (v, f) -> (v, f - monomial flow of v) carries the metabelian law
        # to the level-1 satellite law
        def transport(elem):
            return SatelliteElement(1, elem.endpoint, elem.flow - monomial_flow(elem.endpoint))

        rng = random.Random(47)
        for _ in range(60):
            a = MetabelianElement.from_word(random_word(rng, 2, 10))
            b = MetabelianElement.from_word(random_word(rng, 2, 10))
            assert transport(a * b) == transport(a) * transport(b)


class TestValidation:
    def test_cycle_required(self):
        from latticegroups import NotACycleError

        with pytest.raises(NotACycleError):
            SatelliteElement(1, (0, 0), EdgeFlow(2, {((0, 0), 1): 1}))
        with pytest.raises(NotACycleError):
            SatelliteElement(3, (2, 1), monomial_flow((2, 1)))

    def test_trusted_results_pass_public_checks(self):
        rng = random.Random(53)
        for _ in range(60):
            k = rng.randint(-3, 3)
            a = from_word(random_letters(rng, 3, rng.randint(0, 12)), k)
            b = from_word(random_letters(rng, 3, rng.randint(0, 12)), k)
            for p in (a * b, b * a, a.inverse(), (a * b).inverse()):
                assert SatelliteElement(p.k, p.vec, p.cycle) == p

    def test_rank_two_required(self):
        with pytest.raises(ValueError):
            SatelliteElement(1, (0, 0, 0), EdgeFlow(2))

    def test_json_shape(self):
        z = generator("z", 4)
        assert z.as_json() == {
            "k": 4,
            "vec": [0, 0],
            "cycle": plaquette_boundary(Plaquette((0, 0), 1, 2)).as_json(),
        }


def test_power_by_squaring_reaches_large_exponents():
    unit = plaquette_boundary(Plaquette((0, 0), 1, 2))
    assert generator("z", 3) ** 10**6 == SatelliteElement(3, (0, 0), unit * 10**6)
