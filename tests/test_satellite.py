import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from latticegroups import (
    Edge,
    EdgeFlow,
    Letter,
    MetabelianElement,
    Plaquette,
    PlaquetteSum,
    WordSyntaxError,
    algebraic_area,
    canonical_cocycle,
    monomial_flow,
    parse_letters,
    parse_word,
    plaquette_boundary,
)
from latticegroups.satellite import (
    GENERATOR_NAMES,
    SatelliteElement,
    _in_level_multiples,
    element_commutator,
    from_word,
    generator,
    z_torsion_order,
)
from latticegroups.homology import _peel
from helpers import random_letters, random_loop_flow, random_word

UNIT = plaquette_boundary(Plaquette((0, 0), 1, 2))


def product_fold(word, k):
    """The fold as one group product per letter: the reference for
    :func:`from_word`, which telescopes the twists along the path."""
    letters = parse_letters(word, GENERATOR_NAMES) if isinstance(word, str) else word
    images = {index + 1: generator(name, k) for index, name in enumerate(GENERATOR_NAMES)}
    result = SatelliteElement.identity(k)
    for axis, sign in letters:
        image = images[axis]
        result = result * (image if sign > 0 else image.inverse())
    return result


def in_M_by_plaquettes(elem):
    """Membership in M read off the materialised plaquette coefficients. The
    peel finds them without the column runs that ``in_M`` reads."""
    return elem.in_N() and all(
        _in_level_multiples(coeff, elem.k) for _, coeff in _peel(elem.cycle).entries()
    )


def square_boundary(n, k=1):
    """k times the boundary of the n x n square of plaquettes at the origin,
    built straight from its four sides (n can be large)."""
    edges = {}
    for t in range(n):
        edges[Edge((t, 0), 1)] = k
        edges[Edge((t, n), 1)] = -k
        edges[Edge((n, t), 2)] = k
        edges[Edge((0, t), 2)] = -k
    return EdgeFlow._of(2, edges)


def _syllables(names, exponent):
    return st.lists(st.tuples(st.sampled_from(names), exponent), max_size=8).map(
        lambda parts: " ".join(f"{name}^{power}" for name, power in parts)
    )


_LEVELS = st.integers(-4, 4)
_SATELLITE_WORDS = _syllables(GENERATOR_NAMES, st.integers(-50, 50).filter(bool))


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

    def test_letter_outside_alphabet(self):
        for axis in (0, 4):
            with pytest.raises(WordSyntaxError):
                from_word([Letter(axis, 1)], 2)


class TestTelescopedFold:
    @settings(max_examples=80, deadline=None)
    @given(_SATELLITE_WORDS, _LEVELS)
    def test_matches_product_fold(self, word, k):
        assert from_word(word, k) == product_fold(word, k)

    def test_seeded_letters_match_product_fold(self):
        rng = random.Random(59)
        for _ in range(60):
            k = rng.randint(-4, 4)
            letters = random_letters(rng, 3, rng.randint(0, 40))
            assert from_word(letters, k) == product_fold(letters, k)

    def test_long_commutator_costs_no_products(self, monkeypatch):
        def refuse(self, other):
            raise AssertionError("from_word multiplied")

        monkeypatch.setattr(SatelliteElement, "__mul__", refuse)
        n, c = 10**5, -7
        elem = from_word(f"x^{n} y^{n} x^-{n} y^-{n} z^{c}", 3)
        assert elem.vec == (0, 0)
        assert elem.cycle == square_boundary(n, 3) + c * UNIT
        box = PlaquetteSum(2, {Plaquette((a, b), 1, 2): 2 for a in range(3) for b in range(3)})
        assert square_boundary(3, 2) == box.boundary_flow()


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

    @settings(max_examples=60, deadline=None)
    @given(_LEVELS, st.randoms(use_true_random=False), st.integers(-3, 3))
    def test_column_runs_match_plaquettes(self, k, rng, extra):
        # k times a loop plus ``extra`` unit plaquettes lies in M exactly
        # when k divides ``extra``; a bare loop rarely does.
        loops = [
            k * random_loop_flow(rng, 2, 12) + extra * UNIT,
            random_loop_flow(rng, 2, 12),
            from_word(random_letters(rng, 3, rng.randint(0, 20)), k).cycle,
        ]
        for cycle in loops:
            elem = SatelliteElement(k, (0, 0), cycle)
            assert elem.in_M() == in_M_by_plaquettes(elem)

    def test_long_commutator_membership(self):
        n = 20000
        word = f"x^{n} y^{n} x^-{n} y^-{n}"
        assert from_word(word + " z^3", 3).in_M()
        assert not from_word(word + " z", 3).in_M()

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

    @settings(max_examples=60, deadline=None)
    @given(_syllables(GENERATOR_NAMES, st.integers(-400, 400).filter(bool)))
    def test_whole_words_match_metabelian(self, word):
        # x -> x1, y -> x2, z -> [x1, x2] maps the level-1 word problem onto
        # the free metabelian one, through (v, f) -> (v, f - monomial flow of v)
        images = {"x": "x1", "y": "x2", "z": "x1 x2 x1^-1 x2^-1"}
        inverses = {"x": "x1^-1", "y": "x2^-1", "z": "x2 x1 x2^-1 x1^-1"}
        mapped = []
        for letter in parse_letters(word, GENERATOR_NAMES):
            name = GENERATOR_NAMES[letter.axis - 1]
            mapped.append((images if letter.sign > 0 else inverses)[name])
        meta = MetabelianElement.from_word(parse_word(" ".join(mapped), 2))
        expected = SatelliteElement(1, meta.endpoint, meta.flow - monomial_flow(meta.endpoint))
        assert from_word(word, 1) == expected


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
            for p in (a, b, a * b, b * a, a.inverse(), (a * b).inverse()):
                assert SatelliteElement(p.k, p.vec, p.cycle) == p

    def test_rank_two_required(self):
        with pytest.raises(ValueError):
            SatelliteElement(1, (0, 0, 0), EdgeFlow(2))

    def test_json_shape(self):
        z = generator("z", 4)
        assert json.loads(z.as_json()) == {
            "k": 4,
            "vec": [0, 0],
            "cycle": json.loads(plaquette_boundary(Plaquette((0, 0), 1, 2)).as_json()),
        }


def test_power_by_squaring_reaches_large_exponents():
    unit = plaquette_boundary(Plaquette((0, 0), 1, 2))
    assert generator("z", 3) ** 10**6 == SatelliteElement(3, (0, 0), unit * 10**6)
