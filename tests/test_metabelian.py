import random

import pytest
from hypothesis import given, strategies as st

from latticegroups import (
    EdgeFlow,
    MetabelianElement,
    Plaquette,
    RankMismatchError,
    Word,
    canonical_cocycle,
    commutator,
    evaluate_path,
    fox_image,
    pair_element,
    parse_word,
    plaquette_boundary,
    plaquette_element,
    word_problem,
)
from helpers import hypothesis_words, matrix_fox_fold, random_letters, random_loop_word, random_word, w


def flow_slice(flow, axis):
    return {base: coeff for (base, a), coeff in flow.entries() if a == axis}


def fox_matches_flow(word):
    image = fox_image(word)
    evaluation = evaluate_path(word)
    if image.monomial != evaluation.endpoint:
        return False
    return all(
        image.derivatives[axis - 1] == flow_slice(evaluation.flow, axis)
        for axis in range(1, word.d + 1)
    )


class TestFromWord:
    def test_commutator_is_unit_plaquette(self):
        elem = MetabelianElement.from_word(w("x1 x2 x1^-1 x2^-1"))
        assert elem.endpoint == (0, 0)
        assert elem.flow == plaquette_boundary(Plaquette((0, 0), 1, 2))

    def test_empty_is_identity(self):
        assert MetabelianElement.from_word(Word.identity(2)).is_identity()

    def test_commutator_times_inverse_commutator(self):
        elem = MetabelianElement.from_word(w("x1 x2 x1^-1 x2^-1 x2 x1 x2^-1 x1^-1"))
        assert elem.is_identity()


class TestGroupLaw:
    def test_homomorphism(self):
        rng = random.Random(61)
        for _ in range(80):
            d = rng.choice((2, 3))
            u = random_word(rng, d, 10)
            v = random_word(rng, d, 10)
            assert MetabelianElement.from_word(u * v) == MetabelianElement.from_word(
                u
            ) * MetabelianElement.from_word(v)

    def test_identity_laws(self):
        a = MetabelianElement.from_word(w("x1 x2^2"))
        e = MetabelianElement.identity(2)
        assert a * e == a and e * a == a

    def test_generator_times_inverse(self):
        a = MetabelianElement.from_word(w("x1"))
        b = MetabelianElement.from_word(w("x1^-1"))
        assert (a * b).is_identity()

    def test_inverse_law(self):
        rng = random.Random(67)
        for _ in range(60):
            a = MetabelianElement.from_word(random_word(rng, 2, 12))
            assert (a * a.inverse()).is_identity()
            assert (a.inverse() * a).is_identity()

    def test_inverse_matches_word_inverse(self):
        rng = random.Random(71)
        for _ in range(60):
            word = random_word(rng, 3, 10)
            assert MetabelianElement.from_word(word).inverse() == MetabelianElement.from_word(~word)

    def test_conjugated_loop_translates(self):
        rng = random.Random(73)
        for _ in range(40):
            loop = MetabelianElement.from_word(random_loop_word(rng, 2, 6))
            g = MetabelianElement.from_word(random_word(rng, 2, 8))
            conjugated = loop.conjugated_by(g)
            assert conjugated.endpoint == (0, 0)
            assert conjugated.flow == loop.flow.translate(g.endpoint)

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatchError):
            MetabelianElement.identity(2) * MetabelianElement.identity(3)

    def test_invalid_pair_rejected(self):
        with pytest.raises(ValueError):
            MetabelianElement((0, 0), EdgeFlow(2, {((0, 0), 1): 1}))
        with pytest.raises(ValueError):
            MetabelianElement((1, 0), evaluate_path(w("x1 x2")).flow)
        with pytest.raises(ValueError):
            MetabelianElement((0, 0, 0), evaluate_path(w("x1 x2 x1^-1 x2^-1")).flow)

    def test_trusted_results_pass_public_checks(self):
        rng = random.Random(109)
        for _ in range(60):
            d = rng.choice((2, 3))
            a = MetabelianElement.from_word(random_word(rng, d, 12))
            b = MetabelianElement.section(tuple(rng.randint(-4, 4) for _ in range(d)))
            for p in (a, b, a * b, b * a, a.inverse(), (a * b).inverse()):
                assert MetabelianElement(p.endpoint, p.flow) == p

    def test_abelianization_forgets_flow(self):
        rng = random.Random(79)
        for _ in range(40):
            u = random_word(rng, 2, 8)
            v = random_word(rng, 2, 8)
            product = MetabelianElement.from_word(u) * MetabelianElement.from_word(v)
            assert product.endpoint == evaluate_path(u * v).endpoint


class TestPlaquetteElements:
    def test_based_at_origin(self):
        elem = plaquette_element(Plaquette((0, 0), 1, 2))
        assert elem == MetabelianElement((0, 0), plaquette_boundary(Plaquette((0, 0), 1, 2)))

    def test_based_away_from_origin(self):
        p = Plaquette((2, 0), 1, 2)
        assert plaquette_element(p) == MetabelianElement((0, 0), plaquette_boundary(p))

    def test_endpoint_always_zero(self):
        # Every plane (i, j) of every rank up to 5: the boundary's shifted
        # edges are sliced at slots i and j of the base, and the walked loop
        # pins both slots.
        rng = random.Random(83)
        for d in (2, 3, 4, 5):
            for i in range(1, d):
                for j in range(i + 1, d + 1):
                    for _ in range(3):
                        base = tuple(rng.randint(-4, 4) for _ in range(d))
                        elem = plaquette_element(Plaquette(base, i, j))
                        assert elem.endpoint == (0,) * d
                        assert elem.flow == plaquette_boundary(Plaquette(base, i, j))

    def test_pair_element_examples(self):
        assert pair_element((1, 0), Plaquette((0, 0), 1, 2)) == MetabelianElement.from_word(
            w("x1 x1 x2 x1^-1 x2^-1")
        )
        p = Plaquette((1, -2), 1, 2)
        assert pair_element((0, 0), p) == plaquette_element(p)

    def test_section_defect_is_cocycle(self):
        # two lifted vectors multiply to the lift of the sum, corrected on
        # the left by the identity-endpoint element of the cocycle value
        rng = random.Random(89)
        for _ in range(40):
            g1 = tuple(rng.randint(-3, 3) for _ in range(2))
            g2 = tuple(rng.randint(-3, 3) for _ in range(2))
            lhs = MetabelianElement.section(g1) * MetabelianElement.section(g2)
            total = tuple(a + b for a, b in zip(g1, g2))
            defect = MetabelianElement((0, 0), canonical_cocycle(g1, g2))
            assert lhs == defect * MetabelianElement.section(total)
            assert lhs.flow - MetabelianElement.section(total).flow == defect.flow


class TestWordProblem:
    def test_generators_do_not_commute(self):
        assert not word_problem(w("x1 x2"), w("x2 x1"))

    def test_inserted_cancellation(self):
        base = w("x1 x2^2 x1^-1")
        padded = parse_word("x1 x2 x1 x1^-1 x2 x1^-1", 2)
        assert word_problem(base, padded)

    def test_double_commutators_die(self):
        rng = random.Random(97)
        for _ in range(40):
            d = rng.choice((2, 3))
            u, v, s, t = (random_word(rng, d, 8) for _ in range(4))
            word = commutator(commutator(u, v), commutator(s, t))
            assert MetabelianElement.from_word(word).is_identity()

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatchError):
            word_problem(w("x1"), w("x1", d=3))

    def test_rank_one_reduces_to_endpoint(self):
        rng = random.Random(101)
        for _ in range(30):
            u = random_word(rng, 1, 10)
            v = random_word(rng, 1, 10)
            same = evaluate_path(u).endpoint == evaluate_path(v).endpoint
            assert word_problem(u, v) == same
        loop = random_loop_word(rng, 1, 8)
        assert not evaluate_path(loop).flow


class TestFoxOracle:
    def test_single_letter(self):
        image = fox_image(w("x1"))
        assert image.monomial == (1, 0)
        assert image.derivatives[0] == {(0, 0): 1}
        assert image.derivatives[1] == {}

    def test_commutator_fixture(self):
        image = fox_image(w("x1 x2 x1^-1 x2^-1"))
        assert image.monomial == (0, 0)
        assert image.derivatives[0] == {(0, 0): 1, (0, 1): -1}
        assert image.derivatives[1] == {(1, 0): 1, (0, 0): -1}

    def test_empty_word(self):
        image = fox_image(Word.identity(2))
        assert image.monomial == (0, 0)
        assert image.derivatives == ({}, {})

    def test_matches_flow_slices(self):
        rng = random.Random(103)
        for _ in range(120):
            d = rng.choice((2, 3))
            assert fox_matches_flow(random_word(rng, d, 25))

    def test_matches_flow_slices_at_scale(self):
        # Seeded d = 3 words of 2*10^4 letters, the size of a long CLI word.
        rng = random.Random(109)
        for _ in range(3):
            word = Word(random_letters(rng, 3, 20_000), 3)
            assert fox_matches_flow(word)

    def test_equality_verdicts_agree(self):
        rng = random.Random(107)
        for _ in range(60):
            d = rng.choice((2, 3))
            w1 = random_word(rng, d, 10)
            if rng.random() < 0.5:
                # same element, different word
                u, v, s, t = (random_word(rng, d, 5) for _ in range(4))
                w2 = w1 * commutator(commutator(u, v), commutator(s, t))
            else:
                w2 = random_word(rng, d, 10)
            assert word_problem(w1, w2) == (fox_image(w1) == fox_image(w2))


@given(hypothesis_words())
def test_fox_matches_matrix_fold(word):
    assert fox_image(word) == matrix_fox_fold(word)


@given(st.integers(1, 4).flatmap(lambda d: st.lists(hypothesis_words(d), min_size=5, max_size=5)))
def test_fox_coefficients_that_cancel_leave_no_point(words):
    # [[a, b], [c, e]] is trivial in the metabelian group: every coefficient
    # its letters put down is taken away again.
    u, a, b, c, e = words
    double = commutator(commutator(a, b), commutator(c, e))
    for word in (u * double, u * double * ~u):
        assert fox_image(word) == matrix_fox_fold(word) == fox_image(word * ~double)
    assert fox_image(u * double * ~u) == ((0,) * u.d, ({},) * u.d)
