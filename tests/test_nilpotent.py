import functools
import json
import operator
import random

import pytest
from hypothesis import example, given, strategies as st

from latticegroups import (
    HeisenbergElement,
    Letter,
    RankMismatchError,
    Word,
    algebraic_area,
    commutator,
    evaluate_path,
    project_flow,
    word_is_trivial,
)
from helpers import hypothesis_words, line_integral_areas, random_letters, random_loop_word, random_word, w


class TestEvaluate:
    def test_commutator(self):
        elem = HeisenbergElement.from_word(w("x1 x2 x1^-1 x2^-1"))
        assert elem.endpoint == (0, 0)
        assert elem.area(1, 2) == 1

    def test_empty(self):
        assert HeisenbergElement.from_word(Word.identity(2)).is_identity()

    def test_double_width(self):
        elem = HeisenbergElement.from_word(w("x1^2 x2 x1^-2 x2^-1"))
        assert elem.endpoint == (0, 0)
        assert elem.area(1, 2) == 2

    def test_open_word_tracks_endpoint(self):
        elem = HeisenbergElement.from_word(w("x1 x2^3"))
        assert elem.endpoint == (1, 3)
        assert elem.area(1, 2) == 3


class TestGroupLaw:
    def test_homomorphism(self):
        rng = random.Random(7)
        for _ in range(80):
            d = rng.choice((2, 3))
            u = random_word(rng, d, 10)
            v = random_word(rng, d, 10)
            assert HeisenbergElement.from_word(u * v) == HeisenbergElement.from_word(
                u
            ) * HeisenbergElement.from_word(v)

    def test_identity_laws(self):
        a = HeisenbergElement.from_word(w("x1 x2"))
        e = HeisenbergElement.identity(2)
        assert a * e == a and e * a == a

    def test_inverse_law(self):
        rng = random.Random(11)
        for _ in range(60):
            a = HeisenbergElement.from_word(random_word(rng, 3, 10))
            assert (a * a.inverse()).is_identity()
            assert (a.inverse() * a).is_identity()

    def test_commutator_of_generators_is_central(self):
        c = HeisenbergElement.from_word(w("x1 x2 x1^-1 x2^-1"))
        assert c.endpoint == (0, 0) and c.area(1, 2) == 1
        rng = random.Random(13)
        for _ in range(30):
            g = HeisenbergElement.from_word(random_word(rng, 2, 8))
            assert c * g == g * c

    def test_closed_words_are_central(self):
        rng = random.Random(17)
        for _ in range(40):
            loop = HeisenbergElement.from_word(random_loop_word(rng, 2, 6))
            g = HeisenbergElement.from_word(random_word(rng, 2, 8))
            assert loop * g == g * loop

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatchError):
            HeisenbergElement.identity(2) * HeisenbergElement.identity(3)


class TestTriviality:
    def test_commutator_not_trivial(self):
        assert not word_is_trivial(w("x1 x2 x1^-1 x2^-1"))

    def test_nested_cancel_trivial(self):
        assert word_is_trivial(w("x1 x2 x2^-1 x1^-1"))

    def test_two_step_nilpotency(self):
        rng = random.Random(19)
        for _ in range(60):
            d = rng.choice((2, 3))
            u, v, s = (random_word(rng, d, 8) for _ in range(3))
            assert word_is_trivial(commutator(commutator(u, v), s))

    def test_pairwise_criterion(self):
        rng = random.Random(23)
        for _ in range(60):
            w1 = random_word(rng, 2, 8)
            w2 = random_word(rng, 2, 8)
            same = HeisenbergElement.from_word(w1) == HeisenbergElement.from_word(w2)
            assert same == word_is_trivial(w1 * ~w2)


class TestAreaCrossCheck:
    def test_closed_word_areas_match_projections(self):
        rng = random.Random(29)
        for _ in range(60):
            d = rng.choice((2, 3))
            loop = random_loop_word(rng, d, 8)
            elem = HeisenbergElement.from_word(loop)
            flow = evaluate_path(loop).flow
            for i in range(1, d):
                for j in range(i + 1, d + 1):
                    assert elem.area(i, j) == algebraic_area(project_flow(flow, i, j))

    def test_long_closed_word_areas_match_projections(self):
        # Seeded closed d = 3 words of 2*10^4 letters: 10^4 random steps,
        # then their inverses in a shuffled order.
        rng = random.Random(31)
        for _ in range(3):
            out = random_letters(rng, 3, 10_000)
            back = [letter.inverse() for letter in out]
            rng.shuffle(back)
            loop = Word(out + back, 3)
            elem = HeisenbergElement.from_word(loop)
            flow = evaluate_path(loop).flow
            assert flow and flow.is_cycle()
            for i, j in ((1, 2), (1, 3), (2, 3)):
                assert elem.area(i, j) == algebraic_area(project_flow(flow, i, j))


@given(hypothesis_words())
@example(Word.identity(3))
@example(Word([(2, 1), (6, 1), (4, -1), (2, -1), (6, -1), (4, 1), (7, 1)], 7))  # axes 1, 3, 5 unused
def test_areas_match_line_integrals(word):
    elem = HeisenbergElement.from_word(word)
    assert dict(elem.areas()) == line_integral_areas(word)


@given(st.integers(1, 4).flatmap(lambda d: st.lists(hypothesis_words(d), min_size=5, max_size=5)))
def test_areas_that_return_to_zero_leave_no_key(words):
    # u [[a, b], [c, e]] u^-1 is trivial in every 2-step nilpotent quotient,
    # so each area its path builds up is taken back down to zero.
    u, a, b, c, e = words
    word = u * commutator(commutator(a, b), commutator(c, e)) * ~u
    elem = HeisenbergElement.from_word(word)
    assert elem.is_identity() and elem.areas() == [] and line_integral_areas(word) == {}


def _letter_image(letter, d):
    axis, sign = letter
    return HeisenbergElement(tuple(sign if at == axis else 0 for at in range(1, d + 1)))


@st.composite
def words_over_axes(draw):
    """A word of rank 1..6 over a drawn set of its axes, and with it, the word
    times a double commutator over the same axes: the second path's areas
    rise and fall back to the first's."""
    d = draw(st.integers(1, 6))
    axes = sorted(draw(st.sets(st.integers(1, d), min_size=1)))
    letters = st.lists(st.tuples(st.sampled_from(axes), st.sampled_from((1, -1))), max_size=20)
    word, a, b, c = (Word(draw(letters), d) for _ in range(4))
    return word, word * commutator(commutator(a, b), c)


@given(words_over_axes())
@example((Word([(5, 1), (2, 1), (5, -1), (2, -1)], 6), Word([(5, 1), (2, 1), (5, -1), (2, -1)], 6)))
def test_slot_fold_is_the_product_of_its_letters(words):
    # The fold keeps one running slot per pair of the word's own axes; it
    # must be the group product of the word's letters, one by one, with no
    # zero area left behind.
    word, cancelling = words
    for each in words:
        elem = HeisenbergElement.from_word(each)
        assert elem == functools.reduce(
            operator.mul, (_letter_image(letter, each.d) for letter in each), HeisenbergElement.identity(each.d)
        )
        assert 0 not in elem._areas.values()
    assert HeisenbergElement.from_word(cancelling) == HeisenbergElement.from_word(word)


def test_word_over_three_hundred_axes_matches_the_line_integrals():
    # Every one of 300 generators, each stepped forward and back at seeded
    # places: 300 * 299 / 2 slots, more than 300 of them ending nonzero.
    rng = random.Random(37)
    letters = [Letter(axis, sign) for axis in range(1, 301) for sign in (1, -1)]
    rng.shuffle(letters)
    word = Word(letters + random_letters(rng, 300, 400), 300)
    assert len({axis for axis, _ in word}) == 300
    elem = HeisenbergElement.from_word(word)
    areas = line_integral_areas(word)
    assert dict(elem.areas()) == areas and len(areas) > 300
    assert 0 not in elem._areas.values()


def test_area_that_returns_to_zero_leaves_no_key():
    # One counterclockwise square, then one clockwise: the area (1, 2) is +1
    # half way and 0 at the end.
    word = w("x1 x2 x1^-1 x2^-1 x1 x2 x1 x2^-1 x1^-1 x1^-1")
    assert len(word) == 10
    elem = HeisenbergElement.from_word(word)
    assert elem.endpoint == (0, 0) and elem.areas() == [] and elem.area(1, 2) == 0
    assert elem == HeisenbergElement.identity(2)


def test_json_shape():
    elem = HeisenbergElement.from_word(w("x1 x2 x1^-1 x2^-1"))
    assert json.loads(elem.as_json()) == {
        "endpoint": [0, 0],
        "areas": [{"i": 1, "j": 2, "value": 1}],
    }
