import random

import pytest
from hypothesis import given, strategies as st

from latticegroups import (
    HeisenbergElement,
    Letter,
    MetabelianElement,
    RankMismatchError,
    Word,
    WordSyntaxError,
    commutator,
    free_reduce,
    parse_word,
    parse_letters,
    satellite,
)
from latticegroups.satellite import SatelliteElement

from helpers import random_letters, random_word


def letters_st(d, max_len=12):
    return st.lists(
        st.tuples(st.integers(1, d), st.sampled_from((1, -1))).map(lambda t: Letter(*t)),
        max_size=max_len,
    )


def words_st(d, max_len=12):
    return letters_st(d, max_len).map(lambda ls: Word(ls, d))


class TestParse:
    def test_four_letter_commutator(self):
        word = parse_word("x1 x2 x1^-1 x2^-1", 2)
        assert word.letters == (Letter(1, 1), Letter(2, 1), Letter(1, -1), Letter(2, -1))

    def test_total_cancellation(self):
        assert parse_word("x1 x1^-1", 2).is_identity()

    def test_exponent_expansion(self):
        assert parse_word("x1^3", 1).letters == (Letter(1, 1),) * 3

    def test_dot_separator(self):
        assert parse_word("x1 x2^-2 . x3", 3) == parse_word("x1 x2^-2 x3", 3)

    def test_negative_exponent(self):
        assert parse_word("x2^-2", 2).letters == (Letter(2, -1), Letter(2, -1))

    def test_empty_text(self):
        assert parse_word("", 2).is_identity()
        assert parse_word("   ", 2).is_identity()

    def test_bad_token(self):
        with pytest.raises(WordSyntaxError):
            parse_word("y1", 2)
        with pytest.raises(WordSyntaxError):
            parse_word("x", 2)
        with pytest.raises(WordSyntaxError):
            parse_word("x01", 2)

    def test_index_out_of_range(self):
        with pytest.raises(WordSyntaxError):
            parse_word("x3", 2)

    def test_zero_exponent(self):
        with pytest.raises(WordSyntaxError):
            parse_word("x1^0", 2)

    def test_bad_exponent(self):
        with pytest.raises(WordSyntaxError):
            parse_word("x1^a", 2)

    def test_str_round_trip(self):
        for text in ["x1 x2 x1^-1 x2^-1", "x1^3 x2^-2", "", "x2"]:
            word = parse_word(text, 2)
            assert parse_word(str(word), 2) == word


class TestFreeReduce:
    def test_nested_cancellation(self):
        assert free_reduce([(1, 1), (2, 1), (2, -1), (1, -1)]) == ()

    def test_already_reduced(self):
        letters = (Letter(1, 1), Letter(2, 1))
        assert free_reduce(letters) == letters

    def test_single_cancellation(self):
        assert free_reduce([(1, 1), (1, 1), (1, -1)]) == (Letter(1, 1),)

    @given(letters_st(3))
    def test_idempotent(self, letters):
        once = free_reduce(letters)
        assert free_reduce(once) == once

    @given(letters_st(3))
    def test_no_adjacent_cancelling_pair(self, letters):
        reduced = free_reduce(letters)
        for left, right in zip(reduced, reduced[1:]):
            assert not (left.axis == right.axis and left.sign == -right.sign)


class TestGroupOps:
    def test_concat_cancels(self):
        assert (parse_word("x1", 2) * parse_word("x1^-1", 2)).is_identity()

    def test_concat_partial_cancel(self):
        assert parse_word("x1 x2", 3) * parse_word("x2^-1 x3", 3) == parse_word("x1 x3", 3)

    def test_identity_law(self):
        word = parse_word("x1 x2^2", 2)
        assert Word.identity(2) * word == word
        assert word * Word.identity(2) == word

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatchError):
            parse_word("x1", 2) * parse_word("x1", 3)

    def test_invert_examples(self):
        assert ~parse_word("x1 x2", 2) == parse_word("x2^-1 x1^-1", 2)
        assert (~Word.identity(2)).is_identity()
        assert ~parse_word("x1^-1", 2) == parse_word("x1", 2)

    def test_pow(self):
        word = parse_word("x1 x2", 2)
        assert word**3 == word * word * word
        assert word**-2 == ~word * ~word
        assert (word**0).is_identity()

    @given(words_st(2), words_st(2), words_st(2))
    def test_associative(self, u, v, s):
        assert (u * v) * s == u * (v * s)

    @given(words_st(3))
    def test_inverse_law(self, word):
        assert (word * ~word).is_identity()
        assert (~word * word).is_identity()

    @given(words_st(2), words_st(2))
    def test_commutator_is_loop_material(self, u, v):
        c = commutator(u, v)
        assert (c * ~c).is_identity()


def test_parse_letters_named_alphabet():
    letters = parse_letters("x y^-2 z", ("x", "y", "z"))
    assert letters == (Letter(1, 1), Letter(2, -1), Letter(2, -1), Letter(3, 1))
    with pytest.raises(WordSyntaxError):
        parse_letters("w", ("x", "y", "z"))


# kind -> (seeded random element, identity of the element's group). Satellite
# elements share one level so that any two of them multiply.
ELEMENTS = {
    "word": (lambda rng: random_word(rng, 3, 8), lambda g: Word.identity(g.d)),
    "metabelian": (
        lambda rng: MetabelianElement.from_word(random_word(rng, 3, 8)),
        lambda g: MetabelianElement.identity(g.d),
    ),
    "heisenberg": (
        lambda rng: HeisenbergElement.from_word(random_word(rng, 3, 8)),
        lambda g: HeisenbergElement.identity(g.d),
    ),
    "satellite": (
        lambda rng: satellite.from_word(random_letters(rng, 3, rng.randint(0, 8)), 3),
        lambda g: SatelliteElement.identity(g.k),
    ),
}


@pytest.mark.parametrize("kind", list(ELEMENTS))
class TestGroupElementProtocol:
    def test_power_is_repeated_product(self, kind):
        make, identity = ELEMENTS[kind]
        rng = random.Random(f"pow-{kind}")
        for _ in range(15):
            g = make(rng)
            for n in range(-6, 7):
                expected = identity(g)
                for _ in range(abs(n)):
                    expected = expected * (g if n > 0 else g.inverse())
                assert g**n == expected

    def test_conjugated_by(self, kind):
        make, _ = ELEMENTS[kind]
        rng = random.Random(f"conj-{kind}")
        for _ in range(15):
            g, h = make(rng), make(rng)
            assert g.conjugated_by(h) == h * g * h.inverse()

    def test_commutator(self, kind):
        make, _ = ELEMENTS[kind]
        rng = random.Random(f"comm-{kind}")
        for _ in range(15):
            a, b = make(rng), make(rng)
            assert commutator(a, b) == a * b * a.inverse() * b.inverse()
