import random
import re
import sys
from types import MappingProxyType

import pytest
from hypothesis import example, given, settings, strategies as st

from latticegroups import (
    EdgeFlow,
    HeisenbergElement,
    InputTooLargeError,
    Letter,
    MetabelianElement,
    RankMismatchError,
    Word,
    WordSyntaxError,
    commutator,
    evaluate_path,
    free_reduce,
    parse_named_word,
    parse_word,
    parse_letters,
    satellite,
)
from latticegroups import words
from latticegroups.satellite import SatelliteElement

from helpers import random_letters, random_word, run_length_text


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
        # Total cancellation at the junction, of one or both operands.
        for left, right in (
            ("x1 x2^-1 x3^2", "x3^-2 x2 x1^-1"),
            ("x1 x2", "x2^-1 x1^-1 x3^-1 x2"),
            ("x3^-1 x2 x1", "x1^-1 x2^-1"),
        ):
            u, v = parse_word(left, 3), parse_word(right, 3)
            assert u * v == Word(u.letters + v.letters, 3)

    def test_concat_partial_cancel(self):
        assert parse_word("x1 x2", 3) * parse_word("x2^-1 x3", 3) == parse_word("x1 x3", 3)
        for left, right in (
            ("x1 x2 x3", "x3^-1 x2^-1 x1"),
            ("x1^2 x2^-1", "x2 x1^-1 x3"),  # stops inside a run
            ("x1", "x2^-1"),  # nothing cancels
        ):
            u, v = parse_word(left, 3), parse_word(right, 3)
            assert u * v == Word(u.letters + v.letters, 3)

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


def _shared_prefix_pairs(rng):
    """Reduced words u, v that share a prefix of up to 3000 letters, over up
    to 40 generators."""
    for _ in range(40):
        d = rng.choice((1, 2, 3, 40))
        prefix = random_letters(rng, d, rng.choice((0, 1, 5, 3000)))
        u = prefix + random_letters(rng, d, rng.randint(0, 6))
        v = prefix + random_letters(rng, d, rng.randint(0, 6))
        yield Word(u, d), Word(v, d)


def test_product_and_inverse_match_free_reduction():
    # * counts the junction and ~ maps the letters through per-call tables;
    # free_reduce of the concatenated letters is the reference for both.
    for u, v in _shared_prefix_pairs(random.Random(61)):
        inverse = [letter.inverse() for letter in reversed(u.letters)]
        assert (~u).letters == tuple(inverse)
        assert (~u * v).letters == free_reduce(inverse + list(v.letters))
        assert (u * v).letters == free_reduce(u.letters + v.letters)
        assert all(type(letter) is Letter for letter in (~u * v).letters + (~u).letters)


def test_equal_images_folds_the_quotient():
    folded = []

    def fold(word):
        folded.append(word)
        return evaluate_path(word).endpoint

    for u, v in _shared_prefix_pairs(random.Random(62)):
        folded.clear()
        same = evaluate_path(u).endpoint == evaluate_path(v).endpoint
        assert words.equal_images(fold, u, v) == same
        assert folded == [~u * v, Word.identity(u.d)]
    with pytest.raises(RankMismatchError):
        words.equal_images(fold, Word.identity(2), Word.identity(3))


def _equal_images_edge_pairs():
    # A reduced prefix of 10^4 letters that ends in x3, so that none of the
    # tails below cancels into it.
    rng = random.Random(63)
    shared = [Letter(3, 1)]
    while len(shared) < 10_000:
        letter = Letter(rng.randint(1, 3), rng.choice((1, -1)))
        if letter != shared[-1].inverse():
            shared.append(letter)
    shared.reverse()
    tail = [Letter(1, 1), Letter(2, -1)]
    for u, v, d in (
        ([], [], 2),
        (tail, tail, 2),
        (shared, shared, 3),
        (tail[:1], tail, 2),  # u a proper prefix of v
        (tail, tail[:1], 2),  # v a proper prefix of u
        ([], tail, 2),
        (tail, [], 2),
        ([Letter(1, 1), Letter(2, 1)], [Letter(1, -1), Letter(2, 1)], 2),  # first letters inverse
        ([Letter(2, 1)], [Letter(1, 1), Letter(2, 1)], 2),  # first letters on other axes
        (shared + tail, shared + [Letter(3, 1)], 3),
        (shared + tail, shared, 3),
        (shared, shared + tail, 3),
    ):
        assert len(Word(u, d)) == len(u) and len(Word(v, d)) == len(v)
        yield Word(u, d), Word(v, d)


@pytest.mark.parametrize("u, v", list(_equal_images_edge_pairs()))
def test_equal_images_at_the_edges(u, v):
    # The quotient is joined from the tails past the shared prefix: it must
    # be the reduced ~u * v, made of Letters, whatever the prefix's length.
    folded = []

    def fold(word):
        folded.append(word)
        return evaluate_path(word)

    assert words.equal_images(fold, u, v) == (evaluate_path(u) == evaluate_path(v))
    quotient, empty = folded
    assert quotient == ~u * v and empty == Word.identity(u.d)
    assert quotient.letters == free_reduce([*(~u).letters, *v.letters])
    assert all(type(letter) is Letter for letter in quotient.letters)


@pytest.mark.parametrize("du, dv", [(2, 3), (3, 2), (1, 40)])
def test_equal_images_refuses_other_ranks_as_the_product_does(du, dv):
    u, v = Word([(1, 1)], du), Word([(1, 1)], dv)
    with pytest.raises(RankMismatchError) as product:
        ~u * v
    with pytest.raises(RankMismatchError) as images:
        words.equal_images(evaluate_path, u, v)
    assert str(images.value) == str(product.value) == f"cannot concatenate ranks {du} and {dv}"


def test_parse_letters_named_alphabet():
    letters = parse_letters("x y^-2 z", ("x", "y", "z"))
    assert letters == (Letter(1, 1), Letter(2, -1), Letter(2, -1), Letter(3, 1))
    with pytest.raises(WordSyntaxError):
        parse_letters("w", ("x", "y", "z"))


# --- the parsers as first written: the reference for the token table ---------


def _reference_tokens(text):
    return text.replace(".", " ").split()


def _reference_int(text):
    """``int(text)`` with no limit on its digits: CPython 3.10.7 and later
    refuse more than 4300 by default."""
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        return int(text)
    limit = sys.get_int_max_str_digits()
    set_limit(0)
    try:
        return int(text)
    finally:
        set_limit(limit)


def _reference_split_exponent(token):
    name, caret, tail = token.partition("^")
    if not caret:
        return token, 1
    if not re.fullmatch(r"[+-]?\d+", tail):
        raise WordSyntaxError(f"bad exponent in token {token!r}")
    exponent = _reference_int(tail)
    if exponent == 0:
        raise WordSyntaxError(f"zero exponent in token {token!r}")
    return name, exponent


def _reference_check_length(expanded, exponent):
    if expanded + abs(exponent) > words.MAX_LETTERS:
        raise InputTooLargeError(f"word expands to more than {words.MAX_LETTERS} letters")


def reference_parse_word(text, d):
    """Expand every token afresh, then reduce through the public Word."""
    letters = []
    for token in _reference_tokens(text):
        name, exponent = _reference_split_exponent(token)
        _reference_check_length(len(letters), exponent)
        match = re.fullmatch(r"x([1-9]\d*)", name)
        if match is None:
            raise WordSyntaxError(f"bad token {token!r}")
        axis = int(match.group(1))
        if axis > d:
            raise WordSyntaxError(f"generator index {axis} out of range 1..{d}")
        sign = 1 if exponent > 0 else -1
        letters.extend(Letter(axis, sign) for _ in range(abs(exponent)))
    return Word(letters, d)


def reference_parse_letters(text, alphabet):
    positions = {name: index + 1 for index, name in enumerate(alphabet)}
    letters = []
    for token in _reference_tokens(text):
        name, exponent = _reference_split_exponent(token)
        _reference_check_length(len(letters), exponent)
        axis = positions.get(name)
        if axis is None:
            raise WordSyntaxError(f"unknown generator {name!r}; expected one of {tuple(alphabet)}")
        sign = 1 if exponent > 0 else -1
        letters.extend(Letter(axis, sign) for _ in range(abs(exponent)))
    return tuple(letters)


def _outcome(parse, *args):
    """The parser's result, or the type and message of what it raised."""
    try:
        return "ok", parse(*args)
    except ValueError as error:
        return type(error), str(error)


_EXPONENTS = (
    "", "", "", "^2", "^-1", "^-3", "^+2", "^+1", "^-0", "^0", "^+0", "^\u0663", "^-\u0663",
    "^12", "^a", "^", "^1^2", "^--1", "^ 2", "^99999999999",
    # Past int()'s default limit of 4300 digits, leading zeros (also
    # non-ASCII ones) included.
    "^" + "9" * 5000, "^-" + "9" * 4301, "^" + "0" * 4400 + "3", "^" + "0" * 5000,
    "^-" + "\u0660" * 4400 + "2",
)
# Unicode spaces and the separators str.split() reads beside '.'.
_SEPARATORS = (" ", " ", ".", " . ", "..", "\t", "\n", "\u3000", "\u2003", "\x1c", "\x85")


def _token_text(names):
    """Word text drawn from a small pool of tokens, so most tokens repeat."""
    token = st.tuples(st.sampled_from(names), st.sampled_from(_EXPONENTS)).map("".join)
    return st.lists(token, min_size=1, max_size=4).flatmap(
        lambda pool: st.lists(
            st.tuples(st.sampled_from(pool), st.sampled_from(_SEPARATORS)), max_size=30
        )
    ).map(lambda parts: "".join(token + sep for token, sep in parts))


_LIMITS = st.sampled_from((10**6, 0, 1, 3, 8, 20))
_INDEXED = ("x1", "x2", "x3", "x4", "x5", "x1", "x2", "x", "y1", "x01", "x0", "x1\u0663", "X1")


@settings(max_examples=300, deadline=None)
@given(_token_text(_INDEXED), st.integers(-1, 4), _LIMITS)
@example("x1", 0, 10**6)
@example("", 0, 10**6)
@example("x1^2 x1^2 x1^2", 2, 5)
@example("x1^" + "0" * 4400 + "3 x5^" + "9" * 5000, 4, 3)
def test_parse_word_matches_reference(text, d, limit):
    # Read three times: with empty tables, then with the token table the
    # first read left, then from the word table the second read left.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(words, "MAX_LETTERS", limit)
        expected = _outcome(reference_parse_word, text, d)
        _clear_tables()
        assert _outcome(parse_word, text, d) == expected
        words._WORDS.clear()
        assert _outcome(parse_word, text, d) == expected
        assert ((text, d, limit) in words._WORDS) == (expected[0] == "ok")
        assert _outcome(parse_word, text, d) == expected


@settings(max_examples=300, deadline=None)
@given(_token_text(("x", "y", "z", "x", "y", "w", "xy", "x1", "")), _LIMITS)
@example("x^2 y^-2 x x", 5)
@example("x^-" + "0" * 5000 + " w", 5)
def test_parse_letters_matches_reference(text, limit):
    alphabet = ("x", "y", "z")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(words, "MAX_LETTERS", limit)
        expected = _outcome(reference_parse_letters, text, alphabet)
        _clear_tables()
        assert _outcome(parse_letters, text, alphabet) == expected
        assert _outcome(parse_letters, text, alphabet) == expected
        # The reduced word of the same letters: with the token table warm,
        # then from the word table.
        reduced = ("ok", Word(expected[1], 3)) if expected[0] == "ok" else expected
        assert _outcome(parse_named_word, text, alphabet) == reduced
        assert ((text, alphabet, limit) in words._WORDS) == (expected[0] == "ok")
        assert _outcome(parse_named_word, text, alphabet) == reduced


def _clear_tables():
    words._TOKENS.clear()
    words._WORDS.clear()


# --- the token and word tables: keyed on all a read depends on, and bounded ---

# Texts whose tokens read differently, or not at all, under another rank,
# alphabet or letter limit: x3 is past rank 2, y is the first name of the
# second alphabet, and under a limit of 3 an exponent of two digits or more
# reads as 4, which a later read under a larger limit must not reuse. A word
# of 41 letters is read under 10^6 but refused under 30.
_TABLE_TEXTS = (
    "x1 x2^-1 x3^2", "x3^-1 x1", "x1^12 x2", "x2^0012 x1^3", "x1^-" + "0" * 40 + "7", "x1^40 x2^-1"
)
_TABLE_NAMED = ("x y^-1 z^2", "y^12 x", "x^0012 w", "z^-3 y", "x^40 y^-1")
_TABLE_READS = (
    [
        (parse_word, text, d, limit)
        for limit in (3, 10**6, 30)
        for d in (2, 3, 2)
        for text in _TABLE_TEXTS
    ]
    + [
        (parse_letters, text, alphabet, limit)
        for limit in (3, 10**6, 30)
        for alphabet in (("x", "y", "z"), ("y", "x", "z"), ["x", "y", "z"])
        for text in _TABLE_NAMED
    ]
)


def test_token_table_read_matches_cold_read():
    def read(parse, text, grammar, limit):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(words, "MAX_LETTERS", limit)
            return _outcome(parse, text, grammar)

    cold = []
    for parse, text, grammar, limit in _TABLE_READS:
        words._TOKENS.clear()
        cold.append(read(parse, text, grammar, limit))
    words._TOKENS.clear()
    warm = [read(*args) for args in _TABLE_READS]
    assert warm == cold


def test_token_table_is_bounded():
    _clear_tables()
    for n in range(1, words._TOKEN_CAP + 100):
        assert len(parse_word(f"x1^{n} x2", 2)) == n + 1
        assert 0 < len(words._TOKENS) <= words._TOKEN_CAP
    # A token longer than the stored length is read, but never stored.
    long = "x1^" + "0" * 10**4 + "3"
    assert len(parse_word(f"{long} x2", 2)) == 4
    assert len(parse_letters("x^" + "0" * 10**4 + "3", ("x",))) == 3
    assert all(len(key[0]) <= words._TOKEN_TEXT_MAX for key in words._TOKENS)


def _read(parse, text, grammar, limit):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(words, "MAX_LETTERS", limit)
        return _outcome(parse, text, grammar)


# Each text of _TABLE_READS under every grammar and limit, the reads of one
# text in a row: a word table keyed without the grammar or the limit answers
# one of them with the word another read stored.
_WORD_READS = sorted(
    [(parse_named_word if parse is parse_letters else parse, *read) for parse, *read in _TABLE_READS],
    key=lambda read: (read[0].__name__, read[1]),
)


def test_word_table_read_matches_cold_read():
    cold = []
    for read in _WORD_READS:
        _clear_tables()
        cold.append(_read(*read))
    warm = []
    for at, read in enumerate(_WORD_READS):
        if at == 0 or read[:2] != _WORD_READS[at - 1][:2]:
            _clear_tables()
        warm.append(_read(*read))
    assert warm == cold
    assert words._WORDS


def test_failed_word_reads_are_not_stored():
    _clear_tables()
    failing = [
        (parse_word, "x1 x3", 2, 10**6),
        (parse_word, "x1^3 x2", 2, 3),
        (parse_word, "x1 x2^a", 2, 10**6),
        (parse_word, " . ", 0, 10**6),
        (parse_named_word, "x w", ("x", "y"), 10**6),
        (parse_named_word, "", (), 10**6),
    ]
    for read in failing:
        first = _read(*read)
        assert first[0] != "ok"
        assert _read(*read) == first
    assert words._WORDS == {}


def test_word_table_is_bounded():
    _clear_tables()
    for n in range(1, words._WORD_CAP + 10):
        assert len(parse_word(f"x1^{n} x2", 2)) == n + 1
        assert 0 < len(words._WORDS) <= words._WORD_CAP
    # A read whose text and letters reach the stored size is answered, but
    # never stored: a long text, or a short text of many letters.
    _clear_tables()
    size = words._WORD_SIZE_MAX
    just_under = "x1 " * (size // 4 - 1)
    assert len(just_under) + len(parse_word(just_under, 2)) < size
    long_text = "x1 x1^-1 " * (size // 9 + 1)
    assert parse_word(long_text, 2).is_identity()
    assert len(parse_word(f"x1^{size}", 1)) == size
    assert len(parse_named_word(f"x^{size - 8}", ("x",))) == size - 8
    assert list(words._WORDS) == [(just_under, 2, words.MAX_LETTERS)]


# --- free_reduce against the stack loop as first written ----------------------


def reference_free_reduce(letters):
    """One (axis, -sign) tuple per comparison, Letters pushed as they come."""
    stack = []
    for letter in letters:
        axis, sign = letter
        if stack and stack[-1] == (axis, -sign):
            stack.pop()
        else:
            stack.append(letter if type(letter) is Letter else Letter(axis, sign))
    return tuple(stack)


# Axis 0 and signs 0 and +-2 are outside what a Word accepts, but free_reduce
# takes any pairs: a sign-0 letter cancels its own copy, 2 cancels -2.
_PAIRS = st.tuples(st.integers(0, 3), st.sampled_from((1, -1, 1, -1, 0, 2, -2)))
_CONTAINERS = {"list": list, "tuple": tuple, "generator": lambda items: (item for item in items)}


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.one_of(_PAIRS, _PAIRS.map(lambda pair: Letter(*pair))), max_size=40),
    st.sampled_from(sorted(_CONTAINERS)),
)
def test_free_reduce_matches_reference(letters, container):
    reduced = free_reduce(_CONTAINERS[container](letters))
    assert reduced == reference_free_reduce(letters)
    assert all(type(letter) is Letter for letter in reduced)


def test_free_reduce_many_distinct_letters():
    # Hundreds of distinct letters, and a cancellation nested 15000 deep.
    rng = random.Random(11)
    letters = [(rng.randint(1, 400), rng.choice((1, -1))) for _ in range(20000)]
    letters += [(axis, -sign) for axis, sign in reversed(letters[5000:])]
    reduced = free_reduce(letters)
    assert reduced == reference_free_reduce(letters) == reference_free_reduce(letters[:5000])


# --- word intake at scale: many repeated tokens, errors at either end ---------

_SCALE_TOKENS = 20000
_SCALE_UNIT = ("", "^-1")
_SCALE_EXPONENTS = _SCALE_UNIT + ("^2", "^-3", "^+1", "^4", "^-1")


def _scale_tokens(seed, exponents):
    rng = random.Random(seed)
    return [rng.choice(("x1", "x2", "x3")) + rng.choice(exponents) for _ in range(_SCALE_TOKENS)]


def _join(tokens, seed, dots):
    if not dots:
        return " ".join(tokens)
    rng = random.Random(seed)
    return "".join(token + rng.choice((".", " ", " . ", "..", "\t")) for token in tokens)


def _expanded_length(tokens):
    return sum(abs(int(token.partition("^")[2] or 1)) for token in tokens)


def _assert_both_parsers_match(text, limit):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(words, "MAX_LETTERS", limit)
        assert _outcome(parse_word, text, 3) == _outcome(reference_parse_word, text, 3)
        named = text.replace("x1", "x").replace("x2", "y").replace("x3", "z")
        alphabet = ("x", "y", "z")
        assert _outcome(parse_letters, named, alphabet) == _outcome(
            reference_parse_letters, named, alphabet
        )


@pytest.mark.parametrize("shape", ["unit", "exponents", "dots"])
@pytest.mark.parametrize("slack", [None, 0, -1])
def test_intake_at_scale_matches_reference(shape, slack):
    tokens = _scale_tokens(21, _SCALE_UNIT if shape == "unit" else _SCALE_EXPONENTS)
    exact = _expanded_length(tokens)
    limit = 10**6 if slack is None else exact + slack
    _assert_both_parsers_match(_join(tokens, 22, shape == "dots"), limit)


# The limit is the length of the word without the bad token, or one less.
# An axis error (x4; x4 is also unknown to parse_letters) comes after its
# own token's length check, an exponent error (x2^a, x2^0) before it.
@pytest.mark.parametrize("bad", ["x4", "x2^a", "x2^0"])
@pytest.mark.parametrize("where", ["start", "middle", "end"])
@pytest.mark.parametrize("slack", [0, -1])
def test_intake_error_at_scale_matches_reference(bad, where, slack):
    tokens = _scale_tokens(23, _SCALE_EXPONENTS)
    limit = _expanded_length(tokens) + slack
    tokens.insert({"start": 0, "middle": len(tokens) // 2, "end": len(tokens)}[where], bad)
    _assert_both_parsers_match(_join(tokens, 24, where == "middle"), limit)


def test_rank_messages_at_nonpositive_rank():
    for d in (0, -1):
        with pytest.raises(WordSyntaxError, match=f"generator index 1 out of range 1..{d}"):
            parse_word("x1", d)
        with pytest.raises(ValueError, match=f"rank must be positive, got {d}"):
            parse_word(" . ", d)


def test_public_word_keeps_its_checks():
    with pytest.raises(WordSyntaxError, match="generator index 3 out of range 1..2"):
        Word([(3, 1)], 2)
    with pytest.raises(ValueError, match="letter sign must be"):
        Word([(1, 2)], 2)
    # Letters that cancel are checked too, and the first bad one is reported.
    with pytest.raises(WordSyntaxError, match="generator index 5 out of range 1..2"):
        Word([(5, 1), (5, -1)], 2)
    with pytest.raises(ValueError, match="letter sign must be \\+1 or -1, got 2"):
        Word([(1, 2), (1, -2)], 2)
    with pytest.raises(ValueError, match="got 0"):
        Word([(1, 1), (1, 0), (7, 1), (1, -1)], 2)
    with pytest.raises(ValueError, match="rank must be positive"):
        Word((), 0)


def test_free_reduce_returns_letters():
    reduced = free_reduce([(1, 1), Letter(2, -1), (3, 1), (3, -1)])
    assert reduced == (Letter(1, 1), Letter(2, -1))
    assert all(type(letter) is Letter for letter in reduced)


def test_str_groups_runs():
    word = parse_word("x1^3 x2^-2 x1 x3 x3 x2^-1", 3)
    assert str(word) == "x1^3 x2^-2 x1 x3^2 x2^-1"
    assert str(Word.identity(2)) == ""


@st.composite
def run_words(draw):
    """Words of runs of up to 5 equal letters, in rank 1 to 4."""
    d = draw(st.integers(1, 4))
    runs = draw(st.lists(st.tuples(st.integers(1, d), st.sampled_from((1, -1)), st.integers(1, 5))))
    return Word([Letter(axis, sign) for axis, sign, length in runs for _ in range(length)], d)


@given(run_words())
@example(Word.identity(1))
@example(Word.identity(4))
def test_str_matches_run_length_reference(word):
    assert str(word) == run_length_text(word.letters)


class TestLetterLimit:
    def test_huge_exponent_refused_before_expansion(self):
        with pytest.raises(InputTooLargeError):
            parse_word("x1^99999999999", 1)
        with pytest.raises(InputTooLargeError):
            parse_letters("z^-99999999999", ("x", "y", "z"))

    def test_running_total_counts(self, monkeypatch):
        monkeypatch.setattr(words, "MAX_LETTERS", 5)
        assert len(parse_word("x1^4 x2^-1", 2)) == 5
        assert len(parse_letters("x^2 y^-2 x", ("x", "y"))) == 5
        with pytest.raises(InputTooLargeError):
            parse_word("x1^4 x2^-2", 2)
        with pytest.raises(InputTooLargeError):
            parse_letters("x^2 y^-2 x x", ("x", "y"))


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


# kind -> builds (the checked constructor's value, the same value's fields in slot order)
_UNIT_SQUARE = [(((0, 0), 1), 1), (((1, 0), 2), 1), (((0, 1), 1), -1), (((0, 0), 2), -1)]
VALUES = {
    "word": lambda: (Word([(1, 1), (2, -1), (2, 1), (3, 1)], 3), ((Letter(1, 1), Letter(3, 1)), 3)),
    "metabelian": lambda: (
        MetabelianElement((1, 0), EdgeFlow(2, [(((0, 0), 1), 1)])),
        ((1, 0), EdgeFlow(2, [(((0, 0), 1), 1)])),
    ),
    "heisenberg": lambda: (
        HeisenbergElement((1, 2, 0), MappingProxyType({(1, 2): 3, (1, 3): 0})),
        ((1, 2, 0), {(1, 2): 3}),
    ),
    "satellite": lambda: (
        SatelliteElement(3, (1, 0), EdgeFlow(2, _UNIT_SQUARE)),
        (3, (1, 0), EdgeFlow(2, _UNIT_SQUARE)),
    ),
}


@pytest.mark.parametrize("kind", list(VALUES))
def test_elements_are_values(kind):
    checked, fields = VALUES[kind]()
    cls = type(checked)
    trusted = cls._of(*fields)
    assert trusted == checked and not trusted != checked
    assert [getattr(trusted, name) for name in cls.__slots__] == list(fields)
    assert cls._fields == cls.__slots__

    # Equal fields under another type, or as a plain tuple, are a different value.
    twin = type("Twin", (words.GroupElement,), {"__slots__": cls.__slots__})
    others = [twin._of(*fields), fields]
    for build in VALUES.values():
        other_cls = type(build()[0])
        if other_cls is not cls and len(other_cls.__slots__) == len(fields):
            others.append(other_cls._of(*fields))
    for other in others:
        assert trusted != other and other != trusted

    # A subclass keeps its base's fields, after them any of its own.
    plain = type("Plain", (cls,), {"__slots__": ()})
    extended = type("Extended", (cls,), {"__slots__": "extra"})
    assert plain._fields == cls._fields
    assert extended._fields == (*cls._fields, "extra")
    assert plain._of(*fields) == plain._of(*fields) != trusted
    for index, field in enumerate(fields):
        changed = list(fields)
        changed[index] = object()
        assert plain._of(*changed) != plain._of(*fields), field
    assert extended._of(*fields, 1) == extended._of(*fields, 1) != extended._of(*fields, 2)
    # A weak-reference slot is not a field.
    weak = type("Weak", (cls,), {"__slots__": ("__weakref__",)})
    assert weak._fields == cls._fields and weak._of(*fields) == weak._of(*fields)

    if cls is Word:
        assert hash(trusted) == hash(checked)
    else:
        with pytest.raises(TypeError):
            hash(trusted)
