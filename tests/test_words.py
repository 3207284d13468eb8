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
    parse_word,
    parse_letters,
    satellite,
)
from latticegroups import words
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
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(words, "MAX_LETTERS", limit)
        assert _outcome(parse_word, text, d) == _outcome(reference_parse_word, text, d)


@settings(max_examples=300, deadline=None)
@given(_token_text(("x", "y", "z", "x", "y", "w", "xy", "x1", "")), _LIMITS)
@example("x^2 y^-2 x x", 5)
@example("x^-" + "0" * 5000 + " w", 5)
def test_parse_letters_matches_reference(text, limit):
    alphabet = ("x", "y", "z")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(words, "MAX_LETTERS", limit)
        assert _outcome(parse_letters, text, alphabet) == _outcome(
            reference_parse_letters, text, alphabet
        )


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
