"""Freely reduced words over a fixed finite set of generators."""

from __future__ import annotations

import re
from itertools import compress, count, repeat
from operator import ne, sub
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence


class WordSyntaxError(ValueError):
    """Word text that does not match the grammar, or a bad generator index."""


class RankMismatchError(ValueError):
    """Operands that live over different generator ranks."""


# Longest word, after exponent expansion, that the parsers accept. Exponents
# are expanded eagerly, so this bounds the time and memory of one input.
MAX_LETTERS = 10**6


class InputTooLargeError(ValueError):
    """Input whose expansion would exceed MAX_LETTERS letters or unit steps."""


class Letter(NamedTuple):
    """One signed generator: ``axis`` in 1..d, ``sign`` +1 or -1."""

    axis: int
    sign: int

    def inverse(self) -> "Letter":
        return _new(Letter, (self.axis, -self.sign))


_new = tuple.__new__  # _new(Letter, (axis, sign)) skips the named tuple's Python-level __new__


def free_reduce(letters: Iterable, table: dict[Letter, int] | None = None) -> tuple[Letter, ...]:
    """Cancel adjacent inverse pairs until none remain.

    A single left-to-right pass with a stack performs every cancellation,
    including nested ones, and yields the unique reduced form. The stack
    holds small ints, not letters: ``table`` maps each distinct letter of
    this call to its index, in order of first appearance. ``letters`` are
    Letters or (axis, sign) pairs; a caller that already has the table, as
    the parsers do, passes it with ``letters`` given as the indices.
    """
    if table is None:
        table = {}
        letters = [table.setdefault(letter, len(table)) for letter in letters]
        # Plain tuples become Letters once per distinct value.
        table = {_new(Letter, (axis, sign)): code for (axis, sign), code in table.items()}
    distinct = list(table)
    # -1 marks a letter whose inverse is not in the table, and -2 is the
    # bottom of the stack: neither is ever a letter's inverse.
    inverse = [table.get((axis, -sign), -1) for axis, sign in distinct]
    stack: list[int] = []  # the codes below ``top``
    push, pop = stack.append, stack.pop
    top = -2
    for code in letters:
        if inverse[code] == top:
            top = pop()
        else:
            push(top)
            top = code
    push(top)
    del stack[0]
    # Through a list: tuple() of a map, which has no length hint, grows by
    # resizing, and that raised batch_small's peak RSS by about 0.9 MB.
    return tuple(list(map(distinct.__getitem__, stack)))


class GroupElement:
    """An immutable group element, and the operations it derives from its
    ``*`` and ``inverse()``.

    A concrete element type's fields are the ``__slots__`` of its classes,
    the base's first, collected once when the class is created. Two elements
    are equal when they have the same concrete type and equal fields, and
    ``_of`` builds one from its fields without a check. Elements are not
    hashable unless their type defines ``__hash__``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = []
        for klass in reversed(cls.__mro__):
            slots = vars(klass).get("__slots__", ())
            names = (slots,) if isinstance(slots, str) else slots
            fields += [name for name in names if name not in ("__dict__", "__weakref__")]
        cls._fields = tuple(fields)

    @classmethod
    def _of(cls, *fields):
        """Trusted constructor for results that are valid by construction:
        adopts ``fields`` in ``_fields`` order, without a copy or a check.
        Each type's docstring says what its fields must satisfy."""
        elem = object.__new__(cls)
        for name, value in zip(cls._fields, fields):
            setattr(elem, name, value)
        return elem

    def __eq__(self, other: object) -> bool:
        # A loop, not all() of a generator, which would triple its cost.
        if type(other) is not type(self):
            return False
        for name in self._fields:
            if getattr(self, name) != getattr(other, name):
                return False
        return True

    def __pow__(self, n: int):
        """``g ** n`` by repeated squaring; ``g ** 0`` is ``g * g.inverse()``."""
        base = self if n >= 0 else self.inverse()
        result = self * self.inverse()
        n = abs(n)
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def conjugated_by(self, g):
        return g * self * g.inverse()


def _checked_letters(letters: Iterable, d: int) -> tuple:
    """The letters as a tuple, once each distinct one has passed the letter
    check, in order of first appearance: its axis must be in 1..d and its
    sign +1 or -1. So the first bad letter is the one reported. A Word of
    rank at most d was checked when it was made: its letters are returned
    as they are."""
    if isinstance(letters, Word) and letters.d <= d:
        return letters.letters
    letters = tuple(letters)
    for axis, sign in dict.fromkeys(letters):
        if not 1 <= axis <= d:
            raise WordSyntaxError(f"generator index {axis} out of range 1..{d}")
        if sign not in (1, -1):
            raise ValueError(f"letter sign must be +1 or -1, got {sign}")
    return letters


class _LetterTable(dict):
    """A table from each letter met to ``fill(letter)``, filled on first use:
    one per call, so mapping a word through ``__getitem__`` runs in C and
    calls ``fill`` once per distinct letter."""

    __slots__ = ("fill",)

    def __init__(self, fill: Callable[[Letter], object]):
        self.fill = fill

    def __missing__(self, letter):
        self[letter] = value = self.fill(letter)
        return value


def _letter_text(letter: Letter) -> str:
    """``x2`` or ``x2^-1``."""
    axis, sign = letter
    return f"x{axis}" if sign > 0 else f"x{axis}^-1"


def commutator(a, b):
    """``[a, b] = a b a^-1 b^-1`` for any two group elements of one group."""
    return a * b * a.inverse() * b.inverse()


class Word(GroupElement):
    """A freely reduced word over generators ``x1 .. xd``.

    Instances are immutable values; the constructor reduces its input, so
    every Word is a normal form in the free group of rank ``d``. Trusted
    input: ``letters`` is a freely reduced tuple of Letters on axes 1..d,
    and ``d`` is positive.
    """

    __slots__ = ("letters", "d")

    def __init__(self, letters: Iterable[Letter | tuple[int, int]], d: int):
        if d < 1:
            raise ValueError(f"rank must be positive, got {d}")
        # Every input letter is checked, letters that cancel too.
        self.letters = free_reduce(_checked_letters(letters, d))
        self.d = d

    @classmethod
    def identity(cls, d: int) -> "Word":
        return cls((), d)

    def is_identity(self) -> bool:
        return not self.letters

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        if self.d != other.d:
            raise RankMismatchError(f"cannot concatenate ranks {self.d} and {other.d}")
        # Both operands are reduced, so letters cancel only at the junction:
        # as far as the right letters invert the left ones read backwards.
        # Most products cancel none; otherwise the first pair that does not
        # cancel is found in C.
        left, right = self.letters, other.letters
        if left and right and left[-1] == (right[0][0], -right[0][1]):
            inverse = _LetterTable(Letter.inverse).__getitem__
            mismatches = compress(count(), map(ne, reversed(left), map(inverse, right)))
            cancelled = next(mismatches, min(len(left), len(right)))
            left, right = left[: len(left) - cancelled], right[cancelled:]
        return Word._of(left + right, self.d)

    def __invert__(self) -> "Word":
        # The inverse of a reduced word is reduced. Through a list, as in
        # free_reduce: tuple() of a map grows by resizing.
        inverse = _LetterTable(Letter.inverse).__getitem__
        return Word._of(tuple(list(map(inverse, reversed(self.letters)))), self.d)

    def inverse(self) -> "Word":
        return ~self

    def __hash__(self) -> int:
        return hash((self.letters, self.d))

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __str__(self) -> str:
        letters = self.letters
        if not letters:
            return ""
        # A run starts at 0 and wherever a letter differs from the one before
        # it: found in C, as is each run's first letter. Every run is written
        # as its first letter; then only the runs longer than one letter are
        # rewritten, with one text per distinct (letter, length).
        tail = letters[1:]
        differs = list(map(ne, tail, letters))
        starts = [0, *compress(count(1), differs), len(letters)]
        firsts = [letters[0], *compress(tail, differs)]
        parts = list(map(_LetterTable(_letter_text).__getitem__, firsts))
        runs: dict[tuple[Letter, int], str] = {}
        for at in compress(count(), map(ne, map(sub, starts[1:], starts), repeat(1))):
            run = firsts[at], starts[at + 1] - starts[at]
            text = runs.get(run)
            if text is None:
                (axis, sign), length = run
                text = runs[run] = f"x{axis}^{sign * length}"
            parts[at] = text
        return " ".join(parts)

    def as_json(self) -> str:
        """The canonical JSON text ``{"word":"..."}``: the text needs no escapes."""
        return '{"word":"' + str(self) + '"}'

    def __repr__(self) -> str:
        return f"Word({str(self)!r}, d={self.d})"


def equal_images(fold: Callable[[Word], object], u: Word, v: Word) -> bool:
    """Whether ``fold``, a homomorphism out of the free group, maps ``u`` and
    ``v`` to the same value.

    That holds exactly when it maps ``u^-1 v`` to the image of the empty
    word. Free reduction of ``u^-1 v`` cancels the prefix the two words
    share, so only their unshared tails, found in C, are inverted and
    multiplied, and ``fold`` reads only where they differ. The tails start
    with different letters, so nothing cancels at their junction.
    """
    left, right = u.letters, v.letters
    shared = next(compress(count(), map(ne, left, right)), min(len(left), len(right)))
    quotient = ~Word._of(left[shared:], u.d) * Word._of(right[shared:], v.d)
    return fold(quotient) == fold(Word._of((), u.d))


_INT_RE = re.compile(r"[+-]?\d+")


def _read_int(text: str) -> int | None:
    """The integer of ``text`` if it is an optional sign and then decimal
    digits, else None: ``int()`` alone also reads ``1_0``, and refuses more
    than 4300 digits from CPython 3.10.7 on, leading zeros too. Leading zero
    digits are dropped, and a value with more significant digits than
    MAX_LETTERS has reads as +-(MAX_LETTERS + 1), past every length limit."""
    if not _INT_RE.fullmatch(text):
        return None
    if len(text) <= len(str(MAX_LETTERS)):  # too few digits for either limit
        return int(text)
    digits = text.lstrip("+-")
    digits = digits[next((at for at, digit in enumerate(digits) if int(digit)), len(digits)):]
    if len(digits) > len(str(MAX_LETTERS)):
        digits = str(MAX_LETTERS + 1)
    value = int(digits or "0")
    return -value if text[0] == "-" else value


def _split_exponent(token: str) -> tuple[str, int]:
    name, caret, tail = token.partition("^")
    if not caret:
        return token, 1
    exponent = _read_int(tail)
    if exponent is None:
        raise WordSyntaxError(f"bad exponent in token {token!r}")
    if exponent == 0:
        raise WordSyntaxError(f"zero exponent in token {token!r}")
    return name, exponent


def _check_length(expanded: int) -> None:
    if expanded > MAX_LETTERS:
        raise InputTooLargeError(f"word expands to more than {MAX_LETTERS} letters")


# Each token text read without error, keyed by everything its read depends
# on: the text, the grammar (the rank d, or the tuple of generator names) and
# MAX_LETTERS, which caps the exponents _read_int reads. The value is the
# token's letter count and its Letter. A token that fails its checks is not
# stored, so every error is found, in order, as if the table were empty. The
# table is cleared when it holds _TOKEN_CAP entries, and a token longer than
# _TOKEN_TEXT_MAX characters is never stored, so it holds a bounded amount
# of memory whatever the input. Batch lines repeat a few token texts: without
# the table, the benchmark's batch_small workload ran about 11 % slower.
_TOKENS: dict[tuple, tuple[int, Letter]] = {}
_TOKEN_CAP = 4096
_TOKEN_TEXT_MAX = 32


def _expand(
    text: str, grammar: object, axis_of: Callable[[str, str], int]
) -> tuple[list[int], dict[Letter, int]]:
    """Expand word text into its letters, before any reduction.

    Tokens are separated by whitespace or ``.``. Each distinct token text is
    checked once, in order of first appearance: exponent syntax, zero
    exponent, then ``axis_of(name, token)``, which returns the axis or
    raises. ``grammar`` is a hashable value that, with MAX_LETTERS, decides
    what ``axis_of`` returns; a token already read under both is looked up
    in the process's token table instead. The expanded length is checked
    once, before anything is expanded. The error reported is the first in
    token order: a token's length error comes before its axis error, and an
    error at a token comes after the length error of the tokens before it.

    Returns the letters as indices into a table of the distinct letters, the
    form :func:`free_reduce` takes.
    """
    tokens = text.replace(".", " ").split()
    count_of: dict[str, int] = {}
    code_of: dict[str, int] = {}
    table: dict[Letter, int] = {}
    limit = MAX_LETTERS
    known = _TOKENS.get
    for token in dict.fromkeys(tokens):
        key = (token, grammar, limit)
        read = known(key)
        if read is None:
            try:
                name, exponent = _split_exponent(token)
                # Counted before its axis is read: an axis error comes after
                # this token's own length error.
                count_of[token] = abs(exponent)
                read = abs(exponent), _new(Letter, (axis_of(name, token), 1 if exponent > 0 else -1))
            except ValueError:
                before = tokens[: tokens.index(token)]
                _check_length(sum(map(count_of.__getitem__, before)) + count_of.get(token, 0))
                raise
            if len(token) <= _TOKEN_TEXT_MAX:
                if len(_TOKENS) >= _TOKEN_CAP:
                    _TOKENS.clear()
                _TOKENS[key] = read
        count_of[token], letter = read
        code_of[token] = table.setdefault(letter, len(table))
    # Every count is at least 1, so they are all 1 when they sum to their number.
    if sum(count_of.values()) == len(count_of):
        _check_length(len(tokens))
        return list(map(code_of.__getitem__, tokens)), table
    _check_length(sum(map(count_of.__getitem__, tokens)))
    codes: list[int] = []
    extend = codes.extend
    for token in tokens:
        extend([code_of[token]] * count_of[token])
    return codes, table


# Each word text read without error, keyed like _TOKENS: the text, the
# grammar and MAX_LETTERS. The value is the word's reduced letters. A read
# that fails is not stored, so every error is found, in order, as if the
# table were empty. The table is cleared when it holds _WORD_CAP entries,
# and a read is stored only when its text and reduced letters together are
# shorter than _WORD_SIZE_MAX. An entry holds at most 4 bytes per text
# character and one 8-byte pointer per letter, so the table holds at most
# _WORD_CAP MiB whatever the input; the Letters themselves are the few
# distinct ones of each word.
_WORDS: dict[tuple, tuple[Letter, ...]] = {}
_WORD_CAP = 8
_WORD_SIZE_MAX = 2**17


def _read_word(text: str, grammar: object, d: int, axis_of: Callable[[str, str], int]) -> Word:
    """The reduced Word of rank ``d`` of word text read under ``grammar``
    (see :func:`_expand`), looked up in the process's word table before it
    is expanded and reduced."""
    key = (text, grammar, MAX_LETTERS)
    letters = _WORDS.get(key)
    if letters is None:
        codes, table = _expand(text, grammar, axis_of)
        # Every token has passed its axis check, so only text with no token
        # gets here with d < 1.
        if d < 1:
            raise ValueError(f"rank must be positive, got {d}")
        letters = free_reduce(codes, table)
        if len(text) + len(letters) < _WORD_SIZE_MAX:
            if len(_WORDS) >= _WORD_CAP:
                _WORDS.clear()
            _WORDS[key] = letters
    return Word._of(letters, d)


_GENERATOR_RE = re.compile(r"x([1-9]\d*)")


def parse_word(text: str, d: int) -> Word:
    """Parse indexed-generator word text into its reduced Word.

    Grammar: tokens separated by whitespace or ``.``, each ``x<idx>`` with an
    optional ``^<nonzero integer>`` exponent that is expanded eagerly. A word
    that would expand to more than MAX_LETTERS letters is refused. A text
    read before under the same ``d`` and MAX_LETTERS may be answered from
    the process's word table, which holds only reads that passed.
    """

    def axis_of(name: str, token: str) -> int:
        match = _GENERATOR_RE.fullmatch(name)
        if match is None:
            raise WordSyntaxError(f"bad token {token!r}")
        index = match.group(1)
        # An index with more digits than d is past it. It is not read whole,
        # as int() refuses text past its digit limit with its own message;
        # read digit by digit, it is written as int() would write it.
        if len(index) <= len(str(d)) and (axis := int(index)) <= d:
            return axis
        digits = "".join(str(int(digit)) for digit in index)
        raise WordSyntaxError(f"generator index {digits} out of range 1..{d}")

    return _read_word(text, d, d, axis_of)


def _names(alphabet: Sequence[str]) -> tuple[tuple[str, ...], Callable[[str, str], int]]:
    """The grammar and the ``axis_of`` of :func:`_expand` for words over
    literal generator names: the axis of each letter is the 1-based position
    of its name in ``alphabet``."""
    grammar = tuple(alphabet)
    positions = {name: index + 1 for index, name in enumerate(grammar)}

    def axis_of(name: str, token: str) -> int:
        axis = positions.get(name)
        if axis is None:
            raise WordSyntaxError(f"unknown generator {name!r}; expected one of {grammar}")
        return axis

    return grammar, axis_of


def parse_letters(text: str, alphabet: Sequence[str]) -> tuple[Letter, ...]:
    """Parse a word over literal generator names into (not yet reduced) letters.

    The axis of each letter is the 1-based position of its name in
    ``alphabet``. Exponent syntax matches :func:`parse_word`.
    """
    codes, table = _expand(text, *_names(alphabet))
    return tuple(list(map(list(table).__getitem__, codes)))


def parse_named_word(text: str, alphabet: Sequence[str]) -> Word:
    """The reduced Word, of rank ``len(alphabet)``, of the letters
    :func:`parse_letters` reads."""
    grammar, axis_of = _names(alphabet)
    return _read_word(text, grammar, len(grammar), axis_of)
