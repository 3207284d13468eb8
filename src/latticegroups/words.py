"""Freely reduced words over a fixed finite set of generators."""

from __future__ import annotations

import re
from itertools import groupby
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
        return Letter(self.axis, -self.sign)


def free_reduce(letters: Iterable[Letter | tuple[int, int]]) -> tuple[Letter, ...]:
    """Cancel adjacent inverse pairs until none remain.

    A single left-to-right pass with a stack performs every cancellation,
    including nested ones, and yields the unique reduced form.
    """
    stack: list[Letter] = []
    for letter in letters:
        axis, sign = letter
        # A Letter equals the plain tuple of its fields.
        if stack and stack[-1] == (axis, -sign):
            stack.pop()
        else:
            stack.append(letter if type(letter) is Letter else Letter(axis, sign))
    return tuple(stack)


class GroupElement:
    """Operations every group element derives from its ``*`` and ``inverse()``."""

    __slots__ = ()

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


def commutator(a, b):
    """``[a, b] = a b a^-1 b^-1`` for any two group elements of one group."""
    return a * b * a.inverse() * b.inverse()


class Word(GroupElement):
    """A freely reduced word over generators ``x1 .. xd``.

    Instances are immutable values; the constructor reduces its input, so
    every Word is a normal form in the free group of rank ``d``.
    """

    __slots__ = ("letters", "d")

    def __init__(self, letters: Iterable[Letter | tuple[int, int]], d: int):
        if d < 1:
            raise ValueError(f"rank must be positive, got {d}")
        reduced = free_reduce(letters)
        for letter in reduced:
            if not 1 <= letter.axis <= d:
                raise WordSyntaxError(
                    f"generator index {letter.axis} out of range 1..{d}"
                )
            if letter.sign not in (1, -1):
                raise ValueError(f"letter sign must be +1 or -1, got {letter.sign}")
        self.letters = reduced
        self.d = d

    @classmethod
    def _of(cls, letters: tuple[Letter, ...], d: int) -> "Word":
        """Trusted constructor for results that are valid by construction:
        ``letters`` is a freely reduced tuple of Letters on axes 1..d, and
        ``d`` is positive."""
        word = object.__new__(cls)
        word.letters = letters
        word.d = d
        return word

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
        return Word._of(free_reduce(self.letters + other.letters), self.d)

    def __invert__(self) -> "Word":
        return Word(tuple(letter.inverse() for letter in reversed(self.letters)), self.d)

    def inverse(self) -> "Word":
        return ~self

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Word)
            and self.d == other.d
            and self.letters == other.letters
        )

    def __hash__(self) -> int:
        return hash((self.letters, self.d))

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __str__(self) -> str:
        parts = []
        for (axis, sign), run in groupby(self.letters):
            exponent = sign * len(list(run))
            parts.append(f"x{axis}" if exponent == 1 else f"x{axis}^{exponent}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Word({str(self)!r}, d={self.d})"


def _split_exponent(token: str) -> tuple[str, int]:
    name, caret, tail = token.partition("^")
    if not caret:
        return token, 1
    if not re.fullmatch(r"[+-]?\d+", tail):
        raise WordSyntaxError(f"bad exponent in token {token!r}")
    exponent = int(tail)
    if exponent == 0:
        raise WordSyntaxError(f"zero exponent in token {token!r}")
    return name, exponent


def _check_length(expanded: int, exponent: int) -> None:
    if expanded + abs(exponent) > MAX_LETTERS:
        raise InputTooLargeError(f"word expands to more than {MAX_LETTERS} letters")


def _expand(text: str, axis_of: Callable[[str, str], int]) -> list[Letter]:
    """Expand word text into its letters, before any reduction.

    Tokens are separated by whitespace or ``.``. The first copy of each
    distinct token text is checked in grammar order: exponent syntax, zero
    exponent, the expanded length, then ``axis_of(name, token)``, which
    returns the axis or raises. The result is kept in a table that lives for
    this call only, so a later copy pays only the length check.
    """
    letters: list[Letter] = []
    table: dict[str, tuple[Letter, int]] = {}
    for token in text.replace(".", " ").split():
        entry = table.get(token)
        if entry is None:
            name, exponent = _split_exponent(token)
            _check_length(len(letters), exponent)
            letter = Letter(axis_of(name, token), 1 if exponent > 0 else -1)
            entry = table[token] = (letter, abs(exponent))
        else:
            _check_length(len(letters), entry[1])
        letter, count = entry
        if count == 1:
            letters.append(letter)
        else:
            letters.extend([letter] * count)
    return letters


_GENERATOR_RE = re.compile(r"x([1-9]\d*)")


def parse_word(text: str, d: int) -> Word:
    """Parse indexed-generator word text into its reduced Word.

    Grammar: tokens separated by whitespace or ``.``, each ``x<idx>`` with an
    optional ``^<nonzero integer>`` exponent that is expanded eagerly. A word
    that would expand to more than MAX_LETTERS letters is refused.
    """

    def axis_of(name: str, token: str) -> int:
        match = _GENERATOR_RE.fullmatch(name)
        if match is None:
            raise WordSyntaxError(f"bad token {token!r}")
        axis = int(match.group(1))
        if axis > d:
            raise WordSyntaxError(f"generator index {axis} out of range 1..{d}")
        return axis

    letters = _expand(text, axis_of)
    # Every token has passed its range check, so only empty text gets here with d < 1.
    if d < 1:
        raise ValueError(f"rank must be positive, got {d}")
    return Word._of(free_reduce(letters), d)


def parse_letters(text: str, alphabet: Sequence[str]) -> tuple[Letter, ...]:
    """Parse a word over literal generator names into (not yet reduced) letters.

    The axis of each letter is the 1-based position of its name in
    ``alphabet``. Exponent syntax matches :func:`parse_word`.
    """
    positions = {name: index + 1 for index, name in enumerate(alphabet)}

    def axis_of(name: str, token: str) -> int:
        axis = positions.get(name)
        if axis is None:
            raise WordSyntaxError(f"unknown generator {name!r}; expected one of {tuple(alphabet)}")
        return axis

    return tuple(_expand(text, axis_of))
