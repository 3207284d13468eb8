"""Freely reduced words over a fixed finite set of generators."""

from __future__ import annotations

import re
from typing import Iterable, Iterator, NamedTuple, Sequence


class WordSyntaxError(ValueError):
    """Word text that does not match the grammar, or a bad generator index."""


class RankMismatchError(ValueError):
    """Operands that live over different generator ranks."""


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
    for axis, sign in letters:
        if stack and stack[-1].axis == axis and stack[-1].sign == -sign:
            stack.pop()
        else:
            stack.append(Letter(axis, sign))
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
    def identity(cls, d: int) -> "Word":
        return cls((), d)

    def is_identity(self) -> bool:
        return not self.letters

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        if self.d != other.d:
            raise RankMismatchError(f"cannot concatenate ranks {self.d} and {other.d}")
        return Word(self.letters + other.letters, self.d)

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
        index = 0
        while index < len(self.letters):
            axis, sign = self.letters[index]
            run = index
            while run < len(self.letters) and self.letters[run] == (axis, sign):
                run += 1
            count = run - index
            exponent = sign * count
            parts.append(f"x{axis}" if exponent == 1 else f"x{axis}^{exponent}")
            index = run
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Word({str(self)!r}, d={self.d})"


def _tokens(text: str) -> list[str]:
    # '.' counts as token separator alongside whitespace.
    return text.replace(".", " ").split()


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


_GENERATOR_RE = re.compile(r"x([1-9]\d*)")


def parse_word(text: str, d: int) -> Word:
    """Parse indexed-generator word text into its reduced Word.

    Grammar: tokens separated by whitespace or ``.``, each ``x<idx>`` with an
    optional ``^<nonzero integer>`` exponent that is expanded eagerly.
    """
    letters: list[Letter] = []
    for token in _tokens(text):
        name, exponent = _split_exponent(token)
        match = _GENERATOR_RE.fullmatch(name)
        if match is None:
            raise WordSyntaxError(f"bad token {token!r}")
        axis = int(match.group(1))
        if axis > d:
            raise WordSyntaxError(f"generator index {axis} out of range 1..{d}")
        sign = 1 if exponent > 0 else -1
        letters.extend(Letter(axis, sign) for _ in range(abs(exponent)))
    return Word(letters, d)


def parse_letters(text: str, alphabet: Sequence[str]) -> tuple[Letter, ...]:
    """Parse a word over literal generator names into (not yet reduced) letters.

    The axis of each letter is the 1-based position of its name in
    ``alphabet``. Exponent syntax matches :func:`parse_word`.
    """
    positions = {name: index + 1 for index, name in enumerate(alphabet)}
    letters: list[Letter] = []
    for token in _tokens(text):
        name, exponent = _split_exponent(token)
        axis = positions.get(name)
        if axis is None:
            raise WordSyntaxError(f"unknown generator {name!r}; expected one of {tuple(alphabet)}")
        sign = 1 if exponent > 0 else -1
        letters.extend(Letter(axis, sign) for _ in range(abs(exponent)))
    return tuple(letters)
