"""Integer chains on the grid of unit lattice edges, and word evaluation.

The grid has one vertex per integer point of Z^d and one edge per unit step
along a coordinate axis. Every edge is keyed in its positive orientation;
traversals against the orientation contribute negative multiplicity.
A flow stores each edge as the flat key ``(*base, axis)``; :class:`Edge` is
only the view that ``entries()`` and ``support()`` return.
"""

from __future__ import annotations

import functools
from collections import Counter
from itertools import compress
from operator import add, index, not_
from typing import Iterable, Mapping, NamedTuple

from .words import Letter, RankMismatchError, Word, _checked_letters, _new

Vector = tuple[int, ...]


def _vector(v, d: int | None = None, what: str = "vector") -> Vector:
    """``v`` read once as a tuple, each coordinate through ``operator.index``
    (see :class:`Chain`); with ``d`` given, a vector of another rank is refused."""
    vec = tuple(map(index, v))
    if d is not None and len(vec) != d:
        raise RankMismatchError(f"{what} {vec} does not have rank {d}")
    return vec


def vec_add(u: Vector, v: Vector) -> Vector:
    if len(u) != len(v):
        raise RankMismatchError(f"vector ranks differ: {len(u)} vs {len(v)}")
    return tuple(map(add, u, v))


def vec_neg(u: Vector) -> Vector:
    return tuple(-a for a in u)


def basis_vector(d: int, axis: int) -> Vector:
    return tuple(1 if index == axis - 1 else 0 for index in range(d))


class Edge(NamedTuple):
    """A grid edge in positive orientation: from ``base`` to ``base + e_axis``."""

    base: Vector
    axis: int


def _json_ints_template(n: int) -> str:
    """A ``%`` template for a JSON array of ``n`` integers: ``[%d,%d]``."""
    return "[" + ",".join(["%d"] * n) + "]"


def _json_ints(values) -> str:
    """The canonical JSON text of a sequence of integers."""
    return _json_ints_template(len(values)) % tuple(values)


class _IntTexts(dict):
    """Decimal texts of ints, each followed by ``suffix``: filled on first
    use, and only with ints in -_TEXT_MAX.._TEXT_MAX, so a table holds at
    most 2 * _TEXT_MAX + 1 texts whatever it is asked for."""

    __slots__ = ("suffix",)

    def __init__(self, suffix: str):
        self.suffix = suffix

    def __missing__(self, n: int) -> str:
        text = str(n) + self.suffix
        if -_TEXT_MAX <= n <= _TEXT_MAX:
            self[n] = text
        return text


# Coordinates and coefficients of most answers are small: a d = 3 walk of
# 2*10^4 random unit letters stays within about 250 of the origin. An int
# past this, such as a long word's Heisenberg area, is written anew each time.
_TEXT_MAX = 512


# The process's table of int texts for each distinct suffix of a row template.
_int_texts = functools.cache(_IntTexts)


def _json_rows(row: str, columns) -> str:
    """The JSON array of rows, each ``row`` with its ``%d`` fields filled in
    order from ``columns``: field c of row r is ``columns[c][r]``. This one
    writer writes every JSON array of rows in the package.

    Each row is joined in C from one text per field: the field's int followed
    by the fixed text up to the next field, read from the table
    :func:`_int_texts` keeps for that fixed text. The text before the first
    field joins the rows. ``%`` per row would parse its template and format
    every int anew."""
    head, *suffixes = row.split("%d")
    parts = [map(_int_texts(suffix).__getitem__, column) for column, suffix in zip(columns, suffixes)]
    body = ("," + head).join(map("".join, zip(*parts)))
    return "[" + head + body + "]" if body else "[]"


def _vec_text(values) -> str:
    """The human text of a vector: ``(1, -2)``, and ``(5)`` in rank 1."""
    return "(" + ", ".join(map(str, values)) + ")"


def _rows(row: str, entries: dict) -> list[str]:
    """``row % (*key, value)`` for each entry, sorted on the keys: the rows of
    a human text."""
    return [row % (*key, entries[key]) for key in sorted(entries)]


def _accumulate(entries: dict, key, coeff: int) -> None:
    # Keeps the support exact: a zero total removes the key outright.
    if coeff == 0:
        return
    total = entries.get(key, 0) + coeff
    if total:
        entries[key] = total
    else:
        del entries[key]


def _drop_zeros(entries: dict) -> None:
    """Delete the zero entries a fold left, in place: rebuilding the dict
    without them costs more."""
    if 0 in entries.values():
        for key in list(compress(entries, map(not_, entries.values()))):
            del entries[key]


class Chain:
    """Finitely supported integer coefficients on one kind of grid cell.

    Values are exact arbitrary-precision integers and zero entries are never
    stored, so equality of chains is plain map equality. Each kind names its
    cell keys through ``_key``, which checks one public key and returns it
    as a flat tuple of ints, and shows a stored key through ``_view``.
    Coordinates, axes and coefficients are read through ``operator.index``:
    a float or a string is refused, not truncated, and a bool reads as 0/1.
    """

    __slots__ = ("d", "_entries")

    _view = staticmethod(tuple)  # a vertex key is its own view: tuple() of a tuple returns it

    def __init__(self, d: int, items=()):
        entries: dict = {}
        key_of = self._key
        for key, coeff in items.items() if isinstance(items, Mapping) else items:
            _accumulate(entries, key_of(key, d), index(coeff))
        self.d = d
        self._entries = entries

    @classmethod
    def _of(cls, d: int, entries: dict):
        """Trusted constructor for results that are valid by construction:
        ``entries`` maps normalised rank-``d`` keys to nonzero ints, and is
        adopted without a copy or a check."""
        chain = object.__new__(cls)
        chain.d = d
        chain._entries = entries
        return chain

    def value(self, key) -> int:
        """The coefficient at one public key, read as ``_key`` reads it, or 0."""
        return self._entries.get(self._key(key, self.d), 0)

    def entries(self) -> list:
        """Entries sorted on their keys, each key as its public view."""
        # Keys are unique and of one length, so sorting them gives the order
        # of sorting the pairs, and flat keys sort as their views do.
        entries, view = self._entries, self._view
        return [(view(key), entries[key]) for key in sorted(entries)]

    def translate(self, v: Vector):
        """The chain moved by the vector ``v``."""
        return self._translated(_vector(v, self.d))

    def _translated(self, vec: Vector):
        """:meth:`translate` by a vector already read at the chain's rank."""
        # A key is its cell's base followed by at most two axes, and map stops
        # at the key's end: the zeros shift the axes by 0.
        shift = (*vec, 0, 0)
        return self._like(
            {tuple(map(add, key, shift)): coeff for key, coeff in self._entries.items()}
        )

    def _like(self, entries: dict, other: Chain | None = None):
        """A result of this chain's algebra, with ``entries``; ``other`` is the
        second operand of a sum or difference. A subclass overrides this
        one hook to pass on what such results keep."""
        return self._of(self.d, entries)

    def __add__(self, other, sign: int = 1):
        """``self + sign * other``. ``-`` runs this body with ``sign`` -1, and
        ``+`` runs it with no call in between."""
        if type(other) is not type(self):
            return NotImplemented
        if self.d != other.d:
            raise RankMismatchError(f"{type(self).__name__} ranks differ: {self.d} vs {other.d}")
        entries = dict(self._entries)
        for key, coeff in other._entries.items():
            _accumulate(entries, key, sign * coeff)
        return self._like(entries, other)

    def __sub__(self, other):
        # Through Chain, not self: a traced EdgeFlow.__add__ would count a
        # difference as a second flow operation.
        return Chain.__add__(self, other, -1)

    def __neg__(self):
        return self._like({key: -coeff for key, coeff in self._entries.items()})

    def __mul__(self, scalar: int):
        if not isinstance(scalar, int):
            return NotImplemented
        if not scalar:  # zero entries are never stored
            return self._like({})
        return self._like({key: scalar * coeff for key, coeff in self._entries.items()})

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is type(self)
            and self.d == other.d
            and self._entries == other._entries
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(d={self.d}, {dict(self.entries())!r})"


class VertexChain(Chain):
    """Finitely supported integer weights on lattice vertices."""

    __slots__ = ()

    @staticmethod
    def _key(vertex, d: int) -> Vector:
        return _vector(vertex, d, "vertex")


class EdgeFlow(Chain):
    """Finitely supported integer multiplicities on positively oriented edges,
    which remember once they are known to be a cycle."""

    __slots__ = ("_closed",)  # True once known to be a cycle; chains never change

    def __init__(self, d: int, items=()):
        Chain.__init__(self, d, items)
        self._closed = False  # public input: checked on first use

    @classmethod
    def _of(cls, d: int, entries: dict, closed: bool = False):
        """``Chain._of``, plus whether the caller knows the flow is a cycle."""
        flow = object.__new__(cls)
        flow.d = d
        flow._entries = entries
        flow._closed = closed
        return flow

    # Sums and differences of cycles are cycles, and so are the negation,
    # multiples and translates of one.
    def _like(self, entries: dict, other: EdgeFlow | None = None):
        return EdgeFlow._of(self.d, entries, self._closed and (other is None or other._closed))

    # perfbench/spans.py traces these through vars(EdgeFlow), so each is bound
    # here by name; all of them build their results through _like.
    __add__ = Chain.__add__
    __sub__ = Chain.__sub__
    __neg__ = Chain.__neg__
    __mul__ = __rmul__ = Chain.__mul__
    translate = Chain.translate

    @staticmethod
    def _key(key, d: int) -> tuple[int, ...]:
        base, axis = key
        base, axis = _vector(base, d, "edge base"), index(axis)
        if not 1 <= axis <= d:
            raise ValueError(f"edge axis {axis} out of range 1..{d}")
        return (*base, axis)

    @staticmethod
    def _view(key) -> Edge:
        return _new(Edge, (key[:-1], key[-1]))

    def support(self) -> list[Edge]:
        return [self._view(key) for key in sorted(self._entries)]

    def boundary(self) -> VertexChain:
        chain: dict[Vector, int] = {}
        if not self._closed:
            # Unit vectors only for the axes in use (all d cost d^2). map stops
            # at the unit vector's end: adding one to a key gives the edge's head.
            units = {axis: basis_vector(self.d, axis) for axis in {key[-1] for key in self._entries}}
            for key, coeff in self._entries.items():
                _accumulate(chain, tuple(map(add, key, units[key[-1]])), coeff)
                _accumulate(chain, key[:-1], -coeff)
        return VertexChain._of(self.d, chain)

    def is_cycle(self) -> bool:
        if not self._closed:
            self._closed = not self.boundary()
        return self._closed

    def as_json(self) -> str:
        """The canonical JSON text of the sorted entries:
        ``[{"axis":a,"base":[...],"mult":m},...]``."""
        entries = self._entries
        if not entries:  # zip(*keys) of no keys has no axes to unpack
            return "[]"
        row = '{"axis":%d,"base":' + _json_ints_template(self.d) + ',"mult":%d}'
        keys = sorted(entries)
        *bases, axes = zip(*keys)
        return _json_rows(row, (axes, *bases, map(entries.__getitem__, keys)))

    def __str__(self) -> str:
        """The human text of the sorted entries: ``[(x, y):axis:+m, ...]``."""
        return "[" + ", ".join(_rows(_vec_text(["%d"] * self.d) + ":%d:%+d", self._entries)) + "]"


class _PathFields(NamedTuple):
    endpoint: Vector
    flow: EdgeFlow


class PathEvaluation(_PathFields):
    """Endpoint and net edge flow of the lattice path read off a word."""

    __slots__ = ()

    def __new__(cls, endpoint: Vector, flow: EdgeFlow):
        return tuple.__new__(cls, (_vector(endpoint, flow.d, "endpoint"), flow))

    def as_json(self) -> str:
        return '{"endpoint":' + _json_ints(self.endpoint) + ',"flow":' + self.flow.as_json() + "}"


def evaluate_letters(letters: Word | Iterable[Letter | tuple[int, int]], d: int) -> PathEvaluation:
    """Trace unit steps from the origin, one per letter.

    Each positive letter adds +1 to the edge it walks along; each negative
    letter subtracts 1 from the positively oriented key of the edge walked
    backwards. The result does not depend on free reduction of the input.
    """
    position = [0] * d
    entries: dict[tuple[int, ...], int] = {}
    get = entries.get
    for axis, sign in _checked_letters(letters, d):
        if sign > 0:
            key = (*position, axis)
            entries[key] = get(key, 0) + 1
            position[axis - 1] += 1
        else:
            position[axis - 1] -= 1
            key = (*position, axis)
            entries[key] = get(key, 0) - 1
    # Edges walked both ways cancel to zero; they leave the support here, once.
    _drop_zeros(entries)
    # The endpoint is ints by construction: skip the public check. A path
    # that ends at the origin is a loop, so its flow is a cycle.
    end = tuple(position)
    return _new(PathEvaluation, (end, EdgeFlow._of(d, entries, not any(end))))


def evaluate_path(word: Word) -> PathEvaluation:
    return evaluate_letters(word, word.d)


def abelian_image(word: Word) -> Vector:
    """The endpoint of the word's path, from its letter counts alone: no
    flow is built."""
    endpoint = [0] * word.d
    for (axis, sign), times in Counter(word.letters).items():
        endpoint[axis - 1] += sign * times
    return tuple(endpoint)


def is_loop(word: Word) -> bool:
    """Whether the word's path returns to the origin (kernel of abelianization)."""
    return not any(abelian_image(word))
