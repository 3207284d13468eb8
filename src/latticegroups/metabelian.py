"""The rank-d free metabelian group in endpoint-plus-flow normal form.

Two free-group words map to the same element exactly when their lattice
paths end at the same point and traverse every edge the same net number of
times. The module also carries an independent equality oracle: the image
under the upper-triangular matrix embedding over the integer Laurent ring
in d commuting variables. Every diagonal entry of that image is a monomial,
so the oracle folds a word on the diagonal's exponent vector and writes the
Fox derivatives as integer coefficients on lattice points, without reading
the word's path through the flow fold.
"""

from __future__ import annotations

from operator import add, index
from typing import NamedTuple

from .cocycles import _monomial_flow, monomial_word
from .homology import Plaquette
from .lattice import (
    EdgeFlow,
    PathEvaluation,
    Vector,
    _drop_zeros,
    _json_ints,
    _json_ints_template,
    _json_rows,
    _rows,
    _vec_text,
    _vector,
    evaluate_path,
    vec_neg,
)
from .words import GroupElement, Letter, RankMismatchError, Word, commutator, equal_images


class MetabelianElement(GroupElement):
    """Group element as (abelianized endpoint, net edge flow of any representing path).

    Trusted input: ``endpoint`` is a tuple of ints and ``flow`` runs from
    the origin to ``endpoint``.
    """

    __slots__ = ("endpoint", "flow")

    def __init__(self, endpoint: Vector, flow: EdgeFlow):
        endpoint = _vector(endpoint, flow.d, "endpoint")
        origin = (0,) * len(endpoint)
        if flow.boundary()._entries != ({endpoint: 1, origin: -1} if endpoint != origin else {}):
            raise ValueError("flow boundary does not match the endpoint")
        self.endpoint = endpoint
        self.flow = flow

    @property
    def d(self) -> int:
        return self.flow.d

    @classmethod
    def identity(cls, d: int) -> "MetabelianElement":
        return cls((0,) * d, EdgeFlow(d))

    @classmethod
    def from_word(cls, word: Word) -> "MetabelianElement":
        endpoint, flow = evaluate_path(word)
        return cls._of(endpoint, flow)

    @classmethod
    def section(cls, vec: Vector) -> "MetabelianElement":
        """Canonical lift of an abelian vector along its monomial word."""
        vec = _vector(vec)
        return cls._of(vec, _monomial_flow(vec))

    def __mul__(self, other: "MetabelianElement") -> "MetabelianElement":
        if not isinstance(other, MetabelianElement):
            return NotImplemented
        if self.d != other.d:
            raise RankMismatchError(f"element ranks differ: {self.d} vs {other.d}")
        # The endpoints are ints of one rank already: neither is read again.
        return MetabelianElement._of(
            tuple(map(add, self.endpoint, other.endpoint)),
            self.flow + other.flow._translated(self.endpoint),
        )

    def inverse(self) -> "MetabelianElement":
        back = vec_neg(self.endpoint)
        return MetabelianElement._of(back, -self.flow._translated(back))

    def is_identity(self) -> bool:
        return not self.flow and all(coord == 0 for coord in self.endpoint)

    def __repr__(self) -> str:
        return f"MetabelianElement(endpoint={self.endpoint}, flow={self.flow!r})"

    # The document of the word's path: endpoint and flow.
    as_json = PathEvaluation.as_json

    def __str__(self) -> str:
        return f"endpoint={_vec_text(self.endpoint)} flow={self.flow}"


def plaquette_element(p: Plaquette) -> MetabelianElement:
    """The element of the based commutator loop around ``p``.

    Walks the monomial word to the plaquette's base, goes around the square,
    and walks back; equals (0, plaquette_boundary(p)).
    """
    d = p.d
    frame = monomial_word(p.base)
    square = commutator(Word([Letter(p.i, 1)], d), Word([Letter(p.j, 1)], d))
    return MetabelianElement.from_word(frame * square * ~frame)


def pair_element(vec: Vector, p: Plaquette) -> MetabelianElement:
    """Element of an (abelian vector, plaquette) generator pair: the canonical
    section of ``vec`` followed by the based commutator loop of ``p``."""
    return MetabelianElement.section(vec) * plaquette_element(p)


def word_problem(w1: Word, w2: Word) -> bool:
    """Whether two free-group words represent the same metabelian element."""
    if w1.d != w2.d:
        raise RankMismatchError(f"word ranks differ: {w1.d} vs {w2.d}")
    return equal_images(MetabelianElement.from_word, w1, w2)


# --- matrix embedding oracle ------------------------------------------------

class _FoxFields(NamedTuple):
    monomial: Vector
    derivatives: tuple[dict, ...]


class FoxImage(_FoxFields):
    """Matrix-embedding image: a monomial exponent plus one Laurent coefficient
    map per generator."""

    __slots__ = ()

    def __new__(cls, monomial: Vector, derivatives):
        monomial = _vector(monomial)
        d = len(monomial)
        derivatives = tuple(
            {_vector(point, d, "point"): index(coeff) for point, coeff in component.items()}
            for component in derivatives
        )
        if len(derivatives) != d:
            raise RankMismatchError(f"{len(derivatives)} derivatives for monomial rank {d}")
        return tuple.__new__(cls, (monomial, derivatives))

    def as_json(self) -> str:
        """The canonical JSON text: ``{"derivatives":[[{"coeff":c,"point":[...]},
        ...],...],"monomial":[...]}``, each component sorted on its points."""
        row = '{"coeff":%d,"point":' + _json_ints_template(len(self.monomial)) + "}"
        components = []
        for component in self.derivatives:
            points = sorted(component)
            columns = (map(component.__getitem__, points), *zip(*points))
            components.append(_json_rows(row, columns, len(points)))
        return (
            '{"derivatives":[' + ",".join(components) + '],"monomial":'
            + _json_ints(self.monomial) + "}"
        )

    def __str__(self) -> str:
        """The human text: ``monomial=(...) d1=[(x, y):+c, ...]; d2=[...]``."""
        row = _vec_text(["%d"] * len(self.monomial)) + ":%+d"
        components = "; ".join(
            f"d{axis}=[" + ", ".join(_rows(row, component)) + "]"
            for axis, component in enumerate(self.derivatives, 1)
        )
        return f"monomial={_vec_text(self.monomial)} {components}"


def fox_image(word: Word) -> FoxImage:
    """Fold the word's letters through 2x2 upper-triangular matrices
    [[t^{±e_i}, ·], [0, 1]] over the Laurent ring in d commuting variables.

    A positive letter on axis i contributes the module generator u_i; a
    negative letter contributes -t^{-e_i} u_i. Every diagonal entry is a
    monomial, so the running diagonal is carried as its exponent vector, one
    list updated in place.

    Multiplying the running matrix by a letter's matrix gives
    ``[[a, b], [0, 1]] · [[c, e], [0, 1]] = [[ac, ae + b], [0, 1]]``, and
    the letter's corner ``e`` is 1 for a positive letter (``c = t^{e_i}``)
    and ``-c`` for a negative one (``c = t^{-e_i}``). So ``ae`` is the old
    diagonal ``a`` or minus the new diagonal ``ac``: the derivative on axis
    i gains ``sign`` at the exponent of ``a``, read before a positive letter
    adds ``e_i``, or at that of ``ac``, read after a negative letter takes
    ``e_i`` away. Coefficients that cancel to zero are dropped once, at the
    end.
    """
    exponent = [0] * word.d
    derivatives: list[dict] = [dict() for _ in range(word.d)]
    for axis, sign in word.letters:
        component = derivatives[axis - 1]
        if sign > 0:
            point = tuple(exponent)
            component[point] = component.get(point, 0) + 1
            exponent[axis - 1] += 1
        else:
            exponent[axis - 1] -= 1
            point = tuple(exponent)
            component[point] = component.get(point, 0) - 1
    for component in derivatives:
        _drop_zeros(component)
    # The fold's exponents and coefficients are ints: skip the public check.
    return tuple.__new__(FoxImage, (tuple(exponent), tuple(derivatives)))
