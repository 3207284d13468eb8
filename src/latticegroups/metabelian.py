"""The rank-d free metabelian group in endpoint-plus-flow normal form.

Two free-group words map to the same element exactly when their lattice
paths end at the same point and traverse every edge the same net number of
times. The module also carries an independent equality oracle: the image
under the upper-triangular matrix embedding over the integer Laurent ring
in d commuting variables, computed by genuine polynomial arithmetic.
"""

from __future__ import annotations

from typing import NamedTuple

from .cocycles import monomial_flow, monomial_word
from .homology import Plaquette
from .lattice import (
    EdgeFlow,
    Vector,
    VertexChain,
    _accumulate,
    _json_ints,
    _json_ints_template,
    basis_vector,
    evaluate_path,
    vec_add,
    vec_neg,
)
from .words import GroupElement, Letter, RankMismatchError, Word, commutator


class MetabelianElement(GroupElement):
    """Group element as (abelianized endpoint, net edge flow of any representing path)."""

    __slots__ = ("endpoint", "flow")

    def __init__(self, endpoint: Vector, flow: EdgeFlow):
        endpoint = tuple(endpoint)
        if len(endpoint) != flow.d:
            raise RankMismatchError(
                f"endpoint rank {len(endpoint)} does not match flow rank {flow.d}"
            )
        expected = VertexChain(flow.d, [(endpoint, 1), ((0,) * flow.d, -1)])
        if flow.boundary() != expected:
            raise ValueError("flow boundary does not match the endpoint")
        self.endpoint = endpoint
        self.flow = flow

    @classmethod
    def _of(cls, endpoint: Vector, flow: EdgeFlow) -> "MetabelianElement":
        """Trusted constructor for results that are valid by construction:
        ``endpoint`` is a tuple and ``flow`` a flow from the origin to it."""
        elem = object.__new__(cls)
        elem.endpoint = endpoint
        elem.flow = flow
        return elem

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
        return cls._of(tuple(vec), monomial_flow(vec))

    def __mul__(self, other: "MetabelianElement") -> "MetabelianElement":
        if not isinstance(other, MetabelianElement):
            return NotImplemented
        if self.d != other.d:
            raise RankMismatchError(f"element ranks differ: {self.d} vs {other.d}")
        return MetabelianElement._of(
            vec_add(self.endpoint, other.endpoint),
            self.flow + other.flow.translate(self.endpoint),
        )

    def inverse(self) -> "MetabelianElement":
        back = vec_neg(self.endpoint)
        return MetabelianElement._of(back, -self.flow.translate(back))

    def is_identity(self) -> bool:
        return not self.flow and all(coord == 0 for coord in self.endpoint)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MetabelianElement)
            and self.endpoint == other.endpoint
            and self.flow == other.flow
        )

    def __repr__(self) -> str:
        return f"MetabelianElement(endpoint={self.endpoint}, flow={self.flow!r})"

    def as_json(self) -> str:
        return '{"endpoint":' + _json_ints(self.endpoint) + ',"flow":' + self.flow.as_json() + "}"


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
    return MetabelianElement.from_word(w1) == MetabelianElement.from_word(w2)


# --- matrix embedding oracle ------------------------------------------------

Polynomial = dict  # Vector exponent -> integer coefficient, exact support


def _poly_mul(p: Polynomial, q: Polynomial) -> Polynomial:
    out: Polynomial = {}
    for u, a in p.items():
        for v, b in q.items():
            key = vec_add(u, v)
            total = out.get(key, 0) + a * b
            if total:
                out[key] = total
            elif key in out:
                del out[key]
    return out


class FoxImage(NamedTuple):
    """Matrix-embedding image: a monomial exponent plus one Laurent coefficient
    map per generator."""

    monomial: Vector
    derivatives: tuple[dict, ...]

    def as_json(self) -> str:
        """The canonical JSON text: ``{"derivatives":[[{"coeff":c,"point":[...]},
        ...],...],"monomial":[...]}``, each component sorted on its points."""
        row = '{"coeff":%d,"point":' + _json_ints_template(len(self.monomial)) + "}"
        components = [
            "[" + ",".join([row % (component[point], *point) for point in sorted(component)]) + "]"
            for component in self.derivatives
        ]
        return (
            '{"derivatives":[' + ",".join(components) + '],"monomial":'
            + _json_ints(self.monomial) + "}"
        )


def fox_image(word: Word) -> FoxImage:
    """Fold the word's letters through 2x2 upper-triangular matrices
    [[t^{±e_i}, ·], [0, 1]] over the Laurent ring in d commuting variables.

    A positive letter on axis i contributes the module generator u_i; a
    negative letter contributes -t^{-e_i} u_i. The diagonal stays a single
    monomial throughout.

    Each letter costs one polynomial product. Multiplying the running matrix
    by a letter's matrix gives
    ``[[a, b], [0, 1]] · [[c, e], [0, 1]] = [[ac, ae + b], [0, 1]]``, and
    the letter's corner ``e`` is 1 for a positive letter (``c = t^{e_i}``)
    and ``-c`` for a negative one (``c = t^{-e_i}``). So ``ae`` is the old
    diagonal ``a`` or minus the new diagonal ``ac``, which the fold computes
    anyway: the derivative on axis i gains ``sign · (a or ac)``.
    """
    d = word.d
    diagonal: Polynomial = {(0,) * d: 1}
    derivatives: list[Polynomial] = [dict() for _ in range(d)]
    # letter -> its diagonal entry t^{±e_i}, built once per call for the
    # letters in use: all 2d of them would cost d^2.
    steps = {}
    for axis, sign in set(word.letters):
        step = basis_vector(d, axis)
        steps[axis, sign] = {step if sign > 0 else vec_neg(step): 1}
    for letter in word.letters:
        axis, sign = letter
        product = _poly_mul(diagonal, steps[letter])
        target = derivatives[axis - 1]
        for key, coeff in (diagonal if sign > 0 else product).items():
            _accumulate(target, key, sign * coeff)
        diagonal = product
    ((monomial, unit),) = diagonal.items()
    assert unit == 1
    return FoxImage(monomial, tuple(derivatives))
