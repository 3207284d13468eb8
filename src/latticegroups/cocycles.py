"""Cycle-valued 2-cocycles on Z^d from the monomial section.

The monomial section lifts a lattice vector to the straight word that walks
axis 1 first, then axis 2, and so on. Its failure to be multiplicative is a
cycle-valued 2-cocycle; for d = 2 the algebraic area of the commutator
defect of the induced extension is an integer that is invariant under
coboundary perturbation and classifies such cocycles completely.
"""

from __future__ import annotations

from typing import Mapping

from .homology import algebraic_area
from .lattice import Edge, EdgeFlow, Vector, vec_add, vec_neg
from .words import Letter, RankMismatchError, Word


def monomial_word(vec: Vector) -> Word:
    """The straight word x1^{v1} x2^{v2} ... xd^{vd} reaching ``vec``."""
    letters: list[Letter] = []
    for axis, coord in enumerate(vec, start=1):
        sign = 1 if coord > 0 else -1
        letters.extend(Letter(axis, sign) for _ in range(abs(coord)))
    return Word(letters, len(vec))


def monomial_flow(vec: Vector) -> EdgeFlow:
    """Flow of :func:`monomial_word`, emitted as its axis-parallel runs.

    The run along axis i starts at (v1, ..., v_{i-1}, 0, ..., 0) and covers
    the edges with i-th base coordinate in [min(0, vi), max(0, vi)), each
    with multiplicity sign(vi). The path never revisits an edge, so every
    multiplicity is +-1.
    """
    d = len(vec)
    if d < 1:
        raise ValueError(f"rank must be positive, got {d}")
    entries: dict[Edge, int] = {}
    for index, coord in enumerate(vec):
        prefix = tuple(vec[:index])
        suffix = (0,) * (d - index - 1)
        sign = 1 if coord > 0 else -1
        for t in range(min(coord, 0), max(coord, 0)):
            entries[Edge(prefix + (t,) + suffix, index + 1)] = sign
    return EdgeFlow._of(d, entries)


def canonical_cocycle(g1: Vector, g2: Vector) -> EdgeFlow:
    """Cycle of the loop: monomial path to g1, shifted monomial path onward
    to g1+g2, then the monomial path from g1+g2 reversed."""
    if len(g1) != len(g2):
        raise RankMismatchError(f"vector ranks differ: {len(g1)} vs {len(g2)}")
    return (
        monomial_flow(g1)
        + monomial_flow(g2).translate(tuple(g1))
        - monomial_flow(vec_add(g1, g2))
    )


class Cocycle:
    """A rule assigning a cycle to every pair of lattice vectors; callable."""

    d: int

    def value(self, g1: Vector, g2: Vector) -> EdgeFlow:
        raise NotImplementedError

    def __call__(self, g1: Vector, g2: Vector) -> EdgeFlow:
        return self.value(g1, g2)


class CanonicalCocycle(Cocycle):
    """The cocycle of the monomial section itself."""

    def __init__(self, d: int):
        self.d = d

    def value(self, g1: Vector, g2: Vector) -> EdgeFlow:
        return canonical_cocycle(g1, g2)


class ScaledCocycle(Cocycle):
    """An integer multiple of the canonical cocycle; level 0 is the split case."""

    def __init__(self, d: int, k: int):
        self.d = d
        self.k = k

    def value(self, g1: Vector, g2: Vector) -> EdgeFlow:
        return canonical_cocycle(g1, g2) * self.k


def coboundary(shifts: Mapping[Vector, EdgeFlow], g1: Vector, g2: Vector) -> EdgeFlow:
    """u(g1) + (u(g2) shifted by g1) - u(g1+g2), for finitely supported cycle-valued u."""
    if len(g1) != len(g2):
        raise RankMismatchError(f"vector ranks differ: {len(g1)} vs {len(g2)}")
    d = len(g1)

    def lookup(vec: Vector) -> EdgeFlow:
        flow = shifts.get(tuple(vec))
        if flow is None:
            return EdgeFlow(d)
        if not flow.is_cycle():
            raise ValueError(f"coboundary value at {tuple(vec)} is not a cycle")
        return flow

    return lookup(g1) + lookup(g2).translate(tuple(g1)) - lookup(vec_add(g1, g2))


class PerturbedCocycle(Cocycle):
    """A base rule plus the coboundary of a finitely supported cycle assignment.

    The assignment must vanish at the origin so that the perturbed rule stays
    normalized (zero whenever either argument is zero).
    """

    def __init__(self, base: Cocycle, shifts: Mapping[Vector, EdgeFlow]):
        cleaned: dict[Vector, EdgeFlow] = {}
        origin = (0,) * base.d
        for vec, flow in shifts.items():
            vec = tuple(vec)
            if len(vec) != base.d:
                raise RankMismatchError(f"shift vector {vec} does not have rank {base.d}")
            if flow.d != base.d:
                raise RankMismatchError(f"shift value at {vec} does not have rank {base.d}")
            if not flow.is_cycle():
                raise ValueError(f"shift value at {vec} is not a cycle")
            if not flow:
                continue
            if vec == origin:
                raise ValueError("a nonzero shift at the origin breaks normalization")
            cleaned[vec] = flow
        self.base = base
        self.shifts = cleaned
        self.d = base.d

    def value(self, g1: Vector, g2: Vector) -> EdgeFlow:
        return self.base.value(g1, g2) + coboundary(self.shifts, g1, g2)


def check_cocycle_identity(table: Cocycle, g1: Vector, g2: Vector, g3: Vector) -> bool:
    """Whether the alternating four-term sum of table values vanishes at (g1, g2, g3)."""
    total = (
        table(g1, g2)
        + table(vec_add(g1, g2), g3)
        - table(g1, vec_add(g2, g3))
        - table(g2, g3).translate(tuple(g1))
    )
    return not total


def _ext_mul(table: Cocycle, a, b):
    (v1, h1), (v2, h2) = a, b
    return vec_add(v1, v2), h1 + h2.translate(v1) + table(v1, v2)


def _ext_inv(table: Cocycle, a):
    v, h = a
    w = vec_neg(v)
    return w, -((h + table(v, w)).translate(w))


def commutator_defect(table: Cocycle) -> EdgeFlow:
    """Cycle part of the commutator of the generator lifts ((1,0), 0), ((0,1), 0).

    Only defined for d = 2, where the defect pins down the extension: the
    lifts commute exactly when it vanishes.
    """
    if table.d != 2:
        raise ValueError(f"commutator defect needs rank 2, got {table.d}")
    zero = EdgeFlow(2)
    x = ((1, 0), zero)
    y = ((0, 1), zero)
    product = _ext_mul(
        table,
        _ext_mul(table, _ext_mul(table, x, y), _ext_inv(table, x)),
        _ext_inv(table, y),
    )
    vec, cycle = product
    assert vec == (0, 0)
    return cycle


def cocycle_index(table: Cocycle) -> int:
    """Algebraic area of the commutator defect.

    This integer is invariant under coboundary perturbation and separates
    the extension classes of planar cycles by Z^2: the monomial-section
    cocycle has index 1 and its k-th multiple has index k.
    """
    return algebraic_area(commutator_defect(table))
