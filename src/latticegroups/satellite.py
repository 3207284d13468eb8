"""Extensions of planar grid cycles by Z^2 at an integer level k.

The level-k group is generated by x, y (the two lattice shifts) and z (the
unit plaquette cycle at the origin); its multiplication twists by k times
the monomial-section cocycle, so [x, y] = z^k. Level 1 is the free
metabelian group on two generators; level 0 is the split extension.
"""

from __future__ import annotations

from operator import add, index
from typing import Iterable

from .cocycles import _canonical_cocycle, _monomial_flow
from .homology import (
    NotACycleError,
    Plaquette,
    _boundary_edges,
    _column_runs,
    algebraic_area,
    plaquette_boundary,
)
from .lattice import EdgeFlow, Vector, _drop_zeros, _json_ints, _vec_text, _vector, vec_neg
from .words import (
    GroupElement,
    Letter,
    _checked_letters,
    commutator as element_commutator,
    parse_letters,
)

GENERATOR_NAMES = ("x", "y", "z")


def _in_level_multiples(n: int, k: int) -> bool:
    # k = 0 reads "multiple of k" as "equal to zero".
    return n == 0 if k == 0 else n % abs(k) == 0


class SatelliteElement(GroupElement):
    """Element of the level-k extension: (level, Z^2 vector, planar cycle).

    Trusted input: ``k`` is an int, ``vec`` a pair of ints and ``cycle`` a
    rank-2 cycle.
    """

    __slots__ = ("k", "vec", "cycle")

    def __init__(self, k: int, vec: Vector, cycle: EdgeFlow):
        vec = _vector(vec, 2, "satellite vector")
        if cycle.d != 2:
            raise ValueError("satellite elements live over rank 2")
        if not cycle.is_cycle():
            raise NotACycleError("satellite cycle part has nonzero boundary")
        self.k = index(k)
        self.vec = vec
        self.cycle = cycle

    @classmethod
    def identity(cls, k: int) -> "SatelliteElement":
        return cls(k, (0, 0), EdgeFlow(2))

    def __mul__(self, other: "SatelliteElement") -> "SatelliteElement":
        if not isinstance(other, SatelliteElement):
            return NotImplemented
        if self.k != other.k:
            raise ValueError(f"level mismatch: {self.k} vs {other.k}")
        # Both vectors are int pairs already: neither is read again.
        twist = _canonical_cocycle(self.vec, other.vec) * self.k
        return SatelliteElement._of(
            self.k,
            tuple(map(add, self.vec, other.vec)),
            self.cycle + other.cycle._translated(self.vec) + twist,
        )

    def inverse(self) -> "SatelliteElement":
        back = vec_neg(self.vec)
        twist = _canonical_cocycle(self.vec, back) * self.k
        return SatelliteElement._of(self.k, back, -((self.cycle + twist)._translated(back)))

    def is_identity(self) -> bool:
        return self.vec == (0, 0) and not self.cycle

    def in_N(self) -> bool:
        """Membership in the normal closure of z: trivial shift part."""
        return self.vec == (0, 0)

    def in_M(self) -> bool:
        """Membership in the normal closure of z^k: every plaquette
        coefficient of the cycle is a multiple of k. The coefficients are
        read run by run off the column prefix sums, so the plaquettes are
        never built."""
        return self.in_N() and all(
            _in_level_multiples(coeff, self.k) for *_, coeff in _column_runs(self.cycle)
        )

    def in_commutant(self) -> bool:
        """Membership in the commutator subgroup: trivial shift part and
        algebraic area a multiple of k."""
        return self.in_N() and _in_level_multiples(algebraic_area(self.cycle), self.k)

    def __repr__(self) -> str:
        return f"SatelliteElement(k={self.k}, vec={self.vec}, cycle={self.cycle!r})"

    def as_json(self) -> str:
        """The canonical JSON text: ``{"cycle":[...],"k":k,"vec":[a,b]}``."""
        return '{"cycle":%s,"k":%d,"vec":%s}' % (self.cycle.as_json(), self.k, _json_ints(self.vec))

    def __str__(self) -> str:
        return f"k={self.k} vec={_vec_text(self.vec)} cycle={self.cycle}"


def generator(name: str, k: int) -> SatelliteElement:
    if name == "x":
        return SatelliteElement(k, (1, 0), EdgeFlow(2))
    if name == "y":
        return SatelliteElement(k, (0, 1), EdgeFlow(2))
    if name == "z":
        return SatelliteElement(k, (0, 0), plaquette_boundary(Plaquette((0, 0), 1, 2)))
    raise ValueError(f"unknown generator {name!r}; expected one of {GENERATOR_NAMES}")


def from_word(word: str | Iterable[Letter], k: int) -> SatelliteElement:
    """Fold a word over the alphabet x, y, z into the level-k group, in one
    pass along its path.

    Multiplying by x^+-1 or y^+-1 (whose images have zero cycle part) at
    position v adds the twist ``k c(v, u)`` for the unit step u, and
    ``c(v, u) = m(v) + T_v m(u) - m(v + u)`` with ``m`` the
    :func:`~latticegroups.cocycles.monomial_flow`. Summed along the path
    the m(v) terms telescope to ``m(0) - m(v_end) = -m(v_end)``, and each
    ``T_v m(u)`` is the unit edge the step walks. Multiplying by z^+-1 at
    position v adds ``+-T_v`` of the unit plaquette boundary, since
    ``c(v, 0) = 0``. So for endpoint v the cycle part is
    ``k (flow(w_xy) - m(v))`` plus ``+-T_p`` of the unit plaquette boundary
    for each z^+-1 read at position p, where ``w_xy`` is the word with its
    z letters deleted. The z letters are counted per position as they are
    read, and each position's boundary is added once, times its net count.
    Its cost is linear in the word.
    """
    letters = parse_letters(word, GENERATOR_NAMES) if isinstance(word, str) else _checked_letters(word, 3)
    k = index(k)
    position = [0, 0]
    entries: dict[tuple[int, int, int], int] = {}
    get = entries.get
    # The net count of z letters read at each position, by plaquette key.
    plaquettes: dict[tuple[int, int, int, int], int] = {}
    for axis, sign in letters:
        if axis == 3:
            plaquette = (*position, 1, 2)
            plaquettes[plaquette] = plaquettes.get(plaquette, 0) + sign
        elif sign > 0:
            key = (*position, axis)
            entries[key] = get(key, 0) + k
            position[axis - 1] += 1
        else:
            position[axis - 1] -= 1
            key = (*position, axis)
            entries[key] = get(key, 0) - k
    for plaquette, count in plaquettes.items():
        for edge, edge_sign in _boundary_edges(plaquette):
            entries[edge] = get(edge, 0) + count * edge_sign
    end = tuple(position)
    for edge, coeff in _monomial_flow(end)._entries.items():
        entries[edge] = get(edge, 0) - k * coeff
    # Edges that cancel, and every edge at k = 0, leave the support here, once.
    _drop_zeros(entries)
    return SatelliteElement._of(k, end, EdgeFlow._of(2, entries, True))


def z_torsion_order(k: int) -> int | None:
    """Least j > 0 with z^j in the commutator subgroup; None if no such j (k = 0)."""
    if k == 0:
        return None
    z = generator("z", k)
    power = z
    for j in range(1, abs(k) + 1):
        if power.in_commutant():
            return j
        power = power * z
    raise AssertionError("z^|k| always lands in the commutator subgroup")
