"""Expected answers computed from the definitions, without importing latticegroups.

Every check the benchmark makes compares the package's output with these.
They follow the README's definitions rather than the package's algorithms:
a flow is the net number of unit steps along each edge, plaquette
coefficients are column prefix sums of the horizontal edges, and areas are
line integrals over the flow. The text formats mirror the documented CLI
output so that outputs can be compared byte for byte.
"""

from __future__ import annotations

import json
import re

_TOKEN = re.compile(r"([a-z])(\d*)(?:\^([+-]?\d+))?")


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def parse(text: str, alphabet: str | None = None) -> list[tuple[int, int]]:
    """Unit letters (axis, sign) of ``x<idx>^<exp>`` words, or of words over
    the literal ``alphabet`` (axis = position + 1) when one is given."""
    letters = []
    for token in text.replace(".", " ").split():
        name, index, exponent = _TOKEN.fullmatch(token).groups()
        axis = alphabet.index(name) + 1 if alphabet else int(index)
        exponent = int(exponent or 1)
        letters.extend([(axis, 1 if exponent > 0 else -1)] * abs(exponent))
    return letters


def free_reduce(letters) -> list[tuple[int, int]]:
    stack = []
    for axis, sign in letters:
        if stack and stack[-1] == (axis, -sign):
            stack.pop()
        else:
            stack.append((axis, sign))
    return stack


def word_text(letters) -> str:
    """Runs of equal letters written as ``x<axis>`` or ``x<axis>^<count>``."""
    parts = []
    index = 0
    while index < len(letters):
        run = index
        while run < len(letters) and letters[run] == letters[index]:
            run += 1
        axis, sign = letters[index]
        exponent = sign * (run - index)
        parts.append(f"x{axis}" if exponent == 1 else f"x{axis}^{exponent}")
        index = run
    return " ".join(parts)


def add_into(flow: dict, other: dict, scale: int = 1, shift=None) -> dict:
    for (base, axis), mult in other.items():
        if shift is not None:
            base = tuple(b + s for b, s in zip(base, shift))
        key = (base, axis)
        total = flow.get(key, 0) + scale * mult
        if total:
            flow[key] = total
        else:
            flow.pop(key, None)
    return flow


def walk(letters, d: int) -> tuple[tuple[int, ...], dict]:
    """Endpoint and net edge flow; edges are keyed (base, axis) in positive
    orientation, so a backward step counts -1 on the edge it walks."""
    position = [0] * d
    flow: dict = {}
    for axis, sign in letters:
        if sign < 0:
            position[axis - 1] -= 1
        key = (tuple(position), axis)
        total = flow.get(key, 0) + sign
        if total:
            flow[key] = total
        else:
            del flow[key]
        if sign > 0:
            position[axis - 1] += 1
    return tuple(position), flow


def monomial(vec) -> list[tuple[int, int]]:
    """Straight path to ``vec``: axis 1 first, then axis 2, and so on."""
    return [
        (axis, 1 if coord > 0 else -1)
        for axis, coord in enumerate(vec, start=1)
        for _ in range(abs(coord))
    ]


def canonical(g1, g2) -> dict:
    d = len(g1)
    total = tuple(a + b for a, b in zip(g1, g2))
    flow = dict(walk(monomial(g1), d)[1])
    add_into(flow, walk(monomial(g2), d)[1], shift=g1)
    return add_into(flow, walk(monomial(total), d)[1], scale=-1)


def plaquettes_2d(flow: dict) -> dict:
    """Coefficient of the unit square at (a, b): the running sum of the
    horizontal edges at (a, b') for b' <= b."""
    columns: dict = {}
    for (base, axis), mult in flow.items():
        if axis == 1:
            columns.setdefault(base[0], []).append((base[1], mult))
    coeffs = {}
    for a, edges in columns.items():
        edges.sort()
        running = 0
        for (b, mult), (b_next, _) in zip(edges, edges[1:] + [(edges[-1][0], 0)]):
            running += mult
            for row in range(b, b_next):
                if running:
                    coeffs[(a, row)] = running
    return coeffs


def area_2d(flow: dict) -> int:
    return -sum(base[1] * mult for (base, axis), mult in flow.items() if axis == 1)


def areas(flow: dict, d: int) -> dict:
    """Line integrals of x_i dx_j, i < j, over the flow's steps."""
    out = {}
    for (base, axis), mult in flow.items():
        for i in range(1, axis):
            if base[i - 1]:
                out[(i, axis)] = out.get((i, axis), 0) + base[i - 1] * mult
    return {key: value for key, value in out.items() if value}


def unit_square(base=(0, 0)) -> dict:
    """Boundary of the unit square at ``base``, walked as x1 x2 x1^-1 x2^-1."""
    a, b = base
    return {((a, b), 1): 1, ((a + 1, b), 2): 1, ((a, b + 1), 1): -1, ((a, b), 2): -1}


def satellite(text: str, k: int) -> tuple[tuple[int, int], dict]:
    """(vector, cycle) of a word over x, y, z at level k: k times the x/y path
    closed up by the reversed straight path, plus each z^s as s unit squares
    at the point the path has reached."""
    position = [0, 0]
    steps = []
    cycle: dict = {}
    for axis, sign in parse(text, "xyz"):
        if axis == 3:
            add_into(cycle, unit_square(tuple(position)), scale=sign)
        else:
            steps.append((axis, sign))
            position[axis - 1] += sign
    vec = tuple(position)
    path = walk(steps, 2)[1]
    add_into(path, walk(monomial(vec), 2)[1], scale=-1)
    return vec, add_into(cycle, path, scale=k)


def is_level_multiple(n: int, k: int) -> bool:
    return n == 0 if k == 0 else n % abs(k) == 0


def member(sub: str, vec, cycle: dict, k: int) -> bool:
    if vec != (0, 0):
        return False
    if sub == "M":
        return all(is_level_multiple(c, k) for c in plaquettes_2d(cycle).values())
    if sub == "commutant":
        return is_level_multiple(area_2d(cycle), k)
    return True


# --- output formats ---------------------------------------------------------


def fmt_vec(vec) -> str:
    return "(" + ", ".join(str(c) for c in vec) + ")"


def fmt_flow(flow: dict) -> str:
    return "[" + ", ".join(
        f"{fmt_vec(base)}:{axis}:{mult:+d}" for (base, axis), mult in sorted(flow.items())
    ) + "]"


def flow_json(flow: dict) -> list:
    return [
        {"base": list(base), "axis": axis, "mult": mult}
        for (base, axis), mult in sorted(flow.items())
    ]


def fmt_plaquettes(coeffs: dict) -> str:
    return "[" + ", ".join(
        f"{fmt_vec(base)}:(1,2):{c:+d}" for base, c in sorted(coeffs.items())
    ) + "]"


def plaquettes_json(coeffs: dict) -> list:
    return [
        {"base": list(base), "i": 1, "j": 2, "mult": c} for base, c in sorted(coeffs.items())
    ]


def fmt_areas(values: dict) -> str:
    return "[" + ", ".join(f"({i},{j}):{v:+d}" for (i, j), v in sorted(values.items())) + "]"


def areas_json(values: dict) -> list:
    return [{"i": i, "j": j, "value": v} for (i, j), v in sorted(values.items())]


def fox_slices(flow: dict, d: int) -> list[dict]:
    """Fox derivative coefficients: the flow on axis-i edges, keyed by base."""
    slices = [{} for _ in range(d)]
    for (base, axis), mult in flow.items():
        slices[axis - 1][base] = mult
    return slices


def fox_json(endpoint, flow: dict, d: int) -> dict:
    return {
        "monomial": list(endpoint),
        "derivatives": [
            [{"point": list(p), "coeff": c} for p, c in sorted(part.items())]
            for part in fox_slices(flow, d)
        ],
    }


def fmt_fox(endpoint, flow: dict, d: int) -> str:
    parts = "; ".join(
        f"d{axis}=[" + ", ".join(f"{fmt_vec(p)}:{c:+d}" for p, c in sorted(part.items())) + "]"
        for axis, part in enumerate(fox_slices(flow, d), start=1)
    )
    return f"monomial={fmt_vec(endpoint)} {parts}"
