"""Shared builders for the test suite: seeded random words, loops, and flows,
and plain per-letter references for the folds and texts of a word."""

import importlib.util
import json
import random
from itertools import groupby
from pathlib import Path

from hypothesis import strategies as st

from latticegroups import (
    Edge,
    EdgeFlow,
    FoxImage,
    HeisenbergElement,
    Letter,
    MetabelianElement,
    PathEvaluation,
    PlaquetteSum,
    Word,
    evaluate_path,
    parse_word,
)
from latticegroups.cli import _Endpoint
from latticegroups.satellite import SatelliteElement


def w(text, d=2):
    return parse_word(text, d)


def flow_of(text, d=2):
    return evaluate_path(parse_word(text, d)).flow


def random_letters(rng: random.Random, d: int, length: int):
    return [Letter(rng.randint(1, d), rng.choice((1, -1))) for _ in range(length)]


def random_word(rng: random.Random, d: int, max_len: int) -> Word:
    return Word(random_letters(rng, d, rng.randint(0, max_len)), d)


def random_loop_word(rng: random.Random, d: int, max_half: int) -> Word:
    """A word with zero endpoint: random letters followed by their inverses
    in a shuffled order (each inverse letter cancels one step's displacement)."""
    out = random_letters(rng, d, rng.randint(1, max_half))
    back = [letter.inverse() for letter in out]
    rng.shuffle(back)
    return Word(out + back, d)


def random_loop_flow(rng: random.Random, d: int, max_half: int) -> EdgeFlow:
    return evaluate_path(random_loop_word(rng, d, max_half)).flow


def shuffled_copy(flow: EdgeFlow, rng: random.Random) -> EdgeFlow:
    """Same flow, rebuilt with a different insertion order of its entries."""
    pairs = list(flow.entries())
    rng.shuffle(pairs)
    return EdgeFlow(flow.d, pairs)


def edge(base, axis) -> Edge:
    return Edge(tuple(base), axis)


def hypothesis_words(d=None, max_len=20):
    """A Hypothesis strategy of words of up to ``max_len`` letters, in rank
    ``d`` or in a drawn rank 1..4."""
    ranks = st.integers(1, 4) if d is None else st.just(d)
    return ranks.flatmap(
        lambda d: st.lists(
            st.tuples(st.integers(1, d), st.sampled_from((1, -1))).map(lambda t: Letter(*t)),
            max_size=max_len,
        ).map(lambda letters: Word(letters, d))
    )


def run_length_text(letters) -> str:
    """The text of a word, one run of equal letters at a time."""
    parts = []
    for (axis, sign), run in groupby(letters):
        exponent = sign * len(list(run))
        parts.append(f"x{axis}" if exponent == 1 else f"x{axis}^{exponent}")
    return " ".join(parts)


def line_integral_areas(word) -> dict:
    """The discrete line integrals of x_i dx_j for i < j, one letter at a
    time over every pair, without the zero totals."""
    d = word.d
    position = [0] * d
    areas = {(i, j): 0 for j in range(1, d + 1) for i in range(1, j)}
    for axis, sign in word.letters:
        for i in range(1, axis):
            areas[i, axis] += position[i - 1] * sign
        position[axis - 1] += sign
    return {key: value for key, value in areas.items() if value}


def _laurent_product(p: dict, q: dict) -> dict:
    product = {}
    for a, x in p.items():
        for b, y in q.items():
            key = tuple(s + t for s, t in zip(a, b))
            product[key] = product.get(key, 0) + x * y
    return {key: coeff for key, coeff in product.items() if coeff}


def _laurent_sum(p: dict, q: dict) -> dict:
    total = dict(p)
    for key, coeff in q.items():
        total[key] = total.get(key, 0) + coeff
    return {key: coeff for key, coeff in total.items() if coeff}


def matrix_fox_fold(word) -> tuple:
    """(monomial, derivatives) of the word's image under the matrices
    [[t^{e_i}, u_i], [0, 1]] and their inverses [[t^{-e_i}, -t^{-e_i} u_i],
    [0, 1]], multiplied one letter at a time, with Laurent polynomials as
    maps from exponent vectors to coefficients:
    [[a, b], [0, 1]] [[c, e], [0, 1]] = [[ac, ae + b], [0, 1]]."""
    d = word.d
    a = {(0,) * d: 1}
    b = [{} for _ in range(d)]
    for axis, sign in word.letters:
        c = {tuple(sign if i == axis else 0 for i in range(1, d + 1)): 1}
        corner = {(0,) * d: 1} if sign > 0 else {key: -coeff for key, coeff in c.items()}
        b[axis - 1] = _laurent_sum(b[axis - 1], _laurent_product(a, corner))
        a = _laurent_product(a, c)
    (monomial,) = a
    return monomial, tuple(b)


# Reference encodings: the structure each type's as_json() text encodes,
# built as dicts and lists for json.dumps.


def _flow_json(flow):
    return [
        {"base": list(edge.base), "axis": edge.axis, "mult": coeff}
        for edge, coeff in flow.entries()
    ]


def _endpoint_flow_json(value):
    return {"endpoint": list(value.endpoint), "flow": _flow_json(value.flow)}


JSON_REFERENCE = {
    Word: lambda word: {"word": str(word)},
    _Endpoint: lambda endpoint: {"endpoint": list(endpoint)},
    EdgeFlow: _flow_json,
    PathEvaluation: _endpoint_flow_json,
    MetabelianElement: _endpoint_flow_json,
    PlaquetteSum: lambda ps: [
        {"base": list(p.base), "i": p.i, "j": p.j, "mult": coeff} for p, coeff in ps.entries()
    ],
    HeisenbergElement: lambda elem: {
        "endpoint": list(elem.endpoint),
        "areas": [{"i": i, "j": j, "value": value} for (i, j), value in elem.areas()],
    },
    SatelliteElement: lambda elem: {
        "k": elem.k, "vec": list(elem.vec), "cycle": _flow_json(elem.cycle)
    },
    FoxImage: lambda image: {
        "monomial": list(image.monomial),
        "derivatives": [
            [{"point": list(point), "coeff": coeff} for point, coeff in sorted(component.items())]
            for component in image.derivatives
        ],
    },
}


def load_reference():
    """perfbench/reference.py, which computes and formats every answer
    without importing latticegroups, loaded by its path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"
    spec = importlib.util.spec_from_file_location("perfbench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def reference_json(value) -> str:
    """The canonical JSON text of ``value``, by json.dumps of its structure."""
    return json.dumps(JSON_REFERENCE[type(value)](value), sort_keys=True, separators=(",", ":"))
