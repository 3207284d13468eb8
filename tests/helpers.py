"""Shared builders for the test suite: seeded random words, loops, and flows."""

import json
import random

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


def reference_json(value) -> str:
    """The canonical JSON text of ``value``, by json.dumps of its structure."""
    return json.dumps(JSON_REFERENCE[type(value)](value), sort_keys=True, separators=(",", ":"))
