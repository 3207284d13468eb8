"""The three seeded workloads: inputs, one timed request each, and checks.

A workload turns a seed into a fixed pool of requests. ``execute`` is the
only part that is timed; ``check`` compares its result with answers from
``reference`` and runs outside the timed region. An operation is one batch
line or one non-batch request. It fails when the package raised, returned
the wrong exit code, printed an ``error:`` marker for valid input
("refused"), or gave an answer that disagrees with the reference ("wrong").
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import pickle
import random
import shlex
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import reference as ref


@dataclass
class Outcome:
    ops: int = 0
    refused: int = 0
    wrong: int = 0
    lines: int = 0
    error_lines: int = 0

    def add(self, other: "Outcome") -> None:
        for name in vars(self):
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def worst(self, other: "Outcome") -> "Outcome":
        """Field by field maximum of two passes over one request."""
        return Outcome(**{name: max(getattr(self, name), getattr(other, name)) for name in vars(self)})

    @property
    def failed(self) -> int:
        return self.refused + self.wrong


def call_cli(lg, argv):
    """One in-process ``cli.main(argv)`` with stdout and stderr kept in memory."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = lg.cli.main(argv)
        except Exception as exc:  # a traceback breaks the CLI contract: a failed operation
            return None, out.getvalue(), f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _size_ladder(lo, hi, n):
    """n pairs (a, b): a climbs evenly from lo to hi and b is a - 1, a or
    a + 1. The sizes are the same at every seed, so the pool's cost and its
    slowest requests do not move with the seed; the seed picks the order."""
    sizes = [lo + round(i * (hi - lo) / (n - 1)) for i in range(n)]
    return [(a, a + i % 3 - 1) for i, a in enumerate(sizes)]


def _syllables(rng, d, letters, max_exp=3):
    out = []
    while letters:
        exp = min(letters, rng.randint(1, max_exp))
        out.append((rng.randint(1, d), rng.choice((1, -1)) * exp))
        letters -= exp
    return out


def _inverse(syllables):
    return [(axis, -exp) for axis, exp in reversed(syllables)]


def _text(syllables, names=None, sep=" "):
    def name(axis):
        return names[axis - 1] if names else f"x{axis}"

    return sep.join(name(a) if e == 1 else f"{name(a)}^{e}" for a, e in syllables)


def _endpoint(syllables, d):
    end = [0] * d
    for axis, exp in syllables:
        end[axis - 1] += exp
    return end


def _loop(rng):
    """A short closed word: a random walk plus the straight way home."""
    walk = _syllables(rng, 2, rng.randint(3, 20))
    back = [(axis, -c) for axis, c in enumerate(_endpoint(walk, 2), start=1) if c]
    return walk + back


def _shifts(rng):
    """Coboundary shifts in the ``--perturb`` JSON form, at nonzero vertices."""
    vertices = rng.sample([v for v in itertools.product(range(-3, 4), repeat=2) if v != (0, 0)], rng.randint(1, 4))
    return [
        {
            "vertex": list(v),
            "plaquettes": [
                {"base": [rng.randint(-3, 3), rng.randint(-3, 3)], "i": 1, "j": 2,
                 "mult": rng.choice((-3, -2, -1, 1, 2, 3))}
                for _ in range(rng.randint(1, 3))
            ],
        }
        for v in vertices
    ]


# --- batch_small ------------------------------------------------------------

ERROR = None  # expected output of a line that must yield an ``error:`` marker


@dataclass
class BatchRequest:
    path: str
    lines: list[tuple[str, str | None]]
    perturb: str  # text of the --perturb file its beta line reads

    def describe(self) -> str:
        return "\n".join([line for line, _ in self.lines] + [self.perturb])


class BatchSmall:
    """``cli.main(["batch", file])`` over files of 20 mixed short lines."""

    FILES = 60

    def generate(self, rng, workdir: Path):
        requests = []
        for index in range(self.FILES):
            path = workdir / f"batch{index:02d}.txt"
            perturb = workdir / f"perturb{index:02d}.json"
            lines = self._lines(rng, path, perturb)
            rng.shuffle(lines)
            path.write_text("\n".join(line for line, _ in lines) + "\n", encoding="utf-8")
            requests.append(BatchRequest(str(path), lines, perturb.read_text(encoding="utf-8")))
        return requests

    def _word(self, rng, d, sep=None):
        sep = sep or rng.choice((" ", " ", "."))
        return _syllables(rng, d, rng.randint(4, 30)), sep

    def _quoted(self, syllables, sep, names=None):
        return shlex.quote(_text(syllables, names, sep))

    def _lines(self, rng, path, perturb):
        lines = []

        def add(argv_text, json_out, human):
            flag = " --json" if json_out else ""
            lines.append((argv_text.replace(" {json}", flag), human))

        def js():
            return rng.random() < 0.5

        # reduce / eval free / eval abelian / eval heisenberg / eval metabelian / nf / fox
        for verb, group, d in (
            ("reduce", None, rng.choice((2, 3))),
            ("eval", "free", 2),
            ("eval", "abelian", 3),
            ("eval", "heisenberg", rng.choice((2, 3))),
            ("eval", "metabelian", 2),
            ("nf", None, 2),
            ("fox", None, 2),
        ):
            syl, sep = self._word(rng, d)
            letters = ref.parse(_text(syl, sep=sep))
            end, flow = ref.walk(letters, d)
            j = js()
            group_arg = f" --group {group}" if group else ""
            text = f"{verb}{group_arg} --d {d} {{json}} {self._quoted(syl, sep)}"
            if verb == "reduce" or group == "free":
                word = ref.word_text(ref.free_reduce(letters))
                out = ref.dumps({"word": word}) if j else word
            elif group == "abelian":
                out = ref.dumps({"endpoint": list(end)}) if j else ref.fmt_vec(end)
            elif group == "heisenberg":
                areas = ref.areas(flow, d)
                out = (
                    ref.dumps({"endpoint": list(end), "areas": ref.areas_json(areas)})
                    if j
                    else f"endpoint={ref.fmt_vec(end)} areas={ref.fmt_areas(areas)}"
                )
            elif verb == "fox":
                out = ref.dumps(ref.fox_json(end, flow, d)) if j else ref.fmt_fox(end, flow, d)
            else:
                out = (
                    ref.dumps({"endpoint": list(end), "flow": ref.flow_json(flow)})
                    if j
                    else f"endpoint={ref.fmt_vec(end)} flow={ref.fmt_flow(flow)}"
                )
            add(text, j, out)

        # eq over an indexed group: the second word is the first times a
        # double commutator, a commutator, or an unrelated word.
        group = rng.choice(("free", "abelian", "heisenberg", "metabelian"))
        w1, sep = self._word(rng, 2)
        a, b, c, e = (_syllables(rng, 2, rng.randint(1, 3)) for _ in range(4))
        comm_ab = a + b + _inverse(a) + _inverse(b)
        comm_ce = c + e + _inverse(c) + _inverse(e)
        w2 = rng.choice((w1 + comm_ab + comm_ce + _inverse(comm_ab) + _inverse(comm_ce), w1 + comm_ab, self._word(rng, 2)[0]))
        invariants = []
        for syl in (w1, w2):
            letters = ref.parse(_text(syl))
            end, flow = ref.walk(letters, 2)
            invariants.append({
                "free": ref.free_reduce(letters),
                "abelian": end,
                "heisenberg": (end, ref.areas(flow, 2)),
                "metabelian": (end, flow),
            }[group])
        verdict = "equal" if invariants[0] == invariants[1] else "unequal"
        j = js()
        add(
            f"eq --group {group} --d 2 {{json}} {self._quoted(w1, sep)} {self._quoted(w2, sep)}",
            j,
            ref.dumps({"verdict": verdict}) if j else verdict,
        )

        # satellite words over x, y, z: eval, eq against the word with the
        # defining relation [x, y] z^-k inserted or with a stray z, member.
        k = rng.randint(-2, 3)
        sw, _ = self._word(rng, 3, " ")
        sw_text = _text(sw, "xyz")
        vec, cycle = ref.satellite(sw_text, k)
        j = js()
        add(
            f"eval --group satellite --k {k} {{json}} {shlex.quote(sw_text)}",
            j,
            ref.dumps({"k": k, "vec": list(vec), "cycle": ref.flow_json(cycle)})
            if j
            else f"k={k} vec={ref.fmt_vec(vec)} cycle={ref.fmt_flow(cycle)}",
        )
        cut = rng.randint(0, len(sw))
        insert = [(1, 1), (2, 1), (1, -1), (2, -1)] + ([(3, -k)] if k else [])
        if rng.random() < 0.5:
            insert = [(3, 1)]
        sw2_text = _text(sw[:cut] + insert + sw[cut:], "xyz")
        equal = ref.satellite(sw_text, k) == ref.satellite(sw2_text, k)
        verdict = "equal" if equal else "unequal"
        j = js()
        add(
            f"eq --group satellite --k {k} {{json}} {shlex.quote(sw_text)} {shlex.quote(sw2_text)}",
            j,
            ref.dumps({"verdict": verdict}) if j else verdict,
        )
        loop = _loop(rng)
        sub = rng.choice(("N", "M", "commutant"))
        mw = rng.choice((sw, loop + [(3, rng.randint(-4, 4) or 1)]))
        mw_text = _text(mw, "xyz")
        answer = ref.member(sub, *ref.satellite(mw_text, k), k)
        j = js()
        add(
            f"member --sub {sub} --k {k} {{json}} {shlex.quote(mw_text)}",
            j,
            ref.dumps({"member": answer}) if j else ("true" if answer else "false"),
        )

        # decompose / area of planar loops.
        for verb in ("decompose", "area"):
            loop = _loop(rng)
            flow = ref.walk(ref.parse(_text(loop)), 2)[1]
            j = js()
            if verb == "decompose":
                coeffs = ref.plaquettes_2d(flow)
                out = ref.dumps(ref.plaquettes_json(coeffs)) if j else ref.fmt_plaquettes(coeffs)
            else:
                value = ref.area_2d(flow)
                out = ref.dumps({"area": value}) if j else str(value)
            add(f"{verb} --d 2 {{json}} {self._quoted(loop, rng.choice(' .'))}", j, out)

        # canonical cocycle at vectors written as users write them, e.g. -1,3.
        # Exactly one of the two lines starts with a negative coordinate (g1
        # of the d=2 line), so each file holds the same number of such lines
        # at every seed; later coordinates take either sign on both lines.
        for d, r, lead in ((2, 3, (-3, -1)), (3, 2, (0, 2))):
            g1 = [rng.randint(*lead)] + [rng.randint(-r, r) for _ in range(d - 1)]
            g2 = [rng.randint(0, r)] + [rng.randint(-r, r) for _ in range(d - 1)]
            flow = ref.canonical(g1, g2)
            j = js()
            add(
                f"cocycle {','.join(map(str, g1))} {','.join(map(str, g2))} {{json}}",
                j,
                ref.dumps(ref.flow_json(flow)) if j else ref.fmt_flow(flow),
            )

        # beta, plain and perturbed by coboundary shifts; the index is k.
        for with_perturb in (False, True):
            k = rng.randint(-4, 4)
            extra = ""
            if with_perturb:
                perturb.write_text(json.dumps(_shifts(rng)), encoding="utf-8")
                extra = f" --perturb {shlex.quote(str(perturb))}"
            j = js()
            add(f"beta --k {k}{extra} {{json}}", j, ref.dumps({"beta": k}) if j else str(k))

        # Three malformed lines, each of which must give an error marker.
        open_word = self._word(rng, 2, " ")[0]
        while not any(_endpoint(open_word, 2)):
            open_word = self._word(rng, 2, " ")[0]
        malformed = [
            f"eval --group metabelian --d 2 {shlex.quote(_text(open_word) + ' x0')}",
            f"reduce --d 2 {shlex.quote('x1^0 ' + _text(open_word))}",
            f"area --d 2 {shlex.quote(_text(open_word))}",
            f"frobnicate --d 2 {shlex.quote(_text(open_word))}",
            f"batch {shlex.quote(str(path))}",
            f"eq --group free --d 2 {shlex.quote(_text(open_word))}",
            f"eval --group satellite --k 1 {shlex.quote('x y w')}",
            f"reduce --d 2 {shlex.quote(_text(open_word) + ' x3')}",
            "cocycle 1,2 3",
            "cocycle 1,a 2,3",
        ]
        for line in rng.sample(malformed, 3):
            lines.append((line, ERROR))
        return lines

    def execute(self, lg, request: BatchRequest):
        return call_cli(lg, ["batch", request.path])

    def check(self, request: BatchRequest, result) -> Outcome:
        code, out, _err = result
        n = len(request.lines)
        outcome = Outcome(ops=n)
        got = out.split("\n")[:-1] if out.endswith("\n") else out.split("\n")
        outcome.lines = len(got)
        outcome.error_lines = sum(line.startswith("error:") for line in got)
        if code != 0 or len(got) != n:
            outcome.refused = n if code is None or code == 2 else 0
            outcome.wrong = n - outcome.refused
            return outcome
        for (_, expected), line in zip(request.lines, got):
            if expected is ERROR:
                outcome.wrong += not line.startswith("error:")
            elif line != expected:
                if line.startswith("error:"):
                    outcome.refused += 1
                else:
                    outcome.wrong += 1
        return outcome


# --- long_words -------------------------------------------------------------


@dataclass
class CliRequest:
    argv: list[str]
    code: int
    digest: str  # sha256 of the expected stdout

    def describe(self) -> str:
        return json.dumps(self.argv)


class LongWords:
    """One ``cli.main`` call per request on d=3 words of 2*10^4 unit letters."""

    WORDS = 12
    LETTERS = 20_000
    D = 3

    def generate(self, rng, workdir: Path):
        requests = []
        for index in range(self.WORDS):
            syl = [(rng.randint(1, self.D), rng.choice((1, -1))) for _ in range(self.LETTERS)]
            word = _text(syl)
            letters = ref.parse(word)
            end, flow = ref.walk(letters, self.D)
            assert list(end) == _endpoint(syl, self.D)  # endpoint = exponent sums
            d = ["--d", str(self.D), "--json"]
            reduced = ref.word_text(ref.free_reduce(letters))
            requests.append(CliRequest(["reduce", *d, word], 0, _sha(ref.dumps({"word": reduced}) + "\n")))
            requests.append(CliRequest(
                ["eval", "--group", "metabelian", *d, word], 0,
                _sha(ref.dumps({"endpoint": list(end), "flow": ref.flow_json(flow)}) + "\n"),
            ))
            requests.append(CliRequest(
                ["eval", "--group", "heisenberg", *d, word], 0,
                _sha(ref.dumps({"endpoint": list(end), "areas": ref.areas_json(ref.areas(flow, self.D))}) + "\n"),
            ))
            requests.append(self._eq(rng, word, equal=index % 2 == 0))
            requests.append(CliRequest(["fox", *d, word], 0, _sha(ref.dumps(ref.fox_json(end, flow, self.D)) + "\n")))
        return requests

    def _eq(self, rng, word, equal):
        """w times [[a,b],[c,e]] equals w in the metabelian group; w times
        [a,b] does not when a and b have independent abelian images."""
        def short():
            return _syllables(rng, self.D, rng.randint(3, 6), max_exp=1)

        while True:
            a, b = short(), short()
            ea, eb = _endpoint(a, self.D), _endpoint(b, self.D)
            if any(ea[i] * eb[j] != ea[j] * eb[i] for i in range(3) for j in range(i + 1, 3)):
                break
        comm = a + b + _inverse(a) + _inverse(b)
        if equal:
            c, e = short(), short()
            comm2 = c + e + _inverse(c) + _inverse(e)
            comm = comm + comm2 + _inverse(comm) + _inverse(comm2)
        verdict = "equal" if equal else "unequal"
        argv = ["eq", "--group", "metabelian", "--d", str(self.D), "--json", word, f"{word} {_text(comm)}"]
        return CliRequest(argv, 0 if equal else 1, _sha(ref.dumps({"verdict": verdict}) + "\n"))

    def execute(self, lg, request: CliRequest):
        return call_cli(lg, request.argv)

    def check(self, request: CliRequest, result) -> Outcome:
        code, out, _err = result
        if code is None or (code == 2 and request.code != 2):
            return Outcome(ops=1, refused=1)
        return Outcome(ops=1, wrong=int(code != request.code or _sha(out) != request.digest))


# --- planar_products --------------------------------------------------------


@dataclass
class LibraryRequest:
    kind: str
    params: tuple

    def describe(self) -> str:
        return json.dumps([self.kind, self.params])


def _flow_dict(flow) -> dict:
    return {(tuple(edge.base), edge.axis): mult for edge, mult in flow.entries()}


def _rectangle(a, b) -> dict:
    """Counterclockwise boundary of [0, a] x [0, b]: the flow of [x1^a, x2^b]."""
    flow = {}
    for x in range(a):
        flow[((x, 0), 1)] = 1
        flow[((x, b), 1)] = -1
    for y in range(b):
        flow[((a, y), 2)] = 1
        flow[((0, y), 2)] = -1
    return flow


class PlanarProducts:
    """Library queries in d=2 that exercise flow algebra, products,
    canonical cocycles and plaquette decomposition."""

    PER_KIND = 20
    K = 3

    def generate(self, rng, workdir: Path):
        n = self.PER_KIND
        kinds = {
            "area": [("area", ab) for ab in _size_ladder(30, 70, n)],
            "decompose": [("decompose", ab) for ab in _size_ladder(30, 70, n)],
            "satellite": [("satellite", (a, b, rng.randint(-3, 3))) for a, b in _size_ladder(15, 35, n)],
            "section": [("section", self._box(rng, i)) for i in range(n)],
            "cocycles": [("cocycles", self._cocycles(rng)) for _ in range(n)],
        }
        for items in kinds.values():
            rng.shuffle(items)
        # Round-robin over kinds, so every stretch of the pool has the same mix.
        return [LibraryRequest(*item) for group in zip(*kinds.values()) for item in group]

    def _box(self, rng, index):
        """A small box: radius 1-3 in d=2, or radius 1 in d=3, and a g1 in it."""
        d, r = [(2, 1), (2, 2), (2, 3), (3, 1)][index % 4]
        return d, r, tuple(rng.randint(-r, r) for _ in range(d))

    def _cocycles(self, rng):
        k = rng.choice([k for k in range(-5, 6) if k])
        shifts = _shifts(rng)
        pairs = [tuple(tuple(rng.randint(-12, 12) for _ in range(2)) for _ in range(2)) for _ in range(6)]
        return k, shifts, pairs

    def execute(self, lg, request: LibraryRequest):
        kind, params = request.kind, request.params
        if kind in ("area", "decompose"):
            a, b = params
            flow = lg.evaluate_path(lg.parse_word(f"x1^{a} x2^{b} x1^-{a} x2^-{b}", 2)).flow
            return lg.algebraic_area(flow) if kind == "area" else lg.decompose_cycle_2d(flow)
        if kind == "satellite":
            a, b, c = params
            text = f"x^{a} y^{b} x^-{a} y^-{b}" + (f" z^{c}" if c else "")
            elem = lg.satellite.from_word(text, self.K)
            return elem, elem.in_M(), elem.in_commutant()
        if kind == "section":
            d, r, g1 = params
            section = lg.MetabelianElement.section
            out = []
            for g2 in itertools.product(range(-r, r + 1), repeat=d):
                total = tuple(x + y for x, y in zip(g1, g2))
                lhs = section(g1) * section(g2)
                rhs = lg.MetabelianElement((0,) * d, lg.canonical_cocycle(g1, g2)) * section(total)
                out.append((g2, lhs, rhs, lhs == rhs))
            return out
        k, shifts, pairs = params
        table = lg.PerturbedCocycle(
            lg.ScaledCocycle(2, k),
            {tuple(s["vertex"]): lg.plaquette_sum_from_json(s["plaquettes"], d=2).boundary_flow() for s in shifts},
        )
        return lg.cocycle_index(table), [lg.algebraic_area(lg.canonical_cocycle(g1, g2)) for g1, g2 in pairs]

    def check(self, request: LibraryRequest, result) -> Outcome:
        return Outcome(ops=1, wrong=int(not self._correct(request.kind, request.params, result)))

    def _correct(self, kind, params, result) -> bool:
        if kind == "area":
            a, b = params
            return result == a * b
        if kind == "decompose":
            a, b = params
            got = {(p.base, p.i, p.j): c for p, c in result.entries()}
            return got == {((x, y), 1, 2): 1 for x in range(a) for y in range(b)}
        if kind == "satellite":
            a, b, c = params
            elem, in_m, in_commutant = result
            expected = ref.add_into(ref.add_into({}, _rectangle(a, b), scale=self.K), ref.unit_square(), scale=c)
            cycle = _flow_dict(elem.cycle)
            area = self.K * a * b + c  # k*a*b from [x^a, y^b], plus c from z^c
            return (
                elem.vec == (0, 0)
                and cycle == expected
                and ref.area_2d(cycle) == area
                and in_m == ref.member("M", (0, 0), expected, self.K)
                and in_commutant == ref.is_level_multiple(area, self.K)
            )
        if kind == "section":
            d, r, g1 = params
            for g2, lhs, rhs, verdict in result:
                total = tuple(x + y for x, y in zip(g1, g2))
                flow = ref.walk(ref.monomial(g1), d)[1]
                ref.add_into(flow, ref.walk(ref.monomial(g2), d)[1], shift=g1)
                for elem in (lhs, rhs):
                    if elem.endpoint != total or _flow_dict(elem.flow) != flow:
                        return False
                if verdict is not True:
                    return False
            return len(result) == (2 * r + 1) ** d
        k, shifts, pairs = params
        beta, areas = result
        return beta == k and areas == [-g1[1] * g2[0] for g1, g2 in pairs]


WORKLOADS = {
    "batch_small": BatchSmall,
    "long_words": LongWords,
    "planar_products": PlanarProducts,
}


def generate(name: str, seed: int, workdir: Path):
    """The request pool for ``name`` at ``seed``; same seed, same pool."""
    workload = WORKLOADS[name]()
    return workload, workload.generate(random.Random(f"{name}:{seed}"), workdir)


def save_pool(name: str, seed: int, workdir: str) -> None:
    """Generate the pool into ``workdir``/pool.pickle (see run.load_pool)."""
    _, pool = generate(name, seed, Path(workdir))
    with open(Path(workdir) / "pool.pickle", "wb") as handle:
        pickle.dump(pool, handle)
