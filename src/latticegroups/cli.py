"""Command-line front end over the calculator modules.

Every verb is a thin adapter around one library call. JSON output is
byte-deterministic: keys sorted, arrays in the canonical entry order, one
document per command. ``eq`` exits 0 on equal, 1 on unequal, 2 on error;
all other verbs exit 0 on success and 2 on error.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import re
import sys
from contextlib import redirect_stderr, redirect_stdout

from .cocycles import Cocycle, _rectangle_edges, canonical_cocycle, cocycle_index
from .homology import NotACycleError, algebraic_area, decompose_cycle, plaquette_sum_from_json
from .lattice import _json_ints, _vec_text, abelian_image, evaluate_path
from .metabelian import MetabelianElement, fox_image
from .nilpotent import HeisenbergElement
from .words import (
    InputTooLargeError,
    RankMismatchError,
    WordSyntaxError,
    equal_images,
    parse_named_word,
    parse_word,
)
from . import satellite, words

SUBGROUPS = ("N", "M", "commutant")

_ERRORS = (WordSyntaxError, RankMismatchError, NotACycleError, ValueError, OSError)


def _dumps(obj) -> str:
    """Canonical JSON text of a small fixed document; the large answers
    write their own through ``as_json``."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _parse_vector(text: str) -> tuple[int, ...]:
    # Each part is read as a word's exponent is.
    vec = tuple(words._read_int(part.strip()) for part in text.split(","))
    if None in vec:
        raise ValueError(f"bad vector {text!r}; expected comma-separated integers")
    # The L1 norm is the length of the vector's monomial path.
    if sum(map(abs, vec)) > words.MAX_LETTERS:
        raise InputTooLargeError(f"vector {text!r} is longer than {words.MAX_LETTERS} unit steps")
    return vec


def _parse_folded(text: str, args):
    """Parse a word for a verb that folds it in rank d. Each letter of the
    fold copies a d-tuple, so rank times length is bounded like a word's
    length."""
    word = parse_word(text, args.d)
    if args.d * max(1, len(word)) > words.MAX_LETTERS:
        raise InputTooLargeError(
            f"rank {args.d} times word length {len(word)} is more than {words.MAX_LETTERS}"
        )
    return word


class _Endpoint(tuple):
    """The abelian image of a word: its path's endpoint, as an answer."""

    __slots__ = ()

    __str__ = _vec_text

    def as_json(self) -> str:
        return '{"endpoint":' + _json_ints(self) + "}"


def _answer(value, args) -> tuple[str, int]:
    """An answer's JSON text under --json, else its human text."""
    return (value.as_json() if args.json else str(value)), 0


# group -> (read(text, args) -> Word, fold(word, args) -> answer). Every fold
# is a homomorphism out of the free group. eval prints the fold of one word;
# eq folds only the freely reduced quotient u^-1 v of its two words. The
# lambdas look names up at call time, so a function rebound on its module (as
# perfbench's tracer does) is the one they call.
REGISTRY = {
    "free": (lambda text, args: parse_word(text, args.d), lambda word, args: word),
    "abelian": (_parse_folded, lambda word, args: _Endpoint(abelian_image(word))),
    "heisenberg": (_parse_folded, lambda word, args: HeisenbergElement.from_word(word)),
    "metabelian": (_parse_folded, lambda word, args: MetabelianElement.from_word(word)),
    "satellite": (
        lambda text, args: parse_named_word(text, satellite.GENERATOR_NAMES),
        lambda word, args: satellite.from_word(word.letters, args.k),
    ),
}


def _cmd_eval(args) -> tuple[str, int]:
    read, fold = REGISTRY[args.group]
    return _answer(fold(read(args.word, args), args), args)


def _cmd_eq(args) -> tuple[str, int]:
    read, fold = REGISTRY[args.group]
    # Both words are read, and checked, before either is folded.
    u, v = read(args.word1, args), read(args.word2, args)
    equal = equal_images(lambda word: fold(word, args), u, v)
    verdict = "equal" if equal else "unequal"
    return (_dumps({"verdict": verdict}) if args.json else verdict), (0 if equal else 1)


def _cmd_decompose(args) -> tuple[str, int]:
    flow = evaluate_path(_parse_folded(args.word, args)).flow
    return _answer(decompose_cycle(flow), args)


def _cmd_area(args) -> tuple[str, int]:
    flow = evaluate_path(_parse_folded(args.word, args)).flow
    value = algebraic_area(flow)
    return (_dumps({"area": value}) if args.json else str(value)), 0


def _cmd_cocycle(args) -> tuple[str, int]:
    g1 = _parse_vector(args.g1)
    g2 = _parse_vector(args.g2)
    # Each rectangle edge copies a d-tuple, so rank times edges is bounded
    # like a folded word's rank times length. Differing ranks are left to
    # canonical_cocycle's own error.
    if len(g1) == len(g2):
        edges = _rectangle_edges(g1, g2)
        if len(g1) * edges > words.MAX_LETTERS:
            raise InputTooLargeError(
                f"rank {len(g1)} times {edges} cocycle edges is more than {words.MAX_LETTERS}"
            )
    return _answer(canonical_cocycle(g1, g2), args)


def _int_list(value) -> bool:
    return isinstance(value, list) and all(type(c) is int for c in value)


def _load_perturbation(path: str) -> list:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        # Not UTF-8, not JSON, or nested deeper than the parser goes: refused
        # below. UnicodeDecodeError and JSONDecodeError are ValueErrors.
        except (ValueError, RecursionError):
            data = None
    if not isinstance(data, list) or not all(
        isinstance(item, dict)
        and _int_list(item.get("vertex"))
        and isinstance(item.get("plaquettes"), list)
        and all(
            isinstance(p, dict)
            and _int_list(p.get("base"))
            and _int_list([p.get("i"), p.get("j"), p.get("mult")])
            for p in item["plaquettes"]
        )
        for item in data
    ):
        raise ValueError(
            f"bad perturbation file {path!r}: expected "
            '[{"vertex": [m, n], "plaquettes": [{"base": [a, b], "i": 1, "j": 2, "mult": c}, ...]}, ...]'
        )
    # Pairs, not a dict: Cocycle checks every entry and sums those of one vertex.
    return [
        (tuple(item["vertex"]), plaquette_sum_from_json(item["plaquettes"], d=2).boundary_flow())
        for item in data
    ]


def _cmd_beta(args) -> tuple[str, int]:
    shifts = _load_perturbation(args.perturb) if args.perturb else ()
    value = cocycle_index(Cocycle(2, args.k, shifts))
    return (_dumps({"beta": value}) if args.json else str(value)), 0


def _cmd_fox(args) -> tuple[str, int]:
    return _answer(fox_image(_parse_folded(args.word, args)), args)


def _cmd_member(args) -> tuple[str, int]:
    elem = satellite.from_word(args.word, args.k)
    member = {"N": elem.in_N, "M": elem.in_M, "commutant": elem.in_commutant}[args.sub]()
    return (_dumps({"member": member}) if args.json else ("true" if member else "false")), 0


class _Discard(io.TextIOBase):
    """A text stream that drops whatever is written to it."""

    def write(self, text: str) -> int:
        return len(text)


# Where a batch line's usage, help and error text goes.
_DISCARD = _Discard()


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that builds no usage or help text while that text
    would be dropped, as a batch line's is: argparse would format the whole
    usage before a refusal, and the whole help for -h, which costs more
    than the parse."""

    def error(self, message):
        if sys.stderr is _DISCARD:
            self.exit(2)
        super().error(message)

    def print_help(self, file=None):
        if (sys.stdout if file is None else file) is not _DISCARD:
            super().print_help(file)


def _run_line(tokens: list[str]) -> tuple[str | None, str | None, int]:
    """Execute one command line with the process's parser; returns
    (output, error message, exit code)."""
    args = _read_argv(tokens)
    if args is None:
        try:
            # A bad line is reported as one marker: argparse's usage text, and
            # the help text of -h, are dropped, not put into the results.
            with redirect_stdout(_DISCARD), redirect_stderr(_DISCARD):
                args = _parse_args(tokens)
        except SystemExit:
            return None, "bad arguments", 2
    if args.verb == "batch":
        return None, "batch cannot be nested", 2
    try:
        output, code = globals()[args.handler](args)
        return output, None, code
    except _ERRORS as exc:
        return None, str(exc), 2


# A batch line is split as shlex.split splits it (POSIX mode, no comments).
# An argument is a run of pieces: plain characters, a '...' string, a "..."
# string (in which a backslash escapes only '"' and itself), or a backslash
# escape; the blanks between arguments are " \t\r\n". Where no piece starts,
# at an unclosed quote or at a backslash that ends the line, the pattern
# makes an empty match, which no argument is. Every pattern is compiled on
# first use, not at import, which each CLI launch pays for.
_ARGUMENT = r"""(?:[^ \t\r\n'"\\]+|'[^']*'|"[^"\\]*(?:\\.[^"\\]*)*"|\\.)+|(?=['"\\])"""
_QUOTED_PIECE = r"""'([^']*)'|"([^"\\]*(?:\\.[^"\\]*)*)"|\\(.)"""
_OPEN_DOUBLE = r'"[^"\\]*(?:\\.[^"\\]*)*'
_DOUBLE_ESCAPE = r'\\(["\\])'


@functools.cache
def _argument_pattern() -> re.Pattern:
    """:data:`_ARGUMENT`, compiled once; the rarer patterns go through the
    re module's own cache."""
    return re.compile(_ARGUMENT, re.DOTALL)


def _unquoted(piece: re.Match) -> str:
    """The text of one quoted string or escape of a :data:`_QUOTED_PIECE` match."""
    single, double, escaped = piece.groups()
    if double is not None:
        return re.sub(_DOUBLE_ESCAPE, r"\1", double)
    return escaped if single is None else single


def _split_line(line: str) -> list[str]:
    """The arguments of a batch line, exactly as ``shlex.split(line)`` gives
    them, in time linear in the line: shlex grows each argument by one
    character at a time, which is quadratic in the argument's length.

    One regex pass finds the arguments. One with no '"' and no backslash
    holds only plain runs and '...' strings, which hold no quote, so
    dropping its single quotes unquotes it; only the others are read piece
    by piece."""
    argument = _argument_pattern()
    args = argument.findall(line)
    if "" in args:
        rest = line[next(match.start() for match in argument.finditer(line) if not match.group()) :]
        if rest[0] == '"':
            rest = rest[re.match(_OPEN_DOUBLE, rest, re.DOTALL).end() :]
        raise ValueError("No escaped character" if rest == "\\" else "No closing quotation")
    return [
        re.sub(_QUOTED_PIECE, _unquoted, arg, flags=re.DOTALL)
        if '"' in arg or "\\" in arg
        else arg.replace("'", "")
        for arg in args
    ]


def _cmd_batch(args) -> tuple[str | None, int]:
    # A line ends at "\n" only, not at the other breaks str.splitlines knows
    # (such as "\f" or U+2028), and one "\r" before it is dropped (CRLF).
    with open(args.file, "r", encoding="utf-8", newline="") as handle:
        lines = handle.read().split("\n")
    if not lines[-1]:
        lines.pop()  # the text after the last "\n" is a line only if non-empty
    lines = [line.removesuffix("\r") for line in lines]
    outputs = []
    for line in lines:
        if not line.strip():
            outputs.append("")
            continue
        try:
            tokens = _split_line(line)
        except ValueError as exc:
            outputs.append(f"error: {exc}")
            continue
        if args.eq:
            if len(tokens) != 2:
                outputs.append("error: expected two words per line")
                continue
            flags = ["--group", args.group, "--d", str(args.d), "--k", str(args.k)]
            tokens = ["eq", *flags, *(["--json"] if args.json else []), *tokens]
        output, error, _code = _run_line(tokens)
        outputs.append(f"error: {error}" if error is not None else output)
    # None, not "": main would print "" as one blank line for no input line.
    return ("\n".join(outputs) if outputs else None), 0


def _add_common(sub, *, d=True, k=False, group=None) -> None:
    if group is not None:
        if group == "required":
            sub.add_argument("--group", choices=REGISTRY, required=True)
        else:
            sub.add_argument("--group", choices=REGISTRY, default=group)
    if d:
        sub.add_argument("--d", type=int, default=2, help="generator rank (default 2)")
    if k:
        sub.add_argument("--k", type=int, default=1, help="extension level (satellite only)")
    sub.add_argument("--json", action="store_true", help="emit one JSON document")


# The top-level parser, and each verb's subparser and _table by verb name.
_Parsers = tuple[argparse.ArgumentParser, dict[str, tuple[argparse.ArgumentParser, tuple]]]


def _table(sub: argparse.ArgumentParser) -> tuple:
    """What :func:`_read_argv` needs of a verb, taken from the actions its
    parser holds: the action of each exact store or store_true option
    string, the positionals, the required options, the Namespace defaults
    (argparse sets each dest's first action default, then the parser's
    set_defaults for dests still unset), and the pattern of a "-"-led
    argument such as -2 (None when an option looks like a negative number)."""
    options, positionals, defaults = {}, [], {}
    for action in sub._actions:
        if not action.option_strings:
            positionals.append(action)
        elif isinstance(action, (argparse._StoreAction, argparse._StoreTrueAction)):
            options.update(dict.fromkeys(action.option_strings, action))
        if action.dest is not argparse.SUPPRESS and action.default is not argparse.SUPPRESS:
            defaults.setdefault(action.dest, action.default)
    for dest, value in sub._defaults.items():
        defaults.setdefault(dest, value)
    required = [action for action in sub._actions if action.required and action.option_strings]
    negative = None if sub._has_negative_number_optionals else sub._negative_number_matcher
    return options, positionals, required, defaults, negative


# Each verb's defaults name its handler; main and batch lines look the name up
# on this module when they run it, so a handler rebound on the module after
# the parser was built is the one that runs.
def _build_parser() -> _Parsers:
    parser = _Parser(
        prog="latticegroups",
        description="Exact word-problem, homology and cocycle queries for "
        "lattice-path realizations of free abelian, nilpotent, metabelian "
        "and level-k extension groups.",
    )
    verbs = parser.add_subparsers(dest="verb", required=True)

    p = verbs.add_parser("reduce", help="freely reduce a word (eval --group free)")
    _add_common(p)
    p.add_argument("word")
    p.set_defaults(handler="_cmd_eval", group="free")

    p = verbs.add_parser("eval", help="evaluate a word in a chosen quotient")
    _add_common(p, k=True, group="required")
    p.add_argument("word", help="indexed word (x1, x2, ...) or x/y/z word for satellite")
    p.set_defaults(handler="_cmd_eval")

    p = verbs.add_parser("eq", help="decide equality of two words (exit 0 equal, 1 unequal)")
    _add_common(p, k=True, group="required")
    p.add_argument("word1")
    p.add_argument("word2")
    p.set_defaults(handler="_cmd_eq")

    p = verbs.add_parser("nf", help="metabelian normal form of a word (eval --group metabelian)")
    _add_common(p)
    p.add_argument("--group", choices=["metabelian"], default="metabelian")
    p.add_argument("word")
    p.set_defaults(handler="_cmd_eval")

    p = verbs.add_parser("decompose", help="plaquette decomposition of a loop word")
    _add_common(p)
    p.add_argument("word")
    p.set_defaults(handler="_cmd_decompose")

    p = verbs.add_parser("area", help="algebraic area of a planar loop word")
    _add_common(p)
    p.add_argument("word")
    p.set_defaults(handler="_cmd_area")

    p = verbs.add_parser("cocycle", help="canonical cocycle value at a vector pair")
    # Read vectors such as -1,3 as positionals, not as unknown options.
    p._negative_number_matcher = re.compile(r"^-\d+(,-?\d+)*$")
    _add_common(p, d=False)
    p.add_argument("g1", help="comma-separated integers, e.g. 1,0")
    p.add_argument("g2")
    p.set_defaults(handler="_cmd_cocycle")

    p = verbs.add_parser("beta", help="integer index classifying a level-k cocycle")
    _add_common(p, d=False, k=True)
    p.add_argument("--perturb", help="JSON file of {vertex, plaquettes} coboundary shifts")
    p.set_defaults(handler="_cmd_beta")

    p = verbs.add_parser("fox", help="matrix-embedding image of a word")
    _add_common(p)
    p.add_argument("word")
    p.set_defaults(handler="_cmd_fox")

    p = verbs.add_parser("member", help="subgroup membership in the level-k extension")
    _add_common(p, d=False, k=True)
    p.add_argument("--sub", choices=SUBGROUPS, required=True)
    p.add_argument("word", help="word over x, y, z")
    p.set_defaults(handler="_cmd_member")

    p = verbs.add_parser("batch", help="run newline-separated commands (or word pairs with --eq)")
    p.add_argument("file")
    p.add_argument("--eq", action="store_true", help="treat each line as a word pair for eq")
    _add_common(p, k=True, group="metabelian")
    p.set_defaults(handler="_cmd_batch")

    return parser, {name: (sub, _table(sub)) for name, sub in verbs.choices.items()}


# The parsers of this process: built by the first main call, not at import,
# and reused by every later call and batch line.
_PARSER: _Parsers | None = None


def _parser() -> _Parsers:
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    return _PARSER


def _read_argv(argv: list[str]) -> argparse.Namespace | None:
    """The Namespace :func:`_parse_args` gives, read without argparse when
    every token after a known verb is one of the verb's exact store or
    store_true option strings, or an argument in argparse's sense: a token
    not led by "-", or one the verb's parser reads as a negative number. An
    option takes the next token as its value, and a repeated option's last
    value wins. Anything else (help, "--", "--opt=value", an abbreviation,
    an unknown option, a bad value, a missing or extra positional, a missing
    required option) gives None, and argparse decides."""
    _, verbs = _parser()
    if not argv or argv[0] not in verbs:
        return None
    options, positionals, required, defaults, negative = verbs[argv[0]][1]

    def argument(token: str) -> bool:
        return not token.startswith("-") or (negative is not None and negative.match(token) is not None)

    args = dict(defaults, verb=argv[0])
    seen, free, values = set(), [], []
    tokens = iter(argv[1:])
    for token in tokens:
        if argument(token):
            free.append(token)
            continue
        action = options.get(token)
        if action is None:
            return None
        seen.add(action)
        if action.nargs == 0:
            args[action.dest] = action.const
            continue
        token = next(tokens, None)
        if token is None or not argument(token):
            return None
        values.append((action, token))
    if len(free) != len(positionals) or not seen.issuperset(required):
        return None
    # Each value through its action's own type and choices, as argparse reads it.
    try:
        for action, token in [*values, *zip(positionals, free)]:
            value = token if action.type is None else action.type(token)
            if action.choices is not None and value not in action.choices:
                return None
            args[action.dest] = value
    except (ValueError, TypeError, argparse.ArgumentTypeError):
        return None
    return argparse.Namespace(**args)


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``parser.parse_args(argv)``, parsed once: the top-level parser would
    classify every token and then hand ``argv[1:]`` to the verb's subparser,
    which does it again, so a known verb goes to its subparser directly.
    Everything else (no arguments, a leading option, an unknown verb, or
    arguments the subparser leaves over) goes to the top-level parser, which
    writes its own usage, help and error text."""
    parser, verbs = _parser()
    if argv and argv[0] in verbs:
        args, extras = verbs[argv[0]][0].parse_known_args(argv[1:])
        if not extras:
            args.verb = argv[0]
            return args
    return parser.parse_args(argv)


def _parse(argv: list[str]) -> argparse.Namespace:
    """``parser.parse_args(argv)``: :func:`_read_argv` reads the plain argv
    of nearly every call and batch line, and argparse reads, refuses or
    answers (help) the rest."""
    args = _read_argv(argv)
    return _parse_args(argv) if args is None else args


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        output, code = globals()[args.handler](args)
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if output is not None:
        print(output)
    return code


if __name__ == "__main__":
    sys.exit(main())
