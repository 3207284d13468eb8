import json
import random
from pathlib import Path

import pytest

from latticegroups import MetabelianElement, parse_word
from latticegroups.cli import REGISTRY, main

HERE = Path(__file__).parent
GOLDEN = HERE / "golden"
DATA = HERE / "data"

PERTURB = str(DATA / "perturb.json")
BATCH_COMMANDS = str(DATA / "batch_commands.txt")
BATCH_PAIRS = str(DATA / "batch_pairs.txt")
BATCH_UNCLOSED_QUOTE = str(DATA / "batch_unclosed_quote.txt")
BAD_PERTURB = ["perturb_missing_plaquettes.json", "perturb_not_a_list.json"]

# (golden file stem, argv, expected exit code)
MATRIX = [
    ("reduce_json", ["reduce", "--d", "2", "--json", "x1 x1^-1 x2"], 0),
    ("reduce_human", ["reduce", "--d", "2", "x1 x2 x2^-1 x1"], 0),
    ("reduce_empty", ["reduce", "--d", "2", "--json", "x1 x1^-1"], 0),
    ("eval_free", ["eval", "--group", "free", "--d", "2", "--json", "x2 x1 x1^-1"], 0),
    ("eval_abelian", ["eval", "--group", "abelian", "--d", "3", "--json", "x1 x3^-2"], 0),
    ("eval_heisenberg", ["eval", "--group", "heisenberg", "--d", "2", "--json", "x1 x2 x1^-1 x2^-1"], 0),
    ("eval_metabelian", ["eval", "--group", "metabelian", "--d", "2", "--json", "x1 x2 x1^-1 x2^-1"], 0),
    ("eval_satellite", ["eval", "--group", "satellite", "--k", "3", "--json", "x y x^-1 y^-1"], 0),
    ("eval_metabelian_human", ["eval", "--group", "metabelian", "--d", "2", "x1 x2"], 0),
    ("eq_metabelian_unequal", ["eq", "--group", "metabelian", "--d", "2", "--json", "x1 x2", "x2 x1"], 1),
    ("eq_abelian_equal", ["eq", "--group", "abelian", "--d", "2", "--json", "x1 x2", "x2 x1"], 0),
    ("eq_free_equal", ["eq", "--group", "free", "--d", "2", "x1 x1^-1", ""], 0),
    ("eq_heisenberg_unequal", ["eq", "--group", "heisenberg", "--d", "2", "--json", "x1 x2", "x2 x1"], 1),
    ("eq_satellite_equal", ["eq", "--group", "satellite", "--k", "2", "--json", "x y x^-1 y^-1", "z^2"], 0),
    ("eq_metabelian_equal_loops", ["eq", "--group", "metabelian", "--d", "3", "--json", "x1 x2 x3", "x1 x2 x2^-1 x2 x3"], 0),
    ("nf_two_plaquettes", ["nf", "--d", "2", "--json", "x1^2 x2 x1^-2 x2^-1"], 0),
    ("decompose_two_plaquettes", ["decompose", "--d", "2", "--json", "x1^2 x2 x1^-2 x2^-1"], 0),
    ("decompose_human", ["decompose", "--d", "2", "x1 x2 x1^-1 x2^-1"], 0),
    ("area_negative", ["area", "--d", "2", "--json", "x2 x1 x2^-1 x1^-1"], 0),
    ("cocycle_reversed", ["cocycle", "--json", "0,1", "1,0"], 0),
    ("cocycle_straight_human", ["cocycle", "1,0", "0,1"], 0),
    ("beta_canonical", ["beta", "--k", "1", "--json"], 0),
    ("beta_scaled", ["beta", "--k", "-3", "--json"], 0),
    ("beta_perturbed", ["beta", "--k", "2", "--perturb", PERTURB, "--json"], 0),
    ("fox_commutator", ["fox", "--d", "2", "--json", "x1 x2 x1^-1 x2^-1"], 0),
    ("member_n_true", ["member", "--sub", "N", "--k", "3", "--json", "z"], 0),
    ("member_m_false", ["member", "--sub", "M", "--k", "3", "--json", "z"], 0),
    ("member_commutant_true", ["member", "--sub", "commutant", "--k", "3", "--json", "z^3"], 0),
    ("batch_commands", ["batch", BATCH_COMMANDS], 0),
    ("batch_pairs", ["batch", "--eq", "--group", "metabelian", "--d", "2", BATCH_PAIRS], 0),
]


@pytest.mark.parametrize("name,argv,expected_code", MATRIX, ids=[m[0] for m in MATRIX])
def test_golden_output(name, argv, expected_code, capsys, request):
    code = main(argv)
    out = capsys.readouterr().out
    path = GOLDEN / f"{name}.txt"
    if request.config.getoption("--regen-golden"):
        path.write_text(out, encoding="utf-8")
    assert code == expected_code
    assert out == path.read_text(encoding="utf-8")


def _random_text(rng, names):
    return " ".join(
        f"{rng.choice(names)}^{rng.choice((1, -1, 2, -3))}" for _ in range(rng.randint(0, 12))
    )


# (alias argv, the eval argv it stands for)
ALIASES = [
    (["nf"], ["eval", "--group", "metabelian"]),
    (["reduce"], ["eval", "--group", "free"]),
]


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["human", "json"])
@pytest.mark.parametrize("alias,target", ALIASES, ids=[a[0][0] for a in ALIASES])
def test_alias_matches_eval(alias, target, json_flag, capsys):
    rng = random.Random(f"{alias[0]}{json_flag}")
    for _ in range(20):
        d = rng.randint(1, 3)
        tail = ["--d", str(d), *json_flag, _random_text(rng, [f"x{i}" for i in range(1, d + 1)])]
        assert main(alias + tail) == 0
        alias_out = capsys.readouterr().out
        assert main(target + tail) == 0
        assert capsys.readouterr().out == alias_out


@pytest.mark.parametrize("group", list(REGISTRY))
def test_eq_word_with_itself(group, capsys):
    rng = random.Random(f"eq-{group}")
    names = ("x", "y", "z") if group == "satellite" else ("x1", "x2", "x3")
    for _ in range(10):
        word = _random_text(rng, names)
        assert main(["eq", "--group", group, "--d", "3", "--k", "2", word, word]) == 0
        assert capsys.readouterr().out == "equal\n"


@pytest.mark.parametrize("name", BAD_PERTURB)
def test_beta_rejects_malformed_perturbation(name, capsys):
    assert main(["beta", "--k", "2", "--perturb", str(DATA / name)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_batch_unclosed_quote_marks_only_its_line(capsys):
    assert main(["batch", BATCH_UNCLOSED_QUOTE]) == 0
    assert capsys.readouterr().out == "x1\nerror: No closing quotation\nx2\n"


def test_batch_eq_unclosed_quote_marks_only_its_line(tmp_path, capsys):
    pairs = tmp_path / "pairs.txt"
    pairs.write_text('"x1 x2" "x2 x1"\n"x1 x2 x1\nx2 x2\n', encoding="utf-8")
    assert main(["batch", "--eq", "--group", "abelian", str(pairs)]) == 0
    assert capsys.readouterr().out == "equal\nerror: No closing quotation\nequal\n"


def test_output_is_deterministic(capsys):
    argv = ["eval", "--group", "metabelian", "--d", "2", "--json", "x1 x2 x1^-1 x2^-1"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


def test_eq_error_exit_code(capsys):
    assert main(["eq", "--group", "metabelian", "--d", "2", "x1", "y1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error" in captured.err


def test_error_never_emits_partial_json(capsys):
    assert main(["area", "--d", "2", "--json", "x1 x2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error" in captured.err


def test_rank_guard_via_cli(capsys):
    assert main(["eval", "--group", "metabelian", "--d", "2", "--json", "x3"]) == 2
    assert capsys.readouterr().out == ""


def test_thin_adapter_matches_module(capsys):
    word = "x1^2 x2 x1^-2 x2^-1"
    main(["nf", "--d", "2", "--json", word])
    out = capsys.readouterr().out
    elem = MetabelianElement.from_word(parse_word(word, 2))
    assert json.loads(out) == elem.as_json()


def test_batch_missing_file(capsys):
    assert main(["batch", str(DATA / "no_such_file.txt")]) == 2
    assert "error" in capsys.readouterr().err


def test_batch_empty_file(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("", encoding="utf-8")
    assert main(["batch", str(empty)]) == 0
    assert capsys.readouterr().out == "\n"


def test_nf_rejects_other_groups(capsys):
    assert main(["nf", "--group", "free", "--d", "2", "x1"]) == 2
