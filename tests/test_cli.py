"""Command-line interface: subcommands, schema stability, exit codes."""

from __future__ import annotations

import argparse
import csv
import functools
import importlib.util
import inspect
import io
import json
import re
import shlex
import sys
from pathlib import Path

import pytest

from tlq import cli, tlalg, verify
from tlq.combinatorics import catalan
from tlq.quotientdim import dim_q_closed


def run(capsys, *argv) -> tuple[int, str]:
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def test_dims_json_schema_and_roundtrip(capsys):
    code, out = run(capsys, "dims", "--level", "4", "--n", "3..5")
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["level"] == 4
    assert "q-description" in payload["meta"]
    assert "delta" in payload["meta"]
    rows = payload["rows"]
    assert rows and all(
        set(r) >= {"n", "t", "w", "l_rank", "l_altsum", "l_matrix", "agree"}
        for r in rows
    )
    assert all(r["agree"] for r in rows)
    row = next(r for r in rows if r["n"] == 4 and r["t"] == 0)
    assert row["w"] == 2 and row["l_rank"] == 2 and row["dimQ_closed"] == 8
    # Round trip: parse(emit(table)) == table.
    assert json.loads(json.dumps(payload, indent=2, sort_keys=True)) == payload


def test_dims_deterministic(capsys):
    _, out1 = run(capsys, "dims", "--level", "5", "--n", "4..6")
    _, out2 = run(capsys, "dims", "--level", "5", "--n", "4..6")
    assert out1 == out2


def test_dims_csv_and_markdown(capsys):
    code, out = run(capsys, "dims", "--level", "4", "--n", "4..4", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert {r["t"] for r in rows} == {"0", "2"}
    code, out = run(capsys, "dims", "--level", "4", "--n", "4..4", "--format", "markdown")
    assert code == 0
    assert out.startswith("| n | t | w |")


def test_dims_out_file(tmp_path, capsys):
    target = tmp_path / "table.json"
    code, out = run(capsys, "dims", "--level", "4", "--n", "3..4", "--out", str(target))
    assert code == 0 and out == ""
    payload = json.loads(target.read_text())
    assert payload["rows"]


def test_jw_outputs(capsys):
    code, out = run(capsys, "jw", "--level", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["checks"] == {
        "idempotent": True,
        "killed_by_generators": True,
        "identity_coefficient_one": True,
        "trace_zero": True,
    }
    coeffs = {r["pairing"]: r["coefficient"] for r in payload["rows"]}
    assert coeffs == {"1,0,3,2": "-1", "3,2,1,0": "1"}


def test_jw_level4_coefficients(capsys):
    code, out = run(capsys, "jw", "--level", "4")
    assert code == 0
    payload = json.loads(out)
    reals = sorted(round(r["approx_re"], 6) for r in payload["rows"])
    assert reals == sorted((1.0, 1.0, 1.0, -1.414214, -1.414214))


def test_gram_rank_cell_and_trace(capsys):
    code, out = run(capsys, "gram-rank", "--level", "4", "--n", "4..5", "--kind", "cell")
    assert code == 0
    rows = json.loads(out)["rows"]
    got = {(r["n"], r["t"]): r["rank"] for r in rows}
    assert got[(4, 0)] == 2 and got[(4, 2)] == 2 and got[(5, 1)] == 4
    code, out = run(capsys, "gram-rank", "--level", "4", "--n", "2..4", "--kind", "trace")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert {r["n"]: r["rank"] for r in rows} == {2: 2, 3: 4, 4: 8}


def test_quotient_command(capsys):
    code, out = run(capsys, "quotient", "--level", "3", "--n", "2..5")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert all(r["dimQ_ideal"] == 1 for r in rows)


def test_clifford_check(capsys):
    code, out = run(capsys, "clifford-check", "--n", "3..4")
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"] and all(r["pass"] for r in payload["rows"])


def test_catalan_command(capsys):
    code, out = run(capsys, "catalan", "--K", "6")
    assert code == 0
    payload = json.loads(out)
    assert all(r["pass"] for r in payload["rows"])


def test_verify_suites_run(capsys):
    code, out = run(capsys, "verify", "gram", "--level", "5", "--max-n", "6")
    assert code == 0
    report = json.loads(out)
    assert report["suite"] == "gram" and report["passed"]
    code, out = run(capsys, "verify", "q3", "--max-n", "5")
    assert code == 0 and json.loads(out)["passed"]


def test_verify_default_max_n(capsys):
    code, out = run(capsys, "verify", "gram", "--level", "5")
    assert code == 0
    report = json.loads(out)
    assert [c["name"].split(":")[0] for c in report["checks"]] == [
        f"n={n}" for n in range(1, 9)
    ]


@pytest.mark.parametrize(
    "argv, max_n",
    [(("fibonacci", "--max-n", "5"), 5), (("clifford", "--max-n", "4", "--seed", "3"), 4)],
)
def test_verify_passes_max_n_to_suites_that_take_it(capsys, argv, max_n):
    code, out = run(capsys, "verify", *argv)
    assert code == 0
    names = [c["name"] for c in json.loads(out)["checks"]]
    assert max(int(name[2:].split(":")[0]) for name in names if name.startswith("n=")) == max_n


def test_gram_rank_t_admissible_for_no_n_is_a_usage_error(capsys):
    assert cli.main(["gram-rank", "--level", "5", "--n", "4", "--t", "3"]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and "admissible" in captured.err
    # Admissible for n = 5 only: computed, not refused.
    code, out = run(capsys, "gram-rank", "--level", "5", "--n", "4..5", "--t", "3")
    assert code == 0
    assert [(r["n"], r["t"]) for r in json.loads(out)["rows"]] == [(5, 3)]


def test_gram_rank_trace_refuses_t(capsys):
    assert cli.main(["gram-rank", "--level", "4", "--n", "2..3", "--kind", "trace", "--t", "1"]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and "--kind cell" in captured.err


def test_dims_input_validation(capsys):
    for argv in (
        ["--level", "2", "--n", "3..4"],
        ["--level", "4", "--n", "5..3"],
        ["--level", "4", "--n", "3..4", "--routes", ""],
        ["--level", "4", "--n", "3..4", "--routes", "bogus"],
    ):
        assert cli.main(["dims", *argv]) == cli.EXIT_USAGE
        assert capsys.readouterr().out == ""
    code, out = run(capsys, "dims", "--level", "4", "--n", "4..4")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert {r["t"] for r in rows} == {0, 2} and all(r["agree"] for r in rows)


@pytest.mark.parametrize("level, n", [(4, "0..2"), (6, "0..1"), (5, "0..2")])
def test_dims_below_the_closed_forms(capsys, level, n):
    # Below the domain of the closed simple dimensions the route is absent,
    # not a disagreement.
    code, out = run(capsys, "dims", "--level", str(level), "--n", n)
    assert code == 0
    assert all(r["agree"] for r in json.loads(out)["rows"])


def test_table_columns_are_the_union_of_row_keys(capsys):
    # Trace rows gain ideal_dim from n = level - 1 on.
    argv = ("gram-rank", "--level", "4", "--n", "2..4", "--kind", "trace", "--format")
    code, out = run(capsys, *argv, "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["ideal_dim"] for r in rows] == ["", "1", "6"]
    code, out = run(capsys, *argv, "markdown")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "| n | dim | rank | agree | ideal_dim |"
    assert lines[2] == "| 2 | 2 | 2 | True |  |"
    assert lines[4] == "| 4 | 14 | 8 | True | 6 |"


@pytest.mark.parametrize(
    "argv",
    [
        ("dims", "--level", "4"),
        ("gram-rank", "--level", "5", "--kind", "trace"),
        ("gram-rank", "--level", "5", "--kind", "cell"),
        ("quotient", "--level", "4"),
        ("clifford-check",),
    ],
)
@pytest.mark.parametrize("n", ["-3..-1", "-1..2", "-2"])
def test_negative_n_is_a_usage_error(capsys, argv, n):
    assert cli.main([*argv, f"--n={n}"]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and "non-negative" in captured.err


@pytest.mark.parametrize(
    "argv", [("radical", "--level", "3", "--max-n", "-2"), ("gram", "--level", "5", "--max-n", "-1")]
)
def test_verify_negative_max_n_is_a_usage_error(capsys, argv):
    # A suite given no n to check must not report a vacuous pass.
    assert cli.main(["verify", *argv]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and "non-negative" in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv", [("dims", "--level", "4", "--n", "3..4"), ("verify", "q3", "--max-n", "4")]
)
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "x.json"
    assert cli.main([*argv, "--out", str(target)]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and not target.exists()
    assert captured.err.startswith("error: cannot write") and captured.err.count("\n") == 1


def test_dimension_tables_script(tmp_path, monkeypatch, capsys):
    path = Path(__file__).resolve().parents[1] / "scripts" / "dimension_tables.py"
    spec = importlib.util.spec_from_file_location("dimension_tables", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(sys, "argv", [str(path), "5", str(tmp_path)])
    assert script.main() == 0
    capsys.readouterr()
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == sorted(f"{kind}_level{level}.md" for kind in ("dims", "quotient") for level in (3, 4, 5, 6))
    for name in names:
        assert (tmp_path / name).read_text().startswith("| n |")


def test_readme_commands_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = [line for line in readme.splitlines() if line.startswith("tlq ")]
    assert len(commands) >= 10
    parser = cli.build_parser()
    for line in commands:
        args = parser.parse_args(shlex.split(line, comments=True)[1:])
        assert callable(args.func), line


def test_usage_errors(capsys):
    assert cli.main(["verify", "nosuchsuite"]) == cli.EXIT_USAGE
    capsys.readouterr()
    assert cli.main(["dims", "--level", "4", "--n", "5..3"]) == cli.EXIT_USAGE
    capsys.readouterr()
    assert cli.main(["dims", "--level", "4", "--n", "3..4", "--routes", "bogus"]) == cli.EXIT_USAGE
    capsys.readouterr()
    assert cli.main(["nosuchcommand"]) == cli.EXIT_USAGE
    capsys.readouterr()


def test_resource_cap_exit(capsys):
    assert cli.main(["jw", "--level", "10"]) == cli.EXIT_RESOURCE
    capsys.readouterr()


@pytest.fixture
def sandwich_stub(monkeypatch):
    """The mod-p sandwich, stood in for by the closed forms; the test fails
    if the sandwich is started past n = 8, where it takes minutes and GBs."""

    def radical_split(level, n):
        if n > 8:
            pytest.fail(f"radical_split({level}, {n}) started past the sandwich reach")
        dim = dim_q_closed(level, n)
        return tlalg.RadicalSplit(level, n, dim, catalan(n) - dim)

    monkeypatch.setattr(tlalg, "radical_split", radical_split)


@pytest.mark.parametrize(
    "argv",
    [("quotient", "--level", "5", "--n", "9..9"), ("gram-rank", "--level", "4", "--n", "9..9", "--kind", "trace")],
)
def test_sandwich_past_its_reach_exits_3(capsys, sandwich_stub, argv):
    code, _ = run(capsys, *argv)
    assert code == cli.EXIT_RESOURCE


def test_quotient_ideal_column_stops_at_the_reach(capsys, monkeypatch):
    monkeypatch.setitem(verify.REACH, "sandwich", 6)
    code, out = run(capsys, "quotient", "--level", "5", "--n", "5..7")
    assert code == 0
    assert [r["dimQ_ideal"] for r in json.loads(out)["rows"]] == [34, 89, None]


def test_verify_suites_stop_at_the_sandwich_reach(capsys, sandwich_stub):
    for suite in ("q3", "radical"):
        code, out = run(capsys, "verify", suite, "--max-n", "12")
        assert code == 0
        ns = [int(re.search(r"n=(\d+)", c["name"]).group(1)) for c in json.loads(out)["checks"]]
        assert max(ns) == 8, suite


@pytest.mark.parametrize(
    "argv",
    [
        ("q3", "--max-n", "1"),
        ("radical", "--max-n", "1"),
        ("gram", "--max-n", "0"),
        ("ising", "--max-n", "2"),
        ("classification", "--max-n", "0"),
        ("clifford", "--max-n", "2"),
        ("fibonacci", "--max-n", "3"),
        ("level6", "--max-n", "1"),
    ],
)
def test_verify_with_no_checks_is_a_usage_error(capsys, argv):
    # A report that checks nothing does not pass.
    assert cli.main(["verify", *argv]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert verify.SUITES[argv[0]](max_n=int(argv[2]))["passed"] is False


def test_classification_checks_only_levels_with_an_n():
    report = verify.classification_suite(max_n=3)
    assert [c["name"] for c in report["checks"]] == ["level 4: annihilation iff t <= 2"]


@pytest.mark.parametrize(
    "argv, taken",
    [
        (("radical", "--level", "3", "--max-n", "4"), ["--max-n"]),
        (("q3", "--level", "7", "--max-n", "3"), ["--max-n"]),
        (("ising", "--K", "5"), ["--max-n"]),
        (("jw", "--max-n", "5"), []),
        (("properties", "--max-n", "3"), ["--seed"]),
    ],
)
def test_verify_refuses_a_flag_its_suite_does_not_take(capsys, monkeypatch, argv, taken):
    suite = verify.SUITES[argv[0]]

    @functools.wraps(suite)
    def must_not_run(*args, **kwargs):
        pytest.fail(f"suite {argv[0]} ran despite a flag it does not take")

    monkeypatch.setitem(verify.SUITES, argv[0], must_not_run)
    assert cli.main(["verify", *argv]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    named = re.findall(r"--[\w-]+", captured.err.split(";")[0])
    assert named == [*taken, "--out"]


def test_clifford_check_with_no_checks_is_a_usage_error(capsys):
    assert cli.main(["clifford-check", "--n", "0..2"]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1


def test_clifford_stops_at_its_reach(capsys, monkeypatch):
    monkeypatch.setitem(verify.REACH, "clifford", 4)
    code, out = run(capsys, "clifford-check", "--n", "3..6")
    assert code == 0
    ns = {int(r["name"][2:].split(":")[0]) for r in json.loads(out)["rows"]}
    assert ns == {3, 4}
    code, out = run(capsys, "clifford-check", "--n", "5..6")
    assert code == cli.EXIT_RESOURCE and out == ""


def test_every_option_is_read_by_its_handler():
    # No option that its command ignores.
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for name, sub in commands.choices.items():
        source = inspect.getsource(sub.get_default("func"))
        for action in sub._actions:
            if action.dest != "help":
                assert f"args.{action.dest}" in source, (name, action.option_strings)


def test_disagreement_exit(monkeypatch, capsys):
    import tlq.cellrep

    monkeypatch.setattr(tlq.cellrep, "simple_dim_altsum", lambda t, n, level: 999)
    code = cli.main(["dims", "--level", "4", "--n", "4..4"])
    capsys.readouterr()
    assert code == cli.EXIT_DISAGREE
