"""Command-line surface: dispatch, report schema, exit codes, golden tables."""

import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from lctlab import cli
from lctlab.cli import build_parser, emit_golden_tables, infer_nvars, main


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_infer_nvars():
    assert infer_nvars("x^3 + y^3") == 2
    assert infer_nvars("x1*x4 - x2*x3") == 4
    assert infer_nvars("w^2") == 4
    assert infer_nvars("3") == 1


def test_lct_diagonal_prints_value_and_json(capsys):
    code, out, _ = run(capsys, "lct", "diagonal", "--n", "2", "--d", "5")
    assert code == 0
    assert out.splitlines()[0] == "2/5"
    report = json.loads("\n".join(out.splitlines()[1:]))
    assert report["schema"] == "lct-lab/1"
    assert report["results"][0]["lct_fJ2"] == "2/5"
    assert report["results"][0]["provenance"] == "reference"
    assert "seed" in report["config"]


def test_lct_diagonal_usage_error(capsys):
    code, _, err = run(capsys, "lct", "diagonal", "--n", "0", "--d", "5")
    assert code == 2
    assert "usage error" in err


def test_unknown_subcommand_exits_2(capsys):
    assert main(["no-such-command"]) == 2


def test_lct_det_and_monomial(capsys):
    code, out, _ = run(capsys, "lct", "det", "--n", "4")
    assert code == 0 and out.splitlines()[0] == "2"
    code, out, _ = run(capsys, "lct", "monomial", "--ideal", "x^3,y^3")
    assert code == 0 and out.splitlines()[0] == "2/3"


def test_jets_json_fields(capsys):
    code, out, _ = run(
        capsys, "jets", "count", "--ideal", "x1*x4-x2*x3", "--p", "3", "--m", "1", "--e", "1"
    )
    assert code == 0
    rep = json.loads(out)
    row = rep["results"][0]
    assert row["p"] == 3 and row["m"] == 1 and row["e"] == 1
    assert row["count"] == 3**4 * 33
    assert "density" in row


def test_budget_exit_code(capsys):
    code, _, err = run(
        capsys,
        "--budget", "100",
        "jets", "count", "--ideal", "x1*x4-x2*x3", "--p", "5", "--m", "2", "--e", "1",
    )
    assert code == 3
    assert "budget" in err


def test_lct_monomial_budget_exit_code(capsys):
    # two minimal generators in two variables: C(4, 2) = 6 bases to visit
    code, out, _ = run(capsys, "--budget", "6", "lct", "monomial", "--ideal", "x^3,y^3")
    assert code == 0 and out.splitlines()[0] == "2/3"
    code, _, err = run(capsys, "--budget", "5", "lct", "monomial", "--ideal", "x^3,y^3")
    assert code == 3
    assert "budget" in err


def test_lct_det_budget_exit_code(capsys):
    code, out, _ = run(capsys, "--budget", "160", "lct", "det", "--n", "5")
    assert code == 0 and out.splitlines()[0] == "2"
    code, _, err = run(capsys, "--budget", "3", "lct", "det", "--n", "5")
    assert code == 3
    assert "needs 160 slice classes, budget is 3" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["lct", "det", "--n", "3", "--d", "4"],
        ["lct", "det", "--n", "3", "--ideal", "x^2"],
        ["lct", "det", "--n", "3", "--nvars", "2"],
        ["lct", "diagonal", "--n", "3", "--d", "4", "--ideal", "x^2"],
        ["lct", "diagonal", "--n", "3", "--d", "4", "--nvars", "2"],
        ["lct", "monomial", "--ideal", "x^3,y^3", "--n", "2"],
        ["lct", "monomial", "--ideal", "x^3,y^3", "--d", "3"],
    ],
)
def test_lct_flag_of_another_kind_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "does not apply to lct" in err
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "milnor", "--grid", "3"],
        ["check", "milnor", "--ideal", "x^2"],
        ["check", "milnor", "--nvars", "2"],
        ["check", "thmA", "--ideal", "x^2"],
        ["check", "thmB", "--nvars", "2"],
        ["check", "corD", "--grid", "3"],
    ],
)
def test_check_flag_its_kind_does_not_read_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert f"does not apply to check {argv[1]}" in err
    assert out == ""


def test_check_thm_budget_reaches_the_determinantal_rows(capsys):
    # the determinantal rows n = 2..6 visit 16 / 48 / 96 / 160 / 240 slice classes
    code, _, err = run(capsys, "--budget", "239", "check", "thmB", "--grid", "8")
    assert code == 3
    assert "needs 240 slice classes, budget is 239" in err
    code, out, _ = run(capsys, "--budget", "240", "check", "thmB", "--grid", "8")
    assert code == 0
    assert all(row["consistent"] for row in json.loads(out)["results"])


def test_check_corD_budget_reaches_the_newton_walks(capsys):
    # the same walk as lct monomial: C(4, 2) = 6 bases for (x^3, y^3)
    code, out, err = run(capsys, "--budget", "5", "check", "corD", "--ideal", "x^3,y^3")
    assert code == 3
    assert "needs 6 candidate bases, budget is 5" in err
    assert out == ""


def test_check_failure_exit_code(capsys):
    # x is not in the Jacobian-square ideal of x^3
    code, _, err = run(
        capsys, "tougeron", "--poly", "x^3", "--g", "x", "--order", "8"
    )
    assert code == 1
    assert "check failed" in err


def test_rank_drop_exit_code(capsys, monkeypatch):
    # RankDropError subclasses ValueError but is a failed hypothesis, not a
    # usage error
    import lctlab.cli
    from lctlab.equiv import RankDropError

    def drop(f, order):
        raise RankDropError(2, 1)

    monkeypatch.setattr(lctlab.cli, "morsify", drop)
    code, _, err = run(capsys, "morsify", "--poly", "x^2+y^2", "--order", "6")
    assert code == 1
    assert "check failed" in err


def test_tougeron_roundtrip(capsys):
    code, out, _ = run(
        capsys, "tougeron", "--poly", "x^3", "--g", "x^4", "--order", "10"
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["results"][0]["verified"] is True


def test_morsify_cli(capsys):
    code, out, _ = run(capsys, "morsify", "--poly", "x^2 + x*y^2", "--order", "8")
    assert code == 0
    rep = json.loads(out)
    assert rep["results"][0]["diag_coeffs"] == ["1"]
    assert rep["results"][0]["residual"] == "-1/4*x2^4"


def test_milnor_cli(capsys):
    code, out, _ = run(capsys, "milnor", "--poly", "x^3 + y^3")
    assert code == 0
    assert out.splitlines()[0] == "4"


def test_expsum_cli(capsys):
    code, out, _ = run(capsys, "expsum", "--poly", "x^2", "--p", "5", "--m", "2")
    assert code == 0
    row = json.loads(out)["results"][0]
    assert abs(float(row["abs"]) - 0.2) < 1e-9
    assert row["sigma_m"] is not None


def test_decay_cli_tsv(capsys):
    code, out, _ = run(
        capsys,
        "--format", "tsv",
        "decay", "--poly", "x^2", "--p", "11", "--mmax", "2", "--lct", "1/2",
    )
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0].split("\t")[:3] == ["p", "m", "re"]
    assert len(lines) == 3  # header plus two levels


def test_igusa_cli(capsys):
    code, out, _ = run(
        capsys, "igusa-check", "--poly", "x^2", "--p", "7", "--m", "2", "--z", "x"
    )
    assert code == 0
    checks = json.loads(out)["results"][0]["checks"]
    assert checks["efz1"] is True and checks["efzj"] is True


@pytest.mark.parametrize("poly", ["5", "0"])
def test_igusa_cli_refuses_a_constant(capsys, poly):
    # the refusal names the constant input, not the Jacobian ideal built from it
    code, out, err = run(capsys, "igusa-check", "--poly", poly, "--p", "7", "--m", "2")
    assert code == 2
    assert "igusa_identity_check needs a nonconstant polynomial" in err
    assert "generator" not in err
    assert out == ""


def test_nk_cli(capsys):
    code, out, _ = run(capsys, "nk", "--poly", "x^2", "--p", "5", "--k", "2")
    assert code == 0
    assert json.loads(out)["results"][0]["nk"] == 5


def test_check_suites(capsys):
    code, out, _ = run(capsys, "check", "thmB", "--grid", "4")
    assert code == 0
    rows = json.loads(out)["results"]
    assert all(r["consistent"] for r in rows)
    code, out, _ = run(capsys, "check", "corD")
    assert code == 0
    rows = json.loads(out)["results"]
    assert len(rows) == 10
    assert all(r["equal"] for r in rows if not r["skipped"])
    code, out, _ = run(capsys, "check", "milnor")
    assert code == 0


def test_check_thmA_reports_the_regime_rows(capsys):
    code, out, _ = run(capsys, "check", "thmA", "--grid", "3")
    assert code == 0
    rows = json.loads(out)["results"]
    assert len(rows) == 6  # four diagonal (n, d) pairs, two determinants
    for row in rows:
        # lct(f) = min(n/d, 1) for x_1^d + ... + x_n^d; 1 for the determinant
        expected = min(Fraction(row["n"], row["d"]), 1) if row["family"] == "diagonal" else 1
        assert Fraction(row["lct_f"]) == expected
        assert row["consistent"]


@pytest.mark.parametrize("lct,flagged", [("1", [2, 3]), ("1/2", [])])
def test_decay_flags_levels_below_the_reference_threshold(capsys, lct, flagged):
    # x^2 decays with sigma = 1/2 at every level m >= 2
    code, out, _ = run(capsys, "decay", "--poly", "x^2", "--p", "5", "--mmax", "3", "--lct", lct)
    assert code == 0
    rows = json.loads(out)["results"]
    assert [row["m"] for row in rows if row["flagged"]] == flagged


@pytest.mark.parametrize("source", ["flag", "env"])
def test_budget_below_one_is_a_usage_error(capsys, monkeypatch, source):
    if source == "flag":
        argv = ["--budget", "0", "lct", "det", "--n", "3"]
    else:
        monkeypatch.setenv("LCTLAB_BUDGET", "-5")
        argv = ["lct", "det", "--n", "3"]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "usage error: budget must be positive" in err
    assert out == ""


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest", "--cases", "3", "--seed", "99")
    assert code == 0


def test_selftest_skips_a_germ_of_multiplicity_above_three(capsys):
    # at seed 107 the random terms cancel the x^3 term: 2*x^4 - x*y^3
    code, out, _ = run(capsys, "selftest", "--cases", "1", "--seed", "107")
    assert code == 0
    assert json.loads(out)["results"] == [{"case": 0, "skipped": True}]


def test_tsv_report_without_rows_is_the_header_alone():
    out = io.StringIO()
    cli.emit_report("check", {"what": "corD"}, [], "tsv", out=out)
    assert out.getvalue() == (
        f"# schema: {cli.SCHEMA}\n# version: {cli.__version__}\n# command: check\n# what: corD\n"
    )


def test_top_level_seed_reaches_selftest(capsys):
    code, out, _ = run(capsys, "--seed", "99", "selftest", "--cases", "1")
    assert code == 0
    assert json.loads(out)["config"]["seed"] == 99


def test_budget_error_names_the_counted_unit(capsys):
    code, _, err = run(capsys, "--budget", "5", "lct", "monomial", "--ideal", "x^3,y^3")
    assert code == 3
    assert "needs 6 candidate bases, budget is 5" in err
    code, _, err = run(
        capsys, "--budget", "5", "jets", "count", "--ideal", "x",
        "--p", "5", "--m", "3", "--e", "1",
    )
    assert code == 3
    assert "needs 625 jets, budget is 5" in err
    code, _, err = run(
        capsys, "--budget", "5", "expsum", "--poly", "x^3+y^3", "--p", "7", "--m", "3"
    )
    assert code == 3
    assert "needs 117649 points, budget is 5" in err


def test_golden_tables_stable(tmp_path):
    d1 = tmp_path / "g1"
    d2 = tmp_path / "g2"
    emit_golden_tables(str(d1))
    emit_golden_tables(str(d2))
    names = sorted(os.listdir(d1))
    assert names == [
        "determinantal.tsv",
        "diagonal_lct_grid.tsv",
        "expsum_profiles.tsv",
        "milnor_grid.tsv",
        "yano_roots.tsv",
    ]
    for name in names:
        b1 = (d1 / name).read_bytes()
        b2 = (d2 / name).read_bytes()
        assert b1 == b2, name
    grid = (d1 / "diagonal_lct_grid.tsv").read_text().splitlines()
    assert "n=5\td=3\tlct_fJ2=3/2\talpha=5/3\tstrict=true" in "\n".join(grid)


# SHA-256 of the exact golden tables; expsum_profiles.tsv is left out
# because its floats come from the platform's libm
_GOLDEN_SHA256 = {
    "determinantal.tsv": "f53f556621c04dcab14782b9abada22c3872e8336b2a98b6ec234940aed5b7c6",
    "diagonal_lct_grid.tsv": "b019f53813a0eb59992668db6c0b1b46952818b272e9218040f7f0b7575e79eb",
    "milnor_grid.tsv": "92c745c1ed7ffe3016023fdcd8f7d41a9f00022d7ba2d3fed2a1901d0aa46b57",
    "yano_roots.tsv": "4b4b23bb5d26d83c2d3a904af1fa7efe3c72e78e07263e30dcfd9ee4bdaab712",
}


def test_exact_golden_tables_are_pinned(tmp_path):
    emit_golden_tables(str(tmp_path))
    for name, digest in _GOLDEN_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def test_golden_command_writes_the_pinned_tables(capsys, tmp_path):
    code, out, _ = run(capsys, "golden", "--out", str(tmp_path))
    assert code == 0
    written = json.loads(out)["results"][0]["written"]
    assert sorted(os.path.basename(path) for path in written) == sorted(
        [*_GOLDEN_SHA256, "expsum_profiles.tsv"]
    )
    for name, digest in _GOLDEN_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


@pytest.mark.parametrize(
    "argv,message",
    [
        (["tougeron", "--poly", "x^3+y^3", "--g", "x^4+x^2*y^2", "--order", "10"],
         "absorption map failed final verification"),
        (["morsify", "--poly", "x^2 + x*y^2 + y^3", "--order", "8"], "morsify failed to verify"),
        (["selftest", "--cases", "3", "--seed", "99"], "absorption map failed final verification"),
    ],
)
def test_a_wrong_composed_map_fails_the_library_check(capsys, monkeypatch, argv, message):
    # composition that drops its second factor: every map the commands build
    # is wrong, and the library's own substitution check must say so
    from lctlab.equiv import CoordinateMap

    monkeypatch.setattr(CoordinateMap, "then", lambda self, other: self)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert "check failed" in err and message in err
    assert out == ""


def test_env_budget(capsys, monkeypatch):
    monkeypatch.setenv("LCTLAB_BUDGET", "100")
    code, _, err = run(
        capsys, "jets", "count", "--ideal", "x1*x4-x2*x3", "--p", "5", "--m", "2", "--e", "1"
    )
    assert code == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["expsum", "--poly", "x^2", "--p", "4", "--m", "2"],
        ["expsum", "--poly", "x^2", "--p", "7", "--m", "0"],
        ["expsum", "--poly", "x^2", "--p", "1", "--m", "1"],
        ["expsum", "--poly", "3", "--nvars", "1", "--p", "5", "--m", "2", "--restrict", "x"],
        ["nk", "--poly", "x^2", "--p", "4", "--k", "2"],
        ["nk", "--poly", "x^2", "--p", "5", "--k", "0"],
        ["decay", "--poly", "x^2", "--p", "4", "--mmax", "2"],
        ["decay", "--poly", "x^2", "--p", "5", "--mmax", "0"],
        ["igusa-check", "--poly", "x^2", "--p", "4", "--m", "2"],
        ["jets", "count", "--ideal", "x*y", "--p", "6", "--m", "1", "--e", "1"],
        ["jets", "count", "--ideal", "x*y", "--p", "5", "--m", "0", "--e", "1"],
        ["jets", "count", "--ideal", "x*y", "--p", "5", "--m", "1", "--e", "0"],
    ],
)
def test_invalid_padic_input_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "usage error" in err
    assert out == ""


@pytest.mark.parametrize("poly,p", [("x^3 + y^3", 7), ("x", 5)])
def test_expsum_and_decay_share_the_sigma_rule(capsys, poly, p):
    code, out, _ = run(capsys, "decay", "--poly", poly, "--p", str(p), "--mmax", "3")
    assert code == 0
    profile = {row["m"]: row["sigma_m"] for row in json.loads(out)["results"]}
    for m in (1, 2, 3):
        code, out, _ = run(capsys, "expsum", "--poly", poly, "--p", str(p), "--m", str(m))
        assert code == 0
        assert json.loads(out)["results"][0]["sigma_m"] == profile[m]


@pytest.mark.parametrize(
    "argv",
    [
        ["igusa-check", "--poly", "x^2", "--p", "3", "--m", "2"],  # warned, not failed
        ["lct", "det", "--n", "3"],
        ["check", "milnor"],
    ],
)
def test_handlers_return_only_their_rows(capsys, argv):
    args = build_parser().parse_args(argv)
    rows = args.func(args)
    capsys.readouterr()
    assert isinstance(rows, list) and rows and all(isinstance(r, dict) for r in rows)


def test_indexed_letter_is_a_usage_error(capsys):
    # "y2" is y times 2 written without "*", not a variable
    assert infer_nvars("y2^2 + x^3") == 2
    code, _, err = run(capsys, "milnor", "--poly", "y2^2 + x^3")
    assert code == 2
    assert "implicit multiplication" in err


@pytest.mark.parametrize("grid", ["0", "1", "-2"])
def test_grid_below_two_is_a_usage_error(capsys, grid):
    # --grid 0 used to run the default grid, 1 and -2 an empty table
    code, out, err = run(capsys, "check", "thmB", "--grid", grid)
    assert code == 2
    assert "--grid must be at least 2" in err
    assert out == ""


@pytest.mark.parametrize("cases", ["0", "-1"])
def test_selftest_cases_below_one_is_a_usage_error(capsys, cases):
    code, out, err = run(capsys, "selftest", "--cases", cases)
    assert code == 2
    assert "--cases must be at least 1" in err
    assert out == ""


def test_milnor_order_cap_below_one_is_a_usage_error(capsys):
    code, out, err = run(capsys, "milnor", "--poly", "x^3 + y^3", "--order-cap", "0")
    assert code == 2
    assert "--order-cap must be at least 1" in err
    assert out == ""


@pytest.mark.parametrize(
    "argv, least",
    [
        (["tougeron", "--poly", "x^3+y^3", "--g", "x^4", "--order", "1"], 2),
        (["tougeron", "--poly", "x^3+y^3", "--g", "x^4", "--order", "0"], 2),
        (["morsify", "--poly", "x^2+y^3", "--order", "2"], 3),
    ],
)
def test_order_below_the_least_for_a_map_is_a_usage_error(capsys, argv, least):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"--order must be at least {least}" in err


@pytest.mark.parametrize("nvars", ["0", "-1"])
def test_nvars_below_one_is_a_usage_error(capsys, nvars):
    # --nvars 0 used to run with the inferred count and record "nvars": 0,
    # and -1 failed in the parser with a message about x1
    code, out, err = run(capsys, "milnor", "--poly", "x^3+y^3", "--nvars", nvars)
    assert code == 2
    assert "--nvars must be at least 1" in err
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [["lct", "det", "--n", "5"], ["check", "corD"], ["check", "thmB"]],
)
def test_json_report_bytes_match_json_dump(tmp_path, capsys, argv):
    # the report is written in one piece; its bytes are those json.dump wrote
    path = tmp_path / "report.json"
    assert main(["--output", str(path)] + argv) == 0
    capsys.readouterr()
    written = path.read_bytes()
    buf = io.StringIO()
    json.dump(json.loads(written), buf, indent=2)
    buf.write("\n")
    assert written == buf.getvalue().encode()


# ---------------------------------------------------------------- shared parser


def report_of(tmp_path, argv, fresh=False):
    """(exit code, report text) of one in-process call, through the parser
    shared by every ``main`` call or through a newly built one."""
    path = tmp_path / "report.out"
    if path.exists():
        path.unlink()
    if fresh:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_shared_parser", build_parser)
            code = main(["--output", str(path)] + argv)
    else:
        code = main(["--output", str(path)] + argv)
    return code, path.read_text() if path.exists() else None


SHARED_PARSER_SEQUENCES = [
    # a TSV report, then the default format
    [["--format", "tsv", "check", "corD"], ["check", "corD"]],
    # a budget refusal, then no budget: the budget falls back to resolve_budget
    [["--budget", "5", "lct", "monomial", "--ideal", "x^3,y^3"],
     ["lct", "monomial", "--ideal", "x^3,y^3"]],
    # a usage error, then a valid call
    [["lct", "diagonal", "--n", "0", "--d", "5"], ["lct", "diagonal", "--n", "3", "--d", "5"]],
    [["no-such-command"], ["lct", "det", "--n", "3"]],
    # selftest's own --seed (suppressed default), then a top-level --seed
    [["selftest", "--cases", "1", "--seed", "99"], ["--seed", "7", "selftest", "--cases", "1"],
     ["selftest", "--cases", "1"]],
    # an explicit --nvars, then an inferred one
    [["milnor", "--poly", "x^3", "--nvars", "2"], ["milnor", "--poly", "x^3"]],
]


@pytest.mark.parametrize("sequence", SHARED_PARSER_SEQUENCES)
def test_shared_parser_leaks_nothing_between_calls(tmp_path, capsys, sequence):
    for argv in sequence:
        shared = report_of(tmp_path, argv)
        fresh = report_of(tmp_path, argv, fresh=True)
        capsys.readouterr()
        assert shared == fresh, argv


def test_main_builds_its_parser_once(capsys, monkeypatch):
    built = []

    def counting():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._shared_parser.cache_clear()
    try:
        for _ in range(3):
            assert main(["lct", "det", "--n", "3"]) == 0
        assert main(["no-such-command"]) == 2
    finally:
        cli._shared_parser.cache_clear()
    capsys.readouterr()
    assert len(built) == 1
    # build_parser still returns a parser of its own on every call
    assert build_parser() is not build_parser()


# A report written to a stdout whose reader has gone: the command keeps its
# own exit code and prints no traceback, with stdout buffered or not.
_CLOSED_STDOUT_SCRIPT = """
import sys
from lctlab import cli
if sys.argv[1] == "fail":
    def failing(args):  # a check fails before a row is written, as in every handler
        raise cli.CheckFailure("forced failure")
    cli._cmd_milnor = failing
    sys.argv[1:] = ["milnor", "--poly", "x^3"]
sys.exit(cli.main(sys.argv[1:]))
"""


def _run_with_closed_stdout(argv, unbuffered):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to stdout now fails with EPIPE
    try:
        proc = subprocess.run([sys.executable, "-c", _CLOSED_STDOUT_SCRIPT, *argv], env=env,
                              stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write_end)
    return proc.returncode, proc.stderr


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv, code", [
    (["lct", "det", "--n", "3"], 0),
    (["--format", "tsv", "check", "corD"], 0),
    (["--help"], 0),
    (["fail"], 1),
])
def test_closed_stdout_keeps_the_exit_code(argv, code, unbuffered):
    got, err = _run_with_closed_stdout(argv, unbuffered)
    assert "Traceback" not in err and "BrokenPipe" not in err, err
    assert got == code, err


# invalid inputs that used to end in a traceback: each is a usage error
@pytest.mark.parametrize("case", ["zero-denominator-lct", "env-budget", "output", "golden-out"])
def test_invalid_inputs_are_usage_errors(case, capsys, monkeypatch, tmp_path):
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    argv = {
        "zero-denominator-lct": ["decay", "--poly", "x^2", "--p", "5", "--mmax", "2", "--lct", "1/0"],
        "env-budget": ["lct", "det", "--n", "3"],
        "output": ["--output", str(blocker / "d" / "r.json"), "lct", "det", "--n", "3"],
        "golden-out": ["golden", "--out", str(blocker / "g")],
    }[case]
    if case == "env-budget":
        monkeypatch.setenv("LCTLAB_BUDGET", "abc")
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("usage error:") and len(err.splitlines()) == 1, err


def test_unwritable_output_is_refused_before_any_work(capsys, monkeypatch, tmp_path):
    # the report path is opened first: no handler runs and stdout stays empty
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    calls = []
    monkeypatch.setattr(cli, "lct_det_fJ2", lambda *args, **kwargs: calls.append(args))
    code, out, err = run(capsys, "--output", str(blocker / "r.json"), "lct", "det", "--n", "3")
    assert (code, out, calls) == (2, "", [])
    assert err.startswith("usage error: cannot write the report"), err


@pytest.mark.parametrize("argv,code,stale", [
    (["lct", "det", "--n", "1"], 2, False),
    (["--budget", "5", "lct", "det", "--n", "3"], 3, False),
    (["--budget", "5", "lct", "det", "--n", "3"], 3, True),
])
def test_failed_command_leaves_no_report_file(capsys, tmp_path, argv, code, stale):
    path = tmp_path / "r.json"
    if stale:
        path.write_text("an earlier report")
    assert run(capsys, "--output", str(path), *argv)[0] == code
    assert not path.exists()


def test_non_integer_jet_generator_is_refused_ahead_of_the_budget(capsys):
    code, _, err = run(
        capsys, "--budget", "10", "jets", "count", "--ideal", "1/2*x", "--p", "2", "--m", "40", "--e", "1"
    )
    assert code == 2 and "integer coefficients" in err, err
