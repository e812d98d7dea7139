import hashlib
import io
import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest

import staircase_tableaux
from staircase_tableaux import Symbol, cli, enumerate_ab, parse, render_text, sampling, serialize
from staircase_tableaux.distributions import dist_A, subtableau_law_check
from staircase_tableaux.errors import ParameterError
from staircase_tableaux.eulerian_poly import v_row, v_symbolic, v_triangle
from staircase_tableaux.rng import derive_seed
from staircase_tableaux.sampling import Params, sample_ab, urn_sample


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dist_a_csv(capsys):
    code, out, _ = run_cli(capsys, "dist-a", "--n", "2", "--a", "1", "--b", "1",
                           "--format", "csv")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()]
    assert rows[0] == ["k", "probability"]
    assert [r[0] for r in rows[1:]] == ["0", "1", "2"]
    assert [F(r[1]) for r in rows[1:]] == [F(1, 6), F(4, 6), F(1, 6)]


def test_dist_a_alpha_beta_convention(capsys):
    code, out, _ = run_cli(capsys, "dist-a", "--n", "2", "--alpha", "1",
                           "--beta", "1", "--format", "csv")
    assert code == 0 and "2/3" in out


def test_conventions_are_exclusive(capsys):
    code, _, err = run_cli(capsys, "dist-a", "--n", "2", "--a", "1", "--b", "1",
                           "--alpha", "1", "--beta", "1")
    assert code == cli.EXIT_PARAMETER
    assert "not both" in err


def test_parameter_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "dist-a", "--n", "2", "--a", "-1", "--b", "1")
    assert code == cli.EXIT_PARAMETER


@pytest.mark.parametrize("flags, message", [
    (("--alpha", "0", "--beta", "1"), "--alpha must be > 0, got 0"),
    (("--alpha", "1", "--beta", "0"), "--beta must be > 0, got 0"),
    (("--a", "inf", "--b", "1"), "--a must be finite, got inf"),
    (("--a", "1", "--b", "inf"), "--b must be finite, got inf"),
], ids=["alpha", "beta", "a", "b"])
@pytest.mark.parametrize("command", [
    ("dist-a", "--n", "3"), ("moments-a", "--n", "3"), ("decompose", "--n", "3"),
    ("pairs-n", "--n", "3"), ("positions", "--n", "3", "--kind", "diag", "--i", "1"),
    ("subcheck", "--n", "3", "--i", "1", "--j", "1"), ("triangle", "--n-max", "3"),
    ("clt", "--n", "3"),
], ids=lambda c: c[0])
def test_exact_laws_name_the_zero_weight_flag(capsys, command, flags, message):
    # only sample takes a zero weight; the others name the flag the user gave
    code, out, err = run_cli(capsys, *command, *flags)
    assert (code, out, err) == (3, "", f"error: {message}\n")


def test_zero_weights_stay_with_sample_and_infinite_weights_with_all(capsys):
    assert run_cli(capsys, "moments-a", "--n", "3", "--alpha", "inf", "--beta", "1") == (
        0, "mean,variance\n2,1/3\n", "")
    assert run_cli(capsys, "sample", "--n", "3", "--alpha", "0", "--beta", "1") == (
        0, "..b\n.b\nb\n", "")


@pytest.mark.parametrize("argv", [
    ("dist-a", "--n", "-2", "--a", "1", "--b", "1"),
    ("triangle", "--n-max", "3", "--a", "inf", "--b", "1"),
    ("sample", "--n", "3", "--a", "1", "--b", "1", "--rho", "inf"),
])
def test_out_of_domain_exit_code(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == cli.EXIT_PARAMETER
    assert err.startswith("error: ")


def test_cap_exit_code(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--n", "12", "--count-only")
    assert code == cli.EXIT_CAP


def test_enumerate_count(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "4", "--count-only")
    assert code == 0 and out.strip() == "120"
    code, out, _ = run_cli(capsys, "enumerate", "--n", "3", "--mode", "four",
                           "--count-only")
    assert code == 0 and out.strip() == "384"
    code, out, _ = run_cli(capsys, "enumerate", "--n", "3", "--mode", "max",
                           "--count-only")
    assert code == 0 and out.strip() == "4"


def test_enumerate_max_at_zero_counts_the_empty_tableau(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "0", "--mode", "max", "--count-only")
    assert (code, out) == (0, "1\n")


def test_enumerate_stream_parses(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "2", "--format", "json")
    assert code == 0
    tableaux = [parse(line) for line in out.strip().splitlines()]
    assert len(tableaux) == 6


def test_enumerate_text_parts_tableaux_by_blank_lines(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "2", "--format", "text")
    assert code == 0
    # one two-line block per tableau, one blank line between blocks
    assert out == "\n\n".join(map(render_text, enumerate_ab(2))) + "\n"
    assert [len(block.splitlines()) for block in out.split("\n\n")] == [2] * 6


def test_sample_deterministic(capsys):
    args = ("sample", "--n", "8", "--alpha", "2", "--beta", "2", "--seed", "7",
            "--format", "json")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    t = parse(out1.strip())
    assert t.n == 8


def test_sample_batch_csv(capsys):
    code, out, _ = run_cli(capsys, "sample", "--n", "3", "--a", "1", "--b", "1",
                           "--seed", "5", "--samples", "4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,A,B,n_alpha,n_beta,r,diagonal"
    assert len(lines) == 5


def test_sample_and_urn_batches_use_the_derived_seeds(capsys):
    # draw i of a batch is the draw at derive_seed(seed, i), past a block of seeds too
    count, seeds = 1030, [derive_seed(9, i) for i in range(1030)]
    code, out, _ = run_cli(capsys, "sample", "--n", "2", "--a", "1/2", "--b", "3",
                           "--seed", "9", "--samples", str(count), "--format", "json")
    params = Params(F(1, 2), F(3))
    assert code == 0
    assert [parse(line) for line in out.splitlines()] == [sample_ab(2, params, s) for s in seeds]
    code, out, _ = run_cli(capsys, "urn", "--n", "6", "--a", "1/2", "--b", "3",
                           "--seed", "9", "--samples", str(count), "--format", "json")
    tally = Counter(urn_sample(6, F(1, 2), F(3), s).added_white for s in seeds)
    assert code == 0 and json.loads(out) == {str(k): c for k, c in tally.items()}


def test_sample_streams_rows(monkeypatch):
    import io
    import sys

    from staircase_tableaux import sampling

    buf = io.StringIO()
    monkeypatch.setattr(sys, "stdout", buf)
    lines_at_draw = []
    real = sampling._cells   # each finite-weight draw of a seeded batch ends here

    def spy(*args):
        lines_at_draw.append(buf.getvalue().count("\n"))
        return real(*args)

    monkeypatch.setattr(sampling, "_cells", spy)
    assert cli.main(["sample", "--n", "3", "--a", "1", "--b", "1", "--seed", "5",
                     "--samples", "4", "--format", "csv"]) == 0
    # the first tableau is drawn before anything is written; every later one
    # after the header and all earlier rows have reached stdout
    assert lines_at_draw == [0, 2, 3, 4]
    assert buf.getvalue().count("\n") == 5


def test_sample_parameter_error_leaves_stdout_empty(capsys):
    code, out, err = run_cli(capsys, "sample", "--n", "3", "--four", "--alpha", "0",
                             "--beta", "1", "--samples", "5", "--format", "csv")
    assert code == 3 and out == ""
    assert "alpha + gamma" in err


@pytest.mark.parametrize("rho, letter", [("0", "b"), ("1", "a")])
def test_sample_rho_breaks_the_a_b_zero_tie(capsys, rho, letter):
    # --rho 0 is given, not the default: the tie at a = b = 0 reads it
    code, out, _ = run_cli(capsys, "sample", "--n", "1", "--a", "0", "--b", "0", "--rho", rho,
                           "--samples", "20", "--format", "csv")
    rows = [line.split(",") for line in out.splitlines()[1:]]
    params = Params(0, 0, F(rho))
    assert code == 0 and len(rows) == 20
    for i, row in enumerate(rows):
        assert row[-1] == letter
        want = sampling.tableau_stats(sample_ab(1, params, derive_seed(0, i)))
        assert row == [str(i), *map(str, want)]


def test_sample_four(capsys):
    code, out, _ = run_cli(capsys, "sample", "--n", "3", "--four", "--alpha", "1",
                           "--beta", "1", "--gamma", "1", "--delta", "1",
                           "--seed", "3", "--format", "json")
    assert code == 0
    assert parse(out.strip()).n == 3


def test_moments(capsys):
    code, out, _ = run_cli(capsys, "moments-a", "--n", "10", "--a", "1/2",
                           "--b", "1/2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["mean"] == "5" and doc["variance"] == "11/12"


def test_decompose(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--n", "2", "--a", "1", "--b", "1",
                           "--format", "csv")
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "i,p,xi"
    ps = [float(r.split(",")[1]) for r in rows[1:]]
    assert abs(sum(ps) - 1.0) < 1e-9


def test_pairs_n(capsys):
    code, out, _ = run_cli(capsys, "pairs-n", "--n", "3", "--a", "1", "--b", "1",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["pairs"][0] == {"i": 0, "p10": "1/2", "p01": "1/2", "p11": "0"}


def test_positions(capsys):
    code, out, _ = run_cli(capsys, "positions", "--n", "2", "--kind", "diag",
                           "--i", "1", "--a", "1", "--b", "1", "--format", "json")
    assert code == 0 and json.loads(out)["p_alpha"] == "2/3"
    code, out, _ = run_cli(capsys, "positions", "--n", "2", "--kind", "cov",
                           "--i", "1", "--j", "2", "--a", "1", "--b", "1",
                           "--format", "json")
    assert code == 0 and json.loads(out)["covariance"] == "-1/18"
    code, out, _ = run_cli(capsys, "positions", "--n", "4", "--kind", "joint",
                           "--positions", "1,2", "--a", "1", "--b", "1",
                           "--format", "json")
    assert code == 0


def test_positions_cell(capsys):
    # alpha = beta = 1 weighs the six size-2 tableaux alike
    code, out, _ = run_cli(capsys, "positions", "--n", "2", "--kind", "cell", "--i", "1",
                           "--j", "1", "--alpha", "1", "--beta", "1", "--format", "json")
    assert code == 0
    at = Counter(t.symbol_at(1, 1) for t in enumerate_ab(2))
    assert json.loads(out) == {"p_alpha": str(F(at[Symbol.ALPHA], 6)), "p_beta": str(F(at[Symbol.BETA], 6)),
                               "p_filled": str(1 - F(at[None], 6))}


AB_FOUR = "--four needs --alpha and --beta (plus optional --gamma/--delta)"


@pytest.mark.parametrize("argv, message", [
    (("dist-a", "--n", "2", "--alpha", "1"), "--alpha and --beta must be given together"),
    (("dist-a", "--n", "2", "--beta", "1"), "--alpha and --beta must be given together"),
    (("dist-a", "--n", "2", "--a", "1"), "give parameters as --a/--b or --alpha/--beta"),
    (("dist-a", "--n", "2"), "give parameters as --a/--b or --alpha/--beta"),
    (("sample", "--n", "3", "--four"), AB_FOUR),
    (("sample", "--n", "3", "--four", "--beta", "1"), AB_FOUR),
    (("positions", "--n", "3", "--kind", "diag", "--a", "1", "--b", "1"), "--kind diag needs --i"),
    (("positions", "--n", "3", "--kind", "cell", "--i", "1", "--a", "1", "--b", "1"),
     "--kind cell needs --i and --j"),
    (("positions", "--n", "3", "--kind", "joint", "--a", "1", "--b", "1"), "--kind joint needs --positions"),
], ids=["alpha-only", "beta-only", "a-only", "no-parameters", "four-bare", "four-beta-only",
        "diag", "cell", "joint"])
def test_missing_flag_is_a_parameter_error(capsys, argv, message):
    assert run_cli(capsys, *argv) == (cli.EXIT_PARAMETER, "", f"error: {message}\n")


@pytest.mark.parametrize("i, j", [("3", "2"), ("0", "3"), ("2", "6")])
def test_positions_cov_errors_name_the_flags(capsys, i, j):
    code, _, err = run_cli(capsys, "positions", "--n", "5", "--kind", "cov",
                           "--i", i, "--j", j, "--a", "1", "--b", "1")
    assert code == cli.EXIT_PARAMETER
    assert f"--kind cov needs 1 <= --i < --j <= --n, got {i}, {j}" in err


def test_subcheck(capsys):
    code, out, _ = run_cli(capsys, "subcheck", "--n", "3", "--i", "1", "--j", "2",
                           "--a", "1", "--b", "1")
    assert code == 0
    assert json.loads(out)["equal"] is True


def test_subcheck_reports_the_first_difference(capsys, monkeypatch):
    # a subtableau map that drops each subtableau's first cell breaks the identity
    from staircase_tableaux import tableau
    real = tableau.subtableau
    monkeypatch.setattr(tableau, "subtableau", lambda t, i, j: tableau.Tableau(
        real(t, i, j).n, real(t, i, j).cells[1:]))
    rep = subtableau_law_check(3, 1, 1, 2, 1)
    sub = tableau.Tableau(2, [(1, 1, Symbol.ALPHA), (1, 2, Symbol.ALPHA), (2, 1, Symbol.BETA)])
    assert rep.equal is False and rep.first_difference == (sub, 0, F(1, 12))
    code, out, _ = run_cli(capsys, "subcheck", "--n", "3", "--i", "2", "--j", "1",
                           "--a", "1", "--b", "1")
    assert code == cli.EXIT_VERIFY == 6
    doc = json.loads(out)
    assert doc["equal"] is False
    assert doc["first_difference"] == {"tableau": json.loads(serialize(sub)),
                                       "induced": "0", "direct": "1/12"}


def test_urn(capsys):
    code, out, _ = run_cli(capsys, "urn", "--n", "5", "--a", "1", "--b", "1",
                           "--seed", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["added_white"] + doc["added_black"] == 5
    assert len(doc["path"]) == 5


def test_triangle_row(capsys):
    code, out, _ = run_cli(capsys, "triangle", "--row", "2", "--a", "1", "--b", "1",
                           "--format", "csv")
    assert code == 0
    values = [line.split(",")[2] for line in out.strip().splitlines()[1:]]
    assert values == ["1", "4", "1"]


def test_triangle_symbolic(capsys):
    code, out, _ = run_cli(capsys, "triangle", "--n-max", "2", "--symbolic")
    assert code == 0 and "a + b + 2*a*b" in out


def test_triangle_symbolic_matches_the_entries(capsys):
    code, out, _ = run_cli(capsys, "triangle", "--n-max", "6", "--symbolic")
    assert code == 0
    table = "".join(f"{n},{k},{v_symbolic(n, k)}\n" for n in range(7) for k in range(n + 1))
    assert out == "n,k,v\n" + table


@pytest.mark.parametrize("n_max", [0, 1, 60])
@pytest.mark.parametrize("a, b", [("2/3", "7/5"), ("0", "7/5"), ("2/3", "0"), ("0", "0")],
                         ids=["finite", "a=0", "b=0", "a=b=0"])
def test_triangle_csv_is_the_stored_triangle(capsys, n_max, a, b):
    # the command writes one row at a time; its csv is the stored triangle's
    code, out, _ = run_cli(capsys, "triangle", "--n-max", str(n_max), "--a", a, "--b", b,
                           "--format", "csv")
    tri = v_triangle(n_max, F(a), F(b))
    table = "".join(f"{n},{k},{v}\n" for n in range(n_max + 1) for k, v in enumerate(tri.row(n)))
    assert (code, out) == (0, "n,k,v\n" + table)


@pytest.mark.parametrize("flags", [
    ("--n-max", "-1", "--a", "1", "--b", "1"),
    ("--n-max", "-1", "--symbolic"),
    ("--row", "-1", "--a", "1", "--b", "1"),
], ids=["numeric", "symbolic", "row"])
def test_triangle_rejects_negative_n_max(capsys, flags):
    code, out, err = run_cli(capsys, "triangle", *flags)
    assert (code, out, err) == (3, "", f"error: {flags[0]} must be >= 0, got -1\n")


@pytest.mark.parametrize("argv, message", [
    (("dist-a", "--n", "3", "--a", "x", "--b", "1"), "argument --a: not a rational: 'x'"),
    (("sample", "--n", "3", "--a", "1", "--b", "1", "--rho", "1/0"),
     "argument --rho: not a rational: '1/0'"),
    (("positions", "--n", "4", "--kind", "joint", "--positions", "a,b", "--a", "1", "--b", "1"),
     "argument --positions: not comma-separated integers: 'a,b'"),
], ids=["rational", "zero-denominator", "columns"])
def test_flag_type_errors_name_the_rule(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    err = capsys.readouterr().err
    assert exc.value.code == 2 and err.endswith(f"error: {message}\n")


def test_parse_rational_raises_parameter_error():
    with pytest.raises(ParameterError, match="not a rational: 'x'"):
        cli.parse_rational("x")


def test_asep_roundtrip(tmp_path, capsys, showcase8):
    from staircase_tableaux import serialize

    path = tmp_path / "showcase8.json"
    path.write_bytes(serialize(showcase8))
    code, out, _ = run_cli(capsys, "asep", "weight", "--input", str(path),
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert (doc["n_u"], doc["n_q"]) == (13, 10)
    code, out, _ = run_cli(capsys, "asep", "fill", "--input", str(path),
                           "--format", "text")
    assert code == 0 and out.splitlines()[0] == "uauuuqqg"


@pytest.mark.parametrize("flags", [(), ("--input", "-")], ids=["no-input", "dash"])
def test_asep_fill_reads_stdin(monkeypatch, capsys, showcase8, flags):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(serialize(showcase8))))
    code, out, _ = run_cli(capsys, "asep", "fill", *flags, "--format", "text")
    assert code == 0 and out.splitlines()[0] == "uauuuqqg" and len(out.splitlines()) == 8


@pytest.mark.parametrize("action", ["fill", "weight"])
def test_asep_rejects_non_utf8_input(tmp_path, capsys, action):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    code, out, err = run_cli(capsys, "asep", action, "--input", str(path))
    assert code == 3 and out == ""
    assert err.startswith("error: not UTF-8")


def test_asep_z_full(capsys):
    code, out, _ = run_cli(capsys, "asep", "z-full", "--n", "3", "--alpha", "1",
                           "--beta", "1", "--gamma", "1", "--delta", "1",
                           "--q", "1", "--u", "1")
    assert code == 0 and out.strip() == "384"


def test_clt(capsys):
    code, out, _ = run_cli(capsys, "clt", "--n", "50", "--a", "1/2", "--b", "1/2")
    assert code == 0
    doc = json.loads(out)
    assert 0 < doc["ks_to_normal"] < 0.2


def test_output_file_atomic(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code, out, _ = run_cli(capsys, "dist-a", "--n", "2", "--a", "1", "--b", "1",
                           "--format", "csv", "--output", str(target))
    assert code == 0 and out == ""
    assert target.read_text().startswith("k,probability")


@pytest.mark.parametrize("argv, reason", [
    (("asep", "weight", "--input", "{tmp}/missing.json"), "No such file or directory"),
    (("asep", "fill", "--input", "{tmp}/dir"), "Is a directory"),
    (("moments-a", "--n", "3", "--a", "1", "--b", "1", "--output", "{tmp}/missing/x.csv"),
     "No such file or directory"),
    (("moments-a", "--n", "3", "--a", "1", "--b", "1", "--output", "{tmp}/dir"),
     "Is a directory"),
], ids=["missing-input", "directory-input", "missing-output-dir", "directory-output"])
def test_unusable_path_is_a_parameter_error(tmp_path, capsys, argv, reason):
    (tmp_path / "dir").mkdir()
    argv = [a.format(tmp=tmp_path) for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == cli.EXIT_PARAMETER and out == ""
    assert err == f"error: {argv[-1]}: {reason}\n"
    assert list(tmp_path.rglob("*")) == [tmp_path / "dir"]   # no temp file left behind


def test_verify_single_criterion(capsys):
    code, out, _ = run_cli(capsys, "verify", "--level", "quick", "--only", "10")
    assert code == 0
    assert "[PASS] 10" in out and "1/1 criteria passed" in out


def test_float_flag(capsys):
    code, out, _ = run_cli(capsys, "dist-a", "--n", "2", "--a", "1", "--b", "1",
                           "--format", "csv", "--float")
    assert code == 0 and "0.16666666666666666" in out


def test_unknown_command_is_usage_error(capsys):
    import pytest

    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == cli.EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        cli.main(["dist-a", "--n", "2", "--no-such-flag"])
    assert exc.value.code == cli.EXIT_USAGE


def test_cap_env_override(capsys, monkeypatch):
    monkeypatch.setenv("STAIRCASE_TABLEAUX_CAP", "2")
    code, _, _ = run_cli(capsys, "enumerate", "--n", "3", "--count-only")
    assert code == cli.EXIT_CAP
    code, out, _ = run_cli(capsys, "enumerate", "--n", "3", "--count-only",
                           "--allow-large")
    assert code == 0 and out.strip() == "24"


def test_numerical_failure_exit_code(capsys, monkeypatch):
    from staircase_tableaux import distributions
    from staircase_tableaux.errors import RootFindingError

    def boom(n, a, b):
        raise RootFindingError("forced")

    monkeypatch.setattr(distributions, "bernoulli_decomposition", boom)
    code, _, err = run_cli(capsys, "decompose", "--n", "3", "--a", "1", "--b", "1")
    assert code == cli.EXIT_NUMERICAL and "forced" in err


def test_cap_env_covers_every_enumeration(capsys, monkeypatch):
    monkeypatch.setenv("STAIRCASE_TABLEAUX_CAP", "2")
    subcheck = ("subcheck", "--n", "3", "--i", "1", "--j", "2", "--a", "1", "--b", "1")
    z_full = ("asep", "z-full", "--n", "3")
    for argv in (subcheck, z_full):
        code, out, err = run_cli(capsys, *argv)
        assert code == cli.EXIT_CAP and out == "" and "cap 2" in err
    code, out, _ = run_cli(capsys, *subcheck, "--allow-large")
    assert code == 0 and json.loads(out)["equal"] is True
    code, out, _ = run_cli(capsys, *z_full, "--allow-large")
    assert code == 0 and out == "384\n"
    monkeypatch.setenv("STAIRCASE_TABLEAUX_CAP", "two")
    code, out, err = run_cli(capsys, *subcheck)
    assert code == cli.EXIT_PARAMETER and out == "" and "STAIRCASE_TABLEAUX_CAP" in err


@pytest.mark.parametrize("cap", ["-5", "-1"])
def test_negative_cap_env_is_a_parameter_error(capsys, monkeypatch, cap):
    # a misconfigured cap is reported as such, not as a cap refusal
    monkeypatch.setenv("STAIRCASE_TABLEAUX_CAP", cap)
    code, out, err = run_cli(capsys, "enumerate", "--n", "0", "--count-only")
    assert code == cli.EXIT_PARAMETER and out == ""
    assert err == f"error: STAIRCASE_TABLEAUX_CAP must be >= 0, got {cap}\n"


@pytest.mark.parametrize("argv", [
    ("sample", "--n", "3", "--four", "--alpha", "inf", "--beta", "1"),
    ("sample", "--n", "3", "--four", "--alpha", "1", "--beta", "1", "--gamma", "inf",
     "--samples", "3", "--format", "csv"),
    ("urn", "--n", "3", "--a", "inf"),
    ("urn", "--n", "3", "--b", "inf", "--samples", "5"),
    ("asep", "z-full", "--n", "3", "--alpha", "inf"),
    ("asep", "z-full", "--n", "2", "--q", "inf", "--allow-large"),
])
def test_infinite_weight_is_a_parameter_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == cli.EXIT_PARAMETER and out == ""
    assert err.startswith("error: ") and "finite" in err


@pytest.mark.parametrize("argv", [
    ("sample", "--n", "3", "--a", "1", "--b", "1", "--samples", "-2"),
    ("sample", "--n", "3", "--a", "1", "--b", "1", "--samples", "-1", "--format", "json"),
    ("urn", "--n", "3", "--samples", "-2"),
    ("urn", "--n", "3", "--samples", "-1", "--format", "json"),
])
def test_negative_samples_is_a_parameter_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == cli.EXIT_PARAMETER and out == ""
    assert err.startswith("error: ") and "--samples" in err


def test_zero_samples_prints_only_the_header(capsys):
    code, out, _ = run_cli(capsys, "sample", "--n", "3", "--a", "1", "--b", "1",
                           "--samples", "0", "--format", "csv")
    assert code == 0 and out == "index,A,B,n_alpha,n_beta,r,diagonal\n"
    code, out, _ = run_cli(capsys, "urn", "--n", "3", "--samples", "0")
    assert code == 0 and out == "added_white,count\n"


@pytest.mark.parametrize("argv", [
    ("sample", "--n", "3", "--a", "1", "--b", "1", "--samples", "0", "--format", "json"),
    ("sample", "--n", "3", "--four", "--alpha", "1", "--beta", "1", "--samples", "0", "--format", "json"),
    ("enumerate", "--n", "0", "--mode", "max", "--format", "text"),
])
def test_a_view_with_no_lines_writes_one_newline(capsys, argv):
    assert run_cli(capsys, *argv) == (0, "\n", "")


AB = ("--a", "1", "--b", "1")


@pytest.mark.parametrize("argv", [
    # --rho, which only the sampler reads
    ("dist-a", "--n", "2", *AB, "--rho", "1/3"),
    ("moments-a", "--n", "2", *AB, "--rho", "1/3"),
    ("decompose", "--n", "2", *AB, "--rho", "1/3"),
    ("pairs-n", "--n", "2", *AB, "--rho", "1/3"),
    ("positions", "--n", "2", "--kind", "diag", "--i", "1", *AB, "--rho", "1/3"),
    ("subcheck", "--n", "3", "--i", "1", "--j", "2", *AB, "--rho", "1/3"),
    ("triangle", "--n-max", "2", *AB, "--rho", "1/3"),
    ("clt", "--n", "20", *AB, "--rho", "1/3"),
    # --float where no exact rational is printed
    ("sample", "--n", "3", *AB, "--float"),
    ("enumerate", "--n", "2", "--float"),
    ("decompose", "--n", "2", *AB, "--float"),
    ("subcheck", "--n", "3", "--i", "1", "--j", "2", *AB, "--float"),
    ("urn", "--n", "3", "--float"),
    ("clt", "--n", "20", *AB, "--float"),
    ("verify", "--level", "quick", "--only", "3", "--float"),
    ("asep", "fill", "--input", "-", "--float"),
    ("asep", "weight", "--input", "-", "--float"),
    ("triangle", "--n-max", "2", "--symbolic", "--float"),
    # a --format that used to print another format
    ("sample", "--n", "3", *AB, "--format", "csv"),
    ("sample", "--n", "3", *AB, "--samples", "3", "--format", "text"),
    ("sample", "--n", "3", *AB, "--samples", "0", "--format", "text"),
    ("enumerate", "--n", "2", "--format", "csv"),
    ("enumerate", "--n", "2", "--count-only", "--format", "csv"),
    ("dist-a", "--n", "2", *AB, "--format", "text"),
    ("moments-a", "--n", "2", *AB, "--format", "text"),
    ("decompose", "--n", "2", *AB, "--format", "text"),
    ("pairs-n", "--n", "2", *AB, "--format", "text"),
    ("positions", "--n", "2", "--kind", "diag", "--i", "1", *AB, "--format", "text"),
    ("subcheck", "--n", "3", "--i", "1", "--j", "2", *AB, "--format", "csv"),
    ("subcheck", "--n", "3", "--i", "1", "--j", "2", *AB, "--format", "text"),
    ("urn", "--n", "3", "--format", "text"),
    ("urn", "--n", "3", "--samples", "4", "--format", "text"),
    ("triangle", "--n-max", "2", *AB, "--format", "json"),
    ("triangle", "--n-max", "2", *AB, "--format", "text"),
    ("asep", "fill", "--input", "-", "--format", "csv"),
    ("asep", "weight", "--input", "-", "--format", "text"),
    ("asep", "z-full", "--n", "2", "--format", "json"),
    ("asep", "z-full", "--n", "2", "--format", "csv"),
    ("clt", "--n", "20", *AB, "--format", "csv"),
    ("clt", "--n", "20", *AB, "--format", "text"),
    ("verify", "--level", "quick", "--only", "3", "--format", "csv"),
    # flags another flag makes meaningless
    ("asep", "fill", "--input", "-", "--n", "3"),
    ("asep", "weight", "--input", "-", "--alpha", "1", "--q", "2"),
    ("asep", "z-full", "--n", "2", "--input", "-"),
    ("sample", "--n", "3", *AB, "--gamma", "1"),
    ("sample", "--n", "3", "--four", "--alpha", "1", "--beta", "1", "--a", "1"),
    ("sample", "--n", "3", "--four", "--alpha", "1", "--beta", "1", "--rho", "1/3"),
    ("triangle", "--n-max", "2", "--symbolic", *AB),
    ("triangle", "--n-max", "2", "--symbolic", "--row", "2"),
    ("triangle", "--row", "2", "--n-max", "3", *AB),
    ("positions", "--n", "2", "--kind", "diag", "--i", "1", "--j", "2", *AB),
    ("positions", "--n", "4", "--kind", "joint", "--positions", "1,2", "--i", "1", *AB),
    ("positions", "--n", "2", "--kind", "cell", "--i", "1", "--j", "1", "--positions", "1", *AB),
])
def test_ignored_flag_or_format_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == cli.EXIT_USAGE
    assert captured.out == "" and "error:" in captured.err


def test_verify_json_report(capsys):
    code, out, _ = run_cli(capsys, "verify", "--level", "quick", "--only", "3",
                           "--format", "json")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 1
    record = records[0]
    assert set(record) == {"index", "name", "passed", "detail", "seconds"}
    assert record["index"] == 3 and record["name"] == "triangle" and record["passed"] is True
    assert isinstance(record["detail"], str) and record["seconds"] >= 0


# every JSON view, with and without --float where the command offers it:
# the digests were recorded before the emitter handed its JSON values to
# the encoder's own walk, and must hold bit for bit after it
_JSON_VIEWS = [
    (("dist-a", "--n", "7", "--a", "2/3", "--b", "7/5"), "e3e8f885097c738b"),
    (("dist-a", "--n", "7", "--a", "2/3", "--b", "7/5", "--float"), "302541bc992cfdf1"),
    (("moments-a", "--n", "9", "--alpha", "3", "--beta", "1/2"), "f4451823da42827c"),
    (("moments-a", "--n", "9", "--alpha", "3", "--beta", "1/2", "--float"), "5a42a6dd3ebdde10"),
    (("pairs-n", "--n", "5", "--a", "1/3", "--b", "5/2"), "28962cca7e09a91d"),
    (("pairs-n", "--n", "5", "--a", "1/3", "--b", "5/2", "--float"), "e7d2ff79bb59a693"),
    (("positions", "--n", "6", "--kind", "cell", "--i", "2", "--j", "3", "--a", "1/2",
      "--b", "3"), "80cfff7abe2b4680"),
    (("positions", "--n", "6", "--kind", "cell", "--i", "2", "--j", "3", "--a", "1/2",
      "--b", "3", "--float"), "7ae211086ce0281c"),
    (("positions", "--n", "6", "--kind", "joint", "--positions", "1,3", "--a", "0",
      "--b", "2/7"), "044d3d1c2e862023"),
    (("positions", "--n", "6", "--kind", "cov", "--i", "2", "--j", "5", "--a", "4",
      "--b", "1/9", "--float"), "06d8205b18d9a9b0"),
    (("decompose", "--n", "6", "--a", "2/3", "--b", "5/2"), "db826b1a25ddd0b7"),
    (("subcheck", "--n", "4", "--i", "2", "--j", "1", "--a", "1/2", "--b", "3"),
     "bcfe622f8d1456a5"),
    (("urn", "--n", "12", "--a", "1/2", "--b", "2", "--seed", "9"), "1bf29b19babcd380"),
    (("urn", "--n", "12", "--a", "1/2", "--b", "2", "--seed", "9", "--samples", "40"),
     "80ca41a7ef8ffe69"),
    (("clt", "--n", "40", "--a", "1/2", "--b", "3"), "ef02d02b8c822555"),
    (("sample", "--n", "6", "--a", "1/2", "--b", "3", "--seed", "5", "--samples", "4"),
     "1f1e887177874dca"),
    (("sample", "--n", "6", "--four", "--alpha", "2", "--beta", "3/7", "--gamma", "1/3",
      "--seed", "11", "--samples", "3"), "b11578abfd04773d"),
    (("sample", "--n", "5", "--four", "--alpha", "1", "--beta", "2", "--delta", "5",
      "--seed", "4"), "04db2bfddb1ca914"),
    (("enumerate", "--n", "2", "--mode", "four"), "01c189b2e22755de"),
    (("enumerate", "--n", "4", "--count-only"), "97b912eb4a61df5f"),
]


@pytest.mark.parametrize("argv, digest", _JSON_VIEWS, ids=[" ".join(a) for a, _ in _JSON_VIEWS])
def test_json_views_are_pinned(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


# one valid invocation of every command; each is varied below
_VALID = {
    "sample": ["sample", "--n", "3", "--a", "1", "--b", "2", "--samples", "3", "--format", "csv"],
    "enumerate": ["enumerate", "--n", "2", "--count-only"],
    "dist-a": ["dist-a", "--n", "3", "--alpha", "2", "--beta", "1/3", "--float"],
    "moments-a": ["moments-a", "--n", "5", "--a", "1", "--b", "2"],
    "decompose": ["decompose", "--n", "4", "--a", "2/3", "--b", "7/5"],
    "pairs-n": ["pairs-n", "--n", "4", "--a", "1", "--b", "2", "--format", "json"],
    "positions": ["positions", "--n", "3", "--kind", "diag", "--i", "1", "--a", "1", "--b", "1"],
    "subcheck": ["subcheck", "--n", "3", "--i", "1", "--j", "1", "--a", "1", "--b", "1"],
    "urn": ["urn", "--n", "5", "--samples", "4"],
    "triangle": ["triangle", "--n-max", "3", "--a", "1/2", "--b", "3"],
    "asep fill": ["asep", "fill", "--input", "TABLEAU"],
    "asep weight": ["asep", "weight", "--input", "TABLEAU", "--format", "json"],
    "asep z-full": ["asep", "z-full", "--n", "2", "--q", "2"],
    "clt": ["clt", "--n", "10", "--a", "1", "--b", "1"],
    "verify": ["verify", "--only", "12", "--only", "3", "--level", "quick"],
}
# the flag whose value each command reads through its type=
_TYPED = {"triangle": "--n-max", "verify": "--only", "asep fill": None, "asep weight": None}


def _variants(name: str, argv: list[str]) -> dict[str, list[str]]:
    """The valid invocation, and it with an unknown option, without --n,
    with a bad --format, with a value its type= refuses, and -h."""
    cases = {"valid": argv, "unknown-option": [*argv, "--bogus"],
             "bad-format": [*argv, "--format", "xml"], "help": [*name.split(), "-h"]}
    if "--n" in argv:
        i = argv.index("--n")
        cases["missing-n"] = argv[:i] + argv[i + 2:]
    if (flag := _TYPED.get(name, "--n")) is not None:
        i = argv.index(flag)
        cases["bad-type"] = [*argv[:i + 1], "x", *argv[i + 2:]]
    return cases


_PARSER_CASES = [(name, kind, argv) for name, valid in _VALID.items()
                 for kind, argv in _variants(name, valid).items()]


def _main_outcome(capsys, argv) -> tuple:
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("name, kind, argv", _PARSER_CASES,
                         ids=[f"{name}-{kind}" for name, kind, _ in _PARSER_CASES])
def test_one_subparser_agrees_with_the_whole_parser(tmp_path, capsys, monkeypatch, name, kind, argv):
    # main builds only the named command's subparser; every invocation must
    # give the stdout, stderr and exit code that the whole parser gives
    from staircase_tableaux import acceptance

    path = tmp_path / "t.json"
    path.write_bytes(serialize(sample_ab(3, Params(1, 2), 5)))
    argv = [str(path) if a == "TABLEAU" else a for a in argv]
    # verify's report carries wall-clock seconds: echo the parsed request instead
    monkeypatch.setattr(acceptance, "run", lambda level, indices: [
        acceptance.CheckResult(i, "stub", True, level, 0.0) for i in indices])
    build, asked = cli.build_parser, []
    monkeypatch.setattr(cli, "build_parser", lambda command=None: asked.append(command) or build(command))
    own = _main_outcome(capsys, argv)
    assert asked == [argv[0]]
    monkeypatch.setattr(cli, "build_parser", lambda command=None: build())
    assert own == _main_outcome(capsys, argv)
    assert own[0] == (0 if kind in ("valid", "help") else cli.EXIT_USAGE)


def test_verify_only_takes_every_criterion():
    from staircase_tableaux import acceptance

    [(_, only)] = [(f, kw) for f, kw in cli.COMMANDS["verify"].arguments if f == ("--only",)]
    assert list(only["choices"]) == [i for i, _, _ in acceptance.CRITERIA]


def test_readme_command_lines_parse():
    import shlex
    from pathlib import Path

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("staircase-tableaux ")]
    assert len(lines) >= 13
    parser = cli.build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])
        assert callable(args.func), line


needs_digit_limit = pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                                       reason="no int <-> str digit limit before CPython 3.11")


def _cli_under_digit_limit(*argv: str) -> subprocess.CompletedProcess:
    """The CLI in a fresh interpreter whose int <-> str limit is 640 digits."""
    src = str(Path(staircase_tableaux.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-X", "int_max_str_digits=640", "-m",
                           "staircase_tableaux.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=300)


@needs_digit_limit
def test_dist_a_prints_past_the_digit_limit():
    proc = _cli_under_digit_limit("dist-a", "--n", "400", "--a", "1/2", "--b", "1/2",
                                  "--format", "json")
    assert proc.returncode == 0, proc.stderr
    pmf = json.loads(proc.stdout)["pmf"]
    assert max(map(len, pmf.values())) > 640
    d = dist_A(400, F(1, 2), F(1, 2))
    assert {int(k): F(p) for k, p in pmf.items()} == {k: d.pmf(k) for k in d.support()}


@needs_digit_limit
def test_triangle_prints_past_the_digit_limit():
    proc = _cli_under_digit_limit("triangle", "--n-max", "300", "--a", "1/2", "--b", "1/2",
                                  "--format", "csv")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split(",") for line in proc.stdout.splitlines()[1:]]
    assert max(len(v) for _, _, v in rows) > 640
    assert [F(v) for n, _, v in rows if n == "300"] == list(v_row(300, F(1, 2), F(1, 2)))


@needs_digit_limit
def test_main_restores_the_digit_limit(capsys):
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        assert run_cli(capsys, "dist-a", "--n", "2", "--a", "1", "--b", "1")[0] == 0
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(old)
