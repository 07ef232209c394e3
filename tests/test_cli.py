"""End-to-end CLI behavior: exit codes, JSON/CSV output, file plumbing."""

import json
import time
import tracemalloc

import numpy as np
import pytest

import oracles
from hashprop.cli import build_parser, main
from hashprop.formats import emit_matrix, load_distribution, load_matrix, parse_matrix
from hashprop.gf import FieldMatrix
from hashprop.slepian_wolf import SwCode


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_dsbs(tmp_path):
    path = tmp_path / "dsbs.json"
    path.write_text(json.dumps(
        {"sizes": [2, 2], "probs": [0.475, 0.025, 0.025, 0.475]}
    ))
    return str(path)


def write_matrix(tmp_path, name, dense, q=2):
    path = tmp_path / name
    path.write_text(emit_matrix(FieldMatrix(q, dense)))
    return str(path)


def test_argparse_errors_exit_2(capsys):
    code, _, _ = run_cli(capsys, "no-such-command")
    assert code == 2
    code, _, _ = run_cli(capsys, "gen-matrix", "--q", "2")
    assert code == 2


def test_gen_matrix_stdout_and_file(tmp_path, capsys):
    code, out, err = run_cli(capsys, "gen-matrix", "--q", "2", "--rows", "2",
                             "--cols", "3", "--tau", "2", "--seed", "5")
    assert code == 0
    m = parse_matrix(out)
    assert (m.q, m.rows, m.cols) == (2, 2, 3)
    dest = tmp_path / "m.txt"
    code, out, err = run_cli(capsys, "gen-matrix", "--q", "2", "--rows", "2",
                             "--cols", "3", "--tau", "2", "--seed", "5",
                             "--out", str(dest))
    assert code == 0
    assert parse_matrix(dest.read_text()) == m  # same seed, same draw
    assert json.loads(out)["out"] == str(dest)
    assert "done in" in err  # timing goes to stderr only


# gen-matrix stdout and its --out summary, recorded when a matrix was still
# stored as its sorted nonzero entries
GEN_MATRIX_GOLDEN = {
    ("2", "3", "6", "7"): ("2 3 6\n0 3 1\n0 5 1\n1 0 1\n1 2 1\n2 0 1\n2 2 1\n2 3 1\n2 5 1\n", 8),
    ("3", "2", "4", "5"): ("3 2 4\n0 0 2\n0 1 2\n0 2 1\n0 3 1\n1 0 2\n1 1 1\n1 2 1\n1 3 1\n", 8),
}


@pytest.mark.parametrize("config", list(GEN_MATRIX_GOLDEN), ids=["q2", "q3"])
def test_gen_matrix_golden(tmp_path, capsys, config):
    q, rows, cols, seed = config
    text, nonzeros = GEN_MATRIX_GOLDEN[config]
    flags = ["--q", q, "--rows", rows, "--cols", cols, "--tau", "2", "--seed", seed]
    assert run_cli(capsys, "gen-matrix", *flags)[:2] == (0, text)
    dest = tmp_path / "m.txt"
    code, out, _ = run_cli(capsys, "gen-matrix", *flags, "--out", str(dest))
    assert code == 0 and dest.read_text() == text
    assert json.loads(out) == {"command": "gen-matrix", "out": str(dest), "q": int(q),
                               "rows": int(rows), "cols": int(cols), "tau": 2,
                               "seed": int(seed), "nonzeros": nonzeros}


def test_gen_matrix_bad_params_exit_3(capsys):
    code, _, err = run_cli(capsys, "gen-matrix", "--q", "2", "--rows", "2",
                           "--cols", "2", "--tau", "3", "--seed", "0")
    assert code == 3  # odd tau is a compute-side ValueError
    assert "compute error" in err


def _run_small(capsys, *argv):
    """run_cli, and the seconds and peak traced bytes the call took."""
    tracemalloc.start()
    start = time.perf_counter()
    try:
        result = run_cli(capsys, *argv)
        return result, time.perf_counter() - start, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_gen_matrix_past_the_size_bound_exit_3(capsys):
    """A draw past MAX_MATRIX_ENTRIES is refused before its array exists:
    a 10^5 x 10^5 matrix would take 80 GB."""
    (code, out, err), seconds, peak = _run_small(
        capsys, "gen-matrix", "--q", "2", "--rows", "100000", "--cols", "100000",
        "--tau", "2", "--seed", "1")
    assert code == 3 and not out
    assert "100000x100000 matrix exceeds 16777216 entries" in err and "Traceback" not in err
    assert seconds < 1 and peak < 1 << 20


@pytest.mark.parametrize("tau, draws", [("20000000", "80000000"), (str(2 ** 70), str(2 ** 72))],
                         ids=["tau-2e7", "tau-2^70"])
def test_gen_matrix_past_the_draw_bound_exit_3(capsys, tau, draws):
    """A sparse draw of a 2 x 2 matrix by more than MAX_MATRIX_ENTRIES
    bounded draws (2 tau n) is refused before any draw is made."""
    (code, out, err), seconds, peak = _run_small(
        capsys, "gen-matrix", "--q", "2", "--rows", "2", "--cols", "2", "--tau", tau, "--seed", "1")
    assert code == 3 and not out
    assert f"{draws} sparse draws exceed 16777216" in err and "Traceback" not in err
    assert seconds < 1 and peak < 1 << 20


@pytest.mark.parametrize("argv, size", [
    (("hash-audit", "--family", "uniform", "--q", "2", "--l", "2", "--n", str(2 ** 70)),
     "2^2.361e+21"),
    (("spectrum", "--family", "sparse", "--q", "2", "--l", "2", "--tau", "2", "--n", "1000000"),
     "2^2e+06"),
    (("hash-audit", "--family", "uniform", "--q", "2", "--l", "2", "--n", "2000"), "2^4000"),
    # past the float range: the default type filter takes an integer ceiling
    (("hash-audit", "--family", "uniform", "--q", "2", "--l", "1", "--n", str(10 ** 400)), "2^inf"),
], ids=["n-2^70", "n-10^6", "n-2000", "n-10^400"])
def test_support_past_the_cap_exit_3_at_any_n(capsys, argv, size):
    """The support size is compared with the cap in the log domain, before
    any power is computed, and printed as a power of two."""
    (code, out, err), seconds, peak = _run_small(capsys, *argv)
    assert code == 3 and not out
    assert f"support of {size} elementary outcomes exceeds cap 200000" in err
    assert seconds < 1 and peak < 1 << 20


def test_hash_audit_exact_profile(capsys):
    code, out, _ = run_cli(capsys, "hash-audit", "--family", "sparse",
                           "--q", "2", "--l", "2", "--n", "2", "--tau", "2",
                           "--exhaustive")
    assert code == 0
    data = json.loads(out)
    assert data["alpha"] == {"num": 2, "den": 1, "value": 2.0}
    assert data["beta"]["num"] == 0
    assert data["h3_holds"] is True


def test_hash_audit_cap_exit_3(capsys):
    code, _, _ = run_cli(capsys, "hash-audit", "--family", "uniform",
                         "--q", "2", "--l", "4", "--n", "5", "--cap", "100")
    assert code == 3


# stdout of hash-audit --exhaustive and spectrum, recorded when every audit
# still walked the support one function and one point pair at a time
AUDIT_GOLDEN = {
    ("sparse", "3", "2", "3", "2"): (
        '{"alpha": {"den": 4, "num": 9, "value": 2.25}, '
        '"beta": {"den": 1, "num": 0, "value": 0.0}, '
        '"command": "hash-audit", "family": "sparse", "h3_checked": 27, "h3_holds": true, '
        '"image_size": 9, "l": 2, "n": 3, "q": 3}\n',
        '{"command": "spectrum", "family": "sparse", "l": 2, "n": 3, "q": 3, "spectrum": ['
        '{"type": [0, 0, 3], "value": {"den": 1024, "num": 121, "value": 0.1181640625}}, '
        '{"type": [0, 1, 2], "value": {"den": 1024, "num": 363, "value": 0.3544921875}}, '
        '{"type": [0, 2, 1], "value": {"den": 1024, "num": 363, "value": 0.3544921875}}, '
        '{"type": [0, 3, 0], "value": {"den": 1024, "num": 121, "value": 0.1181640625}}, '
        '{"type": [1, 0, 2], "value": {"den": 64, "num": 27, "value": 0.421875}}, '
        '{"type": [1, 1, 1], "value": {"den": 32, "num": 27, "value": 0.84375}}, '
        '{"type": [1, 2, 0], "value": {"den": 64, "num": 27, "value": 0.421875}}, '
        '{"type": [2, 0, 1], "value": {"den": 4, "num": 3, "value": 0.75}}, '
        '{"type": [2, 1, 0], "value": {"den": 4, "num": 3, "value": 0.75}}]}\n'),
    ("uniform", "2", "3", "4", None): (
        '{"alpha": {"den": 1, "num": 1, "value": 1.0}, '
        '"beta": {"den": 1, "num": 0, "value": 0.0}, '
        '"command": "hash-audit", "family": "uniform", "h3_checked": 16, "h3_holds": true, '
        '"image_size": 8, "l": 3, "n": 4, "q": 2}\n',
        '{"command": "spectrum", "family": "uniform", "l": 3, "n": 4, "q": 2, "spectrum": ['
        '{"type": [0, 4], "value": {"den": 8, "num": 1, "value": 0.125}}, '
        '{"type": [1, 3], "value": {"den": 2, "num": 1, "value": 0.5}}, '
        '{"type": [2, 2], "value": {"den": 4, "num": 3, "value": 0.75}}, '
        '{"type": [3, 1], "value": {"den": 2, "num": 1, "value": 0.5}}]}\n'),
}


@pytest.mark.parametrize("config", list(AUDIT_GOLDEN), ids=["sparse_q3", "uniform_q2"])
def test_hash_audit_and_spectrum_golden(capsys, config):
    family, q, l, n, tau = config
    flags = ["--family", family, "--q", q, "--l", l, "--n", n] + (["--tau", tau] if tau else [])
    audit, spectrum = AUDIT_GOLDEN[config]
    assert run_cli(capsys, "hash-audit", *flags, "--exhaustive")[:2] == (0, audit)
    assert run_cli(capsys, "spectrum", *flags)[:2] == (0, spectrum)


def test_spectrum_uniform(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--family", "uniform",
                           "--q", "2", "--l", "2", "--n", "3")
    assert code == 0
    data = json.loads(out)
    rows = {tuple(r["type"]): r["value"] for r in data["spectrum"]}
    assert rows[(2, 1)] == {"num": 3, "den": 4, "value": 0.75}


def test_spectrum_from_descriptor(tmp_path, capsys):
    desc = tmp_path / "ens.json"
    desc.write_text(json.dumps(
        {"family": "sparse", "q": 2, "l": 1, "n": 1, "tau": 2}
    ))
    code, out, _ = run_cli(capsys, "spectrum", "--desc", str(desc))
    assert code == 0
    data = json.loads(out)
    # two cancelling draws leave only the zero matrix: S((0,1)) = 1
    assert data["spectrum"] == [{"type": [0, 1],
                                 "value": {"num": 1, "den": 1, "value": 1.0}}]


def test_descriptor_bad_w_min_exit_2(tmp_path, capsys):
    """A w_min that is not an integer is an input error, as a bad q, l or n."""
    desc = tmp_path / "ens.json"
    desc.write_text(json.dumps({"family": "uniform", "q": 2, "l": 1, "n": 2, "w_min": "x"}))
    code, out, err = run_cli(capsys, "hash-audit", "--desc", str(desc))
    assert code == 2 and "descriptor" in err and not out


@pytest.mark.parametrize("field, value", [("l", 1.9), ("q", "3"), ("l", True)],
                         ids=["l-float", "q-string", "l-bool"])
def test_descriptor_non_int_field_exit_2(tmp_path, capsys, field, value):
    """A descriptor field that is no JSON int is refused, not truncated."""
    desc = tmp_path / "ens.json"
    desc.write_text(json.dumps({"family": "uniform", "q": 2, "l": 1, "n": 2, field: value}))
    code, out, err = run_cli(capsys, "hash-audit", "--desc", str(desc))
    assert code == 2 and f"'{field}' must be an int" in err and not out


@pytest.mark.parametrize("flags", [
    ["--family", "uniform", "--q", "2", "--l", "-1", "--n", "2"],
    ["--family", "uniform", "--q", "2", "--l", "1", "--n", "0"],
    ["--family", "uniform"],
    ["--family", "uniform", "--q", "4", "--l", "1", "--n", "2"],
    ["--family", "sparse", "--q", "2", "--l", "0", "--n", "2", "--tau", "2"],
    ["--family", "binning", "--q", "2", "--l", "1", "--n", "2"],
], ids=["l_negative", "n_zero", "q_missing", "q_composite", "sparse_l_zero", "binning"])
def test_ensemble_flags_rejected_exit_2(capsys, flags):
    """Ensemble flags are read as a descriptor, so a bad one is an input error."""
    for cmd in ("hash-audit", "spectrum"):
        code, _, _ = run_cli(capsys, cmd, *flags)
        assert code == 2


def test_sw_sim_exact_and_csv(tmp_path, capsys):
    dist = write_dsbs(tmp_path)
    ma = write_matrix(tmp_path, "a.txt", [[1, 1, 0], [0, 1, 1]])
    mb = write_matrix(tmp_path, "b.txt", [[1, 0, 1], [0, 1, 1]])
    csv_path = tmp_path / "out.csv"
    code, out, _ = run_cli(capsys, "sw-sim", "--dist", dist,
                           "--matrix", f"x={ma}", "--matrix", f"y={mb}",
                           "--csv", str(csv_path))
    assert code == 0
    data = json.loads(out)
    assert data["mode"] == "exact" and 0.0 <= data["error"] <= 1.0
    assert data["ci"] == [data["error"], data["error"]]
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "R_X,R_Y,n,error,ci_lo,ci_hi"
    assert len(lines) == 2


def test_parser_reused_without_leaking_between_calls(tmp_path, capsys):
    """main parses with one parser per process; a second call's --matrix
    list must not carry the first call's entries."""
    dist = write_dsbs(tmp_path)
    ma = write_matrix(tmp_path, "a.txt", [[1, 1, 0], [0, 1, 1]])
    mb = write_matrix(tmp_path, "b.txt", [[1, 0, 1], [0, 1, 1]])
    argv = ("sw-sim", "--dist", dist, "--matrix", f"x={ma}", "--matrix", f"y={mb}")
    first = run_cli(capsys, *argv)
    second = run_cli(capsys, *argv)
    assert first[0] == second[0] == 0
    assert first[1] == second[1]
    assert build_parser() is build_parser()


def test_sw_sim_mc_requires_seed(tmp_path, capsys):
    dist = write_dsbs(tmp_path)
    ma = write_matrix(tmp_path, "a.txt", [[1, 1]])
    code, _, err = run_cli(capsys, "sw-sim", "--dist", dist,
                           "--matrix", f"x={ma}", "--matrix", f"y={ma}",
                           "--mode", "mc")
    assert code == 2 and "--seed" in err


def test_sw_sim_mc_reproducible(tmp_path, capsys):
    dist = write_dsbs(tmp_path)
    ma = write_matrix(tmp_path, "a.txt", [[1, 1]])
    args = ("sw-sim", "--dist", dist, "--matrix", f"x={ma}",
            "--matrix", f"y={ma}", "--mode", "mc", "--trials", "200",
            "--seed", "11")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_sw_sim_bad_matrix_exit_2(tmp_path, capsys):
    dist = write_dsbs(tmp_path)
    bad = tmp_path / "bad.txt"
    bad.write_text("not a matrix\n")
    code, _, err = run_cli(capsys, "sw-sim", "--dist", dist,
                           "--matrix", f"x={bad}", "--matrix", f"y={bad}")
    assert code == 2 and "error:" in err


def test_sw_sim_rejected_code_exit_2(tmp_path, capsys):
    """A code SwCode rejects is an input error; a decode past the cap is not."""
    dist = write_dsbs(tmp_path)
    a = write_matrix(tmp_path, "a.txt", [[1, 0]])
    code, _, err = run_cli(capsys, "sw-sim", "--dist", dist, "--matrix", f"x={a}")
    assert code == 2 and "one matrix per source axis" in err
    big = write_matrix(tmp_path, "big.txt", [[1] * 11])
    code, _, err = run_cli(capsys, "sw-sim", "--dist", dist,
                           "--matrix", f"x={big}", "--matrix", f"y={big}")
    assert code == 3 and "exceed cap" in err


def _write_dist(tmp_path, sizes):
    path = tmp_path / f"dist{len(sizes)}.json"
    probs = np.random.default_rng(len(sizes)).dirichlet(np.ones(2 ** len(sizes)))
    path.write_text(json.dumps({"sizes": sizes, "probs": probs.tolist()}))
    return str(path)


def test_sw_sim_ml_three_sources(tmp_path, capsys):
    """ML decodes any number of sources. With three, where gamma = 0.1 leaves
    some cosets without an admissible tuple, exact mode equals the per-tuple
    oracle, and the MC interval holds that value."""
    dist = _write_dist(tmp_path, [2, 2, 2])
    mats = [write_matrix(tmp_path, f"{name}.txt", dense) for name, dense in
            (("a", [[1, 1, 0]]), ("b", [[0, 1, 1]]), ("c", [[1, 0, 1], [0, 1, 0]]))]
    argv = ["sw-sim", "--dist", dist, "--decoder", "ml", "--gamma", "0.1"]
    for name, path in zip("xyz", mats):
        argv += ["--matrix", f"{name}={path}"]
    code = SwCode(tuple(load_matrix(path) for path in mats), load_distribution(dist))
    expected, failures = oracles.sw_error(code, "ml", 0.1)
    assert failures > 0
    status, out, _ = run_cli(capsys, *argv)
    assert status == 0 and json.loads(out)["error"] == pytest.approx(expected, abs=1e-12)
    status, out, _ = run_cli(capsys, *argv, "--mode", "mc", "--trials", "4000", "--seed", "5")
    lo, hi = json.loads(out)["ci"]
    assert status == 0 and lo <= expected <= hi


def test_sw_sim_csv_needs_two_sources_exit_2(tmp_path, capsys):
    """--csv writes one R_X,R_Y row: one source would make up R_Y, three would
    drop R_Z."""
    a = write_matrix(tmp_path, "a.txt", [[1, 1, 0]])
    csv_path = tmp_path / "out.csv"
    for k in (1, 3):
        argv = ["sw-sim", "--dist", _write_dist(tmp_path, [2] * k)]
        argv += ["--matrix", f"x={a}"] * k + ["--csv", str(csv_path)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and "--csv" in err and not out
        assert not csv_path.exists()


def _write_bc_fixture(tmp_path):
    channel = np.zeros((2, 2, 4))
    for x in range(4):
        channel[x >> 1, x & 1, x] = 1.0
    prob = tmp_path / "problem.json"
    prob.write_text(json.dumps({
        "y_sizes": [2, 2], "x_size": 4,
        "channel": channel.reshape(-1).tolist(),
        "mu_u": {"sizes": [2, 2], "probs": [0.25] * 4},
        "f": [0, 1, 2, 3],
    }))
    write_matrix(tmp_path, "a.txt", [[1, 0]])
    write_matrix(tmp_path, "ap.txt", [[1, 1]])
    codef = tmp_path / "code.json"
    codef.write_text(json.dumps({"receivers": [
        {"A": "a.txt", "A_prime": "ap.txt", "syndrome": [0]},
        {"A": "a.txt", "A_prime": "ap.txt", "syndrome": [0]},
    ]}))
    return str(prob), str(codef)


@pytest.mark.parametrize("flag, obj, field", [
    ("--dist", {"sizes": ["2", "2"], "probs": [0.25] * 4}, "'sizes'"),
    ("--dist", {"sizes": [2], "probs": 0.5}, "'probs'"),
    ("--code", {"receivers": 3}, "'receivers'"),
    ("--code", {"receivers": [{"A": "a.txt", "A_prime": "ap.txt", "syndrome": ["x"]}]},
     "'syndrome'"),
    ("--code", {"receivers": [{"A": "a.txt", "A_prime": "ap.txt", "syndrome": [0]},
                              {"A": "a.txt", "A_prime": "ap.txt", "syndrome": [2 ** 70]}]},
     "receiver 1: 'syndrome'"),
], ids=["sizes-strings", "probs-number", "receivers-int", "syndrome-strings", "syndrome-2^70"])
def test_malformed_json_field_exit_2(tmp_path, capsys, flag, obj, field):
    """A JSON input whose field has the wrong kind of value, or a syndrome
    entry outside its field, is an input error: exit 2 with a message that
    names the field, no traceback."""
    prob, codef = _write_bc_fixture(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    if flag == "--dist":
        ma = write_matrix(tmp_path, "m.txt", [[1, 1]])
        argv = ("sw-sim", "--dist", str(bad), "--matrix", f"x={ma}", "--matrix", f"y={ma}")
    else:
        argv = ("bc-sim", "--problem", prob, "--code", str(bad))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and not out
    assert err.startswith("error: ") and "Traceback" not in err and field in err


@pytest.mark.parametrize("field, value", [("f", [0, 1, 2]), ("y_sizes", ["2", "2"])],
                         ids=["f-short", "y_sizes-strings"])
def test_malformed_problem_field_exit_2(tmp_path, capsys, field, value):
    """A problem field of the wrong kind or length is an input error that
    names the field, in either mode."""
    prob, codef = _write_bc_fixture(tmp_path)
    obj = json.loads(open(prob).read())
    obj[field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    for mode in (["--mode", "exact"], ["--mode", "mc", "--trials", "10", "--seed", "1"]):
        code, out, err = run_cli(capsys, "bc-sim", "--problem", str(bad), "--code", codef, *mode)
        assert code == 2 and f"'{field}'" in err and not out


def test_bc_sim_exact_zero_error(tmp_path, capsys):
    prob, codef = _write_bc_fixture(tmp_path)
    code, out, _ = run_cli(capsys, "bc-sim", "--problem", prob, "--code", codef)
    assert code == 0
    data = json.loads(out)
    assert data["error"] == 0.0
    assert data["rates"] == [[0.5, 0.5], [0.5, 0.5]]
    code, out, _ = run_cli(capsys, "bc-sim", "--problem", prob, "--code", codef,
                           "--mode", "mc", "--trials", "50", "--seed", "1")
    assert code == 0 and json.loads(out)["error"] == 0.0


def test_bc_sim_exact_stochastic_map_exit_2(tmp_path, capsys):
    """Exact evaluation needs a deterministic symbol map: asking for it on an
    f_stochastic problem is an input error; MC takes either map."""
    prob, codef = _write_bc_fixture(tmp_path)
    obj = json.loads(open(prob).read())
    obj["f_stochastic"] = np.eye(4)[obj.pop("f")].reshape(-1).tolist()
    stochastic = tmp_path / "stochastic.json"
    stochastic.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "bc-sim", "--problem", str(stochastic), "--code", codef)
    assert code == 2 and "deterministic" in err and not out
    code, out, _ = run_cli(capsys, "bc-sim", "--problem", str(stochastic), "--code", codef,
                           "--mode", "mc", "--trials", "50", "--seed", "1")
    assert code == 0 and json.loads(out)["error"] == 0.0


def test_bc_sim_receiver_count_exit_2(tmp_path, capsys):
    """A code with no receivers, or with other than one receiver per
    auxiliary axis of the problem, is an input error in either mode."""
    prob, codef = _write_bc_fixture(tmp_path)
    receiver = json.loads(open(codef).read())["receivers"][0]
    for count in (0, 1, 3):
        bad = tmp_path / f"code{count}.json"
        bad.write_text(json.dumps({"receivers": [receiver] * count}))
        for mode in (["--mode", "exact"], ["--mode", "mc", "--trials", "10", "--seed", "1"]):
            code, out, err = run_cli(capsys, "bc-sim", "--problem", prob, "--code", str(bad), *mode)
            assert code == 2 and "receiver" in err and not out


def test_lp_md_cli(tmp_path, capsys):
    dist = write_dsbs(tmp_path)
    a = write_matrix(tmp_path, "a.txt", [[1, 0, 0], [0, 1, 0]])
    ap = write_matrix(tmp_path, "ap.txt", [[0, 0, 1]])
    code, out, _ = run_cli(
        capsys, "lp-md", "--dist", dist,
        "--stack", f"A={a}", "--stack", f"Ap={ap}",
        "--stack", f"B={a}", "--stack", f"Bp={ap}",
        "--syndrome", "a=01", "--syndrome", "m=1",
        "--syndrome", "b=01", "--syndrome", "m=1",
        "--fallback", "exhaustive",
    )
    assert code == 0
    data = json.loads(out)
    # the stacked systems pin both sequences completely
    assert data["x_hat"] == [[0, 1, 1], [0, 1, 1]]
    assert data["error"] is False
    # all C(3 + 3, 3) joint types are candidates; the sweep solves the tied
    # minimum pair (1, 0, 0, 2), integral in 9 pivots, and (2, 0, 0, 1),
    # infeasible, and stops
    assert data["types_considered"] == 20
    assert (data["types_solved"], data["pivots"], data["fractional_types"]) == (2, 9, 0)


def test_lp_md_cli_arity_error(tmp_path, capsys):
    dist = write_dsbs(tmp_path)
    a = write_matrix(tmp_path, "a.txt", [[1, 0]])
    code, _, err = run_cli(capsys, "lp-md", "--dist", dist,
                           "--stack", f"A={a}", "--syndrome", "a=0")
    assert code == 2


def _lp_md_args(tmp_path, dist, syndromes):
    a = write_matrix(tmp_path, "a.txt", [[1, 0, 0], [0, 1, 0]])
    ap = write_matrix(tmp_path, "ap.txt", [[0, 0, 1]])
    args = ["lp-md", "--dist", dist, "--stack", f"A={a}", "--stack", f"Ap={ap}",
            "--stack", f"B={a}", "--stack", f"Bp={ap}"]
    for s in syndromes:
        args += ["--syndrome", s]
    return args


def test_lp_md_cli_input_errors_exit_2(tmp_path, capsys):
    dist = write_dsbs(tmp_path)
    # three symbols for the two-row matrix A
    code, _, err = run_cli(capsys, *_lp_md_args(tmp_path, dist,
                                                ["a=011", "m=1", "b=01", "m=1"]))
    assert code == 2 and "syndrome 'a' has 3 symbols" in err
    ternary = tmp_path / "ternary.json"
    ternary.write_text(json.dumps({"sizes": [3, 3], "probs": [1 / 9] * 9}))
    code, _, err = run_cli(capsys, *_lp_md_args(tmp_path, str(ternary),
                                                ["a=01", "m=1", "b=01", "m=1"]))
    assert code == 2 and "binary alphabet" in err


def test_lp_md_cli_matrix_and_symbol_errors_exit_2(tmp_path, capsys):
    """Matrices that are not all over GF(2) with one column count, and
    syndrome symbols outside GF(2), are input errors."""
    dist = write_dsbs(tmp_path)
    a = write_matrix(tmp_path, "a.txt", [[1, 0, 0], [0, 1, 0]])
    ap = write_matrix(tmp_path, "ap.txt", [[0, 0, 1]])
    ap4 = write_matrix(tmp_path, "ap4.txt", [[0, 0, 0, 1]])
    b4 = write_matrix(tmp_path, "b4.txt", [[1, 0, 0, 0], [0, 1, 0, 0]])
    ternary = write_matrix(tmp_path, "ternary.txt", [[1, 0, 0], [0, 1, 0]], q=3)
    syn = ["a=01", "m=1", "b=01", "m=1"]
    cases = [
        ((a, ap4, a, ap), syn, "same column count"),  # A and Ap differ in n
        ((a, ap, b4, ap4), syn, "same column count"),  # the terminals differ in n
        ((ternary, ap, a, ap), syn, "over GF(3)"),
        ((a, ap, a, ap), ["a=02", "m=1", "b=01", "m=1"], "outside GF(2)"),
    ]
    for mats, syns, what in cases:
        argv = ["lp-md", "--dist", dist]
        for name, path in zip(("A", "Ap", "B", "Bp"), mats):
            argv += ["--stack", f"{name}={path}"]
        for s in syns:
            argv += ["--syndrome", s]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and what in err and not out, (what, err)


def test_lp_md_cli_degree_cap_exit_3(tmp_path, capsys):
    """A parity row past the degree cap is a compute limit, not an input error."""
    dist = write_dsbs(tmp_path)
    a = write_matrix(tmp_path, "a.txt", [[1] * 13])
    ap = write_matrix(tmp_path, "ap.txt", [[1] + [0] * 12])
    code, _, err = run_cli(capsys, "lp-md", "--dist", dist,
                           "--stack", f"A={a}", "--stack", f"Ap={ap}",
                           "--stack", f"B={a}", "--stack", f"Bp={ap}",
                           "--syndrome", "a=0", "--syndrome", "m=0",
                           "--syndrome", "b=0", "--syndrome", "m=0")
    assert code == 3 and "exceeds cap" in err


def test_sweep_csv_to_stdout(tmp_path, capsys):
    dist = write_dsbs(tmp_path)
    code, out, err = run_cli(capsys, "sweep", "sw", "--dist", dist,
                             "--rates", "0.75:0.75:0.25", "--n-list", "2,3",
                             "--tries", "2", "--seed", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "R_X,R_Y,n,error,ci_lo,ci_hi"
    assert len(lines) == 3  # one grid point, two block lengths
    summary = json.loads(err.strip().splitlines()[0])
    assert summary["points"] == 2


def test_sweep_csv_to_file_emits_summary(tmp_path, capsys):
    dist = write_dsbs(tmp_path)
    csv_path = tmp_path / "sweep.csv"
    code, out, _ = run_cli(capsys, "sweep", "sw", "--dist", dist,
                           "--rates", "0.5:1.0:0.5", "--n-list", "2",
                           "--tries", "2", "--seed", "4", "--csv", str(csv_path))
    assert code == 0
    summary = json.loads(out)
    assert summary["points"] == 4
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "R_X,R_Y,n,error,ci_lo,ci_hi"
    assert len(lines) == 5


def test_sweep_bad_grid_exit_2(tmp_path, capsys):
    dist = write_dsbs(tmp_path)
    code, _, _ = run_cli(capsys, "sweep", "sw", "--dist", dist,
                         "--rates", "1:0:1", "--n-list", "2", "--seed", "4")
    assert code == 2


def _sweep_args(dist, *extra):
    return ("sweep", "sw", "--dist", dist, "--rates", "0.5:1.0:0.5",
            "--n-list", "2", "--seed", "9") + extra


def test_sweep_mc_reproducible(tmp_path, capsys):
    """Same arguments, same CSV; its first row is pinned, which pins the codes'
    stream and the MC seed drawn from it."""
    args = _sweep_args(write_dsbs(tmp_path), "--tries", "2", "--mode", "mc",
                       "--trials", "50")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0 and out1 == out2
    assert out1.splitlines()[1] == "0.5,0.5,2,0.72,0.5833487630404344,0.8252582933408878"


def test_sweep_row_does_not_depend_on_the_grid(tmp_path, capsys):
    """Every grid point draws from one stream: the n = 6 row at rates (0.75,
    0.75) is byte-identical alone and inside a 2 x 2 rate grid over n = 4, 6."""
    dist = write_dsbs(tmp_path)
    rows = []
    for rates, n_list in (("0.75:0.75:0.25", "6"), ("0.5:0.75:0.25", "4,6")):
        _, out, _ = run_cli(capsys, "sweep", "sw", "--dist", dist, "--rates", rates,
                            "--n-list", n_list, "--tries", "4", "--seed", "7")
        rows.append([row for row in out.splitlines() if row.startswith("0.75,0.75,6,")])
    assert rows[0] == rows[1] and len(rows[0]) == 1


def test_sweep_tries_0_exit_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, *_sweep_args(write_dsbs(tmp_path), "--tries", "0"))
    assert code == 2 and "--tries" in err and "Traceback" not in err


def test_trials_0_exit_2(tmp_path, capsys):
    dist = write_dsbs(tmp_path)
    ma = write_matrix(tmp_path, "sw.txt", [[1, 1]])
    prob, codef = _write_bc_fixture(tmp_path)
    for argv in (("sw-sim", "--dist", dist, "--matrix", f"x={ma}",
                  "--matrix", f"y={ma}", "--mode", "mc", "--seed", "1"),
                 ("bc-sim", "--problem", prob, "--code", codef, "--mode", "mc",
                  "--seed", "1"),
                 _sweep_args(dist, "--mode", "mc")):
        code, _, err = run_cli(capsys, *argv, "--trials", "0")
        assert code == 2 and "--trials" in err, argv


def test_sweep_n_list_0_exit_2(tmp_path, capsys):
    dist = write_dsbs(tmp_path)
    for n_list in ("0", "2,0", "2,x"):
        args = list(_sweep_args(dist))
        args[args.index("--n-list") + 1] = n_list
        code, out, err = run_cli(capsys, *args)
        assert code == 2 and "--n-list" in err and not out, n_list


def test_sw_sim_ml_needs_positive_gamma(tmp_path, capsys):
    """The ml decoder keeps candidates with divergence < gamma, so gamma = 0
    would fail every decode; a negative gamma is an input error for any
    decoder."""
    dist = write_dsbs(tmp_path)
    ma = write_matrix(tmp_path, "a.txt", [[1, 1]])
    argv = ("sw-sim", "--dist", dist, "--matrix", f"x={ma}", "--matrix", f"y={ma}",
            "--decoder", "ml")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and "--gamma" in err and not out
    code, out, err = run_cli(capsys, *argv[:-1], "ml_unconstrained", "--gamma", "-1")
    assert code == 2 and "--gamma" in err and not out
    code, out, _ = run_cli(capsys, *argv, "--gamma", "0.5")
    assert code == 0 and json.loads(out)["error"] < 1.0


def test_lp_md_cli_comma_syndromes(tmp_path, capsys):
    """The comma form of a symbol string reaches the parser, as the digit
    form does; comma-separated name=value pairs in one flag still split."""
    dist = write_dsbs(tmp_path)
    digits = run_cli(capsys, *_lp_md_args(tmp_path, dist, ["a=01", "m=1", "b=01", "m=1"]))
    commas = run_cli(capsys, *_lp_md_args(tmp_path, dist, ["a=0,1", "m=1", "b=0,1", "m=1"]))
    paired = run_cli(capsys, *_lp_md_args(tmp_path, dist, ["a=0,1,m=1", "b=0, 1,m=1"]))
    assert digits[0] == commas[0] == paired[0] == 0
    assert digits[1] == commas[1] == paired[1]
    a = write_matrix(tmp_path, "a.txt", [[1, 0, 0], [0, 1, 0]])
    ap = write_matrix(tmp_path, "ap.txt", [[0, 0, 1]])
    joined = run_cli(capsys, "lp-md", "--dist", dist, "--stack", f"A={a},Ap={ap}",
                     "--stack", f"B={a},Bp={ap}",
                     *(arg for s in ["a=01", "m=1", "b=01", "m=1"] for arg in ("--syndrome", s)))
    assert joined[:2] == digits[:2]
    # a part without '=' continues a value only inside its own flag
    code, out, err = run_cli(capsys, *_lp_md_args(tmp_path, dist, ["a=01", "1", "b=01", "m=1"]))
    assert code == 2 and "name=value" in err and not out


def test_negative_seed_exit_2(tmp_path, capsys):
    """numpy seeds are non-negative, so a negative --seed is an input error
    for every subcommand and mode that takes one."""
    dist = write_dsbs(tmp_path)
    ma = write_matrix(tmp_path, "sw.txt", [[1, 1]])
    prob, codef = _write_bc_fixture(tmp_path)
    sw = ("sw-sim", "--dist", dist, "--matrix", f"x={ma}", "--matrix", f"y={ma}")
    bc = ("bc-sim", "--problem", prob, "--code", codef)
    cases = [
        ("gen-matrix", "--q", "2", "--rows", "2", "--cols", "4", "--tau", "2"),
        sw + ("--mode", "mc", "--trials", "10"),
        bc + ("--mode", "mc", "--trials", "10"),
        ("sweep", "sw", "--dist", dist, "--rates", "0.5:0.5:1", "--n-list", "2",
         "--tries", "1", "--mode", "exact"),
        ("sweep", "sw", "--dist", dist, "--rates", "0.5:0.5:1", "--n-list", "2",
         "--tries", "1", "--mode", "mc", "--trials", "10"),
    ]
    for argv in cases:
        code, out, err = run_cli(capsys, *argv, "--seed", "-1")
        assert code == 2 and "--seed" in err and not out, argv
        assert run_cli(capsys, *argv, "--seed", "0")[0] == 0, argv


def test_options_without_effect_exit_2(tmp_path, capsys):
    """An option that a mode would not use is refused, not ignored: --trials
    and --seed in exact mode, and --gamma with the md and ml_unconstrained
    decoders. Left out, the MC trial count defaults to 1000."""
    dist = write_dsbs(tmp_path)
    ma = write_matrix(tmp_path, "sw.txt", [[1, 1]])
    prob, codef = _write_bc_fixture(tmp_path)
    sw = ("sw-sim", "--dist", dist, "--matrix", f"x={ma}", "--matrix", f"y={ma}")
    bc = ("bc-sim", "--problem", prob, "--code", codef)
    refused = [
        (sw + ("--trials", "10"), "--trials"),
        (sw + ("--mode", "exact", "--seed", "1"), "--seed"),
        (bc + ("--trials", "10"), "--trials"),
        (bc + ("--mode", "exact", "--seed", "1"), "--seed"),
        (sw + ("--decoder", "md", "--gamma", "0.5"), "--gamma"),
        (sw + ("--decoder", "ml_unconstrained", "--gamma", "0.5"), "--gamma"),
        (sw + ("--gamma", "0.5", "--mode", "mc", "--seed", "1"), "--gamma"),
        (_sweep_args(dist, "--mode", "exact", "--trials", "10"), "--trials"),
    ]
    for argv, flag in refused:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and flag in err and not out, argv
    for argv in (sw + ("--mode", "mc", "--seed", "1"), bc + ("--mode", "mc", "--seed", "1")):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and json.loads(out)["trials"] == 1000, argv
    assert run_cli(capsys, *_sweep_args(dist, "--tries", "1", "--mode", "mc"))[0] == 0
