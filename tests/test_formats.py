"""File codecs: matrix text format, distribution JSON, descriptors."""

import json

import numpy as np
import pytest

from hashprop.formats import (
    ParseError,
    bc_code_from_obj,
    bc_problem_from_obj,
    distribution_from_obj,
    emit_matrix,
    ensemble_from_obj,
    load_distribution,
    load_bc_code,
    load_matrix,
    parse_matrix,
    parse_symbols,
)
from hashprop.gf import FieldMatrix


def test_matrix_round_trip():
    m = FieldMatrix(3, [[0, 1, 2], [2, 0, 0]])
    assert parse_matrix(emit_matrix(m)) == m
    empty = FieldMatrix.zeros(2, 2, 3)
    assert parse_matrix(emit_matrix(empty)) == empty


def test_matrix_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 1"):
        parse_matrix("")
    with pytest.raises(ParseError, match="line 1"):
        parse_matrix("2 2\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_matrix("2 2 2\n0 0\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_matrix("2 2 2\n0 5 1\n")
    with pytest.raises(ParseError, match="line 3.*sorted"):
        parse_matrix("2 2 2\n1 0 1\n0 0 1\n")
    with pytest.raises(ParseError, match="line 3.*duplicate"):
        parse_matrix("2 2 2\n0 0 1\n0 0 1\n")
    with pytest.raises(ParseError, match="residue"):
        parse_matrix("2 2 2\n0 0 3\n")
    with pytest.raises(ParseError, match="line 1.*not prime"):
        parse_matrix("4 2 2\n")
    with pytest.raises(ParseError, match="line 1.*exceeds"):  # refused before trial division
        parse_matrix("1000000000000000003 1 1\n")
    with pytest.raises(ParseError, match="line 1.*negative"):
        parse_matrix("2 -1 2\n")
    with pytest.raises(ParseError, match="line 1.*exceeds"):  # refused before allocating
        parse_matrix("2 100000 100000\n")


def test_load_matrix_missing_file(tmp_path):
    with pytest.raises(ParseError, match="nope.txt"):
        load_matrix(str(tmp_path / "nope.txt"))
    path = tmp_path / "m.txt"
    m = FieldMatrix(2, [[1, 0], [0, 1]])
    path.write_text(emit_matrix(m))
    assert load_matrix(str(path)) == m


def test_distribution_json_round_trip():
    obj = {"sizes": [2, 2], "probs": [0.4, 0.1, 0.2, 0.3]}
    d = distribution_from_obj(obj)
    assert d.shape == (2, 2)
    assert d[0, 1] == pytest.approx(0.1)


def test_distribution_json_errors():
    with pytest.raises(ParseError):
        distribution_from_obj({"sizes": [2]})
    with pytest.raises(ParseError):
        distribution_from_obj({"sizes": [2], "probs": [0.5]})
    with pytest.raises(ParseError):
        distribution_from_obj({"sizes": [2], "probs": [0.5, 0.6]})



@pytest.mark.parametrize("obj, field", [
    ({"sizes": ["2", "2"], "probs": [0.25] * 4}, "sizes"),
    ({"sizes": 2, "probs": [0.5, 0.5]}, "sizes"),
    ({"sizes": [2.0], "probs": [0.5, 0.5]}, "sizes"),
    ({"sizes": [True, 2], "probs": [0.5, 0.5]}, "sizes"),
    ({"sizes": [0], "probs": []}, "sizes"),
    ({"sizes": [2], "probs": 0.5}, "probs"),
    ({"sizes": [2], "probs": [None, 1.0]}, "probs"),
    ({"sizes": [2], "probs": [float("nan"), 1.0]}, "probs"),
], ids=["sizes-strings", "sizes-int", "sizes-float", "sizes-bool", "sizes-zero",
        "probs-number", "probs-null", "probs-nan"])
def test_distribution_json_malformed_field_names_it(obj, field):
    """sizes must be a list of positive ints and probs a list of finite numbers."""
    with pytest.raises(ParseError, match=f"'{field}' must be a list"):
        distribution_from_obj(obj)


def test_distribution_json_nan_literal(tmp_path):
    """``json`` reads the literal NaN as a float; it is no probability."""
    path = tmp_path / "nan.json"
    path.write_text('{"sizes": [2], "probs": [NaN, 1.0]}')
    with pytest.raises(ParseError, match="'probs' must be a list of finite numbers"):
        load_distribution(str(path))


def test_ensemble_descriptor():
    ens, filt = ensemble_from_obj({"family": "sparse", "q": 2, "l": 3, "n": 4, "tau": 2})
    assert ens.family == "sparse" and ens.tau == 2
    assert filt.w_min == 1
    ens, filt = ensemble_from_obj({"family": "uniform", "q": 2, "l": 1, "n": 2, "w_min": 2})
    assert filt.w_min == 2
    with pytest.raises(ParseError):
        ensemble_from_obj({"family": "uniform", "q": 2, "l": 1, "n": 2, "w_min": "x"})
    with pytest.raises(ParseError):
        ensemble_from_obj({"family": "sparse", "q": 2, "l": 1, "n": 2, "tau": [2]})
    with pytest.raises(ParseError):
        ensemble_from_obj({"family": "sparse", "q": 2, "l": 1, "n": 2})
    with pytest.raises(ParseError):
        ensemble_from_obj({"family": "magic", "q": 2, "l": 1, "n": 2})
    with pytest.raises(ParseError):  # binning is a library ensemble only
        ensemble_from_obj({"family": "binning", "q": 2, "l": 1, "n": 2})
    with pytest.raises(ParseError):
        ensemble_from_obj({"q": 2, "l": 1, "n": 2})


@pytest.mark.parametrize("field, value", [
    ("l", 1.9), ("q", "3"), ("l", True), ("n", None), ("tau", 2.0), ("w_min", 1.5),
], ids=["l-float", "q-string", "l-bool", "n-null", "tau-float", "w_min-float"])
def test_ensemble_descriptor_fields_must_be_ints(field, value):
    """A descriptor field is a JSON int; nothing is truncated or converted."""
    obj = {"family": "sparse", "q": 2, "l": 2, "n": 3, "tau": 2, field: value}
    with pytest.raises(ParseError, match=f"'{field}' must be an int"):
        ensemble_from_obj(obj)


def _problem_obj():
    channel = np.zeros((2, 2, 4))
    for x in range(4):
        channel[x >> 1, x & 1, x] = 1.0
    return {
        "y_sizes": [2, 2],
        "x_size": 4,
        "channel": channel.reshape(-1).tolist(),
        "mu_u": {"sizes": [2, 2], "probs": [0.25] * 4},
        "f": [0, 1, 2, 3],
    }


def test_bc_problem_from_obj():
    p = bc_problem_from_obj(_problem_obj())
    assert p.k == 2 and p.deterministic
    obj = _problem_obj()
    del obj["f"]
    with pytest.raises(ParseError):
        bc_problem_from_obj(obj)
    obj["f_stochastic"] = np.eye(4)[[0, 1, 2, 3]].reshape(-1).tolist()
    p2 = bc_problem_from_obj(obj)
    assert not p2.deterministic


@pytest.mark.parametrize("field, value, message", [
    ("f", [0, 1, 2], "'f' has 3 entries, expected 4"),
    ("f", [0, 1.7, 2, 3], "'f' must be a list of ints"),
    ("f", [0, True, 2, 3], "'f' must be a list of ints"),
    ("f", [0, 1, 2, 4], "outside the channel input alphabet"),
    ("y_sizes", ["2", "2"], "'y_sizes' must be a list of positive ints"),
    ("y_sizes", [2.9, 2], "'y_sizes' must be a list of positive ints"),
    ("y_sizes", [2, 2, 1], "'y_sizes' has 3 entries, expected 2"),
    ("x_size", 4.0, "'x_size' must be a positive int"),
    ("x_size", 0, "'x_size' must be a positive int"),
    ("channel", [float("nan")] + [0.0] * 15, "'channel' must be a list of finite numbers"),
    ("channel", [None] + [0.0] * 15, "'channel' must be a list of finite numbers"),
    ("channel", [1.0] * 15, "'channel' has 15 entries, expected 16"),
    ("mu_u", {"sizes": [2, 2]}, "'mu_u': distribution JSON needs"),
], ids=["f-short", "f-float", "f-bool", "f-range", "y_sizes-strings", "y_sizes-float",
        "y_sizes-count", "x_size-float", "x_size-zero", "channel-nan", "channel-null",
        "channel-short", "mu_u-no-probs"])
def test_bc_problem_malformed_field_names_it(field, value, message):
    """Each problem field is checked as the distribution's own fields are:
    the wrong kind of value or the wrong length is a ParseError naming it."""
    obj = _problem_obj()
    obj[field] = value
    with pytest.raises(ParseError, match=message):
        bc_problem_from_obj(obj)


def test_bc_problem_stochastic_map_fields():
    obj = _problem_obj()
    del obj["f"]
    for bad, message in (([0.25] * 15, "'f_stochastic' has 15 entries, expected 16"),
                         ([float("inf")] + [0.25] * 15, "'f_stochastic' must be a list")):
        obj["f_stochastic"] = bad
        with pytest.raises(ParseError, match=message):
            bc_problem_from_obj(obj)


def test_bc_code_round_trip(tmp_path):
    a = FieldMatrix(2, [[1, 0]])
    ap = FieldMatrix(2, [[1, 1]])
    (tmp_path / "a.txt").write_text(emit_matrix(a))
    (tmp_path / "ap.txt").write_text(emit_matrix(ap))
    obj = {"receivers": [
        {"A": "a.txt", "A_prime": "ap.txt", "syndrome": [0]},
        {"A": "a.txt", "A_prime": "ap.txt", "syndrome": [1]},
    ]}
    code_path = tmp_path / "code.json"
    code_path.write_text(json.dumps(obj))
    code = load_bc_code(str(code_path))
    assert code.k == 2 and code.syndromes == ((0,), (1,))
    with pytest.raises(ParseError):
        bc_code_from_obj({})
    with pytest.raises(ParseError):
        bc_code_from_obj({"receivers": [{"A": "a.txt"}]}, base_dir=str(tmp_path))



def _receiver(**fields):
    return {"A": "a.txt", "A_prime": "ap.txt", "syndrome": [0], **fields}


@pytest.mark.parametrize("obj, message", [
    ({"receivers": 3}, "'receivers' list"),
    ({"receivers": [3]}, "receiver 0: must be an object"),
    ({"receivers": [_receiver(syndrome=["x"])]}, "receiver 0: 'syndrome' must be a list of ints"),
    ({"receivers": [_receiver(syndrome=5)]}, "receiver 0: 'syndrome' must be a list of ints"),
    ({"receivers": [_receiver(), _receiver(syndrome=[1.0])]},
     "receiver 1: 'syndrome' must be a list of ints"),
    ({"receivers": [_receiver(syndrome=[True])]}, "receiver 0: 'syndrome' must be a list of ints"),
    ({"receivers": [_receiver(A=5)]}, "receiver 0: 'A' and 'A_prime' must be file paths"),
    ({"receivers": [{"A": "a.txt", "syndrome": [0]}]}, "receiver 0: missing field 'A_prime'"),
    ({"receivers": [_receiver(), _receiver(syndrome=[2 ** 70])]},
     r"receiver 1: 'syndrome' entries must lie in \[0, 2\)"),
    ({"receivers": [_receiver(syndrome=[-1])]}, r"receiver 0: 'syndrome' entries must lie in"),
    ({"receivers": [_receiver(syndrome=[2])]}, r"receiver 0: 'syndrome' entries must lie in"),
], ids=["receivers-int", "receiver-int", "syndrome-strings", "syndrome-int", "syndrome-float",
        "syndrome-bool", "A-int", "A_prime-missing", "syndrome-2^70", "syndrome-negative",
        "syndrome-q"])
def test_bc_code_json_malformed_field_names_it(tmp_path, obj, message):
    (tmp_path / "a.txt").write_text(emit_matrix(FieldMatrix(2, [[1, 0]])))
    (tmp_path / "ap.txt").write_text(emit_matrix(FieldMatrix(2, [[1, 1]])))
    with pytest.raises(ParseError, match=message):
        bc_code_from_obj(obj, base_dir=str(tmp_path))


def test_parse_symbols():
    assert parse_symbols("0120") == (0, 1, 2, 0)
    assert parse_symbols("10,2,0") == (10, 2, 0)
    assert parse_symbols("") == ()
    with pytest.raises(ParseError):
        parse_symbols("a,b")
