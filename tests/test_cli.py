import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import alphaleak
from alphaleak import Alphabet, Channel, Dist, ValidationError, lp, put_max_alpha_leakage, sibson_mi
from alphaleak.cli import _log_base, main
from alphaleak.datasets import build_hamming_spec, build_type_distance_spec
from util import spec_json


@pytest.fixture
def hamming_file(tmp_path):
    path = tmp_path / "hamming4-1-3.json"
    path.write_text(json.dumps(spec_json(build_hamming_spec(4, 1, 3))))
    return str(path)


def test_put_hard_hamming(hamming_file, capsys):
    assert main(["put", "hard", hamming_file, "--alpha", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["q_star"] == pytest.approx(9 / 81, rel=0, abs=1e-12)
    assert out["value_nats"] == pytest.approx(np.log(9.0), rel=0, abs=1e-12)
    assert min(out["Q_star"]) >= 0.0


def test_put_hard_json_round_trips_the_solution(hamming_file, capsys):
    assert main(["put", "hard", hamming_file, "--alpha", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    _, sol = put_max_alpha_leakage(build_hamming_spec(4, 1, 3), 2.0)
    assert out["Q_star"] == sol.target_output.p.tolist()
    assert out["mechanism"] == sol.mechanism.rows.tolist()
    assert out["q_star"] == sol.q_star and out["duality_gap"] == sol.duality_gap


def test_put_hard_type_spec_at_the_enumeration_limit(tmp_path, capsys, monkeypatch):
    # 1024 types, an interval game: solved by greedy piercing, no tableau
    def refuse(*args):
        raise AssertionError("the tableau ran on a type-distance spec")

    monkeypatch.setattr(lp, "_simplex", refuse)
    path = tmp_path / "type1023-1.json"
    path.write_text(json.dumps(spec_json(build_type_distance_spec(1023, 1))))
    assert main(["put", "hard", str(path), "--alpha", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["q_star"] == 1 / 342 and out["duality_gap"] == 0.0
    assert np.count_nonzero(out["Q_star"]) == 342


def test_log_base_parses_and_converts():
    unit, per = _log_base(" Bits ")
    assert unit == "bits" and math.log(2) / per == pytest.approx(1.0, abs=1e-15)
    assert _log_base("nats") == ("nats", 1.0)
    with pytest.raises(ValidationError, match="unknown log base 'trits'"):
        _log_base("trits")


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"input": [')
    assert main(["put", "hard", str(path), "--alpha", "2"]) == 2
    assert "invalid JSON" in capsys.readouterr().err


SPEC = {"input": ["a", "b"], "output": ["a", "b"], "d": [[0, 1], [1, 0]], "D": 0}
CH = {"input": ["a", "b"], "output": ["u", "v"], "rows": [[0.9, 0.1], [0.2, 0.8]]}
DIAGONAL = {"rows": ["a", "b"], "cols": ["a", "b"], "mass": [[0.3, 0.0], [0.0, 0.7]]}
HARD = ["put", "hard", "FILE", "--alpha", "2"]
AVG_BINARY = ["put", "avg-binary", "--p", "0.3", "--D", "0.1"]
HARD1 = ["put", "hard", "SPEC", "--alpha", "1", "--prior"]


@pytest.mark.parametrize(
    "argv, obj, named",
    [
        (HARD, {k: v for k, v in SPEC.items() if k != "D"}, "'D'"),
        (HARD, {**SPEC, "d": [[0, "x"], [1, 0]]}, "'d'"),
        (HARD, [SPEC], "JSON object"),
        (["measures", "FILE", "--alpha", "2"], SPEC, "'rows'"),
        (HARD, {**SPEC, "input": "ab"}, "'input'"),
        (["capacity", "FILE", "--alpha", "2,3"], CH, "'2,3'"),
        (["capacity", "FILE", "--alpha-sweep", "a:b:c"], CH, "'a:b:c'"),
        (["capacity", "FILE", "--alpha-sweep", "1:inf:1"], CH, "'1:inf:1'"),
        (["capacity", "FILE", "--alpha-sweep", "2:3:nan"], CH, "'2:3:nan'"),
        (["capacity", "FILE", "--alpha", "2", "--tol", "nan"], CH, "tol"),
        (["capacity", "FILE", "--alpha", "2", "--max-iter", "-1"], CH, "max_iter"),
        (["capacity", "FILE", "--alpha-sweep", "0.5,2"], CH, "requires alpha >= 1, got 0.5"),
        (["put", "hard", "FILE", "--alpha-sweep", "2,3"], SPEC, "single --alpha"),
        (["measures", "MISSING", "--alpha", "2"], SPEC, "input file not found"),
        (["measures", "FILE", "--alpha-sweep", ","], SPEC, "sweep ',' names no order"),
        (["measures", "FILE", "--alpha-sweep", ",,"], SPEC, "sweep ',,' names no order"),
        (AVG_BINARY + ["--alpha-sweep", ","], SPEC, "sweep ',' names no order"),
        (AVG_BINARY + ["--alpha-sweep", ",,"], SPEC, "sweep ',,' names no order"),
        (HARD + ["--generator", "kl", "--prior", "MISSING"], SPEC, "--prior is read only at --alpha 1"),
        (HARD + ["--prior", "PRIOR"], SPEC, "--prior is read only at --alpha 1"),
        (["measures", "FILE", "--alpha", "2", "--out", "NODIR"], DIAGONAL, "cannot write"),
        (["measures", "DIR", "--alpha", "2"], DIAGONAL, "input file unreadable"),
        (["measures", "BINARY", "--alpha", "2"], DIAGONAL, "invalid JSON"),
        (["capacity", "FILE", "--alpha", "2"], {k: v for k, v in CH.items() if k != "rows"}, "no 'rows' key"),
        (["capacity", "FILE", "--alpha", "2"], {**CH, "rows": [[0.9, "x"], [0.2, 0.8]]}, "bad 'rows' entry"),
        (["capacity", "FILE", "--alpha", "2"], {**CH, "rows": [[0.9, math.nan], [0.2, 0.8]]},
         "rows contains non-finite entries"),
        (HARD1 + ["FILE"], {"alphabet": ["a", "b"]}, "no 'mass' key"),
        (HARD1 + ["FILE"], {"alphabet": ["a", "b"], "mass": [0.5, "x"]}, "bad 'mass' entry"),
        (["capacity", "FILE", "--alpha-sweep", "1:2:1e-12"], CH, "has 1000000000001 orders, over 10000"),
        (["capacity", "FILE", "--alpha-sweep", "1:10001:1"], CH, "has 10001 orders, over 10000"),
        (["capacity", "FILE", "--alpha", "2"], {**CH, "input": {"a": 7, "b": 8}},
         "bad 'input' entry: alphabet must be a JSON array"),
        (HARD, {**SPEC, "D": True}, "bad 'D' entry: true is not a JSON number"),
        (["measures", "FILE", "--alpha", "2"], {**DIAGONAL, "mass": [[True, False], [False, False]]},
         "bad 'mass' entry: true is not a JSON number"),
        (HARD1 + ["FILE"], {"alphabet": ["a", "b"], "mass": [True, False]}, "bad 'mass' entry: true is not"),
        (["capacity", "FILE"], CH, "provide --alpha or --alpha-sweep"),
        (["capacity", "FILE", "--alpha-sweep", "2,1.5"], CH, "alpha sweep must be strictly increasing"),
        (["capacity", "FILE", "FILE", "FILE", "--alpha", "2"], CH, "capacity takes one or two channel files"),
    ],
    ids=[
        "no-bound", "bad-distortion-entry", "top-level-list", "spec-as-joint", "string-alphabet",
        "alpha-list", "sweep-not-numbers", "sweep-to-inf", "sweep-nan-step", "tol-nan", "max-iter-negative",
        "sweep-below-one", "hard-sweep", "missing-file",
        "measures-empty-sweep", "measures-empty-sweep-2", "avg-binary-empty-sweep", "avg-binary-empty-sweep-2",
        "hard-kl-prior", "hard-alpha-2-prior", "out-in-missing-dir", "directory", "binary-file",
        "channel-no-rows", "channel-bad-rows", "channel-nan-rows", "prior-no-mass", "prior-bad-mass",
        "sweep-1e12-orders", "sweep-10001-orders", "object-alphabet", "boolean-bound", "boolean-joint-mass",
        "boolean-prior-mass", "no-alpha", "decreasing-sweep", "three-channels",
    ],
)
def test_schema_mismatch_exits_2(tmp_path, capsys, argv, obj, named):
    # well-formed JSON that does not fit the schema, a file that is not
    # there, or an option value that does not parse or is out of range: an
    # error line, no traceback
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    prior = tmp_path / "prior.json"  # a valid law, on another alphabet than SPEC's inputs
    prior.write_text(json.dumps({"alphabet": ["u", "v", "w"], "mass": [0.2, 0.3, 0.5]}))
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\x89PNG\r\n\x1a\n\xff")
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SPEC))
    files = {
        "FILE": str(path), "MISSING": str(tmp_path / "missing.json"), "PRIOR": str(prior), "SPEC": str(spec),
        "NODIR": str(tmp_path / "missing" / "out.csv"), "DIR": str(tmp_path), "BINARY": str(binary),
    }
    assert main([files.get(word, word) for word in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


def test_utf8_files_under_an_ascii_locale(tmp_path):
    # JSON is UTF-8 whatever the locale: a non-ASCII label is read, written
    # to --out as UTF-8, and a stdout that cannot encode it is exit 2
    joint = tmp_path / "joint.json"
    joint.write_text(json.dumps({**DIAGONAL, "rows": ["\u00e9", "b"]}, ensure_ascii=False), encoding="utf-8")
    src = str(Path(alphaleak.__file__).resolve().parent.parent)
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0", PYTHONPATH=src)
    env.pop("PYTHONIOENCODING", None)

    def cli(*argv):
        proc = subprocess.run(
            [sys.executable, "-m", "alphaleak.cli", *argv], env=env, capture_output=True, timeout=60
        )
        assert b"Traceback" not in proc.stderr, proc.stderr
        return proc

    assert cli("measures", str(joint), "--alpha", "2").returncode == 0
    out = tmp_path / "strategy.csv"
    assert cli("strategy", str(joint), "--alpha", "2", "--out", str(out)).returncode == 0
    assert "2,a,\u00e9,1,1" in out.read_text(encoding="utf-8")
    proc = cli("strategy", str(joint), "--alpha", "2")
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr.startswith(b"error: ") and b"--out" in proc.stderr


def test_measures_of_a_deterministic_joint_never_go_negative(tmp_path, capsys):
    # X = Y: the conditional entropy and the loss are exactly 0 at every
    # order, never printed as -0 or as a few ulps above or below
    path = tmp_path / "joint.json"
    path.write_text(json.dumps(DIAGONAL))
    assert main(["measures", str(path), "--alpha-sweep", "1,1.5,2,5,inf"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert len(rows) == 5
    for _, _, cond_entropy, _, loss in rows:
        assert cond_entropy == loss == "0"


def test_measures_of_a_constant_row_variable_print_0(tmp_path, capsys):
    # one row value: its entropy and the leakage about it are +0, not -0
    path = tmp_path / "joint.json"
    path.write_text(json.dumps({"rows": ["a"], "cols": ["u", "v"], "mass": [[0.4, 0.6]]}))
    assert main(["measures", str(path), "--alpha-sweep", "1,2,inf"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert [row[1:] for row in rows] == [["0", "0", "0", "0"]] * 3


def test_measures_of_an_independent_pair_print_no_negative_leakage(tmp_path, capsys):
    # a product joint leaks exactly 0: no cell may print below 0, as -0 or -1e-16
    path = tmp_path / "joint.json"
    mass = np.outer([0.2, 0.3, 0.5], [0.1, 0.2, 0.3, 0.4]).tolist()
    path.write_text(json.dumps({"rows": ["a", "b", "c"], "cols": ["u", "v", "w", "z"], "mass": mass}))
    assert main(["measures", str(path), "--alpha-sweep", "1,1.5,2,3,inf"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert len(rows) == 5
    for row in rows:
        assert not any(cell.startswith("-") for cell in row), row
        assert abs(float(row[3])) <= 1e-15


def test_put_hard_perfect_privacy_prints_plus_zero(tmp_path, capsys):
    # D = 1 puts both outputs in both balls: q* = 1 and the leakage is +0, not -0
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**SPEC, "D": 1}))
    assert main(["put", "hard", str(path), "--alpha", "2"]) == 0
    captured = capsys.readouterr()
    assert '"value_nats": 0.0, "value_bits": 0.0' in captured.out
    assert captured.err.startswith("hard-distortion PUT at alpha=2 [alpha]: 0 nats (q*=1,")


def test_put_hard_kl_is_minus_log_q_star(hamming_file, capsys):
    # maximal KL-leakage under hard distortion: q* f(1/q*) + (1 - q*) f(0) = -log q*
    assert main(["put", "hard", hamming_file, "--alpha", "2", "--generator", "kl"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value_nats"] == pytest.approx(-math.log(out["q_star"]), rel=0, abs=1e-12)
    assert out["q_star"] == pytest.approx(9 / 81, rel=0, abs=1e-12) and out["generator"] == "kl"


def test_capacity_at_alpha_one_uses_a_uniform_prior(tmp_path, capsys):
    path = tmp_path / "channel.json"
    path.write_text(json.dumps(CH))
    assert main(["capacity", str(path), "--alpha", "1"]) == 0
    captured = capsys.readouterr()
    ch = Channel(Alphabet(CH["input"]), Alphabet(CH["output"]), CH["rows"])
    value = sibson_mi(Dist.uniform(ch.input_alphabet), ch, 1.0)
    # a 2x2 channel has no closed form at alpha = 1: its two columns stay empty
    assert captured.out.splitlines()[1] == f"1,{value:.12g},0,0.5,0.5,,"
    assert captured.err == "note: alpha = 1 capacity uses a uniform input distribution\n"


def test_capacity_refuses_orders_just_above_one(tmp_path, capsys):
    path = tmp_path / "channel.json"
    path.write_text(json.dumps(CH))
    assert main(["capacity", str(path), "--alpha", "1.0000000005"]) == 2
    assert "cannot solve alpha = 1.0000000005" in capsys.readouterr().err


def test_put_hard_hellinger(hamming_file, capsys):
    # maximal Hellinger(2)-leakage is the image of the maximal 2-leakage
    # log 9 under z -> exp(z) - 1
    assert main(["put", "hard", hamming_file, "--alpha", "2", "--generator", "hellinger"]) == 0
    captured = capsys.readouterr()
    out = json.loads(captured.out)
    assert out["value_nats"] == pytest.approx(8.0, rel=0, abs=1e-12)
    assert out["generator"] == "hellinger"
    assert captured.err.startswith("hard-distortion PUT at alpha=2 [hellinger]: 8 ")


def test_put_hard_kl_summary_is_in_the_base(hamming_file, capsys):
    # the KL value -log q* = log 9 is a logarithm: --base converts the
    # summary line and names its unit, the JSON holds both units as before
    assert main(["put", "hard", hamming_file, "--alpha", "2", "--generator", "kl", "--base", "bits"]) == 0
    captured = capsys.readouterr()
    out = json.loads(captured.out)
    assert out["value_bits"] == pytest.approx(math.log2(9), rel=0, abs=1e-12)
    assert out["value_nats"] == pytest.approx(math.log(9), rel=0, abs=1e-12)
    assert captured.err.startswith(f"hard-distortion PUT at alpha=2 [kl]: {math.log2(9):.12g} bits (q*=")


def test_put_hard_hellinger_reads_no_base(hamming_file, capsys):
    # a Hellinger value is not a logarithm, so a --base other than nats is a
    # flag the subcommand would ignore: exit 2 before any solve
    argv = ["put", "hard", hamming_file, "--alpha", "2", "--generator", "hellinger", "--base", "bits"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --base is not read with --generator hellinger: its value is no logarithm\n"


def test_put_hard_alpha_one_reports_a_frank_wolfe_gap(hamming_file, capsys):
    # the alpha = 1 tradeoff is certified by the descent's Frank-Wolfe gap,
    # not by an LP duality gap; the JSON key stays "duality_gap"
    assert main(["put", "hard", hamming_file, "--alpha", "1"]) == 0
    captured = capsys.readouterr()
    out = json.loads(captured.out)
    summary = captured.err.splitlines()[-1]
    assert f"Frank-Wolfe gap {out['duality_gap']:.3e})" in summary
    assert "duality" not in summary
    assert main(["put", "hard", hamming_file, "--alpha", "2"]) == 0
    assert ", duality gap " in capsys.readouterr().err


def test_reverse_kl_under_hard_distortion_exits_4(hamming_file):
    assert main(["put", "hard", hamming_file, "--alpha", "2", "--generator", "reverse-kl"]) == 4


# --------------------------------------------------------------------------
# Golden outputs.  The CLI prints 12 significant digits; the expected texts
# below are the outputs of the scipy-based implementation, which the numpy
# log-sum-exp and xlogy helpers must reproduce digit for digit.  Certificate
# columns (a solver's measured gap, |closed form - solver|) are rounding
# residue of order 1e-16 to 1e-12 and are checked against a bound instead.

JOINT = {"rows": ["a", "b"], "cols": ["u", "v", "w"], "mass": [[0.3, 0.15, 0.05], [0.1, 0.1, 0.3]]}
CHANNEL = {
    "input": ["x0", "x1", "x2"],
    "output": ["y0", "y1", "y2"],
    "rows": [[0.7, 0.2, 0.1], [0.1, 0.6, 0.3], [0.25, 0.25, 0.5]],
}
BINARY = {"input": ["x0", "x1"], "output": ["y0", "y1"], "rows": [[0.9, 0.1], [0.2, 0.8]]}


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, obj in (("joint", JOINT), ("channel", CHANNEL), ("binary", BINARY)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj))
        paths[name] = str(path)
    return paths


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def check_csv(text: str, golden: str, bounded: dict[str, float] | None = None) -> None:
    """Every cell equal to the golden one, except the columns of `bounded`,
    whose (nonnegative) values must lie at or below their bound."""
    got = [line.split(",") for line in text.splitlines()]
    want = [line.split(",") for line in golden.strip().splitlines()]
    assert got[0] == want[0]
    assert len(got) == len(want)
    header, bounded = want[0], bounded or {}
    for got_row, want_row in zip(got[1:], want[1:]):
        for name, g, w in zip(header, got_row, want_row, strict=True):
            if name in bounded and w:
                assert 0.0 <= float(g) <= bounded[name], (name, g)
            else:
                assert g == w, (name, want_row[0], g, w)


MEASURES_BITS = """
alpha,renyi_entropy_X,arimoto_cond_entropy,alpha_leakage,min_expected_alpha_loss
1,1,0.774334370901,0.225665629099,0.536727686001
1.5,1,0.697196156785,0.302803843215,0.446344730295
2,1,0.641536344549,0.358463655451,0.39871308739
inf,1,0.415037499279,0.584962500721,0.25
"""


def test_measures_in_bits(files, capsys):
    code, out, _ = run(["measures", files["joint"], "--alpha-sweep", "1,1.5,2,inf", "--base", "bits"], capsys)
    assert code == 0
    check_csv(out, MEASURES_BITS)


CAPACITY_SWEEP = """
alpha,value,kkt_residual,optimal_input_x0,optimal_input_x1,optimal_input_x2
1.5,0.274747783984,2.03291333654e-12,0.435803367406,0.480740032358,0.0834566002358
2,0.326883707279,5.44836254602e-12,0.419402504116,0.450311811215,0.130285684669
2.5,0.366735706183,4.12392899195e-12,0.410999498137,0.425183902589,0.163816599273
3,0.397733191631,1.89408394493e-12,0.406559651216,0.40506913375,0.188371215034
"""


def test_capacity_sweep(files, capsys):
    code, out, _ = run(["capacity", files["channel"], "--alpha-sweep", "1.5:3:0.5"], capsys)
    assert code == 0
    check_csv(out, CAPACITY_SWEEP, {"kkt_residual": 1e-10})


CAPACITY_BINARY = """
alpha,value,kkt_residual,optimal_input_x0,optimal_input_x1,closed_form,closed_form_gap
1.5,0.35314214741,0,0.529031926219,0.470968073781,0.35314214741,3.33066907388e-16
2,0.40209242363,1.81604650253e-16,0.535353535354,0.464646464646,0.40209242363,1.66533453694e-16
4,0.477642963111,5.17297873777e-17,0.538003170063,0.461996829937,0.477642963111,5.55111512313e-17
inf,0.530628251062,0,0.5,0.5,,
"""


def test_capacity_binary_closed_form_column(files, capsys):
    code, out, _ = run(["capacity", files["binary"], "--alpha-sweep", "1.5,2,4,inf"], capsys)
    assert code == 0
    check_csv(out, CAPACITY_BINARY, {"kkt_residual": 1e-10, "closed_form_gap": 1e-12})


def test_capacity_in_bits_converts_every_column_in_nats(files, capsys):
    # the gaps are differences of values, so they take the unit of the values
    tables = {}
    for base in ("nats", "bits"):
        code, out, _ = run(["capacity", files["binary"], "--alpha-sweep", "2,4", "--base", base], capsys)
        assert code == 0
        lines = [line.split(",") for line in out.splitlines()]
        tables[base] = [dict(zip(lines[0], row)) for row in lines[1:]]
    for nats, bits in zip(tables["nats"], tables["bits"], strict=True):
        for column in ("value", "kkt_residual", "closed_form", "closed_form_gap"):
            want = float(nats[column]) / np.log(2.0)
            assert float(bits[column]) == pytest.approx(want, rel=1e-11, abs=0.0), column
        assert bits["optimal_input_x0"] == nats["optimal_input_x0"]


def test_out_writes_the_file(files, tmp_path, capsys):
    path = tmp_path / "measures.csv"
    argv = ["measures", files["joint"], "--alpha-sweep", "1,1.5,2,inf", "--base", "bits", "--out", str(path)]
    code, out, _ = run(argv, capsys)
    assert code == 0 and out == ""
    check_csv(path.read_text(), MEASURES_BITS)


CAPACITY_PAIR = """
alpha,value_1,value_2,diff
1.5,0.261686707654,0.25928259793,0.00240410972411
2,0.287682072452,0.307484699748,-0.0198026272962
4,0.340378976109,0.39692199228,-0.056543016171
"""


def test_capacity_of_two_channels_reports_the_crossing(tmp_path, capsys):
    # the Z-channel (0, 0.5) leaks more than BSC(0.2) at alpha = 1.5 and less
    # from alpha = 2 on
    paths = []
    for name, rows in (("z", [[1.0, 0.0], [0.5, 0.5]]), ("bsc", [[0.8, 0.2], [0.2, 0.8]])):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps({**BINARY, "rows": rows}))
    code, out, err = run(["capacity", *map(str, paths), "--alpha-sweep", "1.5,2,4"], capsys)
    assert code == 0
    check_csv(out, CAPACITY_PAIR)
    assert err == "crossing: leakage ordering flips between alpha=1.5 and alpha=2\n"


STRATEGY = """
alpha,output,input,posterior,strategy
1,u,a,0.75,0.75
1,u,b,0.25,0.25
1,v,a,0.6,0.6
1,v,b,0.4,0.4
1,w,a,0.142857142857,0.142857142857
1,w,b,0.857142857143,0.857142857143
2,u,a,0.75,0.9
2,u,b,0.25,0.1
2,v,a,0.6,0.692307692308
2,v,b,0.4,0.307692307692
2,w,a,0.142857142857,0.027027027027
2,w,b,0.857142857143,0.972972972973
inf,u,a,0.75,1
inf,u,b,0.25,0
inf,v,a,0.6,1
inf,v,b,0.4,0
inf,w,a,0.142857142857,0
inf,w,b,0.857142857143,1
"""


def test_strategy_sweep(files, capsys):
    code, out, _ = run(["strategy", files["joint"], "--alpha-sweep", "1,2,inf"], capsys)
    assert code == 0
    check_csv(out, STRATEGY)


def test_put_types(capsys):
    code, out, err = run(["put", "types", "--n", "10", "--m", "1"], capsys)
    assert code == 0
    assert json.loads(out) == {
        "n": 10,
        "m": 1,
        "value_nats": 1.3862943611198906,
        "value_bits": 2.0,
        "index_set": [1, 4, 7, 10],
        "type_map": {"0": 1, "1": 1, "2": 1, "3": 4, "4": 4, "5": 4, "6": 7, "7": 7, "8": 7, "9": 10, "10": 10},
        "representatives": {"1": "0000000001", "4": "0000001111", "7": "0001111111", "10": "1111111111"},
    }
    assert err == "type-distance PUT(n=10, m=1): 1.38629436112 nats; output type classes [1, 4, 7, 10]\n"


def test_put_hamming(capsys):
    code, out, err = run(["put", "hamming", "--n", "4", "--m", "1", "--q", "3"], capsys)
    assert code == 0
    assert json.loads(out) == {
        "n": 4,
        "m": 1,
        "q": 3,
        "value_nats": 2.1972245773362196,
        "value_bits": 3.1699250014423126,
        "ball_size": 9,
    }
    assert err == "Hamming PUT(n=4, m=1, q=3): 2.19722457734 nats; uniform mechanism over balls of 9 datasets\n"


AVG_BINARY = """
alpha,value,rho1,rho2,guess_prob,gap
1.5,0.374487437692,0.00162015642439,0.329552968343,0.9,9.56260543421e-12
2,0.405465108108,0,0.333333333333,0.9,2.4877802226e-12
4,0.460460454942,0,0.333333333333,0.9,4.50883188992e-11
"""


def test_put_avg_binary(capsys):
    code, out, _ = run(["put", "avg-binary", "--p", "0.3", "--D", "0.1", "--alpha-sweep", "1.5,2,4"], capsys)
    assert code == 0
    check_csv(out, AVG_BINARY, bounded={"gap": 1e-10})


def test_solver_non_convergence_exits_3(files, capsys):
    # No iterations allowed: the uniform input law is not optimal for this
    # channel, so the capacity solver raises ConvergenceError.
    code, out, err = run(["capacity", files["channel"], "--alpha", "2", "--max-iter", "0"], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("error: input-distribution ascent did not reach tolerance")
    assert "(residual 0.0786746554" in err


@pytest.mark.parametrize(
    "command, flag",
    [
        (["put", "avg-binary", "--p", "0.3", "--D", "0.1"], ["--tol", "1e-3"]),
        (["put", "avg-binary", "--p", "0.3", "--D", "0.1"], ["--max-iter", "0"]),
        (["measures", "joint"], ["--tol", "1e-3"]),
        (["strategy", "joint"], ["--max-iter", "0"]),
        (["put", "hard", "spec.json"], ["--max-iter", "0"]),
        (["strategy", "joint"], ["--base", "hex"]),
    ],
    ids=["avg-binary-tol", "avg-binary-max-iter", "measures-tol", "strategy-max-iter", "hard-max-iter",
         "strategy-bad-base"],
)
def test_solver_flags_only_where_a_solver_reads_them(files, capsys, command, flag):
    # a flag the subcommand would ignore is a usage error, not a silent no-op;
    # strategy prints probabilities, so it has no --base either
    argv = [files.get(word, word) for word in command] + ["--alpha", "1.5", *flag]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
