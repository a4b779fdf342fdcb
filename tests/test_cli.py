import json

import numpy as np
import pytest

from alphaleak.cli import main
from alphaleak.datasets import build_hamming_spec


@pytest.fixture
def hamming_file(tmp_path):
    path = tmp_path / "hamming4-1-3.json"
    path.write_text(json.dumps(build_hamming_spec(4, 1, 3).to_json()))
    return str(path)


def test_put_hard_hamming(hamming_file, capsys):
    assert main(["put", "hard", hamming_file, "--alpha", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["q_star"] == pytest.approx(9 / 81, rel=0, abs=1e-12)
    assert out["value_nats"] == pytest.approx(np.log(9.0), rel=0, abs=1e-12)
    assert min(out["Q_star"]) >= 0.0


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"input": [')
    assert main(["put", "hard", str(path), "--alpha", "2"]) == 2
    assert "invalid JSON" in capsys.readouterr().err


SPEC = {"input": ["a", "b"], "output": ["a", "b"], "d": [[0, 1], [1, 0]], "D": 0}


@pytest.mark.parametrize(
    "command, obj, named",
    [
        (["put", "hard"], {k: v for k, v in SPEC.items() if k != "D"}, "'D'"),
        (["put", "hard"], {**SPEC, "d": [[0, "x"], [1, 0]]}, "'d'"),
        (["put", "hard"], [SPEC], "JSON object"),
        (["measures"], SPEC, "'rows'"),
    ],
    ids=["no-bound", "bad-distortion-entry", "top-level-list", "spec-as-joint"],
)
def test_schema_mismatch_exits_2(tmp_path, capsys, command, obj, named):
    # well-formed JSON that does not fit the schema: an error line, no traceback
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    assert main([*command, str(path), "--alpha", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


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
alpha,value,rho1,rho2,guess_prob
1.5,0.374487994893,0.00178571428571,0.329166666667,0.9
2,0.405465108108,0,0.333333333333,0.9
4,0.460460454942,0,0.333333333333,0.9
"""


def test_put_avg_binary(capsys):
    code, out, _ = run(["put", "avg-binary", "--p", "0.3", "--D", "0.1", "--alpha-sweep", "1.5,2,4"], capsys)
    assert code == 0
    check_csv(out, AVG_BINARY)


def test_solver_non_convergence_exits_3(files, capsys):
    # No iterations allowed: the uniform input law is not optimal for this
    # channel, so the capacity solver raises ConvergenceError.
    code, out, err = run(["capacity", files["channel"], "--alpha", "2", "--max-iter", "0"], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("error: input-distribution ascent did not reach tolerance")
    assert "(residual 0.0786746554" in err
