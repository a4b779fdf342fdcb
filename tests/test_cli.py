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


def test_reverse_kl_under_hard_distortion_exits_4(hamming_file):
    assert main(["put", "hard", hamming_file, "--alpha", "2", "--generator", "reverse-kl"]) == 4
