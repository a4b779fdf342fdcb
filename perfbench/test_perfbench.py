"""Tests of the benchmark itself: its output checks, its deadline, its
seeding and its metric lists.  Run with `python3 -m pytest perfbench`."""

import dataclasses
import json
import signal
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import alphaleak  # noqa: E402
import checks as ck  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402

W = np.array([[0.7, 0.2, 0.1], [0.1, 0.6, 0.3], [0.25, 0.25, 0.5]])


def _channel(W):
    return wl._channel(alphaleak, W)


def test_capacity_check_accepts_the_solver_and_the_binary_closed_form():
    res = alphaleak.maximal_alpha_leakage(_channel(W), 2.0)
    assert ck.check_capacity(W, 2.0, res) < 1e-9
    Wb = np.array([[0.8, 0.2], [0.35, 0.65]])
    for a in (1.5, 3.0, 10.0):
        res = alphaleak.maximal_alpha_leakage(_channel(Wb), a)
        ck.check_capacity(Wb, a, res)
        assert ck.binary_capacity(0.2, 0.35, a) == pytest.approx(res.value, abs=1e-10)


def test_capacity_check_rejects_a_perturbed_output_law_and_a_wrong_value():
    res = alphaleak.maximal_alpha_leakage(_channel(W), 2.0)
    q = res.target_output.p + np.array([1e-4, -1e-4, 0.0])
    bad_q = dataclasses.replace(res, target_output=alphaleak.Dist(res.target_output.alphabet, q))
    with pytest.raises(ck.CheckFailed, match="gap"):
        ck.check_capacity(W, 2.0, bad_q)
    with pytest.raises(ck.CheckFailed, match="above its upper bound"):
        ck.check_capacity(W, 2.0, dataclasses.replace(res, value=res.value + 1e-6))
    with pytest.raises(ck.CheckFailed, match="uncertified"):
        ck.check_capacity(W, 2.0, dataclasses.replace(res, kkt_residual=1e-6))


def _type_spec(n, m):
    d = wl._type_distances(n)
    return wl._spec(alphaleak, d, m), d <= m


def test_lp_check_rejects_a_negative_dual_and_a_perturbed_q():
    spec, mask = _type_spec(8, 1)
    _, sol = alphaleak.put_max_alpha_leakage(spec, 2.0)
    assert ck.check_hard_put(mask, sol, "alpha", 2.0, expected_q=1 / 3) <= ck.LP_GAP_TOL
    mu = sol.dual_certificate.p.copy()
    mu[int(np.argmax(mu))] += 1.3e-14
    mu[int(np.argmin(mu))] = -1.3e-14  # the size of the duals the seed's simplex returns
    negative = SimpleNamespace(**{**vars(sol), "dual_certificate": SimpleNamespace(p=mu)})
    with pytest.raises(ck.CheckFailed, match="negative"):
        ck.check_hard_put(mask, negative, "alpha", 2.0)
    q = sol.target_output.p.copy()
    q[q > 0] *= np.linspace(0.9, 1.1, int((q > 0).sum()))
    q /= q.sum()
    perturbed = SimpleNamespace(**{**vars(sol), "target_output": SimpleNamespace(p=q)})
    with pytest.raises(ck.CheckFailed):
        ck.check_hard_put(mask, perturbed, "alpha", 2.0)


def test_mechanism_check_rejects_mass_outside_the_ball():
    spec, mask = _type_spec(6, 1)
    _, sol = alphaleak.put_max_alpha_leakage(spec, 2.0)
    rows = sol.mechanism.rows.copy()
    ck.check_mechanism(rows, mask)
    rows[0, -1], rows[0, 0] = 1e-300, rows[0, 0] - 1e-300
    with pytest.raises(ck.CheckFailed, match="outside"):
        ck.check_mechanism(rows, mask)


def test_frank_wolfe_check_rejects_a_perturbed_q():
    rng = np.random.default_rng(7)
    d, bound = wl.random_spec(rng)
    prior = rng.dirichlet(np.ones(d.shape[0]))
    spec = wl._spec(alphaleak, d, bound)
    value, q = alphaleak.put_f_leakage(alphaleak.Dist(spec.input_alphabet, prior), spec, alphaleak.kl_generator())
    mask = d <= bound
    assert ck.check_aware_put(mask, prior, value, q.p, "kl") <= ck.FW_GAP_TOL
    bad = 0.9 * q.p + 0.1 / len(q.p)
    with pytest.raises(ck.CheckFailed):
        ck.check_aware_put(mask, prior, ck.aware_objective(mask, prior, bad, "kl", None), bad, "kl")


def test_dataset_closed_forms():
    assert ck.type_cover_count(9, 2) == 2
    assert ck.hamming_ball(5, 1, 3) == 11
    d = ck.hamming_distances(3, 2)
    assert d[0, 7] == 3 and d[1, 3] == 1 and np.all(np.diag(d) == 0)
    spec = alphaleak.datasets.build_hamming_spec(3, 1, 2)
    ck.check_spec(spec, d, 1)


def test_deadline_turns_a_sleeping_operation_into_a_failure():
    previous = signal.signal(signal.SIGALRM, worker._on_alarm)
    try:
        op = wl.Op("sleep", "aware", lambda: time.sleep(5), lambda out: 0.0)
        latency, error, anchor = worker.execute(op, deadline=0.2)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert error == "deadline" and anchor is None
    assert 0.2 <= latency < 1.0
    assert worker.classify({"kind": "aware", "error": error}) is None  # only a known stall is excused


def test_failures_are_matched_to_known_defects():
    neg = {"kind": "hard_put", "error": "ValidationError: mass contains negative entries"}
    assert worker.classify(neg) == "lp-negative-dual"
    assert worker.classify({"kind": "hard_put", "error": "deadline"}) == "bland-stall"
    assert worker.classify({"kind": "capacity", "error": "check: capacity gap 1e-3 too wide"}) is None


def test_same_seed_gives_the_same_operation_list(tmp_path):
    for workload in wl.WORKLOADS:
        first = [op.name for op in wl.build(workload, 5, alphaleak, tmp_path / "a")]
        again = [op.name for op in wl.build(workload, 5, alphaleak, tmp_path / "b")]
        other = [op.name for op in wl.build(workload, 6, alphaleak, tmp_path / "c")]
        assert first == again
        assert first != other
        assert len(set(first)) == len(first)


def test_tail_latency_leaves_ten_samples_above():
    value, level = worker.tail_latency([float(i) for i in range(100)])
    assert value == 89.0 and level == pytest.approx(0.9)
    with pytest.raises(ValueError):
        worker.tail_latency([1.0] * 10)


def test_benchmark_json_matches_the_reported_metrics():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in doc["workloads"]] == list(wl.WORKLOADS)
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert all(m["bound"] <= setup["bound"] <= 0.25 for m in doc["end_to_end"])


def test_run_refuses_a_checkout_without_sources(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "cli", "--seed", "1", "--seconds", "1"]) == 2
