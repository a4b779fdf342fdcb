"""Operation lists of the three workloads.

`build(workload, seed, al, inputs_dir)` generates the operations one pass
runs.  Each operation calls one public function of `alphaleak`
through its module attribute (so the traced run can wrap it) and carries
a check from `checks` that recomputes or certifies the answer.

Inputs come from two sources:

* `--seed` draws the many small instances that set `op_p50_s`;
* fixed reference instances (fixed generator seeds or named parameters)
  set `wall_s` and `op_tail_s`.  Their solve time swings by up to 7x
  between random draws (a 256x256 capacity takes 1.4-7.6 s), so drawing
  them from `--seed` would make those metrics measure the draw.  The
  known-defect anchors are fixed for the same reason: their failure count
  sets `error_rate`.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

import checks as ck

WORKLOADS = ("iterative", "covering", "cli")

# Nominal length of one pass when this benchmark was written (2-core
# machine, one BLAS thread).  A run makes max(1, seconds // PASS_SECONDS) passes, so the
# sample count of a run never depends on how fast the program is.
PASS_SECONDS = {"iterative": 40, "covering": 30, "cli": 12}

HELLINGER_SPECS_SEED = 32  # the random-spec set the Hellinger defect was found on
HELLINGER_SPECS = 50
# About 0.45% of random specs hit the negative-dual defect.  A fixed
# reference set carries most of them, so that error_rate on `covering`
# measures the program and not the Poisson noise of one draw.
REFERENCE_SPECS_SEED = 2018
REFERENCE_SPECS = 10000
SEEDED_SPECS = 1000
LARGE_CHANNEL_SEED = 1809
HAMMING_PUT = ((6, 1, 2), (5, 1, 2), (4, 1, 3), (7, 1, 2), (5, 1, 3), (8, 1, 2))
HAMMING_BUILD_ONLY = ((6, 2, 3), (10, 2, 2))


@dataclass
class Op:
    name: str  # unique within a pass; encodes the parameters and an input digest
    kind: str  # groups operations for defect matching and reporting
    run: Callable[[], Any]
    check: Callable[[Any], float]  # raises checks.CheckFailed, returns the accuracy anchor
    spans_file: Path | None = None  # where a traced CLI process writes its spans


def digest(*arrays) -> str:
    h = hashlib.sha1()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes() if isinstance(a, np.ndarray) else repr(a).encode())
    return h.hexdigest()[:10]


def random_spec(rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """A 2-8 x 2-8 integer distortion matrix in {0..3} with bound in {0, 1, 2},
    redrawn until every input has a nonempty ball."""
    n_in, n_out = (int(v) for v in rng.integers(2, 9, size=2))
    while True:
        d = rng.integers(0, 4, size=(n_in, n_out))
        bound = int(rng.integers(0, 3))
        if np.all((d <= bound).any(axis=1)):
            return d, bound


def _spec(al, d: np.ndarray, bound: int):
    n_in, n_out = d.shape
    return al.put.DistortionSpec(
        al.prob.Alphabet.of_size(n_in, "x"), al.prob.Alphabet.of_size(n_out, "y"), d, bound
    )


def _channel(al, W: np.ndarray):
    n_in, n_out = W.shape
    return al.prob.Channel(al.prob.Alphabet.of_size(n_in), al.prob.Alphabet.of_size(n_out), W)


def _dirichlet_channel(rng, n_in: int, n_out: int, conc: float) -> np.ndarray:
    W = rng.dirichlet(np.full(n_out, conc), size=n_in)
    return W / W.sum(axis=1, keepdims=True)


def _type_distances(n: int) -> np.ndarray:
    i = np.arange(n + 1)
    return np.abs(i[:, None] - i[None, :])


# --------------------------------------------------------------------------
# iterative


def _capacity_op(al, W, a, label) -> Op:
    ch = _channel(al, W)
    return Op(
        f"capacity/{label}/a{a:g}/{digest(W)}",
        "capacity",
        lambda: al.leakage.maximal_alpha_leakage(ch, a),
        lambda res: ck.check_capacity(W, a, res),
    )


def _aware_op(al, d, bound, prior, kind, alpha, label) -> Op:
    spec = _spec(al, d, bound)
    dist = al.prob.Dist(spec.input_alphabet, prior)
    gen = al.measures.kl_generator() if kind == "kl" else al.measures.hellinger_generator(alpha)
    mask = d <= bound

    def check(out):
        value, q = out
        return ck.check_aware_put(mask, prior, value, q.p, kind, alpha)

    return Op(
        f"aware/{label}/{gen.label}/{digest(d, bound, prior)}",
        "aware",
        lambda: al.put.put_f_leakage(dist, spec, gen),
        check,
    )


def build_iterative(seed: int, al) -> Iterator[Op]:
    """All operations in a seeded random order: each size class is sampled
    across the whole run, so a few seconds of machine noise cannot move
    op_p50_s or op_tail_s on their own."""
    ops = list(_iterative_ops(seed, al))
    for i in np.random.default_rng([seed, 4]).permutation(len(ops)):
        yield ops[i]


def _iterative_ops(seed: int, al) -> Iterator[Op]:
    rng = np.random.default_rng([seed, 1])
    # Seeded small solves.  The 2x2 ones are the most numerous, so op_p50_s
    # falls among them rather than on the edge between two size classes.
    for k in range(40):
        r1, r2 = (float(v) for v in rng.uniform(0.02, 0.45, size=2))
        W = np.array([[1 - r1, r1], [r2, 1 - r2]])
        alphas = (1.25, 1.5, 2.0, 3.0, 5.0, 10.0)
        for a in alphas:
            yield _capacity_op(al, W, a, "binary")
        expected = [ck.binary_capacity(r1, r2, a) for a in alphas]
        yield Op(
            f"closed_form/binary/{digest(W)}",
            "closed_form",
            lambda r1=r1, r2=r2, alphas=alphas: [
                al.leakage.binary_maximal_alpha_leakage(r1, r2, a) for a in alphas
            ],
            lambda vals, expected=expected: max(
                ck.check_close(v, e, "binary closed form") for v, e in zip(vals, expected)
            ),
        )
    for k in range(24):
        n = int(rng.integers(4, 17))
        W = _dirichlet_channel(rng, n, n, 1.0)
        for a in (1.5, 2.0, 4.0):
            yield _capacity_op(al, W, a, f"dirichlet{n}x{n}")
    kl = al.measures.kl_generator()
    for k in range(20):
        q = int(rng.integers(2, 9))
        eps = float(rng.uniform(0.02, 0.6))
        W = ck.qary_symmetric(q, eps)
        ch = _channel(al, W)
        yield Op(
            f"max_f/kl/qsc{q}/{digest(W)}",
            "max_f",
            lambda ch=ch: al.leakage.maximal_f_leakage(ch, kl),
            lambda v, q=q, eps=eps: ck.check_close(v, ck.qary_shannon_capacity(q, eps), "q-SC capacity"),
        )
    for k in range(20):
        d, bound = random_spec(rng)
        prior = rng.dirichlet(np.ones(d.shape[0]))
        yield _aware_op(al, d, bound, prior, "kl", None, "random")

    # Fixed large channels: with the defect anchors below they set wall_s
    # and op_tail_s.  The 256x256 concentration-0.1 solve at alpha = 4
    # (9 s) is left out: it would need an 18 s deadline, which the stalled
    # covering LP then pays on every pass.
    big = np.random.default_rng(LARGE_CHANNEL_SEED)
    for n in (128, 256):
        for conc in (1.0, 0.1):
            W = _dirichlet_channel(big, n, n, conc)
            for a in (1.5, 2.0, 4.0):
                if (n, conc, a) != (256, 0.1, 4.0):
                    yield _capacity_op(al, W, a, f"dirichlet{n}x{n}c{conc:g}")

    # Known-defect anchors of the aware PUT.
    d = _type_distances(9)
    yield _aware_op(al, d, 2, np.full(10, 0.1), "kl", None, "type9-2")
    hel = np.random.default_rng(HELLINGER_SPECS_SEED)
    for k in range(HELLINGER_SPECS):
        d, bound = random_spec(hel)
        prior = hel.dirichlet(np.ones(d.shape[0]))
        alpha = float(hel.choice([1.5, 2.0, 3.0]))
        yield _aware_op(al, d, bound, prior, "hellinger", alpha, f"seed{HELLINGER_SPECS_SEED}-{k}")


# --------------------------------------------------------------------------
# covering


def _hard_op(al, spec, mask, kind, alpha, label, expected_q=None) -> Op:
    if kind == "alpha":
        run = lambda: al.put.put_max_alpha_leakage(spec, alpha)[1]
        tag = f"alpha{alpha:g}"
    else:
        gen = al.measures.kl_generator() if kind == "kl" else al.measures.hellinger_generator(alpha)
        run = lambda: al.put.put_max_f_leakage(spec, gen)[1]
        tag = gen.label
    return Op(
        f"hard/{label}/{tag}",
        "hard_put",
        run,
        lambda sol: ck.check_hard_put(mask, sol, kind, alpha, expected_q),
    )


def _build_op(label: str, run, d_expected: np.ndarray, bound: int) -> Op:
    def check(spec):
        ck.check_spec(spec, d_expected, bound)
        return 0.0

    return Op(f"build/{label}", "build_spec", run, check)


HARD_KINDS = (("alpha", 2.0), ("alpha", math.inf), ("kl", None), ("hellinger", 2.0))
HARD_SWEEP = (
    ("alpha", 1.5), ("alpha", math.inf), ("kl", None), ("hellinger", 2.0),
    ("alpha", 3.0), ("alpha", 4.0), ("alpha", 10.0), ("hellinger", 4.0),
    ("alpha", 1.25), ("alpha", 2.5), ("alpha", 5.0), ("alpha", 6.0),
    ("alpha", 8.0), ("alpha", 20.0), ("hellinger", 1.5), ("hellinger", 3.0),
)


def build_covering(seed: int, al) -> Iterator[Op]:
    """The stream of random small specs with the other operations spread
    evenly through it, so that each kind is sampled across the whole run."""
    others = spread_instances(list(_covering_instances(seed, al)))
    every = (REFERENCE_SPECS + SEEDED_SPECS) // len(others) + 1
    for k, op in enumerate(_covering_random_specs(seed, al)):
        if k % every == 0 and others:
            yield others.pop(0)
        yield op
    yield from others


def spread_instances(ops: list[Op]) -> list[Op]:
    """Reorder so that the operations on one instance (same label, the
    second part of the name) sit evenly over the whole list instead of
    back to back.  The eighteen (5,1,3) operations that set op_tail_s then
    fall in different stretches of the run, and a slow spell of the machine
    a few seconds long cannot slow them all."""
    groups: dict[str, list[Op]] = {}
    for op in ops:
        groups.setdefault(op.name.split("/")[1], []).append(op)
    placed = []
    for g, members in enumerate(groups.values()):
        offset = (g * 0.6180339887) % 1.0  # golden-ratio offsets keep groups apart
        placed += [((j + offset) / len(members), len(placed), op) for j, op in enumerate(members)]
    return [op for _, _, op in sorted(placed, key=lambda t: t[:2])]


def _covering_random_specs(seed: int, al) -> Iterator[Op]:
    """Random 2-8-point specs: the per-call overhead of the exact path."""
    rng = np.random.default_rng([seed, 2])
    reference = np.random.default_rng(REFERENCE_SPECS_SEED)
    for k in range(REFERENCE_SPECS + SEEDED_SPECS):
        d, bound = random_spec(reference if k < REFERENCE_SPECS else rng)
        kind, alpha = HARD_KINDS[k % len(HARD_KINDS)]
        yield _hard_op(al, _spec(al, d, bound), d <= bound, kind, alpha, f"random{k}/{digest(d, bound)}")


def _covering_instances(seed: int, al) -> Iterator[Op]:
    rng = np.random.default_rng([seed, 5])
    # Seeded type-distance instances, n <= 200: build, solve, closed form, LP cross-check.
    for k in range(8):
        n = int(rng.integers(10, 201))
        m = int(rng.integers(1, max(2, n // 8)))
        d = _type_distances(n)
        count = ck.type_cover_count(n, m)
        spec = _spec(al, d, m)
        label = f"type{k}-{n}-{m}"
        yield _build_op(label, lambda n=n, m=m: al.datasets.build_type_distance_spec(n, m), d, m)
        yield _hard_op(al, spec, d <= m, "alpha", 2.0, label, 1.0 / count)
        yield Op(
            f"closed_form/{label}",
            "closed_form",
            lambda n=n, m=m: al.datasets.type_distance_put(n, m),
            lambda res, n=n, m=m, count=count: _check_type_put(res, n, m, count),
        )
        yield Op(
            f"crosscheck/{label}",
            "crosscheck",
            lambda n=n, m=m: al.datasets.type_distance_crosscheck(n, m),
            _check_true,
        )
    for k in range(8):
        q = int(rng.integers(2, 6))
        n = int(rng.integers(2, 13))
        m = int(rng.integers(0, n + 1))
        ball = ck.hamming_ball(n, m, q)
        yield Op(
            f"closed_form/hamming{k}-{n}-{m}-{q}",
            "closed_form",
            lambda n=n, m=m, q=q: al.datasets.hamming_put(n, m, q),
            lambda res, n=n, q=q, ball=ball: _check_hamming_put(res, n, q, ball),
        )
    # Fixed Hamming instances; (5,1,2), (4,1,3), (7,1,2) and (8,1,2) are defect anchors.
    for n, m, q in HAMMING_PUT:
        label = f"hamming{n}-{m}-{q}"
        d = ck.hamming_distances(n, q)
        mask = d <= m
        expected_q = ck.hamming_ball(n, m, q) / q**n
        spec = _spec(al, d, m)
        yield _build_op(label, lambda n=n, m=m, q=q: al.datasets.build_hamming_spec(n, m, q), d, m)
        yield _hard_op(al, spec, mask, "alpha", 2.0, label, expected_q)
        if (n, m, q) == (8, 1, 2):
            continue  # each attempt costs the whole deadline
        # The rest of an alpha sweep plus f-leakages: the same LP each time.
        # The longer sweep on (5,1,3) puts op_tail_s near the median of
        # seventeen solves of equal work instead of on one noisy solve.
        sweep = HARD_SWEEP if (n, m, q) == (5, 1, 3) else HARD_SWEEP[:4]
        for kind, alpha in sweep:
            yield _hard_op(al, spec, mask, kind, alpha, label, expected_q)
        yield Op(
            f"crosscheck/{label}",
            "crosscheck",
            lambda n=n, m=m, q=q: al.datasets.hamming_crosscheck(n, m, q),
            _check_true,
        )
    for n, m, q in HAMMING_BUILD_ONLY:
        d = ck.hamming_distances(n, q)
        yield _build_op(f"hamming{n}-{m}-{q}", lambda n=n, m=m, q=q: al.datasets.build_hamming_spec(n, m, q), d, m)


def _check_true(result) -> float:
    ck.require(result is True, f"cross-check returned {result!r}")
    return 0.0


def _check_type_put(res, n: int, m: int, count: int) -> float:
    members = list(res.index_set.members)
    ck.require(len(members) == count, f"{len(members)} output types, expected {count}")
    for i in range(n + 1):
        j = res.type_map[i]
        ck.require(j in members and abs(i - j) <= m, f"type {i} mapped to {j}")
    return ck.check_close(res.value, math.log(count), "type-distance value")


def _check_hamming_put(res, n: int, q: int, ball: int) -> float:
    ck.require(res.ball_size == ball, f"ball size {res.ball_size} != {ball}")
    return ck.check_close(res.value, n * math.log(q) - math.log(ball), "Hamming value")


# --------------------------------------------------------------------------
# cli


def _labels(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{i}" for i in range(n)]


def _csv(stdout: str) -> list[dict]:
    lines = stdout.strip().splitlines()
    ck.require(len(lines) >= 2, "no CSV rows")
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _order(text: str) -> float:
    return math.inf if text == "inf" else float(text)


def _check_measures(joint: np.ndarray, per_nat: float = 1.0):
    """`per_nat` converts nats to the printed unit (1/ln 2 for bits); the
    expected-loss column is not a logarithm and is printed as is."""

    def check(stdout: str) -> float:
        err = 0.0
        px = joint.sum(axis=1)
        for row in _csv(stdout):
            a = _order(row["alpha"])
            if math.isinf(a):
                h = -math.log(px.max())
                hc = -math.log(joint.max(axis=0).sum())
                loss = 1.0 - joint.max(axis=0).sum()
            else:
                h = ck.renyi_entropy(px, a)
                hc = ck.arimoto_cond_entropy(joint, a)
                loss = hc if a == 1.0 else a / (a - 1) * -math.expm1((1 - a) / a * hc)
            for key, expected in (
                ("renyi_entropy_X", h * per_nat),
                ("arimoto_cond_entropy", hc * per_nat),
                ("alpha_leakage", (h - hc) * per_nat),
                ("min_expected_alpha_loss", loss),
            ):
                err = max(err, ck.check_close(float(row[key]), expected, f"{key} at alpha={a}", ck.PRINTED_TOL))
        return err

    return check


def _check_capacity_csv(W: np.ndarray):
    def check(stdout: str) -> float:
        gap = 0.0
        for row in _csv(stdout):
            a = float(row["alpha"])
            value = float(row["value"])
            ck.require(float(row["kkt_residual"]) <= ck.CAPACITY_KKT_TOL, f"uncertified at alpha={a}")
            p = np.array([float(row[f"optimal_input_x{i}"]) for i in range(W.shape[0])])
            p = p / p.sum()  # printed to 12 digits
            gap = max(gap, ck.capacity_gap(W, a, value, p, ck.sibson_output(W, p, a)))
            if W.shape == (2, 2):
                closed = ck.binary_capacity(W[0, 1], W[1, 0], a)
                ck.check_close(float(row["closed_form"]), closed, "closed_form column", ck.PRINTED_TOL)
                ck.check_close(value, closed, f"value at alpha={a}", ck.PRINTED_TOL)
        return gap

    return check


def _check_strategy(joint: np.ndarray):
    posterior = (joint / joint.sum(axis=0, keepdims=True)).T  # rows y, cols x
    n_y, n_x = posterior.shape

    def check(stdout: str) -> float:
        rows = _csv(stdout)
        alphas = sorted({float(r["alpha"]) for r in rows})
        ck.require(len(rows) == len(alphas) * n_y * n_x, "strategy table has missing rows")
        err = 0.0
        for r in rows:
            a = float(r["alpha"])
            y, x = int(r["output"][1:]), int(r["input"][1:])
            err = max(err, ck.check_close(float(r["posterior"]), posterior[y, x], "posterior", ck.PRINTED_TOL))
            expected = ck.tilted(posterior, a)[y, x]
            err = max(err, ck.check_close(float(r["strategy"]), expected, "strategy", ck.PRINTED_TOL))
        return err

    return check


def _check_cli_hard(mask: np.ndarray, expected_q: float | None = None, prior=None):
    """JSON of `put hard`: q* against min(A Q*) and the value -log q* (at
    alpha > 1 and for KL), or the Frank-Wolfe gap at alpha = 1 (`prior`)."""

    def check(stdout: str) -> float:
        out = json.loads(stdout)
        q = np.array(out["Q_star"])
        ck.check_mechanism(np.array(out["mechanism"]), mask)
        if prior is not None:
            return ck.check_aware_put(mask, prior, out["value_nats"], q, "kl")
        primal, _ = ck.lp_gap(mask, q, None)
        ck.check_close(out["q_star"], primal, "q* against min(A Q*)", ck.PRINTED_TOL)
        ck.check_close(out["value_nats"], -math.log(primal), "value against q*", ck.PRINTED_TOL)
        if expected_q is not None:
            ck.check_close(primal, expected_q, "q* against its closed form", ck.PRINTED_TOL)
        return abs(out["duality_gap"])

    return check


def _check_cli_types(n: int, m: int):
    count = ck.type_cover_count(n, m)

    def check(stdout: str) -> float:
        out = json.loads(stdout)
        ck.require(len(out["index_set"]) == count, "wrong number of output types")
        for i in range(n + 1):
            j = out["type_map"][str(i)]
            ck.require(j in out["index_set"] and abs(i - j) <= m, f"type {i} mapped to {j}")
        return ck.check_close(out["value_nats"], math.log(count), "type-distance value")

    return check


def _check_cli_hamming(n: int, m: int, q: int):
    ball = ck.hamming_ball(n, m, q)

    def check(stdout: str) -> float:
        out = json.loads(stdout)
        ck.require(out["ball_size"] == ball, f"ball size {out['ball_size']} != {ball}")
        return ck.check_close(out["value_nats"], n * math.log(q) - math.log(ball), "Hamming value")

    return check


def _check_avg_binary(p: float, D: float):
    r1_max, r2_max = min(1.0, D / (1 - p)), min(1.0, D / p)
    grid1, grid2 = np.meshgrid(np.linspace(0, r1_max, 41), np.linspace(0, r2_max, 41), indexing="ij")
    feasible = ((1 - p) * grid1 + p * grid2 <= D) & (grid1 + grid2 < 1)

    def check(stdout: str) -> float:
        err = 0.0
        for row in _csv(stdout):
            a = float(row["alpha"])
            r1, r2, value = float(row["rho1"]), float(row["rho2"]), float(row["value"])
            ck.require((1 - p) * r1 + p * r2 <= D + 1e-9, "crossover pair violates the distortion bound")
            err = max(err, ck.check_close(value, ck.binary_capacity(r1, r2, a), "value at (rho1, rho2)", ck.PRINTED_TOL))
            best = min(ck.binary_capacity(x, y, a) for x, y in zip(grid1[feasible], grid2[feasible]))
            ck.require(value <= best + 1e-9, f"value {value} above a feasible grid point {best}")
            joint = np.array([[(1 - p) * (1 - r1), (1 - p) * r1], [p * r2, p * (1 - r2)]])
            ck.check_close(float(row["guess_prob"]), joint.max(axis=0).sum(), "guess_prob", ck.PRINTED_TOL)
        return err

    return check


CLI_MODULE = ["-m", "alphaleak.cli"]


def _cli_op(launcher: list[str], spans_file: Path | None, name: str, sub: str, args: list[str], check,
            expect_exit: int = 0) -> Op:
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    if spans_file is not None:
        env["PERFBENCH_SPANS"] = str(spans_file)

    def run():
        return subprocess.run([sys.executable, *launcher, *args], cwd=root, env=env, capture_output=True, text=True)

    def checked(proc) -> float:
        if proc.returncode != expect_exit:
            last = proc.stderr.strip().splitlines()[-1:] or [""]
            raise ck.CheckFailed(f"exit {proc.returncode} (expected {expect_exit}): {last[0]}")
        return check(proc.stdout) if check is not None else 0.0

    return Op(f"cli/{name}", f"cli:{sub}", run, checked, spans_file)


def build_cli(seed: int, inputs_dir: Path, launcher: list[str] = CLI_MODULE, spans_dir: Path | None = None) -> list[Op]:
    """Each operation runs `python <launcher> <args>` in a fresh interpreter;
    the traced run swaps in a launcher that writes spans into `spans_dir`."""
    rng = np.random.default_rng([seed, 3])
    inputs_dir.mkdir(parents=True, exist_ok=True)
    if spans_dir is not None:
        spans_dir.mkdir(parents=True, exist_ok=True)
    ops: list[Op] = []

    def cli(name, sub, args, check, expect_exit=0):
        spans = None if spans_dir is None else spans_dir / f"{len(ops)}.json"
        ops.append(_cli_op(launcher, spans, name, sub, args, check, expect_exit))

    def write(name, obj) -> str:
        path = inputs_dir / name
        path.write_text(obj if isinstance(obj, str) else json.dumps(obj))
        return str(path)

    joint = rng.dirichlet(np.ones(12)).reshape(3, 4)
    joint_file = write("joint.json", {"rows": _labels("x", 3), "cols": _labels("y", 4), "mass": joint.tolist()})
    cli(f"measures/{digest(joint)}", "measures",
        ["measures", joint_file, "--alpha-sweep", "1,1.5,2,3,inf", "--base", "bits"], _check_measures(joint, 1 / math.log(2)))
    cli(f"strategy/{digest(joint)}", "strategy", ["strategy", joint_file, "--alpha-sweep", "1,2,4"],
        _check_strategy(joint))

    W = _dirichlet_channel(rng, 4, 5, 1.0)
    ch_file = write("channel.json", {"input": _labels("x", 4), "output": _labels("y", 5), "rows": W.tolist()})
    cli(f"capacity/{digest(W)}", "capacity", ["capacity", ch_file, "--alpha-sweep", "1.5:4:0.5"],
        _check_capacity_csv(W))
    r1, r2 = (float(v) for v in rng.uniform(0.02, 0.45, size=2))
    Wb = np.array([[1 - r1, r1], [r2, 1 - r2]])
    bin_file = write("binary.json", {"input": ["x0", "x1"], "output": ["y0", "y1"], "rows": Wb.tolist()})
    cli(f"capacity/binary/{digest(Wb)}", "capacity", ["capacity", bin_file, "--alpha-sweep", "1.25,2,5"],
        _check_capacity_csv(Wb))

    n = int(rng.integers(6, 25))
    m = int(rng.integers(1, 4))
    d = _type_distances(n)
    types = _labels("t", n + 1)
    type_file = write("type_spec.json", {"input": types, "output": types, "d": d.tolist(), "D": m})
    q_type = 1.0 / ck.type_cover_count(n, m)
    hard = ["put", "hard", type_file, "--alpha", "2"]
    cli(f"put-hard/type{n}-{m}/alpha2", "put_hard", hard, _check_cli_hard(d <= m, q_type))
    cli(f"put-hard/type{n}-{m}/kl", "put_hard", [*hard, "--generator", "kl"], _check_cli_hard(d <= m, q_type))
    cli(f"put-hard/type{n}-{m}/reverse-kl", "put_hard", [*hard, "--generator", "reverse-kl"], None, expect_exit=4)

    d_r, bound = random_spec(rng)
    prior = rng.dirichlet(np.ones(d_r.shape[0]))
    inputs = _labels("x", d_r.shape[0])
    spec_file = write("random_spec.json", {"input": inputs, "output": _labels("y", d_r.shape[1]),
                                           "d": d_r.tolist(), "D": bound})
    prior_file = write("prior.json", {"alphabet": inputs, "mass": prior.tolist()})
    cli(f"put-hard/random/{digest(d_r, bound, prior)}/alpha1", "put_hard",
        ["put", "hard", spec_file, "--alpha", "1", "--prior", prior_file], _check_cli_hard(d_r <= bound, prior=prior))

    bad_file = write("malformed.json", '{"input": ["x0"], "output": ')
    cli("put-hard/malformed", "put_hard", ["put", "hard", bad_file, "--alpha", "2"], None, expect_exit=2)

    nt = int(rng.integers(5, 61))
    mt = int(rng.integers(0, nt // 3 + 1))
    cli(f"put-types/{nt}-{mt}", "put_types", ["put", "types", "--n", str(nt), "--m", str(mt)],
        _check_cli_types(nt, mt))
    qh = int(rng.integers(2, 6))
    nh = int(rng.integers(3, 13))
    mh = int(rng.integers(0, nh // 2 + 1))
    cli(f"put-hamming/{nh}-{mh}-{qh}", "put_hamming",
        ["put", "hamming", "--n", str(nh), "--m", str(mh), "--q", str(qh)], _check_cli_hamming(nh, mh, qh))
    p = round(float(rng.uniform(0.2, 0.45)), 6)
    D = round(float(rng.uniform(0.02, 0.8 * min(p, 1 - p))), 6)
    cli(f"put-avg-binary/{p}-{D}", "put_avg_binary",
        ["put", "avg-binary", "--p", str(p), "--D", str(D), "--alpha-sweep", "1.5,2,4"], _check_avg_binary(p, D))

    # Known-defect anchor: the simplex's negative duals reach the CLI as exit 2.
    dh = ck.hamming_distances(4, 3)
    words = [str(i) for i in range(81)]
    ham_file = write("hamming4-1-3.json", {"input": words, "output": words, "d": dh.tolist(), "D": 1})
    cli("put-hard/hamming4-1-3/alpha2", "put_hard", ["put", "hard", ham_file, "--alpha", "2"],
        _check_cli_hard(dh <= 1, ck.hamming_ball(4, 1, 3) / 81))
    return ops


def build(workload: str, seed: int, al, inputs_dir: Path, cli_launcher: list[str] = CLI_MODULE,
          spans_dir: Path | None = None) -> Iterator[Op]:
    """The operations of one pass, generated lazily and identically for
    the same seed."""
    if workload == "iterative":
        return build_iterative(seed, al)
    if workload == "covering":
        return build_covering(seed, al)
    if workload == "cli":
        return build_cli(seed, inputs_dir, cli_launcher, spans_dir)
    raise ValueError(f"unknown workload {workload!r}")
