"""Shared fixture generators and independent oracles for the test suite.

Everything is seeded; no test depends on wall-clock or global RNG state.
The oracles here deliberately avoid the library's closed-form code paths:
expectations are computed by direct summation, grids, or generic convex
optimization so each check stays a genuine second route.
"""

from __future__ import annotations

import itertools
import math

import mpmath
import numpy as np
from scipy.optimize import minimize

from alphaleak import Alphabet, Channel, Dist, DistortionSpec, Joint


def random_dist(rng: np.random.Generator, n: int, conc: float = 1.0) -> Dist:
    return Dist(Alphabet.of_size(n), rng.dirichlet(np.full(n, conc)))


def random_channel(rng: np.random.Generator, n_in: int, n_out: int, conc: float = 1.0) -> Channel:
    rows = rng.dirichlet(np.full(n_out, conc), size=n_in)
    return Channel(Alphabet.of_size(n_in, "x"), Alphabet.of_size(n_out, "y"), rows)


def sweep_channel(seed: int, index: int) -> tuple[np.ndarray, float]:
    """Channel `index` of the random capacity sweep, with its order: 2-64
    inputs and outputs, rows Dirichlet(0.05, 0.2, 1 or 5), 40% of channels
    with 30% zero entries, 30% with an output no input reaches, alpha in
    {1.05, 1.5, 2, 4, 20}."""
    rng = np.random.default_rng([seed, index])
    n_in, n_out = (int(v) for v in rng.integers(2, 65, size=2))
    W = rng.dirichlet(np.full(n_out, rng.choice([0.05, 0.2, 1.0, 5.0])), size=n_in)
    if rng.random() < 0.4:
        W[rng.random(W.shape) < 0.3] = 0.0
    if rng.random() < 0.3:
        W[:, rng.integers(n_out)] = 0.0
    W[W.sum(axis=1) == 0.0, -1] = 1.0
    return W / W.sum(axis=1, keepdims=True), float(rng.choice([1.05, 1.5, 2.0, 4.0, 20.0]))


def tall_sparse_channel(rng: np.random.Generator) -> np.ndarray:
    """27-64 inputs onto 2-25 outputs, rows Dirichlet(0.05-0.2) with 30% of
    the entries zeroed: many inputs, so the Newton model is singular."""
    n_in, n_out = int(rng.integers(27, 65)), int(rng.integers(2, 26))
    W = rng.dirichlet(np.full(n_out, rng.choice([0.05, 0.1, 0.2])), size=n_in)
    W[rng.random(W.shape) < 0.3] = 0.0
    W[W.sum(axis=1) == 0.0, -1] = 1.0
    return W / W.sum(axis=1, keepdims=True)


def covering_random_spec(rng: np.random.Generator) -> DistortionSpec:
    """The `covering` benchmark workload's random spec: 2-8 x 2-8 integer
    distortions in {0..3}, bound in {0, 1, 2}, every ball nonempty."""
    n_in, n_out = (int(v) for v in rng.integers(2, 9, size=2))
    while True:
        d = rng.integers(0, 4, size=(n_in, n_out))
        bound = int(rng.integers(0, 3))
        if np.all((d <= bound).any(axis=1)):
            return DistortionSpec(Alphabet.of_size(n_in, "x"), Alphabet.of_size(n_out, "y"), d, bound)


def spec_json(spec: DistortionSpec) -> dict:
    """The JSON object the CLI reads as a distortion spec."""
    return {
        "input": list(spec.input_alphabet.labels),
        "output": list(spec.output_alphabet.labels),
        "d": spec.d.tolist(),
        "D": spec.bound,
    }


def mp_binary_closed_form(rho1, rho2, alpha):
    """The binary maximal alpha-leakage in mpmath at the working precision,
    from the exact values of its arguments: (1/(a-1)) log D_m +
    log(D_1^(1/(1-a)) + D_2^(1/(1-a))) with D the divided differences
    (x^a - y^a)/(x - y) of the pairs ((1-r1)(1-r2), r1 r2), (1-r2, r1) and
    (1-r1, r2); 0 on the locus r1 + r2 = 1, where every pair is equal."""
    r1, r2, a = (mpmath.mpf(v) for v in (rho1, rho2, alpha))
    if r1 + r2 == 1:
        return mpmath.mpf(0)

    def divided(x, y):
        return (x**a - y**a) / (x - y)

    outer = divided(1 - r2, r1) ** (1 / (1 - a)) + divided(1 - r1, r2) ** (1 / (1 - a))
    return mpmath.log(divided((1 - r1) * (1 - r2), r1 * r2)) / (a - 1) + mpmath.log(outer)


def random_joint(rng: np.random.Generator, n_row: int, n_col: int, conc: float = 1.0) -> Joint:
    m = rng.dirichlet(np.full(n_row * n_col, conc)).reshape(n_row, n_col)
    return Joint(Alphabet.of_size(n_row, "x"), Alphabet.of_size(n_col, "y"), m)


def simplex_grid(resolution: int, dim: int) -> np.ndarray:
    """All points of the dim-simplex with coordinates k/resolution."""
    points = []
    for combo in itertools.combinations(range(resolution + dim - 1), dim - 1):
        prev = -1
        parts = []
        for c in combo:
            parts.append(c - prev - 1)
            prev = c
        parts.append(resolution + dim - 2 - prev)
        points.append(parts)
    return np.asarray(points, dtype=float) / resolution


def maximize_over_simplex(fun, dim: int, coarse: int = 12) -> float:
    """max of a (quasi-)concave function over the probability simplex:
    coarse grid seeding followed by SLSQP polishing from the best seeds."""
    grid = simplex_grid(coarse, dim)
    values = np.array([fun(p) for p in grid])
    order = np.argsort(values)[::-1][:4]
    best = float(values.max())
    constraint = {"type": "eq", "fun": lambda p: p.sum() - 1.0}
    for idx in order:
        res = minimize(
            lambda p: -fun(np.abs(p) / np.abs(p).sum()),
            grid[idx] + 1e-9,
            method="SLSQP",
            bounds=[(0.0, 1.0)] * dim,
            constraints=[constraint],
            options={"maxiter": 300, "ftol": 1e-14},
        )
        if res.success or math.isfinite(res.fun):
            p = np.abs(res.x) / np.abs(res.x).sum()
            best = max(best, float(fun(p)))
    return best


def aware_put_gap(ball_mask: np.ndarray, prior: np.ndarray, q: np.ndarray, alpha: float = 1.0) -> float:
    """Frank-Wolfe gap <grad F(Q), Q> - min_y dF/dQ(y) of the
    distribution-aware PUT objective F(Q) = sum_x P(x) phi(Q(B(x))), with
    phi(m) = m f(1/m) + (1 - m) f(0), for KL (alpha = 1) or the Hellinger
    generator of order alpha.  Both have phi'(m) = -m^(-alpha), so the
    gradient is summed directly over the balls; inputs of zero probability
    contribute nothing.  The gap bounds F(Q) - min F from above.
    """
    grad = np.zeros(len(q))
    for x, ball in enumerate(np.asarray(ball_mask, dtype=bool)):
        if prior[x] > 0:
            grad[ball] -= prior[x] * q[ball].sum() ** -alpha
    return float(q @ grad - grad.min())


def capacity_gap(W: np.ndarray, a: float, p: np.ndarray, q: np.ndarray) -> float:
    """upper - lower for the order-a capacity of channel W (a > 1): the
    lower bound I^S_a(P) = a/(a-1) log sum_y (sum_x P(x) W(y|x)^a)^(1/a) at
    the input law P, and the upper bound max_x D_a(W_x || Q) at the output
    law Q, from the minimax identity C_a = min_Q max_x D_a(W_x || Q).
    Summed directly, without logsumexp; terms with W(y|x) = 0 are dropped.
    """
    powered = W**a
    lower = a / (a - 1.0) * math.log(((p @ powered) ** (1.0 / a)).sum())
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(W > 0, powered * q[None, :] ** (1.0 - a), 0.0)
    upper = float(np.log(terms.sum(axis=1)).max()) / (a - 1.0)
    return upper - lower


def expected_alpha_loss_of(joint_m: np.ndarray, strategies: np.ndarray, alpha) -> np.ndarray:
    """E[alpha-loss] for a batch of strategies.

    strategies has shape (batch, n_y, n_x): entry [k, y, x] is the mass the
    k-th strategy puts on x after seeing y.  Direct summation against the
    joint; no library code involved.
    """
    jm = joint_m.T[None, :, :]  # (1, n_y, n_x)
    if alpha == "inf" or (isinstance(alpha, float) and math.isinf(alpha)):
        return (jm * (1.0 - strategies)).sum(axis=(1, 2))
    a = float(alpha)
    if a == 1.0:
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = np.where(strategies > 0, np.log(strategies), -np.inf)
        vals = np.where(jm > 0, -logs, 0.0)
        return (jm * np.where(jm > 0, vals, 0.0)).sum(axis=(1, 2))
    powed = strategies ** ((a - 1.0) / a)
    return a / (a - 1.0) * (jm * (1.0 - powed)).sum(axis=(1, 2))


def random_strategies(rng: np.random.Generator, count: int, n_y: int, n_x: int) -> np.ndarray:
    return rng.dirichlet(np.ones(n_x), size=(count, n_y))


def count_linalg_calls(monkeypatch, *names: str) -> dict[str, int]:
    """Counts of the calls of the numpy.linalg routines `names` from here on,
    updated in place."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        routine = getattr(np.linalg, name)

        def counted(*args, name=name, routine=routine, **kw):
            calls[name] += 1
            return routine(*args, **kw)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls
