"""In-memory span tracer for the traced run.

`Tracer.install()` wraps every public function of the layers below at each
module attribute that refers to it (for example both `alphaleak.lp.covering_game`
and `alphaleak.put.covering_game`), so calls between layers are recorded
where the caller looks the function up.  Nothing in `src/` is edited;
`uninstall()` restores the originals.

A span is `[name, start, end, parent, status]`; `parent` is the index of
the enclosing span or -1.  Layer calls are recorded only inside a span
the benchmark opened (one per operation), so preparing inputs between
operations does not count.  Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time

import numpy as np

import checks as ck

LAYERS = ("prob", "measures", "leakage", "lp", "put", "datasets")

# Per-layer metric groups: span names counted by `<group>.calls` (the first
# entry) and whose self time is summed into `<group>.busy_s` (all entries).
GROUPS = {
    "leakage.capacity": ("leakage.maximal_alpha_leakage",),
    "leakage.max_f": ("leakage.maximal_f_leakage",),
    "leakage.closed_form": (
        "leakage.binary_maximal_alpha_leakage",
        "leakage.maximal_leakage",
        "leakage.capacity_lower_bound",
    ),
    "put.q_star": ("put.q_star",),
    "put.balls": ("put.distortion_balls",),
    "put.mechanism": ("put.optimal_mechanism",),
    "put.aware": ("put.put_f_leakage",),
    "lp.covering_game": ("lp.covering_game", "lp.simplex_max"),
    "datasets.build_spec": (
        "datasets.build_type_distance_spec",
        "datasets.build_hamming_spec",
        "datasets.enumerate_datasets",
    ),
    "datasets.closed_form": (
        "datasets.type_distance_put",
        "datasets.hamming_put",
        "datasets.hamming_ball_size",
        "datasets.type_index_set",
        "datasets.representative_dataset",
    ),
    "datasets.crosscheck": ("datasets.type_distance_crosscheck", "datasets.hamming_crosscheck"),
}
WHOLE_LAYERS = ("measures", "prob")  # every function of these layers is one group

# Results kept for the accuracy counters, evaluated after the run.
OBSERVED = ("leakage.maximal_alpha_leakage", "put.put_f_leakage", "lp.covering_game")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.observed: list[tuple] = []
        self.child_counters: list[dict] = []  # counters of traced child processes
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, such as one per operation."""
        idx = self._open(name)
        try:
            yield idx
        except BaseException as exc:
            self.spans[idx][4] = type(exc).__name__
            raise
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, "ok"])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        # Also closes spans left open inside `idx`: a deadline alarm can
        # interrupt a wrapper between its call and its own close.
        now = time.perf_counter()
        while True:
            top = self._stack.pop()
            self.spans[top][2] = now
            if top == idx:
                return

    def _wrap(self, name: str, fn):
        observe = name in OBSERVED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack:  # the benchmark preparing inputs, not an operation
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.spans[idx][4] = type(exc).__name__
                raise
            finally:
                self._close(idx)
            if observe:
                self.observed.append((name, args, kwargs, result))
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "alphaleak" or n.startswith("alphaleak.")]
        for layer in LAYERS:
            mod = sys.modules[f"alphaleak.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            self._patches.append((m, key, fn))
                            setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for m, key, fn in reversed(self._patches):
            setattr(m, key, fn)
        self._patches.clear()

    def counters(self) -> dict:
        """Accuracy counters from the observed results (no timing)."""
        out = {
            "leakage.capacity.iterations": 0,
            "leakage.capacity.uncertified": 0,
            "leakage.capacity.gap_max": 0.0,
            "put.aware.fw_gap_max": 0.0,
            "lp.gap_max": 0.0,
            "lp.negative_mass": 0,
        }
        for name, args, kwargs, result in self.observed:
            if name == "leakage.maximal_alpha_leakage":
                out["leakage.capacity.iterations"] += int(result.iterations)
                tol = kwargs.get("tol", args[4] if len(args) > 4 else ck.CAPACITY_KKT_TOL)
                out["leakage.capacity.uncertified"] += int(result.kkt_residual > tol)
                a = _finite_order(args[1] if len(args) > 1 else kwargs["order"])
                if a is not None:
                    W = args[0].rows
                    gap = ck.renyi_radius(W, result.target_output.p, a) - ck.sibson_value(W, result.optimal_input.p, a)
                    out["leakage.capacity.gap_max"] = max(out["leakage.capacity.gap_max"], gap)
            elif name == "put.put_f_leakage":
                prior, spec, gen = args[:3]
                if gen.kind in ("kl", "hellinger"):
                    gap = ck.fw_gap(spec.ball_mask, prior.p, result[1].p, gen.kind, gen.alpha)
                    out["put.aware.fw_gap_max"] = max(out["put.aware.fw_gap_max"], gap)
            elif name == "lp.covering_game":
                A = np.asarray(args[0], dtype=float)
                q, mu = result.q, result.mu
                out["lp.gap_max"] = max(out["lp.gap_max"], float((mu @ A).max() - (A @ q).min()))
                out["lp.negative_mass"] += int(q.min() < 0 or mu.min() < 0)
        return out


def _finite_order(order) -> float | None:
    value = float("inf") if isinstance(order, str) else float(getattr(order, "value", order))
    return value if 1.0 < value < float("inf") else None


def self_times(spans: list[list]) -> list[float]:
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def group_of(name: str) -> str | None:
    for group, members in GROUPS.items():
        if name in members:
            return group
    layer = name.split(".", 1)[0]
    return layer if layer in WHOLE_LAYERS else None


def layer_table(spans: list[list]) -> dict:
    """Per span name: calls, failures, total and self seconds."""
    own = self_times(spans)
    table: dict[str, dict] = {}
    for s, t in zip(spans, own):
        row = table.setdefault(s[0], {"calls": 0, "failed": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["failed"] += s[4] != "ok"
        row["total_s"] += s[2] - s[1]
        row["self_s"] += t
    return table


def group_metrics(table: dict) -> dict:
    """`<group>.calls`, `.busy_s` (self time) and `.failed` from a span table."""
    out: dict[str, float] = {}
    for group in (*GROUPS, *WHOLE_LAYERS):
        out[f"{group}.calls"] = 0
        out[f"{group}.busy_s"] = 0.0
        out[f"{group}.failed"] = 0
    for name, row in table.items():
        group = group_of(name)
        if group is None:
            continue
        out[f"{group}.busy_s"] += row["self_s"]
        if group in WHOLE_LAYERS or name == GROUPS[group][0]:
            out[f"{group}.calls"] += row["calls"]
            out[f"{group}.failed"] += row["failed"]
    return out
