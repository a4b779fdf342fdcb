"""Command-line surface.

Loads joints, channels, distributions and distortion specs from JSON files
whose schemas are defined here (`_SCHEMAS`), runs the requested operation
over a single order or an alpha sweep (a start:stop:step sweep holds at
most 10000 orders), and writes CSV (measures, capacity, strategy,
avg-binary sweeps) or JSON (PUT solutions, built by `cmd_put_*`).  Files
are read and written as UTF-8 whatever the locale.  Values are printed with
12 significant digits and no randomness, so outputs are reproducible
bit-for-bit across runs with the same configuration.

Exit codes: 0 success, 2 validation or input error, 3 solver
non-convergence, 4 model incompatibility (f(0) = +inf under hard
distortion).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .errors import ConvergenceError, IncompatibleGeneratorError, ValidationError
from .leakage import (
    alpha_leakage,
    binary_maximal_alpha_leakage,
    maximal_alpha_leakage,
    min_expected_alpha_loss,
    optimal_strategy,
)
from .measures import (
    arimoto_cond_entropy,
    custom_generator,
    hellinger_generator,
    kl_generator,
    renyi_entropy,
)
from .prob import Alphabet, Channel, Dist, Joint, _order, conditional_of
from .put import (
    DistortionSpec,
    avg_hamming_binary_put,
    put_max_alpha_leakage,
    put_max_f_leakage,
)
from .datasets import hamming_put, representative_dataset, type_distance_put

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NO_CONVERGENCE = 3
EXIT_INCOMPATIBLE = 4
_MAX_SWEEP = 10_000


def _labels(value) -> Alphabet:
    """A JSON array of labels (`Alphabet` names a string itself)."""
    if not isinstance(value, (list, str)):
        raise ValidationError(f"alphabet must be a JSON array, got {type(value).__name__}")
    return Alphabet(value)


def _number(value) -> float:
    """A JSON number, not true or false (which Python reads as 1 and 0)."""
    if type(value) not in (int, float):
        raise ValidationError(f"{json.dumps(value)} is not a JSON number")
    return float(value)


def _numbers(value) -> np.ndarray:
    """Nested JSON arrays of numbers.  numpy names an entry it cannot convert;
    `_number` refuses the first string or true/false that it did convert."""
    arr = np.asarray(value, dtype=float)
    leaves = np.asarray(value, dtype=object).ravel()
    if not set(map(type, leaves)) <= {int, float}:
        _number(next(leaf for leaf in leaves if type(leaf) not in (int, float)))
    return arr


# Each input's JSON keys, in the order of its constructor's arguments, and their parsers.
_SCHEMAS = {
    Joint: {"rows": _labels, "cols": _labels, "mass": _numbers},
    Channel: {"input": _labels, "output": _labels, "rows": _numbers},
    Dist: {"alphabet": _labels, "mass": _numbers},
    DistortionSpec: {"input": _labels, "output": _labels, "d": _numbers, "D": _number},
}


def parse_sweep(text: str) -> list[float]:
    """The orders of a sweep, as floats: 'start:stop:step' or a comma list,
    whose tokens may be '1' and 'inf' (the limits alpha = 1 and alpha = inf
    are orders like any other)."""
    text = text.strip()
    if ":" in text:
        try:
            start, stop, step = (float(p) for p in text.split(":"))
        except ValueError:
            raise ValidationError(f"sweep {text!r} is not start:stop:step") from None
        if not (all(map(math.isfinite, (start, stop, step))) and step > 0 and stop >= start):
            raise ValidationError(f"sweep {text!r} must increase in finite steps")
        steps = (stop - start) / step + 1e-12
        if not steps < _MAX_SWEEP:  # inf when the span overflows
            raise ValidationError(f"sweep {text!r} has {np.floor(steps) + 1:.0f} orders, over {_MAX_SWEEP}")
        return [_order(start + k * step) for k in range(int(steps) + 1)]
    orders = [_order(tok) for tok in text.split(",") if tok]
    if not orders:
        raise ValidationError(f"sweep {text!r} names no order")
    return orders


def _fmt(value: float) -> str:
    """12 significant digits; "inf" for alpha = inf."""
    return f"{value:.12g}"


def _read(path: str, kind: type):
    """The `kind` built from the JSON file at `path` by its `_SCHEMAS` entry;
    a file that cannot be opened, is not UTF-8 JSON (a ValueError) or does
    not fit the schema is a ValidationError."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        reason = "not found" if isinstance(exc, FileNotFoundError) else f"unreadable ({exc.strerror})"
        raise ValidationError(f"input file {reason}: {path}") from None
    except ValueError as exc:
        raise ValidationError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ValidationError(f"expected a JSON object, got {type(obj).__name__}")
    values = []
    for key, parse in _SCHEMAS[kind].items():
        if key not in obj:
            raise ValidationError(f"JSON object has no {key!r} key")
        try:
            values.append(parse(obj[key]))
        except (TypeError, ValueError, ValidationError) as exc:
            raise ValidationError(f"bad {key!r} entry: {exc}") from None
    return kind(*values)


def _emit(text: str, path: str | None) -> None:
    if path:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValidationError(f"cannot write {path}: {exc.strerror}") from None
    else:
        try:
            sys.stdout.write(text)  # encoded whole before any byte is written
        except UnicodeEncodeError as exc:
            raise ValidationError(f"stdout ({exc.encoding}) cannot encode the output; use --out") from None


def _csv(header: list[str], rows: list[list]) -> str:
    """The CSV text; a cell that is not a string is a number, written by `_fmt`."""
    cells = (",".join(c if isinstance(c, str) else _fmt(c) for c in row) for row in rows)
    return "\n".join([",".join(header), *cells]) + "\n"


def _log_base(text: str) -> tuple[str, float]:
    """--base as its unit name and the divisor that converts nats to it."""
    unit = text.strip().lower()
    per = {"nats": 1.0, "bits": math.log(2.0)}.get(unit)
    if per is None:
        raise ValidationError(f"unknown log base {text!r} (use 'nats' or 'bits')")
    return unit, per


def _orders(args) -> list[float]:
    """The orders of --alpha or --alpha-sweep: strictly increasing, and each
    at least 1, the range of the leakage operations."""
    if args.alpha_sweep:
        orders = parse_sweep(args.alpha_sweep)
    elif args.alpha:
        orders = [_order(args.alpha)]
    else:
        raise ValidationError("provide --alpha or --alpha-sweep")
    if any(b <= a for a, b in zip(orders, orders[1:])):
        raise ValidationError("alpha sweep must be strictly increasing")
    context = f"put {args.put_mode}" if args.command == "put" else f"{args.command} sweep"
    return [_order(order, context) for order in orders]


def _solver(args) -> dict:
    """--tol and --max-iter as keyword arguments of the solver; each flag
    exists only on the subcommands whose solver reads it."""
    if not args.tol > 0:
        raise ValidationError(f"tol must be positive, got {args.tol}")
    if getattr(args, "max_iter", 0) < 0:
        raise ValidationError(f"max_iter must be nonnegative, got {args.max_iter}")
    return {key: getattr(args, key) for key in ("tol", "max_iter") if hasattr(args, key)}


def cmd_measures(args) -> None:
    orders, (_, per) = _orders(args), _log_base(args.base)
    joint = _read(args.joint, Joint)
    rows = [
        [
            order,
            renyi_entropy(joint.row_marginal(), order) / per,
            arimoto_cond_entropy(joint, order) / per,
            alpha_leakage(joint, order) / per,
            min_expected_alpha_loss(joint, order),
        ]
        for order in orders
    ]
    header = ["alpha", "renyi_entropy_X", "arimoto_cond_entropy", "alpha_leakage", "min_expected_alpha_loss"]
    _emit(_csv(header, rows), args.out)


def cmd_capacity(args) -> None:
    orders, (_, per), solver = _orders(args), _log_base(args.base), _solver(args)
    channels = [_read(path, Channel) for path in args.channel]
    if len(channels) not in (1, 2):
        raise ValidationError("capacity takes one or two channel files")

    def solve(ch: Channel, order: float):
        prior = None
        if order == 1.0:
            print("note: alpha = 1 capacity uses a uniform input distribution", file=sys.stderr)
            prior = Dist.uniform(ch.input_alphabet)
        return maximal_alpha_leakage(ch, order, prior_for_one=prior, **solver)

    rows = []
    if len(channels) == 1:
        ch = channels[0]
        is_binary = ch.shape == (2, 2)
        header = ["alpha", "value", "kkt_residual"] + [
            f"optimal_input_{lab}" for lab in ch.input_alphabet.labels
        ]
        if is_binary:
            header += ["closed_form", "closed_form_gap"]
        for order in orders:
            res = solve(ch, order)
            row = [order, res.value / per, res.kkt_residual / per, *res.optimal_input.p]
            if is_binary:
                if 1.0 < order < math.inf:
                    closed = binary_maximal_alpha_leakage(ch.rows[0, 1], ch.rows[1, 0], order)
                    row += [closed / per, abs(closed - res.value) / per]
                else:
                    row += ["", ""]
            rows.append(row)
    else:
        header = ["alpha", "value_1", "value_2", "diff"]
        diffs: list[tuple[float, float]] = []
        for order in orders:
            r1, r2 = (solve(ch, order) for ch in channels)
            diffs.append((order, r1.value - r2.value))
            rows.append([order, r1.value / per, r2.value / per, (r1.value - r2.value) / per])
        for (o1, d1), (o2, d2) in zip(diffs, diffs[1:]):
            if d1 * d2 < 0:
                print(
                    f"crossing: leakage ordering flips between alpha={_fmt(o1)} "
                    f"and alpha={_fmt(o2)}",
                    file=sys.stderr,
                )
    _emit(_csv(header, rows), args.out)


def cmd_strategy(args) -> None:
    orders = _orders(args)
    joint = _read(args.joint, Joint)
    posterior = conditional_of(joint.swapped()).conditional
    header = ["alpha", "output", "input", "posterior", "strategy"]
    rows = []
    for order in orders:
        tilted = optimal_strategy(posterior, order)
        for yi, y in enumerate(posterior.input_alphabet.labels):
            for xi, x in enumerate(posterior.output_alphabet.labels):
                rows.append([order, y, x, posterior.rows[yi, xi], tilted.rows[yi, xi]])
    _emit(_csv(header, rows), args.out)


def _in_units(nats: float) -> dict:
    """A PUT value as the JSON payloads hold it, in nats and in bits."""
    return {"value_nats": nats, "value_bits": nats / math.log(2.0)}


def _put_json_summary(payload: dict, path: str | None, summary: str) -> None:
    _emit(json.dumps(payload) + "\n", path)
    print(summary, file=sys.stderr)


def _named_generator(name: str, order: float):
    if name == "kl":
        return kl_generator()
    if name == "hellinger":
        return hellinger_generator(order)
    if name == "reverse-kl":
        return custom_generator(
            lambda t: -math.log(t) if t > 0 else math.inf,
            f_at_zero=math.inf,
            slope_at_inf=0.0,
            label="reverse-kl",
        )
    raise ValidationError(f"unknown generator {name!r}")


def cmd_put_hard(args) -> None:
    orders, (base, per), solver = _orders(args), _log_base(args.base), _solver(args)
    spec = _read(args.spec, DistortionSpec)
    if len(orders) != 1:
        raise ValidationError("put hard expects a single --alpha")
    order = orders[0]
    # Only the alpha = 1 tradeoff depends on the input law; it is certified
    # by a Frank-Wolfe gap, every other one by the covering LP's duality gap.
    aware = args.generator == "alpha" and order == 1.0
    if args.prior and not aware:
        raise ValidationError("--prior is read only at --alpha 1 with --generator alpha")
    unit = f" {base}"
    if args.generator == "hellinger":
        if base != "nats":
            raise ValidationError("--base is not read with --generator hellinger: its value is no logarithm")
        per, unit = 1.0, ""
    if args.generator != "alpha":
        value, solution = put_max_f_leakage(spec, _named_generator(args.generator, order), **solver)
    else:
        prior = None
        if args.prior:
            prior = _read(args.prior, Dist)
        elif aware:
            prior = Dist.uniform(spec.input_alphabet)
            print("note: alpha = 1 tradeoff uses a uniform input distribution", file=sys.stderr)
        value, solution = put_max_alpha_leakage(spec, order, prior_for_one=prior, **solver)
    value /= per
    payload = {
        "q_star": solution.q_star,
        **_in_units(solution.value),
        "Q_star": solution.target_output.p.tolist(),
        "mechanism": solution.mechanism.rows.tolist(),
        "duality_gap": solution.duality_gap,
        "alpha": _fmt(order),
        "generator": args.generator,
    }
    summary = (
        f"hard-distortion PUT at alpha={_fmt(order)} "
        f"[{args.generator}]: {value:.12g}{unit} "
        f"(q*={solution.q_star:.12g}, {'Frank-Wolfe' if aware else 'duality'} gap {solution.duality_gap:.3e})"
    )
    _put_json_summary(payload, args.out, summary)


def cmd_put_types(args) -> None:
    unit, per = _log_base(args.base)
    result = type_distance_put(args.n, args.m)
    payload = {
        "n": args.n,
        "m": args.m,
        **_in_units(result.value),
        "index_set": list(result.index_set.members),
        "type_map": {str(i): j for i, j in sorted(result.type_map.items())},
        "representatives": {
            str(j): representative_dataset(args.n, j) for j in result.index_set.members
        },
    }
    summary = (
        f"type-distance PUT(n={args.n}, m={args.m}): {result.value / per:.12g} "
        f"{unit}; output type classes {list(result.index_set.members)}"
    )
    _put_json_summary(payload, args.out, summary)


def cmd_put_hamming(args) -> None:
    unit, per = _log_base(args.base)
    result = hamming_put(args.n, args.m, args.q)
    payload = {
        "n": args.n,
        "m": args.m,
        "q": args.q,
        **_in_units(result.value),
        "ball_size": result.ball_size,
    }
    summary = (
        f"Hamming PUT(n={args.n}, m={args.m}, q={args.q}): "
        f"{result.value / per:.12g} {unit}; "
        f"uniform mechanism over balls of {result.ball_size} datasets"
    )
    _put_json_summary(payload, args.out, summary)


def cmd_put_avg_binary(args) -> None:
    orders, (_, per) = _orders(args), _log_base(args.base)
    header = ["alpha", "value", "rho1", "rho2", "guess_prob", "gap"]
    rows = []
    for order in orders:
        res = avg_hamming_binary_put(args.p, args.D, order)
        rows.append([order, res.value / per, res.rho1, res.rho2, res.guess_prob, res.gap / per])
    _emit(_csv(header, rows), args.out)


_BASE_HELP = "output unit: nats or bits"


def _add_common(
    p: argparse.ArgumentParser, base_help: str | None = _BASE_HELP, closed_form: bool = False
) -> None:
    """--alpha and --alpha-sweep, except on a closed form, whose JSON holds
    both units; then --base, unless base_help is None (no column has a
    unit), and --out."""
    if closed_form:
        base_help = "unit of the summary line on stderr: nats or bits (the JSON holds both)"
    else:
        p.add_argument("--alpha", help="single order: a float, '1', or 'inf'")
        p.add_argument("--alpha-sweep", help="sweep: start:stop:step or comma list")
    if base_help is not None:
        p.add_argument("--base", default="nats", help=base_help)
    written = "the JSON" if closed_form else "output"
    p.add_argument("--out", default=None, help=f"write {written} to this path instead of stdout")


def _add_solver(parser: argparse.ArgumentParser, max_iter: bool = True) -> None:
    parser.add_argument("--tol", type=float, default=1e-10, help="certificate tolerance")
    if max_iter:
        parser.add_argument("--max-iter", type=int, default=100_000, help="solver iteration cap")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alphaleak",
        description="Tunable information-leakage measures and hard-distortion "
        "privacy-utility tradeoffs on finite alphabets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measures", help="per-alpha information measures of a joint")
    p.add_argument("joint", help="joint pmf JSON file")
    _add_common(
        p,
        base_help=_BASE_HELP + " for the entropy and leakage columns; "
        "min_expected_alpha_loss is printed unconverted (nats at alpha = 1)",
    )
    p.set_defaults(func=cmd_measures)

    p = sub.add_parser("capacity", help="maximal alpha-leakage of one or two channels")
    p.add_argument("channel", nargs="+", help="channel JSON file(s)")
    _add_common(p)
    _add_solver(p)
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("strategy", help="loss-minimizing estimation strategies of a joint")
    p.add_argument("joint", help="joint pmf JSON file")
    _add_common(p, base_help=None)  # the columns are probabilities
    p.set_defaults(func=cmd_strategy)

    put = sub.add_parser("put", help="hard-distortion privacy-utility tradeoffs")
    put_sub = put.add_subparsers(dest="put_mode", required=True)

    p = put_sub.add_parser("hard", help="generic distortion spec")
    p.add_argument("spec", help="distortion spec JSON file")
    p.add_argument("--prior", default=None, help="input distribution JSON (alpha = 1)")
    p.add_argument(
        "--generator",
        default="alpha",
        choices=["alpha", "kl", "hellinger", "reverse-kl"],
        help="privacy measure: maximal alpha-leakage (default) or a maximal f-leakage",
    )
    _add_common(p)
    _add_solver(p, max_iter=False)
    p.set_defaults(func=cmd_put_hard)

    p = put_sub.add_parser("types", help="binary datasets, type-distance distortion")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    _add_common(p, closed_form=True)
    p.set_defaults(func=cmd_put_types)

    p = put_sub.add_parser("hamming", help="q-ary datasets, Hamming distortion")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    _add_common(p, closed_form=True)
    p.set_defaults(func=cmd_put_hamming)

    p = put_sub.add_parser("avg-binary", help="binary average-Hamming tradeoff sweep")
    p.add_argument("--p", type=float, required=True, help="input Bernoulli parameter")
    p.add_argument("--D", type=float, required=True, help="average distortion bound")
    _add_common(p)
    p.set_defaults(func=cmd_put_avg_binary)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except IncompatibleGeneratorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCOMPATIBLE
    except ConvergenceError as exc:
        print(f"error: {exc} (residual {exc.residual})", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
