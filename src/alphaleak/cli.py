"""Command-line surface.

Loads distributions, channels, and distortion specs from the JSON schemas
defined by the library, runs the requested operation over a single order
or an alpha sweep, and writes CSV (measures, capacity, strategy,
avg-binary sweeps) or JSON (PUT solutions).  Values are printed with 12
significant digits and no randomness, so outputs are reproducible
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

from .errors import ConvergenceError, IncompatibleGeneratorError, ValidationError
from .leakage import (
    alpha_leakage,
    binary_maximal_alpha_leakage,
    maximal_alpha_leakage,
    min_expected_alpha_loss,
    optimal_strategy,
)
from .measures import (
    LogBase,
    arimoto_cond_entropy,
    custom_generator,
    hellinger_generator,
    kl_generator,
    renyi_entropy,
)
from .prob import AlphaOrder, Channel, Dist, Joint, as_order, conditional_of
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


def parse_sweep(text: str) -> list[AlphaOrder]:
    """Sweep syntax: 'start:stop:step', a comma list, or the single tokens
    '1' and 'inf' (the two continuous extensions are distinct code paths
    and must be nameable)."""
    text = text.strip()
    if ":" in text:
        try:
            start, stop, step = (float(p) for p in text.split(":"))
        except ValueError:
            raise ValidationError(f"sweep {text!r} is not start:stop:step") from None
        if not (all(map(math.isfinite, (start, stop, step))) and step > 0 and stop >= start):
            raise ValidationError(f"sweep {text!r} must increase in finite steps")
        count = int(math.floor((stop - start) / step + 1e-12)) + 1
        return [AlphaOrder(start + k * step) for k in range(count)]
    orders = [as_order(tok) for tok in text.split(",") if tok]
    if not orders:
        raise ValidationError(f"sweep {text!r} names no order")
    return orders


def _fmt(value: float) -> str:
    """12 significant digits; "inf" for alpha = inf."""
    return f"{value:.12g}"


def _load_json(path: str) -> dict:
    """The parsed file; a file that cannot be opened, or that is not UTF-8
    JSON (a ValueError), is a ValidationError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        reason = "not found" if isinstance(exc, FileNotFoundError) else f"unreadable ({exc.strerror})"
        raise ValidationError(f"input file {reason}: {path}") from None
    except ValueError as exc:
        raise ValidationError(f"{path}: invalid JSON: {exc}") from None


def _emit(text: str, path: str | None) -> None:
    if path:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValidationError(f"cannot write {path}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _csv(header: list[str], rows: list[list[str]]) -> str:
    lines = [",".join(header)] + [",".join(row) for row in rows]
    return "\n".join(lines) + "\n"


def _orders(args) -> list[AlphaOrder]:
    """The orders of --alpha or --alpha-sweep: strictly increasing, and each
    at least 1, the range of the leakage operations."""
    if args.alpha_sweep:
        orders = parse_sweep(args.alpha_sweep)
    elif args.alpha:
        orders = [as_order(args.alpha)]
    else:
        raise ValidationError("provide --alpha or --alpha-sweep")
    if any(b.value <= a.value for a, b in zip(orders, orders[1:])):
        raise ValidationError("alpha sweep must be strictly increasing")
    context = f"put {args.put_mode}" if args.command == "put" else f"{args.command} sweep"
    for order in orders:
        order.require_at_least_one(context)
    return orders


def _solver(args) -> dict:
    """--tol and --max-iter as keyword arguments of the solver; each flag
    exists only on the subcommands whose solver reads it."""
    if not args.tol > 0:
        raise ValidationError(f"tol must be positive, got {args.tol}")
    if getattr(args, "max_iter", 0) < 0:
        raise ValidationError(f"max_iter must be nonnegative, got {args.max_iter}")
    return {key: getattr(args, key) for key in ("tol", "max_iter") if hasattr(args, key)}


def cmd_measures(args) -> None:
    orders, base = _orders(args), LogBase.parse(args.base)
    joint = Joint.from_json(_load_json(args.joint))
    rows = [
        [
            _fmt(order.value),
            _fmt(base.from_nats(renyi_entropy(joint.row_marginal(), order))),
            _fmt(base.from_nats(arimoto_cond_entropy(joint, order))),
            _fmt(base.from_nats(alpha_leakage(joint, order))),
            _fmt(min_expected_alpha_loss(joint, order)),
        ]
        for order in orders
    ]
    header = ["alpha", "renyi_entropy_X", "arimoto_cond_entropy", "alpha_leakage", "min_expected_alpha_loss"]
    _emit(_csv(header, rows), args.out)


def cmd_capacity(args) -> None:
    orders, base, solver = _orders(args), LogBase.parse(args.base), _solver(args)
    channels = [Channel.from_json(_load_json(path)) for path in args.channel]
    if len(channels) not in (1, 2):
        raise ValidationError("capacity takes one or two channel files")

    def solve(ch: Channel, order: AlphaOrder):
        prior = None
        if order.is_one:
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
            row = [
                _fmt(order.value),
                _fmt(base.from_nats(res.value)),
                _fmt(res.kkt_residual),
            ] + [_fmt(v) for v in res.optimal_input.p]
            if is_binary:
                if order.is_finite_gt_one:
                    closed = binary_maximal_alpha_leakage(ch.rows[0, 1], ch.rows[1, 0], order.value)
                    row += [_fmt(base.from_nats(closed)), _fmt(abs(closed - res.value))]
                else:
                    row += ["", ""]
            rows.append(row)
    else:
        header = ["alpha", "value_1", "value_2", "diff"]
        diffs: list[tuple[AlphaOrder, float]] = []
        for order in orders:
            r1, r2 = (solve(ch, order) for ch in channels)
            diffs.append((order, r1.value - r2.value))
            rows.append(
                [
                    _fmt(order.value),
                    _fmt(base.from_nats(r1.value)),
                    _fmt(base.from_nats(r2.value)),
                    _fmt(base.from_nats(r1.value - r2.value)),
                ]
            )
        for (o1, d1), (o2, d2) in zip(diffs, diffs[1:]):
            if d1 * d2 < 0:
                print(
                    f"crossing: leakage ordering flips between alpha={_fmt(o1.value)} "
                    f"and alpha={_fmt(o2.value)}",
                    file=sys.stderr,
                )
    _emit(_csv(header, rows), args.out)


def cmd_strategy(args) -> None:
    orders = _orders(args)
    LogBase.parse(args.base)  # the columns are probabilities, but a malformed --base is still exit 2
    joint = Joint.from_json(_load_json(args.joint))
    posterior = conditional_of(joint.swapped()).conditional
    header = ["alpha", "output", "input", "posterior", "strategy"]
    rows = []
    for order in orders:
        tilted = optimal_strategy(posterior, order)
        for yi, y in enumerate(posterior.input_alphabet.labels):
            for xi, x in enumerate(posterior.output_alphabet.labels):
                rows.append(
                    [
                        _fmt(order.value),
                        y,
                        x,
                        _fmt(posterior.rows[yi, xi]),
                        _fmt(tilted.rows[yi, xi]),
                    ]
                )
    _emit(_csv(header, rows), args.out)


def _put_json_summary(payload: dict, path: str | None, summary: str) -> None:
    _emit(json.dumps(payload) + "\n", path)
    print(summary, file=sys.stderr)


def _named_generator(name: str, order: AlphaOrder):
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
    orders, base, solver = _orders(args), LogBase.parse(args.base), _solver(args)
    spec = DistortionSpec.from_json(_load_json(args.spec))
    if len(orders) != 1:
        raise ValidationError("put hard expects a single --alpha")
    order = orders[0]
    # Only the alpha = 1 tradeoff depends on the input law; it is certified
    # by a Frank-Wolfe gap, every other one by the covering LP's duality gap.
    aware = args.generator == "alpha" and order.is_one
    if args.prior and not aware:
        raise ValidationError("--prior is read only at --alpha 1 with --generator alpha")
    if args.generator != "alpha":
        value, solution = put_max_f_leakage(spec, _named_generator(args.generator, order), **solver)
        unit = ""
    else:
        prior = None
        if args.prior:
            prior = Dist.from_json(_load_json(args.prior))
        elif aware:
            prior = Dist.uniform(spec.input_alphabet)
            print("note: alpha = 1 tradeoff uses a uniform input distribution", file=sys.stderr)
        value, solution = put_max_alpha_leakage(spec, order, prior_for_one=prior, **solver)
        value = base.from_nats(value)
        unit = f" {base.value}"
    payload = solution.to_json()
    payload["alpha"] = _fmt(order.value)
    payload["generator"] = args.generator
    summary = (
        f"hard-distortion PUT at alpha={_fmt(order.value)} "
        f"[{args.generator}]: {value:.12g}{unit} "
        f"(q*={solution.q_star:.12g}, {'Frank-Wolfe' if aware else 'duality'} gap {solution.duality_gap:.3e})"
    )
    _put_json_summary(payload, args.out, summary)


def cmd_put_types(args) -> None:
    base = LogBase.parse(args.base)
    result = type_distance_put(args.n, args.m)
    payload = {
        "n": args.n,
        "m": args.m,
        "value_nats": result.value,
        "value_bits": result.value / math.log(2.0),
        "index_set": list(result.index_set.members),
        "type_map": {str(i): j for i, j in sorted(result.type_map.items())},
        "representatives": {
            str(j): representative_dataset(args.n, j) for j in result.index_set.members
        },
    }
    summary = (
        f"type-distance PUT(n={args.n}, m={args.m}): {base.from_nats(result.value):.12g} "
        f"{base.value}; output type classes {list(result.index_set.members)}"
    )
    _put_json_summary(payload, args.out, summary)


def cmd_put_hamming(args) -> None:
    base = LogBase.parse(args.base)
    result = hamming_put(args.n, args.m, args.q)
    payload = {
        "n": args.n,
        "m": args.m,
        "q": args.q,
        "value_nats": result.value,
        "value_bits": result.value / math.log(2.0),
        "ball_size": result.ball_size,
    }
    summary = (
        f"Hamming PUT(n={args.n}, m={args.m}, q={args.q}): "
        f"{base.from_nats(result.value):.12g} {base.value}; "
        f"uniform mechanism over balls of {result.ball_size} datasets"
    )
    _put_json_summary(payload, args.out, summary)


def cmd_put_avg_binary(args) -> None:
    orders, base = _orders(args), LogBase.parse(args.base)
    header = ["alpha", "value", "rho1", "rho2", "guess_prob", "gap"]
    rows = []
    for order in orders:
        res = avg_hamming_binary_put(args.p, args.D, order)
        rows.append(
            [
                _fmt(order.value),
                _fmt(base.from_nats(res.value)),
                _fmt(res.rho1),
                _fmt(res.rho2),
                _fmt(res.guess_prob),
                _fmt(base.from_nats(res.gap)),
            ]
        )
    _emit(_csv(header, rows), args.out)


_BASE_HELP = "output unit: nats or bits"


def _add_common(p: argparse.ArgumentParser, base_help: str = _BASE_HELP, closed_form: bool = False) -> None:
    """--alpha and --alpha-sweep, except on a closed form, whose JSON holds
    both units; then --base and --out."""
    if closed_form:
        base_help = "unit of the summary line on stderr: nats or bits (the JSON holds both)"
    else:
        p.add_argument("--alpha", help="single order: a float, '1', or 'inf'")
        p.add_argument("--alpha-sweep", help="sweep: start:stop:step or comma list")
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
    _add_common(p)
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
