"""Command-line entry point exposing every computation as a subcommand.

Outputs are machine readable: JSON for single results, CSV for curves, always
accompanied by a run manifest (subcommand, parameters, library version, seed,
timing).  JSON results embed the manifest; CSV results carry it as a leading
'# ' comment line.  Exit codes: 0 success, 1 usage, 2 validation error,
3 numerical-accuracy error.

Angles are accepted as plain radians or as multiples of pi with a literal
"pi" suffix ("0.5pi", "-pi"), avoiding decimal drift in arc definitions.  A
--config JSON file may hold default flag values, checked as if typed on the
command line; explicit flags win.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import (__version__, deterministic, efficiency, estimators, opuc, simulate,
               toeplitz)
from .covariance import covariance_sequence
from .deterministic import ArcRegion
from .errors import AccuracyError, NearSingularError, StatmeanError, ValidationError
from .spectra import classify, load_measure, parse_angle

CSV_MANIFEST_PREFIX = "# "


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):     # an abbreviation would escape _apply_config
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise _UsageError(message)


def _parse_grid(text):
    """'8:48:4' -> range(8, 49, 4); '8,12,16' -> explicit list."""
    try:
        if ":" in text:
            parts = [int(p) for p in text.split(":")]
            if len(parts) == 2:
                parts.append(1)
            return list(range(parts[0], parts[1] + 1, parts[2]))
        return [int(p) for p in text.split(",")]
    except ValueError as err:
        raise _UsageError(f"malformed order grid {text!r}: {err}") from err


def _parse_arcs(text):
    arcs = []
    try:
        for part in text.split(","):
            lo, hi = part.split(":")
            arcs.append((parse_angle(lo), parse_angle(hi)))
    except ValueError as err:
        raise _UsageError(f"malformed arcs {text!r}: {err}") from err
    return ArcRegion(tuple(arcs))


def build_parser() -> _Parser:
    p = _Parser(prog="statmean", description=__doc__.splitlines()[0])
    p.add_argument("--config", help="JSON file with default flag values")
    sub = p.add_subparsers(dest="subcommand", required=True)

    def common(sp):
        sp.add_argument("--model", help="model/measure JSON path")
        sp.add_argument("--out", help="output path (default: stdout)")

    sp = sub.add_parser("classify", help="regularity/memory classification")
    common(sp)

    sp = sub.add_parser("covariance", help="covariance sequence r(0..n)")
    common(sp)
    sp.add_argument("--n", type=int)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")

    sp = sub.add_parser("blue", help="optimal weights and variance")
    common(sp)
    sp.add_argument("--n", type=int)
    sp.add_argument("--precision", choices=("double", "dd"), default="double")

    sp = sub.add_parser("weights", help="estimator weight vector")
    sp.add_argument("--estimator",
                    choices=("lse", "parabolic", "adenstedt", "blue", "pseudo-best"))
    sp.add_argument("--n", type=int)
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--model", help="design model (blue / pseudo-best)")
    sp.add_argument("--out")

    sp = sub.add_parser("variance", help="estimator variance under a measure")
    common(sp)
    sp.add_argument("--estimator",
                    choices=("lse", "parabolic", "adenstedt", "blue"))
    sp.add_argument("--n", type=int)
    sp.add_argument("--alpha", type=float)

    sp = sub.add_parser("christoffel", help="reciprocal kernel curve at a probe")
    common(sp)
    sp.add_argument("--n", type=int)
    sp.add_argument("--probe", default="1.0", help="complex probe, e.g. '1.0' or '0.3+0.1j'")

    sp = sub.add_parser("efficiency", help="closed-form and finite-sample efficiencies")
    sp.add_argument("--law", choices=("eq7.8", "eq3.3", "beran-kunsch", "samarov-taqqu"))
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--beta", type=int)
    sp.add_argument("--n", type=int)
    sp.add_argument("--finite", action="store_true")
    sp.add_argument("--estimator", choices=("lse", "parabolic", "adenstedt"))
    sp.add_argument("--model")
    sp.add_argument("--n-grid", dest="n_grid")
    sp.add_argument("--out")

    sp = sub.add_parser("asymptote", help="limit constants of the variance laws")
    sp.add_argument("--law", choices=("general", "short-memory", "underestimation"),
                    default="general")
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--g0", type=float, default=1.0)
    sp.add_argument("--model")
    sp.add_argument("--out")

    sp = sub.add_parser("chebyshev", help="minimax polynomial constants on arc regions")
    sp.add_argument("--arcs", help="e.g. '0.5pi:pi,-pi:-0.5pi'")
    sp.add_argument("--n-grid", dest="n_grid", help="e.g. '8:48:4'")
    sp.add_argument("--out")

    sp = sub.add_parser("decay", help="exponential-decay diagnostics of the variance")
    common(sp)
    sp.add_argument("--n-grid", dest="n_grid")
    sp.add_argument("--precision", choices=("auto", "double", "dd"), default="auto")

    sp = sub.add_parser("simulate", help="Monte Carlo variance cross-check")
    common(sp)
    sp.add_argument("--estimator",
                    choices=("lse", "parabolic", "adenstedt", "blue"))
    sp.add_argument("--n", type=int)
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--reps", type=int, default=100000)
    sp.add_argument("--seed", type=int, default=0)

    # suppressed default: a --config given before the subcommand survives
    for child in sub.choices.values():
        child.add_argument("--config", default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    p.subcommands = sub.choices
    return p


REQUIRED_FLAGS = {
    "classify": ("model",),
    "covariance": ("model", "n"),
    "blue": ("model", "n"),
    "weights": ("estimator", "n"),
    "variance": ("model", "estimator", "n"),
    "christoffel": ("model", "n"),
    "chebyshev": ("arcs", "n_grid"),
    "decay": ("model", "n_grid"),
    "simulate": ("model", "estimator", "n"),
}


#: flags one mode of a subcommand needs on top of REQUIRED_FLAGS; the mode is
#: its --law, or "finite" under --finite.  A tuple names alternatives.
MODE_FLAGS = {
    ("efficiency", "finite"): ("model", "estimator", ("n", "n_grid")),
    ("efficiency", "eq7.8"): ("alpha", "beta"),
    ("efficiency", "eq3.3"): ("alpha",),
    ("efficiency", "beran-kunsch"): ("alpha",),
    ("efficiency", "samarov-taqqu"): ("n", "alpha"),
    ("asymptote", "general"): ("alpha",),
    ("asymptote", "short-memory"): ("model",),
    ("asymptote", "underestimation"): ("model", "alpha"),
}


def _apply_config(parser, args, argv):
    """Parse the --config file's values into `args` as if typed on the line,
    for the subcommand's flags not given there; a value that fails its flag's
    type or choices is a ValidationError."""
    try:
        with open(args.config) as fh:
            defaults = json.load(fh)
    except (OSError, ValueError, RecursionError) as err:
        raise ValidationError(f"cannot read config {args.config}: {err}") from err
    if not isinstance(defaults, dict):
        raise ValidationError(f"config {args.config} must hold a JSON object")
    explicit = {tok[2:].split("=")[0].replace("-", "_") for tok in argv if tok.startswith("--")}
    sub = parser.subcommands[args.subcommand]
    tokens = []
    for key, value in defaults.items():
        flag = "--" + key.replace("_", "-")
        action = sub._option_string_actions.get(flag)
        if action is None or action.dest in explicit | {"help", "config"}:
            continue
        if action.nargs != 0:
            tokens.append(f"{flag}={value}")
        elif not isinstance(value, bool):
            raise ValidationError(f"config {flag} must be true or false, got {value!r}")
        elif value:
            tokens.append(flag)
    try:
        sub.parse_args(tokens, namespace=args)
    except _UsageError as err:
        raise ValidationError(f"config {args.config}: {err}") from None


def _check_required(args):
    mode = "finite" if getattr(args, "finite", False) else getattr(args, "law", None)
    needs = REQUIRED_FLAGS.get(args.subcommand, ()) + MODE_FLAGS.get((args.subcommand, mode), ())
    missing = []
    for need in needs:
        names = need if isinstance(need, tuple) else (need,)
        if all(getattr(args, name, None) is None for name in names):
            missing.append(" or ".join(f"--{name.replace('_', '-')}" for name in names))
    if missing:
        raise _UsageError(f"{args.subcommand} requires {', '.join(missing)}")


def _estimator_weights(name, n, alpha, measure):
    if name == "lse":
        return estimators.lse_weights(n)
    if name == "parabolic":
        return estimators.parabolic_weights(n)
    if name == "adenstedt":
        if alpha is None:
            raise ValidationError("adenstedt weights need --alpha")
        return estimators.adenstedt_weights(n, alpha)
    if name in ("blue", "pseudo-best") and measure is None:
        raise ValidationError(f"{name} weights need --model")
    if name == "blue":
        return toeplitz.blue_solve(toeplitz.system_for(measure, n))[0]
    if name == "pseudo-best":
        return estimators.pseudo_best_weights(measure, n)
    raise ValidationError(f"unknown estimator {name!r}")


def _run(args, manifest):
    cmd = args.subcommand

    if cmd == "classify":
        rec = classify(load_measure(args.model))
        return {"determinism": rec.determinism, "memory": rec.memory,
                "origin_exponent": rec.origin_exponent,
                "szego_integral": rec.szego_integral if rec.nondeterministic else None,
                "nondeterministic": rec.nondeterministic}, None

    if cmd == "covariance":
        measure = load_measure(args.model)
        cov = covariance_sequence(measure, args.n)
        if args.format == "json":
            return {"n": args.n, "provenance": cov.provenance,
                    "values": cov.values.tolist()}, None
        rows = [("k", "r")] + [(k, repr(float(v))) for k, v in enumerate(cov.values)]
        return None, rows

    if cmd == "blue":
        measure = load_measure(args.model)
        w, v = toeplitz.blue_solve(toeplitz.system_for(measure, args.n,
                                                       precision=args.precision))
        return {"n": args.n, "variance": float(v), "weights": w.coefficients.tolist()}, None

    if cmd == "weights":
        measure = load_measure(args.model) if args.model else None
        w = _estimator_weights(args.estimator, args.n, args.alpha, measure)
        rows = [("k", "c")] + [(k, repr(float(c))) for k, c in enumerate(w.coefficients)]
        return None, rows

    if cmd == "variance":
        measure = load_measure(args.model)
        w = _estimator_weights(args.estimator, args.n, args.alpha,
                               measure if args.estimator == "blue" else None)
        v = estimators.variance_under(w, measure)
        return {"n": args.n, "estimator": args.estimator, "variance": v}, None

    if cmd == "christoffel":
        measure = load_measure(args.model)
        try:
            probe = complex(args.probe)
        except ValueError as err:
            raise _UsageError(f"malformed probe {args.probe!r}: {err}") from err
        state = opuc.szego_recursion(measure, args.n, probes=(probe,))
        curve = opuc.christoffel_curve(state, probe)
        rows = [("m", "lambda")] + [(m, repr(float(v))) for m, v in enumerate(curve)]
        return None, rows

    if cmd == "efficiency":
        if args.finite:
            measure = load_measure(args.model)
            grid = _parse_grid(args.n_grid) if args.n_grid is not None else [args.n]
            if not grid:
                raise ValidationError("n grid must be nonempty")
            values = {}
            for n in grid:
                w = _estimator_weights(args.estimator, n, args.alpha, None)
                values[n] = efficiency.efficiency_finite(w, measure).value
            return {"estimator": args.estimator, "efficiency": values}, None
        if args.law == "eq7.8":
            return {"value": efficiency.overestimation_efficiency(args.alpha, args.beta)}, None
        if args.law == "eq3.3":
            return {"value": efficiency.lse_asymptotic_efficiency(args.alpha)}, None
        if args.law == "beran-kunsch":
            return {"value": efficiency.beran_kunsch_expansion(args.alpha)}, None
        if args.law == "samarov-taqqu":
            return {"value": efficiency.lse_efficiency_exact_falpha(args.n, args.alpha)}, None
        raise ValidationError("efficiency needs --finite or --law")

    if cmd == "asymptote":
        if args.law == "general":
            return {"constant": efficiency.general_class_asymptote(args.alpha, args.g0)}, None
        density = load_measure(args.model).density
        if args.law == "short-memory":
            return {"constant": efficiency.short_memory_variance_limit(density)}, None
        return {"constant": efficiency.underestimation_limit(args.alpha, density)}, None

    if cmd == "chebyshev":
        region = _parse_arcs(args.arcs)
        grid = _parse_grid(args.n_grid)
        tau, curve = deterministic.chebyshev_constant_estimate(region, grid)
        rows = [("n", "deviation", "tau_n", "converged")]
        rows += [(s.order, repr(s.deviation), repr(s.constant_estimate), s.converged)
                 for s in curve]
        manifest["tau_estimate"] = tau
        return None, rows

    if cmd == "decay":
        measure = load_measure(args.model)
        rep = deterministic.decay_rate_from_variances(measure, _parse_grid(args.n_grid),
                                                      precision=args.precision)
        return {"rho": rep.rho, "neutrality": rep.neutrality,
                "precision": rep.precision, "warning": rep.warning,
                "orders": rep.orders.tolist(),
                "sigmas": [float(s) for s in rep.sigmas]}, None

    if cmd == "simulate":
        measure = load_measure(args.model)
        w = _estimator_weights(args.estimator, args.n, args.alpha,
                               measure if args.estimator == "blue" else None)
        mc = simulate.monte_carlo_variance(w, measure, args.reps, args.seed)
        analytic = estimators.variance_under(w, measure)
        manifest["seed"] = args.seed
        return {"estimate": mc.estimate, "standard_error": mc.standard_error,
                "analytic": analytic, "generator": mc.generator,
                "replicates": args.reps}, None

    raise ValidationError(f"unknown subcommand {cmd!r}")


def _render(payload, rows, manifest) -> str:
    """The output text; a result that is not finite (CSV cells hold repr(float)
    for numbers) is an AccuracyError."""
    if rows is not None and any(c in ("nan", "inf", "-inf") for row in rows for c in row):
        raise AccuracyError("result is not finite")
    try:
        if payload is not None:
            return json.dumps({"manifest": manifest, "result": payload}, indent=2,
                              allow_nan=False, default=float) + "\n"
        lines = [CSV_MANIFEST_PREFIX + json.dumps(manifest, allow_nan=False, default=float)]
    except ValueError as err:
        raise AccuracyError(f"result is not finite: {err}") from None
    lines += [",".join(str(c) for c in row) for row in rows]
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = None
    try:
        args = parser.parse_args(argv)
        if args.config:
            _apply_config(parser, args, argv)
        _check_required(args)
        manifest = {
            "subcommand": args.subcommand,
            "parameters": {k: v for k, v in vars(args).items()
                           if k not in ("subcommand", "config", "out") and v is not None},
            "version": __version__,
        }
        started = time.time()
        payload, rows = _run(args, manifest)
        manifest["elapsed_seconds"] = round(time.time() - started, 6)
        text = _render(payload, rows, manifest)
        if getattr(args, "out", None):
            try:
                with open(args.out, "w") as fh:
                    fh.write(text)
            except OSError as err:
                raise ValidationError(f"cannot write {args.out}: {err}") from None
        else:
            sys.stdout.write(text)
    except _UsageError as err:
        sys.stderr.write(f"usage error: {err}\n")
        parser.print_usage(sys.stderr)
        return 1
    except ValidationError as err:
        sys.stderr.write(f"validation error: {err}\n")
        return 2
    except MemoryError:
        # the order sizes every allocation that can exhaust memory
        order = " ".join(f"{flag} {getattr(args, dest)}" for dest, flag in
                         (("n", "--n"), ("n_grid", "--n-grid")) if getattr(args, dest, None))
        sys.stderr.write(f"validation error: {order or 'the order'} needs more memory "
                         "than is available\n")
        return 2
    except (AccuracyError, NearSingularError, OverflowError) as err:
        sys.stderr.write(f"numerical-accuracy error: {err}\n")
        return 3
    except StatmeanError as err:
        sys.stderr.write(f"error: {err}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
