"""SHA-256 digests of the library's numerical outputs over the benchmark's op lists.

    PYTHONPATH=src python tools/fingerprint.py --seed 1

Seven digests are printed, one line each:

* ``double``: over the first double-sweep round, the `blue_solve` weights and
  variance, `blue_variance_curve`, `reflection_coefficients`,
  `efficiency_finite` of the sample mean (value, numerator, denominator) and
  `pseudo_best_weights` under the op's density at order min(n, 256);
* ``dd``: over the first extended-decay round, the double-double covariance
  `values` and `lo`, the double-double variance curve and `blue_solve`, and
  for arc and flat-zero ops the decay report;
* ``cli``: over the first cli-oneshot round, run in-process through
  `statmean.cli.main`, each op's exit code and its result payload (JSON) or
  rows (CSV) without the manifest, or the last line of its error message;
* ``density``: over the same double-sweep and extended-decay ops, the
  density's `values` at `ANGLES`, so that a change in a density which no
  covariance integrates still shows;
* ``structure``: over `STRUCTURE_MODELS`, each model's `classify` record and
  its declared `singularities()`;
* ``covariance``: over `COVARIANCE_MEASURES`, which reach every closed form,
  the `covariance_sequence` `values`, `lo` and `provenance` at each order in
  `COVARIANCE_ORDERS`, in double and in double-double;
* ``refusals``: over `REFUSALS`, command lines that exit 3 (a subnormal
  scale, a breakdown in either arithmetic, a pole on the quadrature grid),
  run in-process as the ``cli`` digest runs its ops, each one's exit code and
  last line of stderr.

Two commits that print the same digests for a seed give bitwise the same
outputs on those ops.  An op that raises contributes its exception's class
and message instead.  The op lists come from `perfbench.workloads`, so the
tool needs the repository root and `src` on the import path; it adds both.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (ROOT, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import numpy as np  # noqa: E402

from perfbench import workloads  # noqa: E402
from statmean import (cli, covariance, deterministic, efficiency,  # noqa: E402
                      estimators, spectra, toeplitz)


#: 257 angles evenly spaced on [-pi, pi], 0 and +/-pi among them
ANGLES = np.pi * np.linspace(-1.0, 1.0, 257)

_WN, _PI = spectra.WhiteNoise(), math.pi
#: nested models, shifted ones among them, for the structure digest
STRUCTURE_MODELS = [
    _WN, spectra.Arma((1.0, -1.0)), spectra.Arma((1.0, -2.0, 1.0), (1.0, -0.5)),
    spectra.PowerAtOrigin(0.3), spectra.PowerAtOrigin(-0.26), spectra.FgnDensity(0.7),
    spectra.ArfimaFactor(0.25, spectra.Arma((1.0, 0.4))),
    spectra.FisherHartwig(spectra.PowerAtOrigin(0.1), ((0.0, 0.3), (_PI, 0.25))),
    spectra.FlatZero(0.5), spectra.FlatZero(1.5), spectra.PollaczekSzego(1.0),
    spectra.ArcSupported(0.5 * _PI),
    spectra.Product(spectra.FlatZero(1.5), spectra.Scaled(spectra.PollaczekSzego(1.0), 2.0)),
    spectra.Product(spectra.FgnDensity(0.67), spectra.PowerAtOrigin(0.115)),
    spectra.Scaled(spectra.ArfimaFactor(-0.3, _WN), 0.0),
    spectra.Product(spectra.ArcSupported(1.0),
                    spectra.FisherHartwig(_WN, ((1.0, -0.3), (-1.0, -0.3)))),
    spectra.FrequencyShifted(
        spectra.Product(spectra.FgnDensity(0.67), spectra.PowerAtOrigin(0.115)), 0.0),
    spectra.FrequencyShifted(spectra.FisherHartwig(_WN, ((_PI, -0.3),)), _PI),
    spectra.FrequencyShifted(spectra.ArfimaFactor(0.38, _WN), _PI),
    spectra.FrequencyShifted(spectra.FlatZero(0.5), 0.3),
    spectra.FrequencyShifted(spectra.PollaczekSzego(1.0), 0.0),
    spectra.FrequencyShifted(spectra.ArcSupported(1.0), _PI),
    spectra.ArfimaFactor(0.2, spectra.FrequencyShifted(spectra.FgnDensity(0.3), -0.25)),
]

_ARMA = spectra.Arma((1.0, 0.4), (1.0, -0.5))
#: measures whose covariances reach every closed form, the flat-zero
#: quadrature and the double quadrature, for the covariance digest
COVARIANCE_MEASURES = [
    _WN, spectra.PowerAtOrigin(0.3), spectra.PowerAtOrigin(1.0),
    spectra.Arma((1.0, -1.0)), _ARMA, spectra.ArfimaFactor(0.25, spectra.Arma((1.0, 0.4))),
    spectra.Product(spectra.PowerAtOrigin(0.2), spectra.Arma((1.0, 0.5))),
    spectra.FgnDensity(0.7), spectra.Scaled(spectra.FgnDensity(0.3), 2.5),
    spectra.ArcSupported(0.5 * _PI), spectra.Scaled(spectra.ArcSupported(1.0), 0.5),
    spectra.FrequencyShifted(spectra.PowerAtOrigin(0.3), 0.0),
    spectra.FrequencyShifted(_ARMA, _PI), spectra.FlatZero(0.5),
    spectra.SpectralMeasure(_WN, ((0.0, 0.5), (1.0, 0.25))),
    spectra.FisherHartwig(_WN, ((1.0, 0.3), (-1.0, 0.3))),
]
COVARIANCE_ORDERS = (64, 1024)

_SUBNORMAL = spectra.WhiteNoise(1e-311)
_ARC = spectra.ArcSupported(0.5 * _PI, 1.0 / (2.0 * _PI))
#: (model, command line) pairs that each exit 3, for the refusals digest
REFUSALS = [
    (_SUBNORMAL, ["blue", "--n", "8"]), (_SUBNORMAL, ["christoffel", "--n", "8"]),
    *[(_SUBNORMAL, ["decay", "--n-grid", "8:32:8", "--precision", precision])
      for precision in ("double", "auto", "dd")],
    (_ARC, ["blue", "--n", "60"]), (_ARC, ["blue", "--n", "200", "--precision", "dd"]),
    (spectra.FisherHartwig(_WN, ((1.0, -0.3), (-1.0, -0.3))), ["covariance", "--n", "64"]),
    (spectra.FisherHartwig(_WN, ((_PI, -0.3),)), ["classify"]),
]


class Digest:
    """A SHA-256 over labelled float arrays, strings and exceptions."""

    def __init__(self):
        self.sha = hashlib.sha256()
        self.items = 0

    def add(self, label, value):
        self.sha.update(label.encode() + b"\0")
        if isinstance(value, str):
            self.sha.update(value.encode())
        else:
            self.sha.update(np.ascontiguousarray(value, dtype=float).tobytes())
        self.items += 1

    def run(self, label, fn):
        """Add fn()'s (name, value) pairs, or the exception it raises."""
        try:
            pairs = fn()
        except Exception as err:          # an error is an output too
            pairs = [("error", f"{type(err).__name__}: {err}")]
        for name, value in pairs:
            self.add(f"{label}.{name}", value)


def _double_outputs(spec):
    n = spec["n"]
    measure = spectra.measure_from_json(spec["measure"])
    cov = covariance.covariance_sequence(measure, n)
    weights, variance = toeplitz.blue_solve(toeplitz.ToeplitzSystem(cov))
    eff = efficiency.efficiency_finite(estimators.lse_weights(n), measure)
    return [("blue.weights", weights.coefficients), ("blue.variance", variance),
            ("curve", toeplitz.blue_variance_curve(cov)),
            ("reflections", toeplitz.reflection_coefficients(cov.values)),
            ("efficiency", [eff.value, eff.numerator_variance, eff.denominator_variance])]


def _pseudo_best(spec):
    measure = spectra.measure_from_json(spec["measure"])
    w = estimators.pseudo_best_weights(measure.density, min(spec["n"], 256))
    return [("weights", w.coefficients)]


def _extended_model(spec):
    p = spec["params"]
    if spec["kind"] == "arc":
        return spectra.ArcSupported(p["edge_over_pi"] * math.pi, 1.0 / workloads.TWO_PI)
    if spec["kind"] == "flat_zero":
        return spectra.FlatZero(p["a"])
    return spectra.Scaled(spectra.PowerAtOrigin(p["alpha"]), p["scale"])


def _dd_outputs(spec):
    cov = covariance.covariance_sequence(_extended_model(spec), spec["n"], precision="dd")
    out = [("values", cov.values), ("lo", cov.lo), ("provenance", cov.provenance)]
    out.append(("curve", toeplitz.blue_variance_curve(cov, precision="dd")))
    weights, variance = toeplitz.blue_solve(toeplitz.ToeplitzSystem(cov, precision="dd"))
    return out + [("blue.weights", weights.coefficients), ("blue.variance", variance)]


def _decay(spec):
    rep = deterministic.decay_rate_from_variances(_extended_model(spec), spec["decay_grid"],
                                                  precision="auto")
    return [("rho", rep.rho), ("orders", rep.orders), ("sigmas", rep.sigmas),
            ("se", rep.fit_standard_error),
            ("labels", f"{rep.neutrality}|{rep.precision}|{rep.warning}")]


def _density_values(model):
    with np.errstate(all="ignore"):      # poles and zeros at 0 or pi are outputs too
        return [("values", model.values(ANGLES))]


def _structure(model):
    rec = spectra.classify(model)
    sings = [(s.angle, s.kind, s.exponent, s.rate) for s in model.singularities()]
    return [("classify", repr((rec.determinism, rec.memory, rec.origin_exponent,
                               rec.szego_integral))), ("singularities", repr(sings))]


def _covariances(measure, n, precision):
    cov = covariance.covariance_sequence(measure, n, precision=precision)
    lo = "none" if cov.lo is None else cov.lo
    return [("values", cov.values), ("lo", lo), ("provenance", cov.provenance)]


def _cli_outputs(spec, model_dir):
    argv = list(spec["argv"])
    if "model" in spec:
        path = os.path.join(model_dir, f"op{spec['op']}.json")
        with open(path, "w") as fh:
            json.dump(spec["model"], fh)
        argv[1:1] = ["--model", path]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    text = out.getvalue()
    if code != 0:
        result = err.getvalue().strip().splitlines()[-1].replace(model_dir, "<dir>")
    elif text.startswith("{"):
        result = json.dumps(json.loads(text)["result"], sort_keys=True)
    else:
        result = text.split("\n", 1)[1]
    return [("exit", str(code)), ("result", result)]


def fingerprint(seed: int) -> dict:
    double, dd, cli_digest, density, structure, cov, refusals = (Digest() for _ in range(7))
    for spec in workloads.first_rounds("double-sweep", seed, 1)[0]:
        label = f"op{spec['op']}"
        double.run(label, lambda: _double_outputs(spec))
        double.run(label + ".pseudo_best", lambda: _pseudo_best(spec))
        density.run("double." + label, lambda: _density_values(
            spectra.measure_from_json(spec["measure"]).density))
    for spec in workloads.first_rounds("extended-decay", seed, 1)[0]:
        label = f"op{spec['op']}"
        dd.run(label, lambda: _dd_outputs(spec))
        if "decay_grid" in spec:
            dd.run(label + ".decay", lambda: _decay(spec))
        density.run("dd." + label, lambda: _density_values(_extended_model(spec)))
    with tempfile.TemporaryDirectory() as model_dir:
        for spec in workloads.first_rounds("cli-oneshot", seed, 1)[0]:
            cli_digest.run(f"op{spec['op']}", lambda: _cli_outputs(spec, model_dir))
        for i, (model, argv) in enumerate(REFUSALS):
            spec = {"op": f"refusal{i}", "argv": argv, "model": model.to_json()}
            refusals.run(f"refusal{i}", lambda: _cli_outputs(spec, model_dir))
    for i, model in enumerate(STRUCTURE_MODELS):
        structure.run(f"model{i}", lambda: _structure(model))
    for i, measure in enumerate(COVARIANCE_MEASURES):
        for n in COVARIANCE_ORDERS:
            for precision in ("double", "dd"):
                cov.run(f"model{i}.{n}.{precision}", lambda: _covariances(measure, n, precision))
    return {"double": double, "dd": dd, "cli": cli_digest, "density": density,
            "structure": structure, "covariance": cov, "refusals": refusals}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    for name, digest in fingerprint(args.seed).items():
        print(f"{name} seed={args.seed} items={digest.items} sha256={digest.sha.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
