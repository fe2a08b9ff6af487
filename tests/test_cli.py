"""Command-line interface: outputs, exit codes, schema conformance."""

from __future__ import annotations

import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources

import numpy as np
import pytest

from statmean.cli import build_parser, main

jsonschema = pytest.importorskip("jsonschema")

SCHEMA = json.loads(resources.files("statmean").joinpath("schema.json").read_text())


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("models")
    docs = {
        "whitenoise.json": {"variant": "white_noise", "level": 1.0 / (2 * math.pi)},
        "f1.json": {"variant": "power_at_origin", "alpha": 1.0},
        "ma1.json": {"variant": "arma", "ma": [1.0, -0.5]},
        "arc.json": {"variant": "arc_supported", "alpha": "0.5pi",
                     "level": 1.0 / (2 * math.pi)},
        "atom.json": {"density": {"variant": "white_noise", "level": 1.0 / (2 * math.pi)},
                      "atoms": [[0, 0.5]]},
    }
    for name, doc in docs.items():
        (root / name).write_text(json.dumps(doc))
    return root


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_json(*argv):
    code, out, err = run_cli(*argv)
    assert code == 0, err
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    return doc


def run_csv(*argv):
    code, out, err = run_cli(*argv)
    assert code == 0, err
    lines = out.strip().splitlines()
    assert lines[0].startswith("# ")
    manifest = json.loads(lines[0][2:])
    rows = [line.split(",") for line in lines[1:]]
    return manifest, rows


class TestSubcommands:
    def test_efficiency_law(self):
        doc = run_json("efficiency", "--law", "eq7.8", "--alpha", "0", "--beta", "1")
        assert doc["result"]["value"] == pytest.approx(5.0 / 6.0, rel=1e-12)

    def test_blue(self, model_dir):
        doc = run_json("blue", "--model", str(model_dir / "whitenoise.json"), "--n", "9")
        assert doc["result"]["variance"] == pytest.approx(0.1, rel=1e-12)
        assert doc["result"]["weights"] == pytest.approx([0.1] * 10)

    def test_covariance_csv_strictly_increasing_index(self, model_dir):
        manifest, rows = run_csv("covariance", "--model", str(model_dir / "f1.json"),
                                 "--n", "8")
        assert rows[0] == ["k", "r"]
        ks = [int(r[0]) for r in rows[1:]]
        assert ks == sorted(ks) and len(set(ks)) == len(ks)
        assert float(rows[1][1]) == pytest.approx(2.0)

    def test_variance_subcommand(self, model_dir):
        doc = run_json("variance", "--estimator", "lse",
                       "--model", str(model_dir / "f1.json"), "--n", "2")
        assert doc["result"]["variance"] == pytest.approx(2.0 / 9.0, rel=1e-12)

    def test_weights_csv(self, model_dir):
        _, rows = run_csv("weights", "--estimator", "adenstedt", "--alpha", "1.0",
                          "--n", "2")
        values = [float(r[1]) for r in rows[1:]]
        assert values == pytest.approx([0.3, 0.4, 0.3])

    def test_classify(self, model_dir):
        doc = run_json("classify", "--model", str(model_dir / "atom.json"))
        assert doc["result"]["determinism"] == "Mixed"
        doc = run_json("classify", "--model", str(model_dir / "arc.json"))
        assert doc["result"]["determinism"] == "PurelyDeterministic"
        assert doc["result"]["szego_integral"] is None

    def test_christoffel_curve(self, model_dir):
        manifest, rows = run_csv("christoffel", "--model", str(model_dir / "ma1.json"),
                                 "--n", "16", "--probe", "1.0")
        lam = [float(r[1]) for r in rows[1:]]
        assert all(b <= a + 1e-15 for a, b in zip(lam, lam[1:]))

    def test_decay(self, model_dir):
        doc = run_json("decay", "--model", str(model_dir / "arc.json"),
                       "--n-grid", "8:48:4")
        assert doc["result"]["rho"] <= 0.73
        assert doc["result"]["neutrality"] == "ExponentiallyDecreasing"

    def test_chebyshev(self):
        manifest, rows = run_csv("chebyshev", "--arcs", "0.5pi:pi,-pi:-0.5pi",
                                 "--n-grid", "4:12:4")
        assert "tau_estimate" in manifest
        ns = [int(r[0]) for r in rows[1:]]
        assert ns == sorted(ns)

    def test_asymptote(self):
        doc = run_json("asymptote", "--law", "general", "--alpha", "1", "--g0", "1")
        assert doc["result"]["constant"] == pytest.approx(12.0, rel=1e-12)

    def test_simulate(self, model_dir):
        doc = run_json("simulate", "--model", str(model_dir / "whitenoise.json"),
                       "--estimator", "lse", "--n", "9", "--reps", "20000",
                       "--seed", "42")
        res = doc["result"]
        assert abs(res["estimate"] - res["analytic"]) < 4 * res["standard_error"]
        assert doc["manifest"]["seed"] == 42


class TestExitCodes:
    def test_usage_error_is_one(self):
        code, _, err = run_cli("not-a-command")
        assert code == 1

    def test_validation_error_is_two(self, model_dir, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"variant": "power_at_origin", "alpha": -0.9}))
        code, _, err = run_cli("blue", "--model", str(bad), "--n", "4")
        assert code == 2
        assert "validation" in err

    def test_negative_seed_is_a_validation_error(self, model_dir):
        code, out, err = run_cli("simulate", "--model", str(model_dir / "ma1.json"),
                                 "--estimator", "lse", "--n", "4", "--reps", "8",
                                 "--seed", "-1")
        assert code == 2 and "seed" in err and out == ""

    @pytest.mark.parametrize("reps", ["1", "2"])
    def test_too_few_replicates_is_a_validation_error(self, model_dir, reps):
        """The jackknife leaves one replicate out of a variance, so it needs 3."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli("simulate", "--model", str(model_dir / "ma1.json"),
                                     "--estimator", "lse", "--n", "4", "--reps", reps,
                                     "--seed", "1")
        assert code == 2 and out == ""
        assert err == "validation error: the jackknife needs at least 3 replicates\n"

    def test_overflowing_probe_is_one_line(self, model_dir):
        """Powers of the probe that overflow reach the not-finite check with no
        numpy warning before its line."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli("christoffel", "--model", str(model_dir / "f1.json"),
                                     "--n", "8", "--probe", "1e308+1e308j")
        assert code == 3 and out == ""
        assert err == "numerical-accuracy error: result is not finite\n"

    @pytest.mark.parametrize("subcommand", ["classify", "covariance"])
    def test_infinite_singular_exponent_is_one_line(self, tmp_path, subcommand):
        """An infinite Fisher-Hartwig exponent is refused on reading the model,
        before any numpy warning."""
        path = tmp_path / "fh.json"
        path.write_text(json.dumps({"variant": "fisher_hartwig", "base": {"variant": "white_noise"},
                                    "points": [[0, "inf"]]}))
        argv = [subcommand, "--model", str(path)] + (["--n", "4"] if subcommand != "classify" else [])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(*argv)
        assert code == 2 and out == ""
        assert err == "validation error: alpha must be finite with alpha > -1/2\n"

    def test_pole_off_the_axis_is_one_line(self, tmp_path):
        """Grading onto a Fisher-Hartwig pole at 1 puts nodes on it in double:
        the non-finite density is refused, naming the angle, with no numpy
        warning before its line."""
        path = tmp_path / "fh.json"
        path.write_text(json.dumps({"density": {
            "variant": "fisher_hartwig", "base": {"variant": "white_noise"},
            "points": [[1.0, -0.3], [-1.0, -0.3]]}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli("covariance", "--model", str(path), "--n", "64")
        assert code == 3 and out == ""
        assert err == ("numerical-accuracy error: density is not finite at 53 quadrature "
                       "nodes graded onto its singular angle 1\n")

    def test_curve_out_of_range_is_one_line(self, tmp_path):
        """At a subnormal scale 1 / r(0) overflows: the double-double curve is
        refused as a variance loss, with no numpy warning before its line."""
        path = tmp_path / "wn.json"
        path.write_text(json.dumps({"variant": "white_noise", "level": 1e-311}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli("decay", "--model", str(path), "--n-grid", "8:32:8")
        assert code == 3 and out == ""
        assert err == ("numerical-accuracy error: variance loss at order 0 in "
                       "double-double precision\n")

    @pytest.mark.parametrize("precision", ["double", "auto", "dd"])
    def test_decay_names_why_no_order_is_reachable(self, tmp_path, precision):
        """When the pass stops before any grid point, decay names the stop, in
        the arithmetic it last ran in, not only that no point is reachable."""
        line = ("variance out of double range at order 0" if precision == "double"
                else "variance loss at order 0 in double-double precision")
        path = tmp_path / "wn.json"
        path.write_text(json.dumps({"variant": "white_noise", "level": 1e-311}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli("decay", "--model", str(path), "--n-grid", "8:32:8",
                                     "--precision", precision)
        assert code == 3 and out == ""
        assert err == f"numerical-accuracy error: {line}\n"

    def test_solution_out_of_range_is_one_line(self, tmp_path):
        """At a subnormal scale the double pass's x overflows: the BLUE refuses
        it before refinement, with no numpy warning before its line."""
        path = tmp_path / "wn.json"
        path.write_text(json.dumps({"variant": "white_noise", "level": 1e-311}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli("blue", "--model", str(path), "--n", "8")
        assert code == 3 and out == ""
        assert err == "numerical-accuracy error: solution out of double range at order 8\n"

    def test_christoffel_out_of_range_is_one_line(self, tmp_path):
        """At a subnormal scale the reciprocal Christoffel sums read 0: the
        curve is refused, not printed, with no numpy warning before its line."""
        path = tmp_path / "wn.json"
        path.write_text(json.dumps({"variant": "white_noise", "level": 1e-311}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli("christoffel", "--model", str(path), "--n", "8")
        assert code == 3 and out == ""
        assert err == "numerical-accuracy error: Christoffel value out of double range at order 0\n"

    @pytest.mark.parametrize("model", [
        {"variant": "power_at_origin", "alpha": -0.26},
        {"variant": "arfima", "d": 0.38, "base": {"variant": "white_noise"}},
        {"variant": "product", "left": {"variant": "fgn", "hurst": 0.67},
         "right": {"variant": "power_at_origin", "alpha": 0.115}},
    ])
    def test_shift_by_zero_answers_as_the_model(self, tmp_path, model):
        """A shift by 0 leaves every angle as it is, so graded nodes near the
        pole stay off it: the sample-mean variance is the bare model's."""
        bare, shifted = tmp_path / "bare.json", tmp_path / "shifted.json"
        bare.write_text(json.dumps(model))
        shifted.write_text(json.dumps({"variant": "frequency_shifted", "model": model,
                                       "shift": 0.0}))
        argv = ("variance", "--estimator", "lse", "--n", "1024", "--model")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = [run_json(*argv, str(path))["result"] for path in (shifted, bare)]
        assert results[0] == results[1]

    def test_memory_error_is_two(self, model_dir, monkeypatch):
        """An order too large for memory is refused like any invalid input."""
        def exhausted(*args, **kwargs):
            raise MemoryError
        monkeypatch.setattr("statmean.toeplitz.system_for", exhausted)
        code, out, err = run_cli("blue", "--model", str(model_dir / "whitenoise.json"),
                                 "--n", "100000000")
        assert code == 2 and out == ""
        assert err == "validation error: --n 100000000 needs more memory than is available\n"

    def test_accuracy_error_is_three(self, model_dir):
        code, _, err = run_cli("blue", "--model", str(model_dir / "arc.json"),
                               "--n", "64")
        assert code == 3
        assert "accuracy" in err

    @pytest.mark.parametrize("argv, expected", [
        # unreadable inputs are validation errors
        (("blue", "--model", "{tmp}/missing.json", "--n", "4"), 2),
        (("blue", "--model", "{tmp}/malformed.json", "--n", "4"), 2),
        (("--config", "{tmp}/missing.json", "blue", "--model", "{models}/f1.json",
          "--n", "4"), 2),
        # a breakdown of the shared pass is a trivial measure on the OPUC route
        (("christoffel", "--model", "{models}/arc.json", "--n", "64"), 2),
        # a flag the chosen law or mode needs is a usage error
        (("efficiency", "--law", "eq7.8"), 1),
        (("efficiency", "--law", "eq7.8", "--alpha", "0"), 1),
        (("efficiency", "--law", "eq3.3"), 1),
        (("efficiency", "--law", "beran-kunsch"), 1),
        (("efficiency", "--law", "samarov-taqqu", "--alpha", "0.2"), 1),
        (("efficiency", "--finite", "--model", "{models}/f1.json", "--estimator", "lse"), 1),
        (("asymptote", "--law", "general"), 1),
        (("asymptote", "--law", "short-memory"), 1),
        (("asymptote", "--law", "underestimation", "--model", "{models}/f1.json"), 1),
        # a malformed flag value is a usage error
        (("decay", "--model", "{models}/arc.json", "--n-grid", "abc"), 1),
        (("christoffel", "--model", "{models}/f1.json", "--n", "8", "--probe", "xyz"), 1),
        (("chebyshev", "--arcs", "foo", "--n-grid", "4:8:4"), 1),
        (("chebyshev", "--arcs", "0.1pi:0.2pi", "--n-grid", "4:0:0"), 1),
        # values argparse accepts and the computation refuses
        (("chebyshev", "--arcs", "0:0", "--n-grid", "4"), 2),
        (("asymptote", "--law", "underestimation", "--model", "{models}/f1.json",
          "--alpha", "nan"), 2),
        (("asymptote", "--law", "underestimation", "--model", "{models}/f1.json",
          "--alpha", "1.5"), 2),
        (("weights", "--estimator", "adenstedt", "--alpha", "inf", "--n", "3"), 2),
        (("asymptote", "--law", "general", "--alpha", "0.3", "--g0", "inf"), 2),
        (("christoffel", "--model", "{models}/f1.json", "--n", "8", "--probe", "nanj"), 2),
        # a finite probe whose powers overflow is a numerical failure
        (("christoffel", "--model", "{models}/f1.json", "--n", "8", "--probe", "1e308+1e308j"),
         3),
        # alpha must be finite with alpha > -1/2 wherever it is read
        (("efficiency", "--law", "eq7.8", "--alpha", "inf", "--beta", "1"), 2),
        (("efficiency", "--law", "eq3.3", "--alpha", "inf"), 2),
        (("efficiency", "--law", "samarov-taqqu", "--n", "8", "--alpha", "inf"), 2),
        (("asymptote", "--alpha", "inf"), 2),
        # pseudo-best weights need a nondeterministic design
        (("weights", "--estimator", "pseudo-best", "--model", "{models}/arc.json", "--n", "8"), 2),
        # the expansion is stated for finite |alpha| <= 0.2 only
        (("efficiency", "--law", "beran-kunsch", "--alpha", "nan"), 2),
    ])
    def test_exit_code_without_traceback(self, model_dir, tmp_path, argv, expected):
        (tmp_path / "malformed.json").write_text('{"variant": ')
        argv = [a.format(tmp=tmp_path, models=model_dir) for a in argv]
        code, _, err = run_cli(*argv)
        assert code == expected, err
        assert "Traceback" not in err
        if expected == 1:
            assert "usage error" in err

    def test_chebyshev_below_the_double_range(self):
        """The exact deviation, about 1e-421, is refused with exit 3 and a
        message that says so, not "math range error" after numpy warnings."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli("chebyshev", "--arcs", "0.99pi:pi,-pi:-0.99pi",
                                     "--n-grid", "200")
        assert code == 3, err
        assert err == ("numerical-accuracy error: minimax deviation 2 rho^n / (1 + rho^2n) "
                       "~ 1e-421 at n = 200 is below what double can represent\n")
        assert out == ""

    def test_chebyshev_odd_order_below_the_double_range(self):
        """n = 199 is bounded by n = 198 and refused before Lawson runs."""
        started = time.perf_counter()
        code, out, err = run_cli("chebyshev", "--arcs", "0.99pi:pi,-pi:-0.99pi",
                                 "--n-grid", "199")
        assert time.perf_counter() - started < 2.0
        assert code == 3, err
        assert "at n = 198, which bounds it at n = 199, is below what double" in err
        assert out == ""

    def test_empty_finite_grid_is_a_validation_error(self, model_dir):
        """As in decay and chebyshev, an empty order grid exits 2."""
        code, out, err = run_cli("efficiency", "--finite", "--model", str(model_dir / "f1.json"),
                                 "--estimator", "lse", "--n-grid", "4:0:1")
        assert code == 2 and "validation error" in err, err
        assert "Traceback" not in err and '"efficiency"' not in out


    @pytest.mark.parametrize("doc", [
        {"variant": "power_at_origin"},
        {"variant": "power_at_origin", "alpha": "x"},
        {"variant": "arc_supported", "alpha": "zpi"},
        {"variant": "arma", "ma": 5},
        {"variant": "product", "left": {"variant": "white_noise"}},
        {"density": {"variant": "white_noise"}, "atoms": [[0.0]]},
        3,
        {"density": {"variant": "white_noise"}, "atoms": [["nan", 0.5]]},
        {"variant": "fisher_hartwig", "base": {"variant": "white_noise"},
         "points": [["nan", 0.3]]},
        {"variant": "fgn", "hurst": 1.5},
    ])
    @pytest.mark.parametrize("subcommand", ["classify", "covariance"])
    def test_malformed_model_document_exits_two(self, tmp_path, doc, subcommand):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        argv = [subcommand, "--model", str(path)] + (["--n", "4"] if subcommand != "classify" else [])
        code, out, err = run_cli(*argv)
        assert code == 2 and "validation error" in err, err
        assert out == ""

    @pytest.mark.parametrize("depth", [400, 3000])
    def test_deeply_nested_model_document_exits_two(self, tmp_path, depth):
        """Past the document depth limit at 400 levels, inside the JSON parser at 3000."""
        text = '{"variant": "white_noise"}'
        for _ in range(depth):
            text = f'{{"variant": "scaled", "factor": 1.0, "model": {text}}}'
        path = tmp_path / "deep.json"
        path.write_text(text)
        code, out, err = run_cli("classify", "--model", str(path))
        assert code == 2 and "validation error" in err, err
        assert out == ""

    def test_unwritable_out_path_exits_two(self, model_dir, tmp_path):
        out_path = tmp_path / "missing-dir" / "x.json"
        code, out, err = run_cli("classify", "--model", str(model_dir / "f1.json"),
                                 "--out", str(out_path))
        assert code == 2 and "validation error" in err, err
        assert out == "" and not out_path.exists()

    @pytest.mark.parametrize("config", [{"n": "abc"}, {"n": 64.5}, {"n": [4]}, {"n": True},
                                        {"format": "xml"}, {"model": {"variant": "arma"}}])
    def test_config_values_are_checked_like_flags(self, model_dir, tmp_path, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict({"model": str(model_dir / "f1.json"), "n": 4}, **config)))
        code, out, err = run_cli("covariance", "--config", str(path))
        assert code == 2 and "validation error" in err, err
        assert out == "" and "Traceback" not in err

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_empty_order_grid_is_a_usage_error(self, model_dir, tmp_path, source):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"n-grid": ""}))
        grid = ("--n-grid", "") if source == "flag" else ("--config", str(path))
        code, out, err = run_cli("efficiency", "--finite", *grid, "--model",
                                 str(model_dir / "f1.json"), "--estimator", "lse")
        assert code == 1 and "malformed order grid" in err and out == ""
        assert "Traceback" not in err

    def test_config_switch_needs_a_boolean(self, model_dir, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"finite": "yes"}))
        code, _, err = run_cli("efficiency", "--config", str(path), "--estimator", "lse",
                               "--model", str(model_dir / "f1.json"), "--n", "4")
        assert code == 2 and "validation error" in err, err

    @pytest.mark.parametrize("doc, argv", [
        ({"variant": "arma", "ma": [1e308, 1e308]}, ["classify"]),
        ({"variant": "arma", "ma": [1e308, 1e308]}, ["covariance", "--n", "4"]),
        ({"variant": "arma", "ma": [1e308, 1e308]}, ["covariance", "--n", "4", "--format", "json"]),
        ({"variant": "arfima", "d": -1e9, "base": {"variant": "white_noise"}},
         ["covariance", "--n", "4"]),
    ])
    def test_non_finite_result_exits_three(self, tmp_path, doc, argv):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        with np.errstate(all="ignore"):
            code, out, err = run_cli(*argv, "--model", str(path))
        assert code == 3 and "numerical-accuracy error" in err, err
        assert out == ""


class TestImports:
    """The runtime needs numpy alone: no command line run loads scipy or
    mpmath, and every function that once took scipy runs without it."""

    def test_variance_loads_neither_scipy_signal_nor_mpmath(self, tmp_path):
        """scipy.signal alone costs about a second of start-up."""
        model = tmp_path / "power.json"          # a long-range r(k): the FFT route
        model.write_text(json.dumps({"variant": "power_at_origin", "alpha": 0.3}))
        script = ("import sys; from statmean.cli import main; "
                  f"code = main(['variance', '--model', {str(model)!r}, "
                  "'--estimator', 'lse', '--n', '1024']); "
                  "print(code, 'scipy.signal' in sys.modules, 'mpmath' in sys.modules)")
        src = str(resources.files("statmean").joinpath("..").resolve())
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, check=True)
        assert done.stdout.split()[-3:] == ["0", "False", "False"], done.stdout + done.stderr

    #: the command line's double-double runs: a power law's weights and an arc's decay
    DD_RUNS = ((["blue", "--n", "24", "--precision", "dd"], "f1.json"),
               (["decay", "--n-grid", "4:24:4", "--precision", "dd"], "arc.json"))

    @staticmethod
    def _python(script):
        src = str(resources.files("statmean").joinpath("..").resolve())
        return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src), check=True).stdout

    def test_dd_runs_without_mpmath(self, model_dir):
        """Every double-double closed form, and the CLI's dd runs, with mpmath
        unimportable."""
        runs = [argv + ["--model", str(model_dir / name)] for argv, name in self.DD_RUNS]
        script = f"""
import math, sys
sys.modules["mpmath"] = None
import statmean as st
from statmean.cli import main
models = [st.PowerAtOrigin(1.55), st.ArcSupported(0.6 * math.pi), st.FlatZero(1.5),
          st.WhiteNoise(0.3), st.Product(st.PowerAtOrigin(0.25), st.Arma((1.0, -0.5))),
          st.FrequencyShifted(st.PowerAtOrigin(0.3), math.pi),
          st.SpectralMeasure(st.WhiteNoise(0.1), ((0.7, 0.5),))]
for model in models:
    cov = st.covariance_sequence(model, 16, precision="dd")
    assert cov.precision == "dd" and cov.lo is not None
print([main(argv) for argv in {runs!r}])
"""
        assert self._python(script).split("\n")[-2] == "[0, 0]"

    def test_dd_runs_load_no_mpmath(self, model_dir):
        for argv, name in self.DD_RUNS:
            script = ("import sys; from statmean.cli import main; "
                      f"code = main({argv + ['--model', str(model_dir / name)]!r}); "
                      "print(code, 'mpmath' in sys.modules)")
            assert self._python(script).split()[-2:] == ["0", "False"], argv

    #: one run of each subcommand, the power law non-integer so that its
    #: covariances carry low parts and the Adenstedt variance takes the FFT route
    RUNS = {"classify": ["--model", "power"],
            "covariance": ["--model", "power", "--n", "300"],
            "blue": ["--model", "power", "--n", "300"],
            "weights": ["--estimator", "adenstedt", "--n", "64", "--alpha", "0.3"],
            "variance": ["--model", "power", "--estimator", "adenstedt", "--alpha", "1.55",
                         "--n", "300"],
            "christoffel": ["--model", "power", "--n", "30"],
            "efficiency": ["--law", "eq7.8", "--alpha", "0.3", "--beta", "1"],
            "asymptote": ["--alpha", "0.3"],
            "chebyshev": ["--arcs", "0.5pi:pi,-pi:-0.5pi", "--n-grid", "8:24:8"],
            "decay": ["--model", "arc", "--n-grid", "4:24:4"],
            "simulate": ["--model", "power", "--estimator", "lse", "--n", "31",
                         "--reps", "2000"]}

    @pytest.fixture
    def argvs(self, model_dir, tmp_path):
        power = tmp_path / "power.json"
        power.write_text(json.dumps({"variant": "power_at_origin", "alpha": 1.55}))
        paths = {"power": str(power), "arc": str(model_dir / "arc.json")}
        return {sub: [sub] + [paths.get(a, a) for a in args] for sub, args in self.RUNS.items()}

    def test_every_subcommand_is_covered(self):
        assert set(self.RUNS) == set(build_parser().subcommands)

    @pytest.mark.parametrize("sub", sorted(RUNS))
    def test_subcommand_loads_no_scipy(self, argvs, sub):
        script = ("import sys; from statmean.cli import main; "
                  f"code = main({argvs[sub]!r}); print(code, 'scipy' in sys.modules)")
        assert self._python(script).split()[-2:] == ["0", "False"]

    def test_runs_with_scipy_unimportable(self, argvs):
        script = f"""
import math, sys
sys.modules["scipy"] = None
import statmean as st
from statmean import covariance, toeplitz
from statmean.cli import main
checks = [covariance.falpha_covariance_array(1.55, 8)[0] > 0,
          st.covariance_exact_falpha(0.3, 5) < 0,
          st.covariance_asymptote_falpha(0.3, 10).value < 0,
          st.adenstedt_weights(64, 1.55).order == 64,
          st.adenstedt_variance_closed_form(64, 1.55) > 0,
          st.gegenbauer_optimal(16, 0.5).shape == (17,),
          0 < st.overestimation_efficiency(0.3, 1) < 1,
          0 < st.lse_asymptotic_efficiency(0.3) < 1,
          st.general_class_asymptote(0.3, 1.0) > 0,
          st.underestimation_limit(1, st.WhiteNoise(0.1)) > 0]
cov = st.covariance_sequence(st.PowerAtOrigin(0.3), 64)
checks.append(toeplitz.quadratic_form(st.lse_weights(64), cov) > 0)      # the FFT branch
checks.append(st.blue_solve(st.system_for(st.PowerAtOrigin(1.55), 64))[1] > 0)
print(all(checks), [main(argv) for argv in {list(argvs.values())!r}])
"""
        last = self._python(script).split("\n")[-2]
        assert last == "True " + str([0] * len(self.RUNS)), last


class TestManifest:
    def test_reproducible_result_payload(self, model_dir, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out1, out2):
            code, _, _ = run_cli("blue", "--model", str(model_dir / "ma1.json"),
                                 "--n", "32", "--out", str(out))
            assert code == 0
        a = json.loads(out1.read_text())
        b = json.loads(out2.read_text())
        assert a["result"] == b["result"]        # bit-for-bit payload
        assert a["manifest"]["parameters"] == b["manifest"]["parameters"]

    def test_config_file_supplies_defaults(self, model_dir, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n": 9}))
        doc = run_json("blue", "--config", str(config),
                       "--model", str(model_dir / "whitenoise.json"))
        assert doc["result"]["n"] == 9
        # explicit flag wins over the config value
        doc = run_json("blue", "--config", str(config),
                       "--model", str(model_dir / "whitenoise.json"), "--n", "4")
        assert doc["result"]["n"] == 4

    def test_abbreviated_flag_is_a_usage_error(self, model_dir, tmp_path):
        """An abbreviation would not count as explicit and would lose to the
        config, so only the full spelling is accepted, and it wins."""
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n-grid": "8:16:8"}))
        model = ("--model", str(model_dir / "whitenoise.json"))
        code, out, err = run_cli("decay", *model, "--n-gr", "8:40:8", "--config", str(config))
        assert code == 1 and "usage error" in err and out == "", err
        doc = run_json("decay", *model, "--n-grid", "8:40:8", "--config", str(config))
        assert doc["result"]["orders"] == [8, 16, 24, 32, 40]

    def test_config_values_convert_as_typed(self, model_dir, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n": "9", "precision": "double", "unknown": [1]}))
        doc = run_json("blue", "--config", str(config),
                       "--model", str(model_dir / "whitenoise.json"))
        assert doc["result"]["n"] == 9 and doc["manifest"]["parameters"]["n"] == 9

    def test_config_before_or_after_the_subcommand(self, model_dir, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n": 9, "model": str(model_dir / "whitenoise.json")}))
        before = run_json("--config", str(config), "blue")
        after = run_json("blue", "--config", str(config))
        assert before["result"] == after["result"]
        assert before["manifest"]["parameters"] == after["manifest"]["parameters"]

    def test_out_file_written(self, model_dir, tmp_path):
        target = tmp_path / "cov.csv"
        code, out, _ = run_cli("covariance", "--model", str(model_dir / "ma1.json"),
                               "--n", "4", "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_text().startswith("# ")
