"""Property tests of the command line: whatever the model document or the
flags, `main` returns an exit code in {0, 1, 2, 3} without an exception
escaping, and its JSON output validates against schema.json."""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from importlib import resources

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hst

import statmean as st
from statmean.cli import main

jsonschema = pytest.importorskip("jsonschema")

SCHEMA = json.loads(resources.files("statmean").joinpath("schema.json").read_text())
VARIANTS = {cls.variant: cls for cls in st.SpectralModel.__subclasses__()}
FUZZ = settings(max_examples=150, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])

#: values a document field may hold: sensible numbers, extremes, angles with
#: the pi suffix, and every JSON type that is wrong for a number
SCALARS = hst.one_of(
    hst.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e9, -1.0, 0.0, 0.25, 0.5, 1, 2,
                      "x", "0.5pi", "pi", "-pi", "nanpi", "1e308pi", "0.3", "", None, True,
                      [], {}, [0.5, 0.2]]),
    hst.floats(-3.0, 3.0),
    hst.integers(-3, 300),
)
PAIRS = hst.lists(hst.one_of(hst.lists(SCALARS, max_size=3), SCALARS), max_size=3)


@hst.composite
def model_documents(draw, depth=0):
    variant = draw(hst.sampled_from(sorted(VARIANTS) + ["nope"]))
    doc = {"variant": variant}
    for f in fields(VARIANTS.get(variant, st.WhiteNoise)):
        if draw(hst.integers(0, 6)) == 0:
            continue                                   # a missing field
        if f.type == "SpectralModel" and depth < 2 and draw(hst.integers(0, 4)):
            doc[f.name] = draw(model_documents(depth + 1))
        elif f.type.startswith("tuple[tuple"):
            doc[f.name] = draw(PAIRS)
        elif f.type.startswith("tuple"):
            doc[f.name] = draw(hst.one_of(hst.lists(SCALARS, max_size=4), SCALARS))
        else:
            doc[f.name] = draw(SCALARS)
    return doc


MEASURE_DOCUMENTS = hst.one_of(
    model_documents(),
    hst.fixed_dictionaries({"density": model_documents()}, optional={"atoms": PAIRS}),
    hst.sampled_from([3, [], "x", None, {"density": 3}]),
)

ORDERS = hst.one_of(hst.integers(0, 32).map(str), hst.sampled_from(["-1", "abc", "4.5", "1e1", ""]))
GRIDS = hst.one_of(
    hst.lists(hst.integers(-2, 32), max_size=3).map(lambda xs: ":".join(map(str, xs))),
    hst.lists(hst.integers(-2, 32), max_size=4).map(lambda xs: ",".join(map(str, xs))),
    hst.sampled_from(["abc", "4:0:0", "8:4", "4:8:-1", "1:2:3:4", ",", "4.5", "pi", " 8"]),
)
PROBES = hst.sampled_from(["1.0", "0.3+0.1j", "-1", "1j", "0", "2", "xyz", "", "nan", "inf",
                           "1e308", "0.5+nanj"])
ARCS = hst.sampled_from(["0.5pi:pi,-pi:-0.5pi", "0.3pi:0.6pi", "pi:0.5pi", "-pi:pi", "0:0",
                         "nan:pi", "0.5pi", "1:2:3", "0.5pi:pi,", "foo", "", "0.5pi:7"])
SMALL_GRIDS = hst.one_of(hst.lists(hst.integers(-2, 6), max_size=3).map(
    lambda xs: ",".join(map(str, xs))), hst.sampled_from(["2:6:2", "abc", "4:0:0", ""]))


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    docs = {"model": {"variant": "power_at_origin", "alpha": 0.3},
            "arc": {"variant": "arc_supported", "alpha": "0.5pi", "level": 0.159},
            "atoms": {"density": {"variant": "white_noise", "level": 0.1}, "atoms": [[0, 0.5]]},
            "bad": {"variant": "arma", "ma": "x"}}
    for name, doc in docs.items():
        (root / f"{name}.json").write_text(json.dumps(doc))
    return root


def check_run(argv):
    """Run the command line in-process and check its exit code and output."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), np.errstate(all="ignore"):
        code = main([str(a) for a in argv])
    assert code in (0, 1, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
    text = out.getvalue()
    if code != 0:
        assert text == "", text
    elif text.startswith("{"):
        jsonschema.validate(json.loads(text), SCHEMA)
    else:
        manifest = json.loads(text.splitlines()[0][2:])
        jsonschema.validate(manifest, SCHEMA["properties"]["manifest"])
        assert all("nan" not in row and "inf" not in row for row in text.splitlines()[1:])
    return code


@FUZZ
@given(doc=MEASURE_DOCUMENTS,
       tail=hst.sampled_from([["classify"], ["covariance", "--n", "6"],
                              ["covariance", "--n", "6", "--format", "json"],
                              ["blue", "--n", "6"], ["blue", "--n", "6", "--precision", "dd"],
                              ["decay", "--n-grid", "2:12:2"]]))
def test_any_model_document_exits_cleanly(files, doc, tail):
    path = files / "doc.json"
    path.write_text(json.dumps(doc))
    check_run([tail[0], "--model", path, *tail[1:]])


@FUZZ
@given(data=hst.data())
def test_any_flags_exit_cleanly(files, data):
    sub = data.draw(hst.sampled_from(["classify", "covariance", "blue", "decay",
                                      "christoffel", "chebyshev"]))
    argv = [sub]
    if sub != "chebyshev":
        model = data.draw(hst.sampled_from(["model", "arc", "atoms", "bad", "missing"]))
        argv += ["--model", files / f"{model}.json"]
    if sub in ("covariance", "blue", "christoffel"):
        argv += ["--n", data.draw(ORDERS)]
    if sub == "covariance" and data.draw(hst.booleans()):
        argv += ["--format", data.draw(hst.sampled_from(["csv", "json", "xml"]))]
    if sub in ("blue", "decay") and data.draw(hst.booleans()):
        argv += ["--precision", data.draw(hst.sampled_from(["double", "dd", "auto", "quad"]))]
    if sub == "decay":
        argv += ["--n-grid", data.draw(GRIDS)]
    if sub == "christoffel" and data.draw(hst.booleans()):
        argv += ["--probe", data.draw(PROBES)]
    if sub == "chebyshev":
        argv += ["--arcs", data.draw(ARCS), "--n-grid", data.draw(SMALL_GRIDS)]
    check_run(argv)


NUMBERS = hst.sampled_from(["0.3", "-0.25", "1.5", "0", "2", "-0.5", "-1", "0.49", "nan", "inf",
                            "-inf", "1e308", "abc", ""])
SMALL_ORDERS = hst.one_of(hst.integers(0, 32).map(str), hst.sampled_from(["-1", "abc", "4.5", ""]))
ESTIMATORS = hst.sampled_from(["lse", "parabolic", "adenstedt", "blue", "pseudo-best", "nope"])


@pytest.mark.parametrize("sub", ["weights", "variance", "efficiency-law", "efficiency-finite",
                                 "asymptote", "simulate"])
@FUZZ
@given(data=hst.data())
def test_other_subcommands_exit_cleanly(files, sub, data):
    """Flags of the remaining subcommands, drawn present or absent, valid or
    not, with n <= 32 and at most 64 Monte Carlo replicates."""
    def draw(flag, values, always=False):
        if always or data.draw(hst.integers(0, 5)):
            argv.extend([flag, data.draw(values)])

    doc = files / "doc.json"
    doc.write_text(json.dumps(data.draw(MEASURE_DOCUMENTS)))
    models = hst.sampled_from([files / f"{m}.json" for m in ("model", "arc", "atoms", "bad",
                                                             "missing", "doc")])
    argv = [sub.split("-")[0]]
    if sub == "efficiency-law":
        draw("--law", hst.sampled_from(["eq7.8", "eq3.3", "beran-kunsch", "samarov-taqqu",
                                        "nope"]), always=True)
        draw("--beta", hst.sampled_from(["1", "2", "3", "0", "-1", "x"]))
    if sub == "efficiency-finite":
        argv.append("--finite")
        draw("--n-grid", SMALL_GRIDS)
    if sub == "asymptote":
        draw("--law", hst.sampled_from(["general", "short-memory", "underestimation", "nope"]))
        draw("--g0", NUMBERS)
    if sub != "asymptote":
        draw("--n", SMALL_ORDERS)
    if sub != "efficiency-law":
        draw("--model", models)
    if sub not in ("efficiency-law", "asymptote"):
        draw("--estimator", ESTIMATORS)
    if sub == "simulate":
        draw("--reps", hst.integers(-1, 64).map(str), always=True)
        draw("--seed", hst.sampled_from(["0", "7", "-1", "x"]))
    draw("--alpha", NUMBERS)
    check_run(argv)
