import json
from dataclasses import replace

import numpy as np
import pytest

from flowcurv import expr, get_model

def chua3_like(name, first_rhs, third_rhs="-beta*x2"):
    """A config of the 3-D circuit's form with its first and third rhs replaced."""
    return {"name": name, "dim": 3, "params": {"alpha": 9.0, "beta": 14.0, "a": -1.1, "b": -0.7},
            "rhs": [first_rhs, "x1 - x2 + x3", third_rhs]}


# model configs that several test modules load
ROTATION = {"name": "rotation", "dim": 2, "params": {}, "rhs": ["-x2", "x1"]}
TWO_PWL = {"name": "two-pwl", "dim": 3, "params": {"a": -8.0 / 7.0, "b": -5.0 / 7.0},
           "rhs": ["x2 - pwl(x1; a, b)", "x1*x3 - pwl(x2 + x3; b, a)^2",
                   "-x1 + 0.5*x2*x2 - 2*x3"]}
POWERS = {"name": "powers", "dim": 3, "params": {},
          "rhs": ["x1^0 + x2^7", "x1^1*x2 - x3 + 2^3*x1", "x2^7 - x1^0*x3 - (x3 - x1)^2"]}
# the 3-D circuit with a second pwl term, on x2
CHUA3_TWO_PWL = {"name": "two-pwl", "dim": 3,
                 "params": {"alpha": 9.0, "beta": 14.0, "a": -1.1, "b": -0.7},
                 "rhs": ["alpha*(x2 - x1 - pwl(x1; a, b))", "x1 - x2 + x3 - pwl(x2; a, b)",
                         "-beta*x2"]}
# powers 0, 1, 2, 3, 5 and 7 and a cubed pwl term in the 3-D circuit
CHUA3_POWERS = {"name": "powers", "dim": 3,
                "params": {"alpha": 9.0, "beta": 14.0, "a": -1.1, "b": -0.7},
                "rhs": ["alpha*(x2 - x1^1 - pwl(x1; a, b)) - 0.01*x1^7 + 0.1*pwl(x1; a, b)^3",
                        "x1 - x2 + x3 + 0.01*x2^2 - 0.001*x2^5",
                        "-beta*x2 + 0.5*x3^0 - 0.01*x3^3"]}
# x1 and x2 never move: their coefficients above order 0 are +0.0 and -0.0.
# Each other component applies one node rule to them on its own, so the zero
# sign that rule gives shows up unchanged in that component's derivatives
# (random states rarely expose it elsewhere: a product's coefficient j > 0
# sums j + 1 terms, and adding a +0.0 term hides a -0.0).
ZERO_SIGNS = {"name": "zero-signs", "dim": 10, "params": {"a": -8.0 / 7.0, "b": -5.0 / 7.0},
              "rhs": ["x1 - x1", "-(x1 - x1)", "x2^1", "1 - x1", "x2 - 1", "x2 + 1",
                      "pwl(x1; a, b)", "pwl(x2; a, b)", "2*x2", "x2*x1"]}
# The first pwl argument is 0.25 x1: region_box clamps x1 to |x1| > 4.2 for
# the outer branches, and the TLS planes sit at virtual fixed points
# x1 = +-0.48, where no plane point lies in the plane's own region.
QUARTER = chua3_like("quarter", "alpha*(x2 - x1 - pwl(0.25*x1; a, b))")


@pytest.fixture(scope="session")
def models_by_name():
    from flowcurv import registry
    return {name: get_model(name) for name in registry()}


@pytest.fixture(scope="session")
def chua3():
    return get_model("chua3-pwl")


@pytest.fixture(scope="session")
def chua4():
    return get_model("chua4-pwl")


@pytest.fixture(scope="session")
def chua5():
    return get_model("chua5-pwl")


@pytest.fixture(scope="session")
def gear():
    return get_model("gear5")


def in_region_points(model, region, count, seed=0):
    """Random points that classify into `region` (rejection sampled)."""
    from flowcurv.models import region_box
    rng = np.random.default_rng(seed)
    lo, hi = region_box(model, region)
    points = []
    while len(points) < count:
        x = rng.uniform(lo, hi)
        if model.classify(x) == region:
            points.append(x)
    return points


def reversed_model(model):
    """The model with its vector field negated (backward flow as a model)."""
    return replace(model, name=model.name + "-reversed",
                   rhs_exprs=tuple(expr.Neg(e) for e in model.rhs_exprs))


def with_attrs(model, **attrs):
    """A copy of `model` whose instance attributes `attrs` override the class's
    methods and cached properties (`velocity`, `dp_step`, ...)."""
    copy = replace(model)
    vars(copy).update(attrs)
    return copy


def assert_same_bits(a, b):
    """`a` and `b` hold the same values with the same zero and NaN signs, in
    the same dtype and shape.  No `tobytes()`: the padding bytes of a
    longdouble are undefined."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(np.signbit(a), np.signbit(b))


def strict_json(text):
    """`text` parsed as strict JSON: NaN, Infinity and -Infinity are errors."""
    def reject(token):
        raise ValueError(f"{token} is not strict JSON")

    return json.loads(text, parse_constant=reject)
