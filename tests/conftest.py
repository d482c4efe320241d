from dataclasses import replace

import numpy as np
import pytest

from flowcurv import expr, get_model


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
