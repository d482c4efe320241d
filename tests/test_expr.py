"""Expression grammar: parsing, evaluation, differentiation."""

import numpy as np
import pytest

from dataclasses import replace

from flowcurv import derivative_stack, expr, get_model, load_model, manifold, registry
from flowcurv.expr import (Add, Const, ExprError, Mul, Node, Pow, Pwl, PwlSlope, TaylorMemo,
                           Var, compile_step, evaluate, parse_expression, pwl_args, walk)

from conftest import TWO_PWL, assert_same_bits
from oracles import reference_eval
from test_taylor import _states

VARS3 = {"x1": 0, "x2": 1, "x3": 2}


def parse(text, params=None):
    node, _ = parse_expression(text, VARS3, params or {})
    return node


def test_basic_arithmetic():
    node = parse("x1 + 2*x2 - x3^2")
    assert node.eval([1.0, 2.0, 3.0]) == 1 + 4 - 9


def test_params_fold_to_constants():
    node = parse("a*x1 + b", {"a": 2.5, "b": -1.0})
    assert node.eval([2.0, 0.0, 0.0]) == 4.0


def test_power_variants():
    assert parse("x1**3").eval([2.0, 0, 0]) == 8.0
    assert parse("x1^3").eval([2.0, 0, 0]) == 8.0
    with pytest.raises(ExprError, match="integer"):
        parse("x1^1.5")


def test_unicode_operators():
    node = parse("x1 − x2 · x3")  # minus sign, middle dot
    assert node.eval([5.0, 2.0, 3.0]) == -1.0


def test_pwl_branches_and_tie_break():
    node = parse("pwl(x1; a, b)", {"a": -8 / 7, "b": -5 / 7})
    a, b = -8 / 7, -5 / 7
    assert node.eval([0.0, 0, 0]) == 0.0
    assert node.eval([1.5, 0, 0]) == pytest.approx(-1.5, abs=1e-15)
    assert node.eval([-1.5, 0, 0]) == pytest.approx(1.5, abs=1e-15)
    assert node.eval([-1.5, 0, 0]) == -node.eval([1.5, 0, 0])
    # |x1| = 1: middle branch by convention; the value is branch-independent
    assert node.eval([1.0, 0, 0]) == a
    # middle-branch Jacobian at the breakpoint
    slope = node.diff(0)
    assert slope.eval([1.0, 0, 0]) == a
    assert slope.eval([1.0 + 1e-12, 0, 0]) == b


def test_pwl_region_pinning():
    node = parse("pwl(x1; a, b)", {"a": -0.42, "b": 1.2})
    x = [0.5, 0, 0]
    assert node.eval(x) == -0.42 * 0.5
    assert node.eval(x, region="pos") == 1.2 * (0.5 - 1.0) + (-0.42)


def test_diff_matches_finite_differences():
    params = {"a": -1.246, "b": -0.6724, "c": 0.37}
    exprs = ["a*(x2 - x1 - pwl(x1; a, b))", "x1*x2*x3 - c*x2^3", "x3*(x1 - 2)^2"]
    rng = np.random.default_rng(0)
    h = 1e-6
    for text in exprs:
        node = parse(text, params)
        for _ in range(20):
            x = rng.uniform(1.2, 2.0, 3)  # stay inside one pwl region
            for i in range(3):
                xp = x.copy(); xp[i] += h
                xm = x.copy(); xm[i] -= h
                fd = (node.eval(xp) - node.eval(xm)) / (2 * h)
                assert node.diff(i).eval(x) == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_taylor_order0_matches_eval():
    # coefficient 0 is the plain value bit for bit; coefficient 1 is the
    # derivative along the state's coefficient 1, as `diff` gives it
    node = parse("x1^3 - 2*x1*x2 + pwl(x1; a, b)", {"a": -0.42, "b": 1.2})
    x = np.array([1.7, 0.3, 0.0])
    v = np.array([0.5, -1.25, 2.0])
    c0, c1 = TaylorMemo(np.array([x, v])).series(node, 1)
    assert c0 == reference_eval(node, x) == node.eval(x)
    grad = [node.diff(i).eval(x) for i in range(3)]
    assert c1 == pytest.approx(np.dot(grad, v), rel=1e-14)


@pytest.mark.parametrize("name", registry())
def test_taylor_order0_is_eval_bit_for_bit(name):
    # float64 states with +-0.0 coordinates: a product's coefficient 0 is
    # the value a * b, so a -0.0 product keeps its sign (from 0.0 it would not)
    model = get_model(name)
    x = _states(model, 2000, seed=11)
    region = model.classify(x)
    memo = TaylorMemo(x[None], region)
    for node in walk(model.rhs_exprs):
        assert_same_bits(np.broadcast_to(memo.series(node, 0)[0], x.shape[1:]),
                         np.broadcast_to(reference_eval(node, x, region), x.shape[1:]))
    assert_same_bits(derivative_stack(model, x, 1).derivs[0], model.velocity(x))
    for point in x.T[:50]:
        assert_same_bits(derivative_stack(model, point, 1).derivs[0], model.velocity(point))


def _reachable(trees):
    seen, pending = {}, list(trees)
    while pending:
        node = pending.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            pending += node.children
    return seen


@pytest.mark.parametrize("trees", [
    [parse("(x1 - 0.1*x2)^5 + pwl(x1 + x3; 2, 3)^3 - x3^0")],
    list(load_model(TWO_PWL).jac_exprs[1]),
    [e for row in get_model("chua4-cubic").jac_exprs for e in row],
], ids=["composite-power", "two-pwl-jacobian", "chua4-cubic-jacobian"])
def test_walk_visits_each_node_once_children_first(trees):
    order = list(walk(trees))
    position = {id(node): k for k, node in enumerate(order)}
    assert len(position) == len(order)
    assert position.keys() == _reachable(trees).keys()
    for node in order:
        assert all(position[id(child)] < position[id(node)] for child in node.children)


def test_power_children_are_its_base():
    # the structure a power is written with, not its product tree: x^0
    # keeps its base's pwl term
    base = parse("pwl(x1 + x3; 2, 3) - x2")
    for k in (0, 1, 5):
        assert Pow(base, k).children == (base,)
    assert pwl_args([Pow(base, 0)]) == (base.left.arg,)


def _old_pwl_nodes(node):
    """The retired per-class `pwl_nodes` recursion."""
    if isinstance(node, Pwl):
        return _old_pwl_nodes(node.arg) + [node]
    if isinstance(node, Pow):
        return _old_pwl_nodes(node.base)
    if hasattr(node, "left"):
        return _old_pwl_nodes(node.left) + _old_pwl_nodes(node.right)
    return _old_pwl_nodes(node.arg) if hasattr(node, "arg") else []


@pytest.mark.parametrize("name", list(registry()) + ["two-pwl"])
def test_pwl_args_unchanged(name):
    model = load_model(TWO_PWL) if name == "two-pwl" else get_model(name)
    nodes = sorted((p for e in model.rhs_exprs for p in _old_pwl_nodes(e)),
                   key=lambda p: p.node_id)
    assert pwl_args(model.rhs_exprs) == tuple(p.arg for p in nodes)


def test_compile_step_shared_nodes_and_powers():
    # a node shared by several trees is computed once per stage; a power
    # emits its product tree, so each stage value equals `eval` bit for bit.
    # x1..x3, the only components the trees read, have a zero rhs, so with
    # k1 = 0 and h = -1 every stage input is x itself there (x + -0.0 keeps
    # -0.0, inf and NaN): k2..k7 are the field's `eval` at x, and x_new is
    # x + h * (0.0 + b1 * 0.0 + b3 * f + ... + b6 * f), which reads k3..k6
    base = parse("x1 - 0.1*x2")
    trees = [Pow(base, k) for k in range(10)] + [Add(base, base), parse("pwl(x3; 2, 3)")]
    field = [Const(0.0)] * 3 + trees
    step = compile_step(field)
    weights = [w for w in expr._DP_A[-1] if w != 0.0]  # x_new's, of k1 and k3..k6
    for x in ([1.1, -0.3, 1.0], [-0.0, 0.0, -1.0], [1e155, 1.0, float("nan")]):
        state = x + [0.0] * len(trees)
        values = [float(t.eval(x)) for t in field]
        x_new, _, k7, _ = step(state, [0.0] * len(field), -1.0, 1e-9, 1e-12)
        assert [float.hex(v) for v in k7] == [float.hex(v) for v in values]
        want = []
        for s, f in zip(state, values):
            acc = 0.0 + weights[0] * 0.0  # left to right, as the step sums
            for w in weights[1:]:
                acc = acc + w * f
            want.append(float.hex(s + -1.0 * acc))
        assert [float.hex(v) for v in x_new] == want


@pytest.mark.parametrize("k", range(13))
def test_power_is_the_product_tree_of_its_square_and_multiply(k):
    # one Mul per square and per product after the first (1.0 * base is the
    # base itself), each square a single node that its readers share
    base = parse("x1 - 0.1*x2")
    power = Pow(base, k)
    if k == 0:
        assert isinstance(power.tree, Const) and power.tree.value == 1.0
        return
    products, pending = {}, [power.tree]
    while pending:
        node = pending.pop()
        if node is not base and id(node) not in products:
            assert isinstance(node, Mul)
            products[id(node)] = node
            pending += [node.left, node.right]
    squares = [node for node in products.values() if node.left is node.right]
    assert len(squares) == k.bit_length() - 1
    assert len(products) == len(squares) + bin(k).count("1") - 1
    assert Pow(Var(0), k).eval([3.0]) == 3.0 ** k
    assert repr(power) == f"({base!r}^{k})"


def test_power_rejects_a_negative_exponent():
    with pytest.raises(ValueError, match="negative"):
        Pow(Var(0), -1)


def test_taylor_memo_keys_are_nodes():
    # a power's products are the nodes of its tree, each memoized under itself
    node = parse("x1^5 + (x2 - x3)^2")
    memo = TaylorMemo(np.array([[0.3, 0.7, -1.0], [1.0, -2.0, 0.5], [0.5, 0.25, 2.0]]))
    memo.series(node, 2)
    assert all(isinstance(key, Node) for key in memo)
    assert node.left.tree in memo and node.right.tree in memo


def test_parse_error_positions():
    with pytest.raises(ExprError, match="line 1, column 6"):
        parse("x1 + @")
    with pytest.raises(ExprError, match="unknown symbol 'y'"):
        parse("x1 + y")
    with pytest.raises(ExprError, match="trailing"):
        parse("x1 x2")


def test_pwl_requires_constant_slopes():
    with pytest.raises(ExprError, match="constant"):
        parse("pwl(x1; x2, 1)")


def _per_tree(trees, x, region=None):
    """One reference walk per tree, each broadcast to the batch and copied into place."""
    return np.array([np.broadcast_to(reference_eval(t, x, region), np.shape(x)[1:])
                     for t in trees], dtype=float)


FACTOR = "x1^2 + x2*x3 - pwl(x1; 2, 3)"


def _evaluator_trees(model):
    """The tree lists that `evaluate`'s callers pass: the rhs (`velocity`), the
    Jacobian (`jacobian`), the fast rows and fast block of the capped Newton
    step, the Jacobian diagonal (the trace) and a factor's gradient rows."""
    n = model.dim
    fast = [0, n - 1]
    factor, _ = parse_expression(FACTOR, {f"x{i + 1}": i for i in range(n)}, {})
    return {"velocity": list(model.rhs_exprs),
            "jacobian": [e for row in model.jac_exprs for e in row],
            "fast rows": [model.rhs_exprs[i] for i in fast],
            "fast block": [model.jac_exprs[i][j] for i in fast for j in fast],
            "trace": [model.jac_exprs[i][i] for i in range(n)],
            "factor rows": [factor.diff(i) for i in range(n)]}


def _evaluator_models():
    return [get_model(name) for name in registry()] + [load_model(TWO_PWL)]


@pytest.mark.parametrize("model", _evaluator_models(), ids=lambda m: m.name)
def test_evaluate_is_per_tree_eval_bit_for_bit(model):
    x = _states(model, 500, seed=3)
    for what, trees in _evaluator_trees(model).items():
        for region in (None, model.classify(x)):
            got = evaluate(trees, x, region)
            assert got.shape == (len(trees), 500) and got.dtype == np.float64, what
            assert_same_bits(got, _per_tree(trees, x, region))
        for point in x.T[:40]:
            for region in (None, model.classify(point)):
                assert_same_bits(evaluate(trees, point, region), _per_tree(trees, point, region))


@pytest.mark.parametrize("model", _evaluator_models(), ids=lambda m: m.name)
def test_evaluator_callers_equal_per_tree_eval(model, monkeypatch):
    # every caller of `evaluate` gives the bits it gives on per-tree eval calls
    n = model.dim
    x = _states(model, 300, seed=4)
    # one fast coordinate whose own rate is not identically zero
    fast = next(i for i in range(n) if not isinstance(model.jac_exprs[i][i], Const)
                or model.jac_exprs[i][i].value != 0.0)
    split = {"fast": (fast,), "box": [(-2.0, 2.0)] * (n - 1), "box_center": None}
    box = [(-2.0, 2.0)] * n

    def outputs():
        sample = manifold.manifold_sample(model, x)
        report = manifold.factor_check(model, FACTOR, box, samples=40, seed=2)
        singular = manifold._singular_points(
            replace(model, slowfast_defaults=split), 30, np.random.default_rng(5))
        assert singular.size
        single = [model.velocity(x[:, 0]), model.jacobian(x[:, 0]),
                  manifold.manifold_sample(model, x[:, 0]).cofactor_residual]
        return [model.velocity(x), model.jacobian(x), sample.cofactor_residual, singular,
                report.cofactor_coeffs, report.lie_factor_max, *single]

    got = outputs()
    monkeypatch.setattr(expr, "evaluate", _per_tree)
    for a, b in zip(got, outputs(), strict=True):
        assert_same_bits(a, b)


class _Counted(Var):
    """A variable that counts the calls that compute its value."""

    __slots__ = ("calls",)

    def __init__(self, index):
        super().__init__(index)
        self.calls = 0

    def eval(self, state, region=None):
        self.calls += 1
        return super().eval(state, region)

    def taylor(self, j, memo):
        self.calls += 1
        return super().taylor(j, memo)


def test_evaluate_computes_a_shared_node_once():
    # two trees read one node (as Jacobian entries share a factor): one
    # `evaluate` call computes it once, not once per reader
    shared = _Counted(0)
    trees = [Mul(shared, Var(1)), Add(shared, Const(2.0))]
    x = np.array([[1.5, -0.0], [2.0, 3.0]])
    assert_same_bits(evaluate(trees, x), np.array([[3.0, -0.0], [3.5, 2.0]]))
    assert shared.calls == 1


@pytest.mark.parametrize("model", _evaluator_models(), ids=lambda m: m.name)
def test_cofactor_residual_sums_the_trace_in_component_order(model):
    # Tr(J) = J_11 + J_22 + ... + J_nn, added left to right from per-tree values
    x = _states(model, 300, seed=6)
    sample = manifold.manifold_sample(model, x)
    tr = model.jac_exprs[0][0].eval(x, sample.region)
    for i in range(1, model.dim):
        tr = tr + model.jac_exprs[i][i].eval(x, sample.region)
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.abs(sample.lie - tr * sample.phi) / (1.0 + np.abs(tr * sample.phi))
    assert_same_bits(sample.cofactor_residual, want)


def test_pwl_slope_is_constant_along_a_stack():
    # a stack freezes its branch, so a slope is constant, and with it a
    # product of a slope and a constant; a slope times a state is not
    u = parse("pwl(x1; 2, 3)")
    slope = PwlSlope(u)
    assert slope.constant
    assert Mul(slope, Const(2.0)).constant
    assert not Mul(slope, Var(0)).constant
    assert u.diff(0).constant and not parse("pwl(x1; 2, 3)^2").diff(0).constant
