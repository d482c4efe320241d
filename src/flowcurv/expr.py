"""Polynomial + piecewise-linear expression trees for model right-hand sides.

The grammar covers everything the built-in systems need and keeps Taylor
coefficients closed form: +, -, *, integer powers, numeric literals, named
parameters, state variables ``x1..xn``, and ``pwl(u; a, b)`` for the
three-branch diode characteristic.  Parameters are resolved to constants at
build time, so differentiation and evaluation see a fixed tree.

Every node gives its Taylor coefficient of order j along a trajectory from
its children's coefficients 0..j (`taylor`, memoized per expansion by
`TaylorMemo`); coefficient 0 is its value, on floats and 1-D numpy batches
alike (`Node.eval`, `evaluate`).  A node also writes the Python statements
of its own scalar evaluation (`emit`, which `compile_step` collects into
one straight-line Dormand-Prince step whose rhs values equal coefficient 0
bit for bit), and `diff` returns the exact partial derivative as a new
tree (the derivative of a pwl term is its branch slope, constant within a
region).  An integer power has no arithmetic of its own: its `taylor` and
`emit` are those of the `Mul` tree of its square-and-multiply (`Pow.tree`).
`walk` visits every node once, after its `children`; each question about a
tree's structure reads it.
"""

from __future__ import annotations

import math
import re

import numpy as np

__all__ = [
    "ExprError", "parse_expression", "Node", "TaylorMemo", "compile_step", "pwl_args", "walk",
    "Const", "Var", "Add", "Sub", "Neg", "Mul", "Pow", "Pwl", "PwlSlope",
    "classify_pwl", "PWL_LABELS", "evaluate",
]

PWL_LABELS = ("neg", "mid", "pos")


class ExprError(ValueError):
    """Parse or evaluation error with source position when available."""

    def __init__(self, message, pos=None, text=None):
        self.pos = pos
        if pos is not None and text is not None:
            line = text.count("\n", 0, pos) + 1
            col = pos - (text.rfind("\n", 0, pos) + 1) + 1
            message = f"{message} (line {line}, column {col})"
        super().__init__(message)


def classify_pwl(value):
    """Branch label(s) for a pwl argument; |value| = 1 ties to the middle branch."""
    v = np.asarray(value)
    if v.ndim == 0:
        v = float(v)
        if v > 1.0:
            return "pos"
        if v < -1.0:
            return "neg"
        return "mid"
    out = np.full(v.shape, "mid", dtype=object)
    out[v > 1.0] = "pos"
    out[v < -1.0] = "neg"
    return out


class TaylorMemo(dict):
    """Taylor coefficients of expression nodes along one trajectory.

    ``x[j]`` holds coefficient j of the state, shape ``(n,)`` or ``(n, npts)``,
    and must be filled through every order asked for; `region` is the branch
    frozen for the whole expansion.  The dict maps each node to the list of
    its coefficients computed so far, so a node costs one `Node.taylor` call
    per order, however many parents share it (a power's squares included).
    Coefficient 0 is each node's value; a `constant` node gets 0.0 above it.
    `branches` holds each pwl node's branch for the expansion, per-point
    labels already turned into masks.  A memo serves one expansion, which
    keeps concurrent expansions independent.
    `whole` holds the nodes whose whole series a product of two series
    convolves; every other node's coefficient j reads only coefficient j of
    its children, so `release` can drop it once order j is complete.
    """

    def __init__(self, x, region=None):
        super().__init__()
        self.x = x
        self.region = region
        self.branches = {}
        self.whole = set()
        self._fleeting = None

    def release(self):
        """Drop the latest coefficient of each node that no later order reads:
        all but the `whole` series and constants.  Called after each order of
        an expansion that asks every node order by order, it keeps one order
        of such nodes at a time; the first call, after order 0, has met every
        node and every product, so it lists the series to drop once."""
        if self._fleeting is None:
            self._fleeting = [s for node, s in self.items()
                              if not (node.constant or node in self.whole)]
        for s in self._fleeting:
            s[-1] = None

    def series(self, node, j):
        """Coefficients 0..j of `node`, as a list indexed by order."""
        s = self.get(node)
        if s is None:
            s = self[node] = [node.taylor(0, self)]
        while len(s) <= j:
            s.append(0.0 if node.constant else node.taylor(len(s), self))
        return s


class _Emitter:
    """Source of one straight-line scalar evaluation, built by `Node.emit`.

    Every node gets one local (SSA form), so the source nests no expression
    and no parser limit applies however deep the tree.  Constants are bound
    by name from a tuple, never written as literals, so inf, nan and -0.0
    keep their values.  `value` emits a node once and returns its local.
    State component i is assigned once, from `state_source(i)`, on its
    first read; `prefix` names the locals, so several evaluations can share
    one function body (and, through `constants`, one constant tuple).
    """

    def __init__(self, constants, state_source=None, prefix="t"):
        self.lines = []
        self.constants = constants
        self._names = {}
        self._count = 0
        self._state_source = state_source
        self._prefix = prefix

    def value(self, node):
        name = self._names.get(id(node))
        if name is None:
            name = self._names[id(node)] = node.emit(self)
        return name

    def state(self, index):
        # one load per state component, however many Var nodes read it
        name = self._names.get(("x", index))
        if name is None:
            name = self._names[("x", index)] = self.assign(self._state_source(index))
        return name

    def constant(self, value):
        self.constants.append(value)
        return f"c{len(self.constants) - 1}"

    def local(self):
        self._count += 1
        return f"{self._prefix}{self._count - 1}"

    def assign(self, source):
        name = self.local()
        self.lines.append(f"{name} = {source}")
        return name


# Dormand-Prince 5(4) tableau (FSAL: the 7th stage is the next step's first).
# b5 equals the last row of A (b5_2 = b5_7 = 0); the error weights are
# b5 - b4 (e_2 = 0).
_DP_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)


def walk(trees):
    """The nodes of `trees`, each once and after its children (iterative post-order)."""
    done = set()
    stack = [(tree, False) for tree in reversed(trees)]
    while stack:
        node, expanded = stack.pop()
        if node in done:
            continue
        if expanded:
            done.add(node)
            yield node
        else:
            stack.append((node, True))
            stack += [(child, False) for child in reversed(node.children)]


def evaluate(trees, x, region=None):
    """The values of `trees` at a state x (n,) or a batch (n, npts), as one
    float64 array (len(trees),) + x.shape[1:], a constant tree's value
    broadcast: coefficient 0 of each tree, from one memo for all of them."""
    memo = TaylorMemo((x,), region)
    out = np.empty((len(trees),) + np.shape(x)[1:])
    for i, tree in enumerate(trees):
        out[i] = memo.series(tree, 0)[0]
    return out


def pwl_args(exprs):
    """The argument tree of each pwl node of the trees `exprs`, by node id."""
    nodes = sorted((p for p in walk(exprs) if isinstance(p, Pwl)), key=lambda p: p.node_id)
    return tuple(node.arg for node in nodes)


def compile_step(exprs):
    """One Dormand-Prince 5(4) step of the field `exprs`, as straight-line Python.

    Returns ``step(x, k1, h, rel_tol, abs_tol) -> (x_new, err_norm, k7,
    pwl_values)``: x and k1 = f(x) are lists of floats, x_new and k7 =
    f(x_new) (the next step's k1) lists, err_norm the RMS over components
    of err / (abs_tol + rel_tol * max(|x|, |x_new|)), and `pwl_values` the
    list of each pwl argument's value at x_new, in `pwl_args(exprs)` order
    (empty for a smooth field).  The stage inputs are unrolled per
    component and the rhs is inlined once per stage (its locals renamed per
    stage, a node shared by several components computed once), with the
    float operations of each node's coefficient 0 in the same order, so
    every stage value equals `evaluate` at the stage input bit for bit.

    Every sum runs in one fixed order, written out term by term:

    - a stage input is x[c] + h * s, s summing a_ij * k_j[c] in j order
      from 0.0 (so a lone -0.0 product becomes +0.0), zero tableau entries
      included;
    - x_new is x[c] + h * s and the error h * s, s summing b5_j * k_j[c]
      (resp. e_j * k_j[c]) the same way with zero weights skipped;
    - the norm is sqrt(acc / n), acc summing q * q in component order from
      0.0, q = err[c] / (abs_tol + rel_tol * max(abs(x[c]), abs(x_new[c]))).

    These are the operations of the same step written with float64 arrays
    (`sum()` over the stage arrays, `np.mean` for the norm below 8
    components), so results agree with it bit for bit, zero signs, infs and
    NaNs included.
    `pwl_values` costs no evaluation: they are the argument locals of the
    7th (FSAL) stage, whose input sums the same products as x_new plus the
    term a_72 * k2[c] = 0.0 * k2[c], which x_new skips.  While k2 is finite
    that term is a zero, and adding a zero to s (never -0.0, its sum starts
    from 0.0) leaves s unchanged, so the stage input is x_new bit for bit
    and every value equals `arg.eval(x_new)`.
    """
    n = len(exprs)
    constants = []
    tableau = _Emitter(constants)
    a = [[tableau.constant(v) for v in row] for row in _DP_A]
    b = {j: a[-1][j] for j, v in enumerate(_DP_A[-1]) if v != 0.0}
    err = {j: tableau.constant(v) for j, v in enumerate(_DP_E) if v != 0.0}

    stages = [[f"k1_{c}" for c in range(n)]]   # component names of k1, k2, ...

    def weighted(coefs, c):
        # 0.0 + w_1 * k_1[c] + w_2 * k_2[c] + ..., left to right
        return " + ".join(["0.0"] + [f"{w} * {stages[j][c]}" for j, w in coefs])

    lines = [f"{', '.join(f'x{c}' for c in range(n))}, = x",
             f"{', '.join(stages[0])}, = k1"]
    for s, row in enumerate(a, start=2):
        e = _Emitter(constants, lambda c, row=row: f"x{c} + h * ({weighted(enumerate(row), c)})",
                     prefix=f"t{s}_")
        outputs = [e.value(node) for node in exprs]
        lines += e.lines
        stages.append(outputs)
    # the 7th stage emitted every pwl argument already: its locals, no new line
    pwl_values = [e.value(arg) for arg in pwl_args(exprs)]
    for c in range(n):
        lines += [f"n{c} = x{c} + h * ({weighted(b.items(), c)})",
                  f"e{c} = h * ({weighted(err.items(), c)})",
                  f"q{c} = e{c} / (abs_tol + rel_tol * max(abs(x{c}), abs(n{c})))"]
    lines += [f"acc = {' + '.join(['0.0'] + [f'q{c} * q{c}' for c in range(n)])}",
              f"return ([{', '.join(f'n{c}' for c in range(n))}], sqrt(acc / {n}), "
              f"[{', '.join(stages[6])}], [{', '.join(pwl_values)}])"]
    source = ["def make(constants, sqrt):",
              f"    {', '.join(f'c{i}' for i in range(len(constants)))}, = constants",
              "    def step(x, k1, h, rel_tol, abs_tol):"]
    source += [f"        {line}" for line in lines]
    source += ["    return step"]
    namespace = {}
    exec(compile("\n".join(source), "<flowcurv compiled step>", "exec"), namespace)
    return namespace["make"](tuple(constants), math.sqrt)


def _cauchy(a, b, j):
    """Coefficient j of the product of two series: sum_i a_i b_{j-i} in i order, from
    the first term, so coefficient 0 is the value a_0 * b_0, zero sign included."""
    acc = a[0] * b[j]
    for i in range(1, j + 1):
        acc = acc + a[i] * b[j - i]
    return acc


class Node:
    """Base expression node."""

    constant = False  # fixed along a stack: no state in it, or a pwl slope (frozen branch)
    children = ()  # the nodes this one is written with, which `walk` reads

    def eval(self, state, region=None):
        """The value at a state or a batch (n, npts): Taylor coefficient 0."""
        return TaylorMemo((state,), region).series(self, 0)[0]

    def taylor(self, j, memo):
        """Taylor coefficient j of this node, from the coefficients 0..j of
        its children in `memo` (a `TaylorMemo`).  Constant nodes get here at
        order 0 only: the memo gives them 0.0 above it."""
        raise NotImplementedError

    def emit(self, e):
        """Append this node's scalar evaluation to the `_Emitter` `e`, its
        children through `e.value`; return the name holding the value."""
        raise NotImplementedError

    def diff(self, var):
        raise NotImplementedError


class Const(Node):
    __slots__ = ("value",)
    constant = True

    def __init__(self, value):
        self.value = float(value)

    def taylor(self, j, memo):
        return self.value

    def emit(self, e):
        return e.constant(self.value)

    def diff(self, var):
        return Const(0.0)

    def __repr__(self):
        return repr(self.value)


class Var(Node):
    __slots__ = ("index", "name")

    def __init__(self, index, name=None):
        self.index = index
        self.name = name or f"x{index + 1}"

    def taylor(self, j, memo):
        return memo.x[j][self.index]

    def emit(self, e):
        return e.state(self.index)

    def diff(self, var):
        return Const(1.0 if var == self.index else 0.0)

    def __repr__(self):
        return self.name


class _Binary(Node):
    __slots__ = ("left", "right", "constant", "children")

    def __init__(self, left, right):
        self.left = left
        self.right = right
        self.constant = left.constant and right.constant
        self.children = (left, right)


class Add(_Binary):
    def taylor(self, j, memo):
        return memo.series(self.left, j)[j] + memo.series(self.right, j)[j]

    def emit(self, e):
        return e.assign(f"{e.value(self.left)} + {e.value(self.right)}")

    def diff(self, var):
        return _add(self.left.diff(var), self.right.diff(var))

    def __repr__(self):
        return f"({self.left!r} + {self.right!r})"


class Sub(_Binary):
    def taylor(self, j, memo):
        return memo.series(self.left, j)[j] - memo.series(self.right, j)[j]

    def emit(self, e):
        return e.assign(f"{e.value(self.left)} - {e.value(self.right)}")

    def diff(self, var):
        return _sub(self.left.diff(var), self.right.diff(var))

    def __repr__(self):
        return f"({self.left!r} - {self.right!r})"


class Mul(_Binary):
    def taylor(self, j, memo):
        a = memo.series(self.left, j)
        b = memo.series(self.right, j)
        # a constant factor scales the other series; two series convolve
        if self.left.constant:
            return a[0] * b[j]
        if self.right.constant:
            return a[j] * b[0]
        if j == 0:
            memo.whole.update(self.children)
        return _cauchy(a, b, j)

    def emit(self, e):
        return e.assign(f"{e.value(self.left)} * {e.value(self.right)}")

    def diff(self, var):
        return _add(_mul(self.left.diff(var), self.right),
                    _mul(self.left, self.right.diff(var)))

    def __repr__(self):
        return f"({self.left!r} * {self.right!r})"


class Neg(Node):
    __slots__ = ("arg", "constant", "children")

    def __init__(self, arg):
        self.arg = arg
        self.constant = arg.constant
        self.children = (arg,)

    def taylor(self, j, memo):
        return -memo.series(self.arg, j)[j]

    def emit(self, e):
        return e.assign(f"-{e.value(self.arg)}")

    def diff(self, var):
        return _neg(self.arg.diff(var))

    def __repr__(self):
        return f"(-{self.arg!r})"


def _power_tree(base, exponent):
    """base^exponent as the `Mul` tree of its square-and-multiply products.

    The first product, 1.0 * base, is the base itself (it rounds to the
    base's bits), and each square is one node that the next square and the
    products read.  base^0 is Const(1.0).
    """
    result = None
    while exponent:
        if exponent & 1:
            result = base if result is None else Mul(result, base)
        if exponent > 1:
            base = Mul(base, base)
        exponent >>= 1
    return Const(1.0) if result is None else result


class Pow(Node):
    """Integer power base^exponent, exponent >= 0.

    `taylor` and `emit` hand off to `tree`, the `Mul` tree of the power's
    square-and-multiply (`_power_tree`), built once here, so both make the
    same products in the same order.  `diff`, the label and
    `children`, which is ``(base,)``, read the power as it is written, so
    ``x^0`` keeps its base's pwl terms.
    """

    __slots__ = ("base", "exponent", "constant", "tree", "children")

    def __init__(self, base, exponent):
        self.base = base
        self.exponent = int(exponent)
        if self.exponent < 0:
            raise ValueError("negative powers are not supported")
        self.constant = self.exponent == 0 or base.constant
        self.tree = _power_tree(base, self.exponent)
        self.children = (base,)

    def taylor(self, j, memo):
        return memo.series(self.tree, j)[j]

    def emit(self, e):
        return e.value(self.tree)

    def diff(self, var):
        if self.exponent == 0:
            return Const(0.0)
        inner = self.base.diff(var)
        if self.exponent == 1:
            return inner
        return _mul(_mul(Const(self.exponent), Pow(self.base, self.exponent - 1)), inner)

    def __repr__(self):
        return f"({self.base!r}^{self.exponent})"


def _resolve_branch(node_id, arg_value, region):
    if region is None:
        return classify_pwl(arg_value)
    if isinstance(region, (str, np.ndarray)):
        return region  # one pwl node: a single label or a per-point label array
    # composite label: one branch per pwl node, keyed by construction order
    return region[node_id]


class Pwl(Node):
    """Three-branch piecewise-linear characteristic with breakpoints at |u| = 1.

    The outer branches are evaluated anchored at their breakpoints,
    a + b*(u - 1) and -a + b*(u + 1), so the branches agree *exactly* at
    |u| = 1 for every (a, b) in floating point (the textbook regrouping
    b*u + a - b is the same real function but rounds differently there).
    """

    __slots__ = ("arg", "a", "b", "node_id", "constant", "children")

    def __init__(self, arg, a, b, node_id=0):
        self.arg = arg
        self.a = float(a)
        self.b = float(b)
        self.node_id = node_id
        self.constant = arg.constant
        self.children = (arg,)

    def _frozen_branch(self, memo):
        # the expansion's branch, found once: a label, or per-point (mid, pos) masks
        branch = memo.branches.get(self)
        if branch is None:
            branch = _resolve_branch(self.node_id, memo.series(self.arg, 0)[0], memo.region)
            if not isinstance(branch, str):
                branch = (branch == "mid", branch == "pos")
            memo.branches[self] = branch
        return branch

    def _branch_value(self, u, branch, j=0):
        # coefficient j > 0 of a branch: the offsets 1.0 and a contribute 0.0
        a, b = self.a, self.b
        one, offset = (1.0, a) if j == 0 else (0.0, 0.0)
        if isinstance(branch, str):
            if branch == "mid":
                return a * u
            if branch == "pos":
                return b * (u - one) + offset
            return b * (u + one) - offset
        mid, pos = branch
        return np.where(mid, a * u, np.where(pos, b * (u - one) + offset,
                                             b * (u + one) - offset))

    def taylor(self, j, memo):
        return self._branch_value(memo.series(self.arg, j)[j], self._frozen_branch(memo), j)

    def emit(self, e):
        # classify_pwl's comparisons (NaN and |u| = 1 take the middle branch),
        # then _branch_value's anchored arithmetic
        u = e.value(self.arg)
        a, b = e.constant(self.a), e.constant(self.b)
        t = e.local()
        e.lines += [f"if {u} > 1.0:", f"    {t} = {b} * ({u} - 1.0) + {a}",
                    f"elif {u} < -1.0:", f"    {t} = {b} * ({u} + 1.0) - {a}",
                    "else:", f"    {t} = {a} * {u}"]
        return t

    def diff(self, var):
        inner = self.arg.diff(var)
        return _mul(PwlSlope(self), inner)

    def __repr__(self):
        return f"pwl({self.arg!r}; {self.a}, {self.b})"


class PwlSlope(Node):
    """Region-wise slope of a Pwl node (a in the middle branch, b outside)."""

    __slots__ = ("pwl", "children")
    constant = True

    def __init__(self, pwl):
        self.pwl = pwl
        self.children = (pwl.arg,)

    def taylor(self, j, memo):
        u = memo.series(self.pwl.arg, 0)[0]
        # the branch's first Taylor coefficient per unit step of its argument
        slope = self.pwl._branch_value(1.0, self.pwl._frozen_branch(memo), 1)
        return slope if not isinstance(u, np.ndarray) else np.broadcast_to(slope, u.shape).copy()

    def diff(self, var):
        # piecewise constant; derivative vanishes within each region
        return Const(0.0)

    def __repr__(self):
        return f"pwl_slope({self.pwl.arg!r}; {self.pwl.a}, {self.pwl.b})"


# -- light constant folding so Jacobian trees stay small ----------------------

def _is_const(node, value=None):
    return isinstance(node, Const) and (value is None or node.value == value)


def _add(a, b):
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    if _is_const(a) and _is_const(b):
        return Const(a.value + b.value)
    return Add(a, b)


def _sub(a, b):
    if _is_const(b, 0.0):
        return a
    if _is_const(a) and _is_const(b):
        return Const(a.value - b.value)
    if _is_const(a, 0.0):
        return _neg(b)
    return Sub(a, b)


def _neg(a):
    if _is_const(a):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def _mul(a, b):
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if _is_const(a) and _is_const(b):
        return Const(a.value * b.value)
    return Mul(a, b)


# -- parser -------------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<number>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>\*\*|[-+*^();,])
  | (?P<ws>\s+)
""", re.VERBOSE)

_UNICODE_MAP = {"−": "-", "·": "*", "⋅": "*"}


def _tokenize(text):
    for u, a in _UNICODE_MAP.items():
        text = text.replace(u, a)
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExprError(f"unexpected character {text[pos]!r}", pos, text)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens, text


class _Parser:
    def __init__(self, text, var_names, params):
        self.tokens, self.text = _tokenize(text)
        self.i = 0
        self.var_names = var_names
        self.params = params
        self.pwl_count = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind=None, value=None):
        tok = self.tokens[self.i]
        if kind is not None and tok[0] != kind:
            raise ExprError(f"expected {value or kind}, got {tok[1]!r}", tok[2], self.text)
        if value is not None and tok[1] != value:
            raise ExprError(f"expected {value!r}, got {tok[1]!r}", tok[2], self.text)
        self.i += 1
        return tok

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExprError(f"trailing input {tok[1]!r}", tok[2], self.text)
        return node

    def expr(self):
        node = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.take()[1]
            rhs = self.term()
            node = _add(node, rhs) if op == "+" else _sub(node, rhs)
        return node

    def term(self):
        node = self.unary()
        while self.peek()[1] == "*":
            self.take()
            node = _mul(node, self.unary())
        return node

    def unary(self):
        tok = self.peek()
        if tok[1] == "-":
            self.take()
            return _neg(self.unary())
        if tok[1] == "+":
            self.take()
            return self.unary()
        return self.power()

    def power(self):
        base = self.atom()
        tok = self.peek()
        if tok[1] in ("^", "**"):
            self.take()
            if self.peek()[1] == "-":
                raise ExprError("negative powers are not supported", self.peek()[2], self.text)
            num = self.take("number")
            if "." in num[1] or "e" in num[1] or "E" in num[1]:
                raise ExprError("powers must be integers", num[2], self.text)
            return Pow(base, int(num[1]))
        return base

    def atom(self):
        tok = self.peek()
        if tok[1] == "(":
            self.take()
            node = self.expr()
            self.take("op", ")")
            return node
        if tok[0] == "number":
            self.take()
            return Const(float(tok[1]))
        if tok[0] == "name":
            self.take()
            name = tok[1]
            if name == "pwl":
                return self.pwl_call(tok)
            if name in self.var_names:
                return Var(self.var_names[name], name)
            if name in self.params:
                return Const(self.params[name])
            raise ExprError(f"unknown symbol {name!r}", tok[2], self.text)
        raise ExprError(f"unexpected token {tok[1]!r}", tok[2], self.text)

    def pwl_call(self, tok):
        self.take("op", "(")
        arg = self.expr()
        sep = self.take("op")
        if sep[1] not in (";", ","):
            raise ExprError("pwl expects pwl(u; a, b)", sep[2], self.text)
        a = self.expr()
        self.take("op", ",")
        b = self.expr()
        self.take("op", ")")
        if not isinstance(a, Const) or not isinstance(b, Const):
            raise ExprError("pwl slopes must be constant expressions", tok[2], self.text)
        node = Pwl(arg, a.value, b.value, node_id=self.pwl_count)
        self.pwl_count += 1
        return node


def parse_expression(text, var_names, params, pwl_offset=0):
    """Parse one expression string.

    `var_names` maps variable name -> state index; `params` maps parameter
    name -> numeric value (folded into constants).  `pwl_offset` numbers pwl
    nodes consecutively across a multi-component system so composite region
    labels stay positional.
    """
    parser = _Parser(text, var_names, params)
    parser.pwl_count = pwl_offset
    node = parser.parse()
    return node, parser.pwl_count
