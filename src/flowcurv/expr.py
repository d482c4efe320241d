"""Polynomial + piecewise-linear expression trees for model right-hand sides.

The grammar covers everything the built-in systems need and keeps Taylor
coefficients closed form: +, -, *, integer powers, numeric literals, named
parameters, state variables ``x1..xn``, and ``pwl(u; a, b)`` for the
three-branch diode characteristic.  Parameters are resolved to constants at
build time, so differentiation and evaluation see a fixed tree.

Every node evaluates on floats and 1-D numpy batches (`eval`), gives its
Taylor coefficient of order j along a trajectory from its children's
coefficients 0..j (`taylor`, memoized per expansion by `TaylorMemo`), and
`diff` returns the exact partial derivative as a new tree (the derivative of
a pwl term is its branch slope, constant within a region).
"""

from __future__ import annotations

import re

import numpy as np

__all__ = [
    "ExprError", "parse_expression", "Node", "TaylorMemo",
    "Const", "Var", "Add", "Sub", "Neg", "Mul", "Pow", "Pwl", "PwlSlope",
    "classify_pwl", "PWL_LABELS",
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
    per order.  A memo serves one expansion, which keeps concurrent
    expansions independent.
    """

    def __init__(self, x, region=None):
        super().__init__()
        self.x = x
        self.region = region

    def series(self, node, j):
        """Coefficients 0..j of `node`, as a list indexed by order."""
        s = self.get(node)
        if s is None:
            # a node without state dependence is a plain number, as in `eval`:
            # its value at order 0 and 0.0 above
            s = self[node] = [node.eval(self.x[0], self.region)] if node.constant else []
        while len(s) <= j:
            s.append(0.0 if node.constant else node.taylor(len(s), self))
        return s


def _cauchy(a, b, j):
    """Coefficient j of the product of two series: sum_i a_i b_{j-i}, from 0.0 in i order."""
    acc = 0.0
    for i in range(j + 1):
        acc = acc + a[i] * b[j - i]
    return acc


class Node:
    """Base expression node."""

    constant = False  # True where the value does not depend on the state

    def eval(self, state, region=None):
        raise NotImplementedError

    def taylor(self, j, memo):
        """Taylor coefficient j of this node, from the coefficients 0..j of
        its children in `memo` (a `TaylorMemo`).  Constant nodes never get
        here: the memo gives them their value and zeros."""
        raise NotImplementedError

    def diff(self, var):
        raise NotImplementedError

    def free_vars(self):
        return set()

    def pwl_nodes(self):
        return []


class Const(Node):
    __slots__ = ("value",)
    constant = True

    def __init__(self, value):
        self.value = float(value)

    def eval(self, state, region=None):
        return self.value

    def diff(self, var):
        return Const(0.0)

    def __repr__(self):
        return repr(self.value)


class Var(Node):
    __slots__ = ("index", "name")

    def __init__(self, index, name=None):
        self.index = index
        self.name = name or f"x{index + 1}"

    def eval(self, state, region=None):
        return state[self.index]

    def taylor(self, j, memo):
        return memo.x[j][self.index]

    def diff(self, var):
        return Const(1.0 if var == self.index else 0.0)

    def free_vars(self):
        return {self.index}

    def __repr__(self):
        return self.name


class _Binary(Node):
    __slots__ = ("left", "right", "constant")

    def __init__(self, left, right):
        self.left = left
        self.right = right
        self.constant = left.constant and right.constant

    def free_vars(self):
        return self.left.free_vars() | self.right.free_vars()

    def pwl_nodes(self):
        return self.left.pwl_nodes() + self.right.pwl_nodes()


class Add(_Binary):
    def eval(self, state, region=None):
        return self.left.eval(state, region) + self.right.eval(state, region)

    def taylor(self, j, memo):
        return memo.series(self.left, j)[j] + memo.series(self.right, j)[j]

    def diff(self, var):
        return _add(self.left.diff(var), self.right.diff(var))

    def __repr__(self):
        return f"({self.left!r} + {self.right!r})"


class Sub(_Binary):
    def eval(self, state, region=None):
        return self.left.eval(state, region) - self.right.eval(state, region)

    def taylor(self, j, memo):
        return memo.series(self.left, j)[j] - memo.series(self.right, j)[j]

    def diff(self, var):
        return _sub(self.left.diff(var), self.right.diff(var))

    def __repr__(self):
        return f"({self.left!r} - {self.right!r})"


class Mul(_Binary):
    def eval(self, state, region=None):
        return self.left.eval(state, region) * self.right.eval(state, region)

    def taylor(self, j, memo):
        a = memo.series(self.left, j)
        b = memo.series(self.right, j)
        # a constant factor scales the other series; two series convolve
        if self.left.constant:
            return a[0] * b[j]
        if self.right.constant:
            return a[j] * b[0]
        return _cauchy(a, b, j)

    def diff(self, var):
        return _add(_mul(self.left.diff(var), self.right),
                    _mul(self.left, self.right.diff(var)))

    def __repr__(self):
        return f"({self.left!r} * {self.right!r})"


class Neg(Node):
    __slots__ = ("arg", "constant")

    def __init__(self, arg):
        self.arg = arg
        self.constant = arg.constant

    def eval(self, state, region=None):
        return -self.arg.eval(state, region)

    def taylor(self, j, memo):
        return -memo.series(self.arg, j)[j]

    def diff(self, var):
        return _neg(self.arg.diff(var))

    def free_vars(self):
        return self.arg.free_vars()

    def pwl_nodes(self):
        return self.arg.pwl_nodes()

    def __repr__(self):
        return f"(-{self.arg!r})"


def _ipow(value, exponent):
    """Square-and-multiply integer power of a float or array.

    `Pow.taylor` replays the same products on Taylor series, so the order-0
    coefficient rounds as the plain evaluation does.
    """
    result = 1.0
    base = value
    e = exponent
    while e:
        if e & 1:
            result = result * base
        if e > 1:
            base = base * base
        e >>= 1
    return result


class Pow(Node):
    __slots__ = ("base", "exponent", "constant")

    def __init__(self, base, exponent):
        self.base = base
        self.exponent = int(exponent)
        self.constant = self.exponent == 0 or base.constant

    def eval(self, state, region=None):
        return _ipow(self.base.eval(state, region), self.exponent)

    def taylor(self, j, memo):
        # _ipow on series: its first product, 1.0 * base, is the base series
        # itself; every later product keeps its coefficients in the memo
        result = None
        base = memo.series(self.base, j)
        step = 0

        def product(a, b):
            nonlocal step
            s = memo.setdefault((self, step), [])
            s.append(_cauchy(a, b, j))
            step += 1
            return s

        e = self.exponent
        while e:
            if e & 1:
                result = base if result is None else product(result, base)
            if e > 1:
                base = product(base, base)
            e >>= 1
        return result[j]

    def diff(self, var):
        if self.exponent == 0:
            return Const(0.0)
        inner = self.base.diff(var)
        if self.exponent == 1:
            return inner
        return _mul(_mul(Const(self.exponent), Pow(self.base, self.exponent - 1)), inner)

    def free_vars(self):
        return self.base.free_vars()

    def pwl_nodes(self):
        return self.base.pwl_nodes()

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

    __slots__ = ("arg", "a", "b", "node_id", "constant")

    def __init__(self, arg, a, b, node_id=0):
        self.arg = arg
        self.a = float(a)
        self.b = float(b)
        self.node_id = node_id
        self.constant = arg.constant

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
        return np.where(branch == "mid", a * u,
                        np.where(branch == "pos", b * (u - one) + offset,
                                 b * (u + one) - offset))

    def eval(self, state, region=None):
        u = self.arg.eval(state, region)
        return self._branch_value(u, _resolve_branch(self.node_id, u, region))

    def taylor(self, j, memo):
        u = memo.series(self.arg, j)
        branch = _resolve_branch(self.node_id, u[0], memo.region)
        return self._branch_value(u[j], branch, j)

    def diff(self, var):
        inner = self.arg.diff(var)
        return _mul(PwlSlope(self.arg, self.a, self.b, self.node_id), inner)

    def free_vars(self):
        return self.arg.free_vars()

    def pwl_nodes(self):
        return self.arg.pwl_nodes() + [self]

    def __repr__(self):
        return f"pwl({self.arg!r}; {self.a}, {self.b})"


class PwlSlope(Node):
    """Region-wise slope of a Pwl node (a in the middle branch, b outside)."""

    __slots__ = ("arg", "a", "b", "node_id")

    def __init__(self, arg, a, b, node_id=0):
        self.arg = arg
        self.a = float(a)
        self.b = float(b)
        self.node_id = node_id

    def eval(self, state, region=None):
        u = self.arg.eval(state, region)
        branch = _resolve_branch(self.node_id, u, region)
        if isinstance(branch, str):
            slope = self.a if branch == "mid" else self.b
        else:
            slope = np.where(branch == "mid", self.a, self.b)
        return slope if not isinstance(u, np.ndarray) else np.broadcast_to(slope, u.shape).copy()

    def diff(self, var):
        # piecewise constant; derivative vanishes within each region
        return Const(0.0)

    def free_vars(self):
        return self.arg.free_vars()

    def __repr__(self):
        return f"pwl_slope({self.arg!r}; {self.a}, {self.b})"


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
