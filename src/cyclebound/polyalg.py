"""Exact bivariate polynomials, the vector-field input format, and interval arithmetic.

Coefficients are `fractions.Fraction`, so all algebra (sums, products,
derivatives, affine substitution) is exact.  Floats only appear at the
evaluation boundary: `Poly2.eval` (Horner, on floats or on arrays),
`Poly2.eval_grid` (numpy's polyval2d floats at arrays of points, bit for bit,
by Horner over each coefficient column from its highest nonzero entry),
`Poly2.eval_outer` (polygrid2d's floats on the grid of two axes), and
`interval_eval` (outward-rounded enclosures over an `IntervalBoxes` array of
boxes, on the `ia_*` interval-array operations).  A Poly2 never changes, so
what is derived from it (float coefficients, column plan, interval terms,
partials, majorant) is built on first use and kept with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

_INF = float("inf")


class PolyError(ValueError):
    pass


class PolyParseError(PolyError):
    """Syntax error in a polynomial expression, with 1-based position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class VectorFieldError(ValueError):
    pass


def _down(x):
    return np.nextafter(x, -_INF)


def _up(x):
    return np.nextafter(x, _INF)


# ---------------------------------------------------------------------------
# interval arrays
#
# An interval array is a pair (lo, hi) of float arrays of one shape; element
# k is the closed interval [lo[k], hi[k]].  Every operation rounds outward by
# one ulp per rounding site, so each element encloses the exact real result.
# Overflow gives infinite endpoints.  A result that is undefined (inf - inf,
# or 0 * inf as the product of the two lower endpoints) has NaN endpoints,
# and the caller must check for them (`lo <= hi` fails there).  Callers also
# silence numpy's float warnings: overflow is part of the arithmetic here.
# ---------------------------------------------------------------------------


def ia_const(cs) -> tuple[np.ndarray, np.ndarray]:
    """Enclosures of exact rationals: [f, f] where f = float(c) is c exactly,
    else f widened by one ulp each way."""
    f = np.array([float(c) for c in cs])
    exact = np.array([Fraction(x) == c for x, c in zip(f.tolist(), cs)], dtype=bool)
    with np.errstate(over="ignore"):
        return np.where(exact, f, _down(f)), np.where(exact, f, _up(f))


def ia_contains_zero(a) -> np.ndarray:
    return (a[0] <= 0.0) & (0.0 <= a[1])


def ia_add(a, b):
    return _down(a[0] + b[0]), _up(a[1] + b[1])


def ia_sub(a, b):
    return _down(a[0] - b[1]), _up(a[1] - b[0])


def _hull(ll, lh, hl, hh):
    # min and max of the four endpoint products as Python's min() and max()
    # take them: a NaN in ll (0 * inf) propagates, NaNs in the others are
    # skipped
    lo = np.minimum(ll, np.fmin(np.fmin(lh, hl), hh))
    hi = np.maximum(ll, np.fmax(np.fmax(lh, hl), hh))
    return _down(lo), _up(hi)


def ia_mul(a, b):
    return _hull(a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])


def ia_div(a, b):
    """a / b, for divisors b that exclude 0."""
    return _hull(a[0] / b[0], a[0] / b[1], a[1] / b[0], a[1] / b[1])


def _power_table(a, n: int) -> tuple[np.ndarray, np.ndarray]:
    """a^0 .. a^n as two arrays of shape (n + 1,) + a's shape.

    An odd power is the repeated product a * a * ... * a.  An even power of
    an interval that contains 0 is [0, m^k], where m^k is the repeated product
    of [m, m] and m = max(|lo|, |hi|); of any other interval it is the
    repeated product with its lower end clamped at 0.  Both branches run on
    every element and each element takes its own.
    """
    lo, hi = a
    los, his = [np.ones_like(lo)], [np.ones_like(hi)]
    if n >= 1:
        los.append(lo)
        his.append(hi)
    if n >= 2:
        through = ia_contains_zero((lo, hi))
        m = np.maximum(np.abs(lo), np.abs(hi))
        rep, top = (lo, hi), (m, m)
        for k in range(2, n + 1):
            rep = ia_mul(rep, (lo, hi))
            top = ia_mul(top, (m, m))
            if k % 2:
                los.append(rep[0])
                his.append(rep[1])
            else:
                clamped = np.where(0.0 > rep[0], 0.0, rep[0])
                los.append(np.where(through, 0.0, clamped))
                his.append(np.where(through, top[1], rep[1]))
    return np.array(los), np.array(his)


class IntervalBoxes:
    """Boxes [xlo, xhi] x [ylo, yhi] held as 1-D float arrays.

    The interval powers of each axis are built on first use and shared by
    every polynomial evaluated on the boxes; `take` keeps a subset, in order,
    powers included.
    """

    __slots__ = ("x", "y", "_pow")

    def __init__(self, xlo, xhi, ylo, yhi):
        self.x = (np.asarray(xlo, dtype=float), np.asarray(xhi, dtype=float))
        self.y = (np.asarray(ylo, dtype=float), np.asarray(yhi, dtype=float))
        self._pow = [None, None]

    @classmethod
    def around(cls, cx, cy, w) -> "IntervalBoxes":
        """The squares [cx +- w] x [cy +- w], each endpoint rounded outward
        by one ulp; cx, cy and w broadcast against each other."""
        return cls(np.nextafter(cx - w, -np.inf), np.nextafter(cx + w, np.inf),
                   np.nextafter(cy - w, -np.inf), np.nextafter(cy + w, np.inf))

    def __len__(self) -> int:
        return len(self.x[0])

    def powers(self, axis: int, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Powers 0 .. (at least) n of the x (axis 0) or y (axis 1) intervals."""
        tab = self._pow[axis]
        if tab is None or len(tab[0]) <= n:
            with np.errstate(over="ignore", invalid="ignore"):
                tab = self._pow[axis] = _power_table(self.y if axis else self.x, n)
        return tab

    def take(self, keep) -> "IntervalBoxes":
        out = IntervalBoxes(self.x[0][keep], self.x[1][keep],
                            self.y[0][keep], self.y[1][keep])
        out._pow = [None if t is None else (t[0][:, keep], t[1][:, keep])
                    for t in self._pow]
        return out


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    if isinstance(c, str):
        return Fraction(c)
    if isinstance(c, float):
        return Fraction(c)
    raise TypeError(f"cannot use {type(c).__name__} as an exact coefficient")


class Poly2:
    """Polynomial in two variables over the rationals.

    Terms map exponent pairs (i, j) to nonzero Fractions; (i, j) stands for
    x^i * y^j.  The zero polynomial has no terms.
    """

    __slots__ = ("_terms", "_key", "_rows", "_cmat", "_cols", "_ivals", "_partials", "_majorant")

    def __init__(self, terms=None):
        clean: dict[tuple[int, int], Fraction] = {}
        if terms:
            for (i, j), c in terms.items():
                if i < 0 or j < 0:
                    raise PolyError(f"negative exponent in term ({i}, {j})")
                c = _as_fraction(c)
                if c != 0:
                    clean[(int(i), int(j))] = c
        self._terms = clean
        self._key = tuple(sorted(clean.items()))
        self._rows = None
        self._cmat = None
        self._cols = None
        self._ivals = None
        self._partials = None
        self._majorant = None

    @property
    def terms(self) -> dict[tuple[int, int], Fraction]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return all(k == (0, 0) for k in self._terms)

    def constant_value(self) -> Fraction:
        return self._terms.get((0, 0), Fraction(0))

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly2) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"Poly2({self.render()!r})"

    def __add__(self, other: "Poly2") -> "Poly2":
        t = dict(self._terms)
        for k, c in other._terms.items():
            t[k] = t.get(k, Fraction(0)) + c
        return Poly2(t)

    def __sub__(self, other: "Poly2") -> "Poly2":
        return self + (-other)

    def __neg__(self) -> "Poly2":
        return Poly2({k: -c for k, c in self._terms.items()})

    def __mul__(self, other: "Poly2") -> "Poly2":
        t: dict[tuple[int, int], Fraction] = {}
        for (i1, j1), c1 in self._terms.items():
            for (i2, j2), c2 in other._terms.items():
                k = (i1 + i2, j1 + j2)
                t[k] = t.get(k, Fraction(0)) + c1 * c2
        return Poly2(t)

    def __pow__(self, n: int) -> "Poly2":
        if n < 0:
            raise PolyError("negative power of a polynomial")
        out = Poly2({(0, 0): 1})
        for _ in range(n):
            out = out * self
        return out

    def scale(self, c) -> "Poly2":
        c = _as_fraction(c)
        return Poly2({k: c * v for k, v in self._terms.items()})

    def partial(self, var: int) -> "Poly2":
        """Exact partial derivative; var == 0 for x, 1 for y.  Both are built
        on the first call and kept: a Poly2 never changes, so neither do its
        derivatives and the caches they fill."""
        if var not in (0, 1):
            raise PolyError("var must be 0 (x) or 1 (y)")
        if self._partials is None:
            dx: dict[tuple[int, int], Fraction] = {}
            dy: dict[tuple[int, int], Fraction] = {}
            for (i, j), c in self._terms.items():
                if i > 0:
                    dx[(i - 1, j)] = c * i
                if j > 0:
                    dy[(i, j - 1)] = c * j
            self._partials = (Poly2(dx), Poly2(dy))
        return self._partials[var]

    def compose_affine(self, a11, a12, a21, a22, c1=0, c2=0) -> "Poly2":
        """Exact substitution x -> a11*u + a12*v + c1, y -> a21*u + a22*v + c2."""
        px = Poly2({(1, 0): _as_fraction(a11), (0, 1): _as_fraction(a12), (0, 0): _as_fraction(c1)})
        py = Poly2({(1, 0): _as_fraction(a21), (0, 1): _as_fraction(a22), (0, 0): _as_fraction(c2)})
        max_i = max((i for i, _ in self._terms), default=0)
        max_j = max((j for _, j in self._terms), default=0)
        xp = [Poly2({(0, 0): 1})]
        for _ in range(max_i):
            xp.append(xp[-1] * px)
        yp = [Poly2({(0, 0): 1})]
        for _ in range(max_j):
            yp.append(yp[-1] * py)
        out = Poly2()
        for (i, j), c in self._terms.items():
            out = out + (xp[i] * yp[j]).scale(c)
        return out

    def eval(self, x: float, y: float) -> float:
        """Horner-style evaluation in float arithmetic."""
        if self._rows is None:
            # the coefficient matrix as lists, highest powers of x and y first
            self._rows = self.coeff_matrix()[::-1, ::-1].tolist()
        acc = 0.0
        for row in self._rows:
            ry = 0.0
            for c in row:
                ry = ry * y + c
            acc = acc * x + ry
        return acc

    __call__ = eval

    def coeff_matrix(self) -> np.ndarray:
        """Dense float coefficient matrix C with C[i, j] = coeff of x^i y^j."""
        if self._cmat is None:
            if not self._terms:
                self._cmat = np.zeros((1, 1))
            else:
                mi = max(i for i, _ in self._terms)
                mj = max(j for _, j in self._terms)
                c = np.zeros((mi + 1, mj + 1))
                for (i, j), v in self._terms.items():
                    c[i, j] = float(v)
                self._cmat = c
        return self._cmat

    def majorant(self) -> "Poly2":
        """The polynomial of the absolute coefficients, built once.  Its
        value at (|x|, |y|) is the sum of |c x^i y^j| over the terms, which
        bounds |p(x, y)| and scales the rounding error of its float value."""
        if self._majorant is None:
            self._majorant = Poly2({k: abs(c) for k, c in self._terms.items()})
        return self._majorant

    def _interval_terms(self):
        """Exponent arrays and coefficient enclosures, in `_key` order, for
        `interval_eval`; the enclosures are (T, 1) columns."""
        if self._ivals is None:
            lo, hi = ia_const([c for _, c in self._key])
            self._ivals = (np.array([i for (i, _), _ in self._key]),
                           np.array([j for (_, j), _ in self._key]),
                           (lo[:, None], hi[:, None]))
        return self._ivals

    def _columns(self) -> tuple:
        """The column plan: per power of y, the coefficients of x^k down to
        x^0, k the highest power with a nonzero one, as float64 scalars; ()
        for a column with none."""
        if self._cols is None:
            cols = []
            for col in self.coeff_matrix().T:
                nz = np.flatnonzero(col)
                cols.append(tuple(col[nz[-1]::-1]) if len(nz) else ())
            self._cols = tuple(cols)
        return self._cols

    def eval_grid(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Values at the points (x, y), bit-identical to numpy's
        polyval2d(x, y, coeff_matrix()).

        polyval2d runs Horner in x over every column of the coefficient
        matrix, then polyval's Horner in y over the column values.  Here
        each column starts at its highest nonzero coefficient.  polyval2d's
        steps above it add ±0 to +0.0, which for a finite x stays +0.0, so
        its first nonzero step gives that coefficient plus ±0, as
        `col[0] + z` does.  Carrying z = x * 0.0 there makes inf and NaN
        propagate as in polyval2d.
        """
        x = np.asanyarray(x)
        y = np.asanyarray(y)
        z = x * 0.0
        h = []
        for col in self._columns():
            if not col:
                h.append(z + 0.0)
                continue
            c0 = col[0] + z
            for c in col[1:]:
                c0 = c + c0 * x
            h.append(c0)
        c0 = h[-1] + y * 0
        for hj in h[-2::-1]:
            c0 = hj + c0 * y
        return c0

    def eval_outer(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Values on the grid xs[:, None], ys[None, :], bit-identical to
        numpy's polygrid2d(xs, ys, coeff_matrix()).

        Horner in x runs on the 1-D axis first (polyval), giving one row of
        x-values per y power.  The y pass then works in place on one
        (len(xs), len(ys)) array instead of allocating two per coefficient
        row; IEEE + and * commute, so every value is the same.  `+ ys * 0`
        keeps polyval's signed zeros.
        """
        ys = np.asarray(ys)
        r = np.polynomial.polynomial.polyval(xs, self.coeff_matrix())
        out = r[-1][:, None] + ys * 0
        for row in r[-2::-1]:
            out *= ys
            out += row[:, None]
        return out

    def render(self) -> str:
        """Canonical form: graded-lex term order, explicit '*' and '^'."""
        if not self._terms:
            return "0"
        keys = sorted(self._terms, key=lambda k: (k[0] + k[1], k[0]), reverse=True)
        parts = []
        for n, k in enumerate(keys):
            c = self._terms[k]
            mono = _render_monomial(k)
            mag = abs(c)
            if mono:
                body = mono if mag == 1 else f"{_render_fraction(mag)}*{mono}"
            else:
                body = _render_fraction(mag)
            if n == 0:
                parts.append(f"-{body}" if c < 0 else body)
            else:
                parts.append(f" - {body}" if c < 0 else f" + {body}")
        return "".join(parts)


def _render_fraction(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _render_monomial(k: tuple[int, int]) -> str:
    i, j = k
    pieces = []
    if i == 1:
        pieces.append("x")
    elif i > 1:
        pieces.append(f"x^{i}")
    if j == 1:
        pieces.append("y")
    elif j > 1:
        pieces.append(f"y^{j}")
    return "*".join(pieces)


def interval_eval(p: Poly2, boxes: IntervalBoxes) -> tuple[np.ndarray, np.ndarray]:
    """Interval enclosures of the range of p over each box, as (lo, hi).

    The sum of the terms (c * x^i) * y^j, left to right in exponent order,
    with c's enclosure from `ia_const`.  It encloses the true range but may
    overestimate its width.  NaN endpoints mean the arithmetic left the float
    range on that box.
    """
    n = len(boxes)
    if not p._terms:
        return np.zeros(n), np.zeros(n)
    i, j, c = p._interval_terms()
    xl, xh = boxes.powers(0, int(i.max()))
    yl, yh = boxes.powers(1, int(j.max()))
    with np.errstate(over="ignore", invalid="ignore"):
        tl, th = ia_mul(ia_mul(c, (xl[i], xh[i])), (yl[j], yh[j]))
        lo = hi = np.zeros(n)
        for k in range(len(tl)):
            lo = _down(lo + tl[k])
            hi = _up(hi + th[k])
    return lo, hi


# ---------------------------------------------------------------------------
# expression parser
#
#   expr   := term (('+' | '-') term)*
#   term   := factor (('*' | '/') factor)*
#   factor := base ('^' nonneg-int)?
#   base   := 'x' | 'y' | number | '(' expr ')' | '-' factor
#
# No implicit multiplication.  Division is only defined by a nonzero
# constant.  Decimal literals are exact (denominator a power of ten).
# ---------------------------------------------------------------------------

_X = Poly2({(1, 0): 1})
_Y = Poly2({(0, 1): 1})


@dataclass
class _Token:
    kind: str  # 'num', 'var', 'op', 'end'
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    toks = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch.isdigit():
            start = i
            startcol = col
            while i < n and text[i].isdigit():
                i += 1
            if i < n and text[i] == ".":
                i += 1
                if i >= n or not text[i].isdigit():
                    raise PolyParseError("malformed decimal literal", line, startcol)
                while i < n and text[i].isdigit():
                    i += 1
            tok = text[start:i]
            col += i - start
            toks.append(_Token("num", tok, line, startcol))
            continue
        if ch in "xy":
            toks.append(_Token("var", ch, line, col))
            i += 1
            col += 1
            continue
        if ch in "+-*/^()":
            toks.append(_Token("op", ch, line, col))
            i += 1
            col += 1
            continue
        raise PolyParseError(f"unexpected character {ch!r}", line, col)
    last_line = line
    last_col = col
    toks.append(_Token("end", "", last_line, last_col))
    return toks


class _Parser:
    def __init__(self, toks: list[_Token]):
        self.toks = toks
        self.pos = 0

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def next(self) -> _Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def fail(self, msg: str, tok: _Token | None = None):
        tok = tok or self.peek()
        raise PolyParseError(msg, tok.line, tok.col)

    def parse(self) -> Poly2:
        p = self.expr()
        if self.peek().kind != "end":
            self.fail(f"unexpected {self.peek().text!r}")
        return p

    def expr(self) -> Poly2:
        p = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.next().text
            rhs = self.term()
            p = p + rhs if op == "+" else p - rhs
        return p

    def term(self) -> Poly2:
        p = self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op_tok = self.next()
            rhs = self.factor()
            if op_tok.text == "*":
                p = p * rhs
            else:
                if not rhs.is_constant():
                    self.fail("division is only defined by a nonzero numeric literal", op_tok)
                d = rhs.constant_value()
                if d == 0:
                    self.fail("division by zero", op_tok)
                p = p.scale(Fraction(1) / d)
        return p

    def factor(self) -> Poly2:
        p = self.base()
        if self.peek().kind == "op" and self.peek().text == "^":
            caret = self.next()
            t = self.peek()
            if t.kind != "num" or "." in t.text:
                self.fail("exponent must be a nonnegative integer", caret)
            self.next()
            p = p ** int(t.text)
        return p

    def base(self) -> Poly2:
        t = self.next()
        if t.kind == "num":
            return Poly2({(0, 0): Fraction(t.text)})
        if t.kind == "var":
            return _X if t.text == "x" else _Y
        if t.kind == "op" and t.text == "(":
            p = self.expr()
            closing = self.next()
            if closing.kind != "op" or closing.text != ")":
                self.fail("expected ')'", closing)
            return p
        if t.kind == "op" and t.text == "-":
            return -self.factor()
        if t.kind == "end":
            self.fail("unexpected end of input", t)
        self.fail(f"unexpected {t.text!r}", t)


def parse_poly(text: str) -> Poly2:
    """Parse an expression in x and y into an exact polynomial."""
    return _Parser(_tokenize(text)).parse()


# ---------------------------------------------------------------------------
# vector fields and the .vf file format
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Box:
    """Axis-aligned rectangle with exact rational corners."""

    xmin: Fraction
    xmax: Fraction
    ymin: Fraction
    ymax: Fraction

    def __post_init__(self):
        if not (self.xmin < self.xmax and self.ymin < self.ymax):
            raise VectorFieldError("box must have positive width and height")

    @staticmethod
    def make(xmin, xmax, ymin, ymax) -> "Box":
        return Box(_as_fraction(xmin), _as_fraction(xmax), _as_fraction(ymin), _as_fraction(ymax))

    def floats(self) -> tuple[float, float, float, float]:
        return (float(self.xmin), float(self.xmax), float(self.ymin), float(self.ymax))

    def inflate(self, factor: float) -> tuple[float, float, float, float]:
        x0, x1, y0, y1 = self.floats()
        cx, cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
        hx, hy = 0.5 * (x1 - x0) * factor, 0.5 * (y1 - y0) * factor
        return (cx - hx, cx + hx, cy - hy, cy + hy)


DEFAULT_BOX = Box.make(-5, 5, -5, 5)


@dataclass(frozen=True)
class VectorField:
    """Planar polynomial field (dx/dt, dy/dt) = (p, q) with a search box."""

    p: Poly2
    q: Poly2
    name: str = "unnamed"
    box: Box = DEFAULT_BOX

    def __post_init__(self):
        if self.p.is_zero() and self.q.is_zero():
            raise VectorFieldError("vector field must have a nonzero component")
        # div V is built once here and kept: the certificates and the
        # detection read it on every pass
        object.__setattr__(self, "_divergence", self.p.partial(0) + self.q.partial(1))
        # critfind's enclosures and Newton steps read the partials and div V
        # as floats too, so their coefficients must fit as well
        try:
            for poly in (self.p, self.q, self.p.partial(0), self.p.partial(1),
                         self.q.partial(0), self.q.partial(1), self._divergence):
                poly.coeff_matrix()
            self.box.floats()
        except OverflowError:
            raise VectorFieldError("coefficient or box corner beyond the float range") from None

    def eval(self, x: float, y: float) -> tuple[float, float]:
        return self.p.eval(x, y), self.q.eval(x, y)

    def divergence(self) -> Poly2:
        """div V = dp/dx + dq/dy, exactly."""
        return self._divergence

    def jacobian_at(self, x: float, y: float) -> np.ndarray:
        return np.array(
            [
                [self.p.partial(0).eval(x, y), self.p.partial(1).eval(x, y)],
                [self.q.partial(0).eval(x, y), self.q.partial(1).eval(x, y)],
            ]
        )


def _parse_scalar(text: str, line: int) -> Fraction:
    text = text.strip()
    neg = False
    if text.startswith("-"):
        neg = True
        text = text[1:].strip()
    try:
        val = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise VectorFieldError(f"line {line}: bad numeric value {text!r}")
    return -val if neg else val


def _parse_box(value: str, line: int) -> Box:
    # box = [a, b] x [c, d]
    s = value.strip()
    parts = s.split("x")
    if len(parts) != 2:
        raise VectorFieldError(f"line {line}: box must look like [a, b] x [c, d]")

    def interval(chunk: str) -> tuple[Fraction, Fraction]:
        chunk = chunk.strip()
        if not (chunk.startswith("[") and chunk.endswith("]")):
            raise VectorFieldError(f"line {line}: box must look like [a, b] x [c, d]")
        inner = chunk[1:-1].split(",")
        if len(inner) != 2:
            raise VectorFieldError(f"line {line}: box interval needs two endpoints")
        return _parse_scalar(inner[0], line), _parse_scalar(inner[1], line)

    (a, b) = interval(parts[0])
    (c, d) = interval(parts[1])
    try:
        return Box(a, b, c, d)
    except VectorFieldError as e:
        raise VectorFieldError(f"line {line}: {e}")


def parse_vf(text: str, name: str = "unnamed") -> VectorField:
    """Parse the .vf format: '# comment', 'P = expr', 'Q = expr',
    optional 'box = [a, b] x [c, d]' and 'name = string'."""
    p = q = None
    box = DEFAULT_BOX
    fname = name
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise VectorFieldError(f"line {lineno}: expected 'key = value'")
        key, value = stripped.split("=", 1)
        key = key.strip()
        value = value.strip()
        if key == "P":
            if p is not None:
                raise VectorFieldError(f"line {lineno}: P defined twice")
            try:
                p = parse_poly(value)
            except PolyParseError as e:
                raise VectorFieldError(f"line {lineno}, col {e.col}: P: {e.message}")
        elif key == "Q":
            if q is not None:
                raise VectorFieldError(f"line {lineno}: Q defined twice")
            try:
                q = parse_poly(value)
            except PolyParseError as e:
                raise VectorFieldError(f"line {lineno}, col {e.col}: Q: {e.message}")
        elif key == "box":
            box = _parse_box(value, lineno)
        elif key == "name":
            fname = value
        else:
            raise VectorFieldError(f"line {lineno}: unknown key {key!r}")
    if p is None or q is None:
        raise VectorFieldError("both P and Q must be defined")
    return VectorField(p, q, name=fname, box=box)


def load_vf(path) -> VectorField:
    from pathlib import Path

    path = Path(path)
    return parse_vf(path.read_text(), name=path.stem)
