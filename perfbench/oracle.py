"""Independent reference values for checking limfuse outputs.

Nothing here imports limfuse. Weights come from their defining closed
forms, printed rational functions are read by a separate parser, and matrix
checks use a plain Fraction elimination, so a check never asks the code
under test to confirm itself.
"""

from __future__ import annotations

import re
from fractions import Fraction as F


def parity_range(a: int, b: int) -> range:
    """Indices reached by fusing index a with index b."""
    return range(abs(a - b) + 1, a + b, 2)


def _vir(r: int, s: int, t: F) -> F:
    return F(r * r - 1, 4) * t - F(r * s - 1, 2) + F(s * s - 1, 4) / t


class Family:
    """One built-in label family: printed prefix, index count, the letter of
    its formal parameter, the index validity rule and the weight formula."""

    def __init__(self, name, prefix, arity, param, valid, weight):
        self.name = name
        self.prefix = prefix
        self.arity = arity
        self.param = param
        self.valid = valid
        self.weight = weight

    def labels_up_to(self, bound: int) -> list[tuple]:
        if self.arity == 1:
            return [(k,) for k in range(1, bound + 1) if self.valid((k,))]
        return [(i, j) for i in range(1, bound + 1) for j in range(1, bound + 1) if self.valid((i, j))]

    def fuse(self, x: tuple, y: tuple) -> list[tuple]:
        if self.arity == 1:
            return [(c,) for c in parity_range(x[0], y[0]) if self.valid((c,))]
        return [(c1, c2) for c1 in parity_range(x[0], y[0]) for c2 in parity_range(x[1], y[1])]

    def label(self, x: tuple) -> str:
        return f"{self.prefix}({','.join(str(v) for v in x)})"


FAMILIES = {
    f.name: f
    for f in (
        Family("virasoro-t", "Lt", 2, "t", lambda x: True, lambda x, t: _vir(x[0], x[1], t)),
        Family("virasoro-kp2", "Lk", 2, "s", lambda x: True, lambda x, s: _vir(x[0], x[1], (s + 1) / 2)),
        Family("kl-sl2", "V", 1, "s", lambda x: True, lambda x, s: F(x[0] ** 2 - 1, 2) / (s + 1)),
        Family(
            "supervir", "S", 2, "s", lambda x: (x[0] + x[1]) % 2 == 0,
            lambda x, s: F(x[0] ** 2 - 1, 8) * s + F(x[1] ** 2 - 1, 8) / s - F(x[0] * x[1] - 1, 4),
        ),
        Family("osp", "M", 1, "s", lambda x: x[0] % 2 == 1, lambda x, s: F(x[0] ** 2 - 1, 8) / s),
    )
}


class Deligne:
    """Product of two families; a t-parameter factor paired with an
    s-parameter factor is read at t = (s+1)/(2s)."""

    def __init__(self, left: Family, right: Family):
        self.left, self.right = left, right
        self.name = f"deligne({left.name},{right.name})"
        self.param = "s" if "s" in (left.param, right.param) else "t"

    def labels_up_to(self, bound: int) -> list[tuple]:
        return [(a, b) for a in self.left.labels_up_to(bound) for b in self.right.labels_up_to(bound)]

    def _at(self, fam: Family, x: tuple, v: F) -> F:
        if fam.param == "t" and self.param == "s":
            return fam.weight(x, (v + 1) / (2 * v))
        return fam.weight(x, v)

    def weight(self, x: tuple, v: F) -> F:
        return self._at(self.left, x[0], v) + self._at(self.right, x[1], v)

    def label(self, x: tuple) -> str:
        return f"{self.left.label(x[0])}%{self.right.label(x[1])}"


def category(name: str):
    if name.startswith("deligne("):
        left, right = name[len("deligne("):-1].split(",")
        return Deligne(FAMILIES[left], FAMILIES[right])
    return FAMILIES[name]


# Closed forms have numerator and denominator degree at most this in the
# parameter (Deligne products with both parameters reach it).
REFERENCE_DEGREE = 3


def parse_intpoly(text: str, var: str) -> dict[int, int]:
    """Read an integer polynomial printed as e.g. '3*s^2-6*s+3'."""
    if not text or text == "0":
        return {}
    out: dict[int, int] = {}
    terms = re.findall(r"[+-]?[^+-]+", text)
    if "".join(terms) != text:
        raise ValueError(f"bad polynomial {text!r}")
    for term in terms:
        sign = -1 if term[0] == "-" else 1
        body = term.lstrip("+-")
        coef, has_var, power = body.partition(var)
        if not has_var:
            deg, c = 0, int(body)
        else:
            if coef and not coef.endswith("*"):
                raise ValueError(f"bad term {term!r}")
            c = int(coef[:-1]) if coef else 1
            if power and not power.startswith("^"):
                raise ValueError(f"bad term {term!r}")
            deg = int(power[1:]) if power else 1
        if deg in out:
            raise ValueError(f"repeated degree in {text!r}")
        out[deg] = sign * c
    return out


def parse_ratfunc(text: str, var: str) -> tuple[dict[int, int], dict[int, int]]:
    """Read a printed rational function: 'p/q', a polynomial, or '(N)/(D)'."""
    m = re.fullmatch(r"\((.+)\)/\((.+)\)", text)
    if m:
        return parse_intpoly(m.group(1), var), parse_intpoly(m.group(2), var)
    m = re.fullmatch(r"(-?\d+)/(\d+)", text)
    if m:
        return {0: int(m.group(1))}, {0: int(m.group(2))}
    return parse_intpoly(text, var), {0: 1}


def eval_poly(coeffs: dict, x: F) -> F:
    return sum((F(c) * x**k for k, c in coeffs.items()), F(0))


def same_function(num: dict, den: dict, reference, ref_degree: int = REFERENCE_DEGREE) -> bool:
    """True when num/den equals the reference rational function.

    num/den and the reference (numerator and denominator degree at most
    ref_degree) agree identically once they agree at more points than the
    degree of num*D_ref - N_ref*den, which is at most max(deg num, deg den)
    + ref_degree.
    """
    if not den:
        return False
    need = max(0, *num, *den) + ref_degree + 1
    x = F(2)
    agreed = 0
    while agreed < need:
        d = eval_poly(den, x)
        if d != 0:
            if eval_poly(num, x) / d != reference(x):
                return False
            agreed += 1
        x += F(1, 3)
    return True


def printed_equals(text: str, var: str, reference) -> bool:
    try:
        num, den = parse_ratfunc(text, var)
    except ValueError:
        return False
    return same_function(num, den, reference)


def constant_value(text: str) -> F | None:
    m = re.fullmatch(r"(-?\d+)(?:/(\d+))?", text)
    return F(int(m.group(1)), int(m.group(2) or 1)) if m else None


def phase_text(c: F) -> str:
    v = c - (c.numerator // c.denominator)
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def matmul(a, b, inner: int, cols: int) -> list[list[F]]:
    """Product of an r x inner and an inner x cols matrix of Fractions."""
    return [[sum((row[k] * b[k][c] for k in range(inner)), F(0)) for c in range(cols)] for row in a]


def as_lists(m) -> list[list[F]]:
    return [list(r) for r in m]


def rank(rows, ncols: int) -> int:
    """Rank of a list of Fraction rows by plain Gaussian elimination."""
    mat = [list(r) for r in rows]
    rk = 0
    for col in range(ncols):
        piv = next((i for i in range(rk, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[rk], mat[piv] = mat[piv], mat[rk]
        p = mat[rk]
        for i in range(len(mat)):
            if i != rk and mat[i][col] != 0:
                f = mat[i][col] / p[col]
                mat[i] = [x - f * y for x, y in zip(mat[i], p)]
        rk += 1
    return rk
