"""Exact pseudo-Boolean polynomial algebra over named binary variables.

Polynomials here are multilinear: x*x == x for every binary variable, so a
monomial is a set of distinct variables and multiplication reduces by set
union.  Coefficients are exact `fractions.Fraction` values; nothing is
rounded until the spin-Hamiltonian boundary.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from typing import Dict, Iterable, List, Mapping, Tuple, Union

import numpy as np

from .errors import ConflictingFix, MissingVariable, ParseError, TooManyVariables

# Canonical role order: multiplier bits first, then carries, then auxiliaries.
_ROLE_RANK = {"p": 0, "q": 1, "z": 2, "w": 3}

_VAR_RE = re.compile(r"^([A-Za-z]+)(\d+)(?:_(\d+))?$")


class Var:
    """A binary unknown: multiplier bit (p/q), carry (z), or auxiliary (w).

    Two-index roles (carries z_{j,k}, products w_{i,j}) print as ``z3_4``;
    single-index roles print as ``p1``.  Instances are immutable and are
    ordered by (role rank, indices); that order fixes printed term order and
    qubit numbering everywhere downstream.
    """

    __slots__ = ("role", "i", "j", "_key", "_hash")

    def __init__(self, role: str, i: int, j: int | None = None):
        object.__setattr__(self, "role", role)
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "j", j)
        key = (_ROLE_RANK.get(role, 9), role, i, -1 if j is None else j)
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))

    def __setattr__(self, name, value):
        raise AttributeError("Var is immutable")

    @property
    def name(self) -> str:
        if self.j is None:
            return f"{self.role}{self.i}"
        return f"{self.role}{self.i}_{self.j}"

    @staticmethod
    def parse(name: str) -> "Var":
        m = _VAR_RE.match(name)
        if m is None:
            raise ParseError(f"bad variable name {name!r}")
        role, i, j = m.group(1), int(m.group(2)), m.group(3)
        return Var(role, i, None if j is None else int(j))

    def __eq__(self, other):
        return isinstance(other, Var) and self._key == other._key

    def __lt__(self, other):
        return self._key < other._key

    def __le__(self, other):
        return self._key <= other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Var({self.name})"


def pvar(i: int) -> Var:
    return Var("p", i)


def qvar(i: int) -> Var:
    return Var("q", i)


def carry(j: int, k: int) -> Var:
    """Carry bit from column j into column k (weight 2**(k-j) at column j)."""
    return Var("z", j, k)


def aux(i: int, j: int) -> Var:
    """Auxiliary product variable standing for p_i * q_j."""
    return Var("w", i, j)


Monomial = Tuple[Var, ...]
Assignment = Mapping[Var, int]
Coeff = Union[int, Fraction]

_EMPTY: Monomial = ()


def _merge(a: Monomial, b: Monomial) -> Monomial:
    """Union of two sorted variable tuples (idempotent product)."""
    if not a:
        return b
    if not b:
        return a
    out = []
    ia = ib = 0
    while ia < len(a) and ib < len(b):
        va, vb = a[ia], b[ib]
        if va == vb:
            out.append(va)
            ia += 1
            ib += 1
        elif va < vb:
            out.append(va)
            ia += 1
        else:
            out.append(vb)
            ib += 1
    out.extend(a[ia:])
    out.extend(b[ib:])
    return tuple(out)


class BoolPoly:
    """Multilinear polynomial with exact rational coefficients.

    Internal representation: dict mapping a sorted tuple of Vars to a
    nonzero Fraction.  The empty tuple keys the constant term.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Monomial, Fraction] | None = None):
        self.terms: Dict[Monomial, Fraction] = terms if terms is not None else {}

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero() -> "BoolPoly":
        return BoolPoly()

    @staticmethod
    def const(c: Coeff) -> "BoolPoly":
        c = Fraction(c)
        return BoolPoly({_EMPTY: c} if c else {})

    @staticmethod
    def of(v: Var) -> "BoolPoly":
        return BoolPoly({(v,): Fraction(1)})

    @staticmethod
    def monomial(vs: Iterable[Var], c: Coeff = 1) -> "BoolPoly":
        c = Fraction(c)
        if not c:
            return BoolPoly()
        key = tuple(sorted(set(vs)))
        return BoolPoly({key: c})

    # -- inspection --------------------------------------------------------

    @property
    def constant(self) -> Fraction:
        return self.terms.get(_EMPTY, Fraction(0))

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((len(m) for m in self.terms), default=0)

    def variables(self) -> List[Var]:
        seen = set()
        for m in self.terms:
            seen.update(m)
        return sorted(seen)

    def monomials(self) -> List[Tuple[Monomial, Fraction]]:
        """Terms in canonical order: by (degree, variable sequence)."""
        return sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, BoolPoly):
            other = BoolPoly.const(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            acc = out.get(m, 0) + c
            if acc:
                out[m] = acc
            else:
                out.pop(m, None)
        return BoolPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return BoolPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, BoolPoly):
            other = BoolPoly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return BoolPoly.const(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, BoolPoly):
            c = Fraction(other)
            if not c:
                return BoolPoly()
            return BoolPoly({m: cc * c for m, cc in self.terms.items()})
        out: Dict[Monomial, Fraction] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = _merge(ma, mb)
                acc = out.get(m, 0) + ca * cb
                if acc:
                    out[m] = acc
                else:
                    out.pop(m, None)
        return BoolPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = BoolPoly.const(1)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        return isinstance(other, BoolPoly) and self.terms == other.terms

    def __repr__(self):
        return f"BoolPoly({format_poly(self)})"

    # -- semantics -----------------------------------------------------------

    def evaluate(self, assignment: Assignment) -> Fraction:
        """Value at a 0/1 assignment covering every variable of the polynomial."""
        total = Fraction(0)
        for m, c in self.terms.items():
            val = 1
            for v in m:
                try:
                    b = assignment[v]
                except KeyError:
                    raise MissingVariable(f"assignment lacks {v.name}") from None
                if not b:
                    val = 0
                    break
            if val:
                total += c
        return total

    def bounds(self) -> Tuple[Fraction, Fraction]:
        """Interval containing all attainable values.

        Each non-constant monomial ranges over {0, coeff}; the bound is the
        sum of per-monomial extremes and is not tight in general.
        """
        lo = hi = self.terms.get(_EMPTY, 0)
        for m, c in self.terms.items():
            if not m:
                continue
            if c > 0:
                hi += c
            else:
                lo += c
        return lo, hi

    def substitute(self, fixes: Mapping[Var, Union[int, Var]]) -> "BoolPoly":
        """Eliminate fixed variables: targets are 0, 1, or another Var.

        Alias chains are resolved first; a cycle raises ConflictingFix.
        """
        if not fixes:
            return self
        resolved: Dict[Var, Union[int, Var]] = {}
        for v in fixes:
            t = fixes[v]
            seen = {v}
            while isinstance(t, Var) and t in fixes:
                if t in seen:
                    raise ConflictingFix(f"alias cycle through {t.name}")
                seen.add(t)
                t = fixes[t]
            if isinstance(t, int) and t not in (0, 1):
                raise ConflictingFix(f"{v.name} fixed to non-binary value {t}")
            resolved[v] = t
        out: Dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            dead = False
            kept: set = set()
            for v in m:
                t = resolved.get(v, v)
                if isinstance(t, Var):
                    kept.add(t)
                elif t == 0:
                    dead = True
                    break
            if dead:
                continue
            key = tuple(sorted(kept))
            acc = out.get(key, 0) + c
            if acc:
                out[key] = acc
            else:
                out.pop(key, None)
        return BoolPoly(out)


def merge_fixes(base: Dict[Var, Union[int, Var]],
                new: Mapping[Var, Union[int, Var]]) -> None:
    """Add fixes into base in place, rejecting contradictory targets."""
    for v, t in new.items():
        if v in base and base[v] != t:
            raise ConflictingFix(
                f"{v.name} fixed to both {base[v]} and {t}")
        base[v] = t


# -- exhaustive minimization ------------------------------------------------

def brute_force_minima(poly: BoolPoly, cap: int = 24):
    """Exact minimum and all minimizing assignments of a pseudo-Boolean poly.

    Enumerates all 2**n assignments of the occurring variables (n <= cap),
    vectorized over blocks with integer arithmetic after clearing
    denominators, so the result is exact.

    Returns (min_value: Fraction, minimizers: list of {Var: 0/1} dicts).
    """
    vs = poly.variables()
    n = len(vs)
    if n > cap:
        raise TooManyVariables(f"{n} variables exceeds cap {cap}")
    if n == 0:
        return poly.constant, [dict()]

    denom = 1
    for c in poly.terms.values():
        denom = denom * c.denominator // gcd(denom, c.denominator)
    scaled = [(m, int(c * denom)) for m, c in poly.monomials()]
    if sum(abs(c) for _, c in scaled) >= 2 ** 62:
        raise OverflowError("scaled coefficients exceed int64 range")

    index = {v: k for k, v in enumerate(vs)}
    block_bits = min(n, 20)
    block = 1 << block_bits
    base_idx = np.arange(block, dtype=np.int64)

    best = None
    best_idxs: List[int] = []
    for start in range(0, 1 << n, block):
        idxs = base_idx + start
        acc = np.zeros(block, dtype=np.int64)
        bit_cache: Dict[int, np.ndarray] = {}
        for m, c in scaled:
            if not m:
                acc += c
                continue
            mask = None
            for v in m:
                k = index[v]
                b = bit_cache.get(k)
                if b is None:
                    b = ((idxs >> k) & 1).astype(np.int64)
                    bit_cache[k] = b
                mask = b if mask is None else mask * b
            acc += c * mask
        lo = int(acc.min())
        if best is None or lo < best:
            best = lo
            best_idxs = [int(i) for i in idxs[acc == lo]]
        elif lo == best:
            best_idxs.extend(int(i) for i in idxs[acc == lo])

    minimizers = [{vs[k]: (i >> k) & 1 for k in range(n)} for i in best_idxs]
    return Fraction(best, denom), minimizers


# -- text format --------------------------------------------------------------

def _coeff_str(c: Fraction) -> str:
    return str(c)  # Fraction prints as "3" or "-1/8"


def format_poly(poly: BoolPoly) -> str:
    """Single-line algebraic form in canonical term order, e.g.
    ``-1 + p1 + q1 - 2*z1_2`` (constant first, then by degree)."""
    if poly.is_zero():
        return "0"
    parts = []
    for m, c in poly.monomials():
        body_vars = "*".join(v.name for v in m)
        mag = abs(c)
        if not m:
            body = _coeff_str(mag)
        elif mag == 1:
            body = body_vars
        else:
            body = f"{_coeff_str(mag)}*{body_vars}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def _parse_fraction(tok: str) -> Fraction:
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError) as e:
        raise ParseError(f"bad coefficient {tok!r}") from e


_NUM_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_poly(text: str) -> BoolPoly:
    """Parse the single-line algebraic form produced by format_poly."""
    s = text.split("#", 1)[0].strip()
    if not s or s == "0":
        return BoolPoly.zero()
    # normalize into signed chunks; glue products tight so terms stay single tokens
    s = re.sub(r"\s*\*\s*", "*", s)
    s = s.replace("-", " - ").replace("+", " + ")
    toks = s.split()
    out = BoolPoly.zero()
    pending = None  # sign awaiting its term
    first = True
    for t in toks:
        if t in ("+", "-"):
            if pending is not None:
                raise ParseError(f"consecutive operator {t!r}")
            pending = t
            continue
        if not first and pending is None:
            raise ParseError(f"missing operator before {t!r}")
        sign = -1 if pending == "-" else 1
        pending = None
        first = False
        # a term: [coeff*]var[*var...] or a bare coefficient
        factors = t.split("*")
        coeff = Fraction(sign)
        vs: List[Var] = []
        for f in factors:
            f = f.strip()
            if not f:
                raise ParseError(f"empty factor in term {t!r}")
            if _NUM_RE.match(f):
                coeff *= _parse_fraction(f)
            else:
                vs.append(Var.parse(f))
        out = out + BoolPoly.monomial(vs, coeff)
    if pending is not None:
        raise ParseError("trailing operator")
    return out
