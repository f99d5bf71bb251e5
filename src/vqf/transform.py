"""Cost-function reshaping and the spin-Hamiltonian boundary.

A squared clause system admits several cost functions with the same ground
states but different interaction structure.  Squaring clauses directly keeps
the variable count minimal at the price of high-order terms; peeling one
product out of each clause into a shifted square caps the order at three
with no new variables; substituting products by penalized auxiliary bits
buys locality two (or three, with the simplified penalty) for extra qubits.
All four variants are built here, exactly, and only `to_hamiltonian` rounds
to floats.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .encoder import ClauseSystem, cost_function
from .errors import InvalidPenaltyCoefficients, ParseError, UndecomposableClause
from .pboly import BoolPoly, Var, aux

Coeff = Union[int, Fraction]

_KIND_NAMES = ("DIRECT", "SCHALLER", "GROBNER", "SIM_GROBNER")


def _check_penalty(a: Coeff, b: Coeff, c: Coeff) -> Tuple[Fraction, Fraction, Fraction]:
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    # All four violation patterns of w = p*q must cost something positive.
    checks = (-a - b - c, -b - c, -a - c, c)
    if min(checks) <= 0:
        raise InvalidPenaltyCoefficients(
            f"penalty coefficients (a={a}, b={b}, c={c}) admit a free violation; "
            "need -a-b-c, -b-c, -a-c and c all > 0"
        )
    return a, b, c


@dataclass(frozen=True, slots=True)
class TransformKind:
    """One of the four cost transformations, by name.

    The GROBNER kind carries its penalty coefficients (a, b, c); the other
    kinds carry none.  Instances are immutable value objects, so the module
    constants `DIRECT`, `SCHALLER`, `GROBNER`, `SIM_GROBNER` can be compared
    with `==` against freshly parsed kinds.
    """

    name: str
    abc: Optional[Tuple[Coeff, Coeff, Coeff]] = None

    def __post_init__(self):
        if self.name not in _KIND_NAMES:
            raise ParseError(f"unknown transform kind {self.name!r}")
        if self.name == "GROBNER":
            a, b, c = self.abc if self.abc is not None else (-2, -2, 1)
            object.__setattr__(self, "abc", _check_penalty(a, b, c))
        elif self.abc is not None:
            raise ParseError(f"{self.name} takes no penalty coefficients")

    @staticmethod
    def parse(text: str, abc: Optional[Tuple[Coeff, Coeff, Coeff]] = None) -> "TransformKind":
        name = text.strip().upper().replace("-", "_")
        if name == "GROBNER":
            return TransformKind(name, abc)
        return TransformKind(name)

    def __repr__(self):
        if self.abc is None:
            return f"TransformKind({self.name})"
        return f"TransformKind({self.name}, abc={tuple(map(str, self.abc))})"


DIRECT = TransformKind("DIRECT")
SCHALLER = TransformKind("SCHALLER")
GROBNER = TransformKind("GROBNER")
SIM_GROBNER = TransformKind("SIM_GROBNER")

ALL_KINDS = (DIRECT, SCHALLER, GROBNER, SIM_GROBNER)


def transform_direct(cs: ClauseSystem) -> BoolPoly:
    """Sum of squared clauses, fully expanded and reduced."""
    return cost_function(cs)


def _is_integer_poly(p: BoolPoly) -> bool:
    return all(c.denominator == 1 for _, c in p.monomials())


def transform_schaller(cs: ClauseSystem) -> BoolPoly:
    """Replace each squared clause by a one-product peel.

    A clause A*B + S with A, B single bits and S integer-valued contributes
    2*[(A + B - 1/2)/2 + S]^2 - 1/8, which is nonnegative and vanishes
    exactly where the clause does, but squares S instead of A*B + S and so
    never multiplies two peeled products together.  The peeled monomial is
    the lexicographically first degree-2 monomial whose removal leaves S
    with integer coefficients; clauses without a degree-2 monomial keep
    their plain square.
    """
    total = BoolPoly.zero()
    half = Fraction(1, 2)
    for clause in cs.clauses:
        deg2 = [vs for vs, _ in clause.monomials() if len(vs) == 2]
        if not deg2:
            total = total + clause * clause
            continue
        peeled = None
        for vs in deg2:
            s = clause - BoolPoly.monomial(vs)
            if _is_integer_poly(s):
                peeled = (vs, s)
                break
        if peeled is None:
            raise UndecomposableClause(
                f"no unit-coefficient product peel for clause with monomials "
                f"{[tuple(v.name for v in vs) for vs in deg2]}"
            )
        (va, vb), s = peeled
        bracket = (BoolPoly.of(va) + BoolPoly.of(vb) - half) * half + s
        total = total + bracket * bracket * 2 - Fraction(1, 8)
    return total


def _substitute_high_degree(cost: BoolPoly) -> Tuple[BoolPoly, List[Var]]:
    """Rewrite every degree >= 3 monomial using product bits w_{ij} = p_i*q_j.

    Each monomial repeatedly folds its lexicographically first (i, j) pair
    with both p_i and q_j present into w_{ij} until the degree drops to 2
    (or no pair remains).  One auxiliary bit serves all occurrences of the
    same product.  Degree <= 2 monomials are left alone.
    """
    out: BoolPoly = BoolPoly.zero()
    used: Dict[Tuple[int, int], Var] = {}
    for vs, coeff in cost.monomials():
        cur = set(vs)
        while len(cur) > 2:
            pairs = sorted(
                (v.i, u.i)
                for v in cur if v.role == "p"
                for u in cur if u.role == "q"
            )
            if not pairs:
                break
            i, j = pairs[0]
            w = used.setdefault((i, j), aux(i, j))
            cur.discard(Var("p", i))
            cur.discard(Var("q", j))
            cur.add(w)
        out = out + BoolPoly.monomial(sorted(cur), coeff)
    aux_vars = [used[key] for key in sorted(used)]
    return out, aux_vars


def transform_grobner(cs: ClauseSystem, a: Coeff = -2, b: Coeff = -2,
                      c: Coeff = 1) -> Tuple[BoolPoly, List[Var]]:
    """Substitute products out of high-degree terms, with linear penalties.

    Every product p_i*q_j participating in a degree >= 3 monomial of the
    expanded cost becomes an auxiliary bit w_{ij}, and each auxiliary adds
    a*(p_i*w - w) + b*(q_j*w - w) + c*(p_i*q_j - w), which with valid
    (a, b, c) is nonnegative and zero exactly on w = p_i*q_j.  The result
    has degree <= 2 whenever every high-degree monomial contains enough
    p/q pairs, which holds for multiplication-table systems.
    """
    a, b, c = _check_penalty(a, b, c)
    poly, aux_vars = _substitute_high_degree(transform_direct(cs))
    for w in aux_vars:
        p, q = Var("p", w.i), Var("q", w.j)
        pw = BoolPoly.monomial((p, w))
        qw = BoolPoly.monomial((q, w))
        pq = BoolPoly.monomial((p, q))
        wp = BoolPoly.of(w)
        poly = poly + (pw - wp) * a + (qw - wp) * b + (pq - wp) * c
    return poly, aux_vars


def transform_sim_grobner(cs: ClauseSystem) -> Tuple[BoolPoly, List[Var]]:
    """Same substitution as GROBNER with the squared penalty (pq - w)^2.

    The square expands to p*q - 2*p*q*w + w, so the penalty itself is a
    degree-3 term and the overall cost stays at locality 3 while remaining
    penalty-parameter free.
    """
    poly, aux_vars = _substitute_high_degree(transform_direct(cs))
    for w in aux_vars:
        pq = BoolPoly.monomial((Var("p", w.i), Var("q", w.j)))
        diff = pq - BoolPoly.of(w)
        poly = poly + diff * diff
    return poly, aux_vars


def apply_transform(cs: ClauseSystem, kind: TransformKind) -> Tuple[BoolPoly, List[Var]]:
    """Dispatch on kind; DIRECT and SCHALLER add no auxiliary variables."""
    if kind.name == "DIRECT":
        return transform_direct(cs), []
    if kind.name == "SCHALLER":
        return transform_schaller(cs), []
    if kind.name == "GROBNER":
        a, b, c = kind.abc
        return transform_grobner(cs, a, b, c)
    return transform_sim_grobner(cs)


def _popcount64(v: np.ndarray) -> np.ndarray:
    # SWAR popcount; numpy grows bitwise_count only in 2.x.
    v = v - ((v >> 1) & 0x5555555555555555)
    v = (v & 0x3333333333333333) + ((v >> 2) & 0x3333333333333333)
    v = (v + (v >> 4)) & 0x0F0F0F0F0F0F0F0F
    return (v * 0x0101010101010101) >> 56


@dataclass(frozen=True, slots=True, eq=False)
class Hamiltonian:
    """Diagonal Ising form: offset + sum of coeff * Z_{i1}...Z_{ik} products.

    `terms` is a list of (coefficient, ascending qubit tuple) with distinct
    nonempty qubit sets; `var_map` records which binary variable each qubit
    encodes, numbered in canonical variable order.  Coefficients are floats;
    this class is the boundary where exact arithmetic ends.
    """

    offset: float
    terms: List[Tuple[float, Tuple[int, ...]]]
    var_map: Dict[Var, int]

    def __post_init__(self):
        seen = set()
        for _, qs in self.terms:
            if not qs or len(set(qs)) != len(qs) or qs in seen:
                raise ValueError(f"bad qubit set {qs!r} in Hamiltonian term")
            seen.add(qs)
        object.__setattr__(self, "offset", float(self.offset))
        object.__setattr__(self, "terms",
                           [(float(c), tuple(qs)) for c, qs in self.terms])
        object.__setattr__(self, "var_map", dict(self.var_map))

    @property
    def n_qubits(self) -> int:
        return len(self.var_map)

    @property
    def locality(self) -> int:
        return max((len(qs) for _, qs in self.terms), default=0)

    def value(self, bits: Sequence[int]) -> float:
        """Energy of one computational-basis state, bits[k] for qubit k."""
        total = self.offset
        for c, qs in self.terms:
            sign = 1
            for q in qs:
                if bits[q]:
                    sign = -sign
            total += c * sign
        return total

    def diagonal(self) -> np.ndarray:
        """All 2**n energies; basis index bit k is qubit k."""
        n = self.n_qubits
        idx = np.arange(1 << n, dtype=np.int64)
        energies = np.full(idx.shape, self.offset, dtype=np.float64)
        for c, qs in self.terms:
            mask = np.int64(sum(1 << q for q in qs))
            parity = _popcount64(idx & mask) & 1
            energies += c * (1.0 - 2.0 * parity)
        return energies

    def to_json(self) -> str:
        names = {v.name: k for v, k in self.var_map.items()}
        doc = {
            "offset": self.offset,
            "terms": [{"coeff": c, "qubits": list(qs)} for c, qs in self.terms],
            "var_map": names,
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "Hamiltonian":
        try:
            doc = json.loads(text)
            terms = [(t["coeff"], tuple(t["qubits"])) for t in doc["terms"]]
            var_map = {Var.parse(name): k for name, k in doc["var_map"].items()}
            return Hamiltonian(doc["offset"], terms, var_map)
        except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
            raise ParseError(f"bad Hamiltonian JSON: {exc}") from exc

    def __repr__(self):
        return (f"Hamiltonian(n_qubits={self.n_qubits}, "
                f"terms={len(self.terms)}, locality={self.locality})")


def to_hamiltonian(f: BoolPoly) -> Hamiltonian:
    """Map binary variables through x = (1 - Z)/2 and collect Pauli-Z terms.

    Expansion is exact in Fractions per monomial; a product of k variables
    spreads over the 2^k subsets of its qubits with alternating sign.  Terms
    whose coefficients cancel are dropped.  Qubits are numbered by sorting
    the polynomial's variables.
    """
    variables = f.variables()
    var_map = {v: k for k, v in enumerate(variables)}
    offset = Fraction(0)
    acc: Dict[Tuple[int, ...], Fraction] = {}
    for vs, coeff in f.monomials():
        k = len(vs)
        if k == 0:
            offset += coeff
            continue
        qs = tuple(var_map[v] for v in vs)
        scale = coeff / (1 << k)
        offset += scale
        for r in range(1, k + 1):
            sign = -scale if r % 2 else scale
            for sub in combinations(qs, r):
                acc[sub] = acc.get(sub, Fraction(0)) + sign
    ordered = sorted(((qs, c) for qs, c in acc.items() if c != 0),
                     key=lambda item: (len(item[0]), item[0]))
    terms = [(float(c), qs) for qs, c in ordered]
    return Hamiltonian(float(offset), terms, var_map)
