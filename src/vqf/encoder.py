"""Factoring-as-optimization encoding and classical presolve.

An odd semiprime N with two L-bit factors becomes the binary long
multiplication table: one clause per output column,

    sum of partial products + carries in - N's bit - weighted carries out = 0,

where carry z_{j,k} leaves column j with weight 2**(k-j) and enters column k
with weight 1.  The cost function is the sum of squared clauses, which is 0
exactly on assignments encoding the factor pairs.

Preprocessing shrinks the system before any quantum resources are spent:
interval bounds, single-clause tightening, a parity rule, and probing
(tentatively fix one variable or a pair, propagate, and discard values that
hit a contradiction).  All rules only ever remove assignments that satisfy
no clause system solution, so the solution set projected onto the surviving
variables is preserved exactly.  Propagation keeps a worklist, as unit
propagation in SAT solvers does: a fix is substituted into, and rescanned
in, only the clauses that hold its variable.  The presolve works on
integers: a monomial is a bitmask over the clause variables, numbered in
canonical order, and the verdict of the rules on each clause is memoized
for the call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import chain, combinations
from operator import or_
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import (Infeasible, InfeasibleInstance, InvalidConfig, MissingVariable,
                     ParseError)
from .pboly import (BoolPoly, Var, carry, format_poly, merge_fixes, parse_poly,
                    pvar, qvar)

FixTarget = Union[int, Var]


@dataclass(frozen=True)
class FactoringInstance:
    """An integer to factor into two odd bit_length-bit multipliers."""

    n: int
    bit_length: int

    def __post_init__(self):
        if self.bit_length < 2:
            raise InfeasibleInstance("bit_length must be at least 2")
        if self.n < 9 or self.n % 2 == 0:
            raise InfeasibleInstance(f"{self.n} is not an odd number >= 9")
        # product of two L-bit numbers with MSB set spans 2L-1 or 2L bits
        width = self.n.bit_length()
        if not 2 * self.bit_length - 1 <= width <= 2 * self.bit_length:
            raise InfeasibleInstance(
                f"{self.n} has {width} bits, inconsistent with two "
                f"{self.bit_length}-bit factors")


@dataclass(frozen=True, slots=True)
class ClauseSystem:
    """Clauses over the free variables plus the accumulated fixes.

    Invariant: clauses mention only free variables; every entry of `fixes`
    maps an eliminated variable to 0, 1, or a still-free alias target.
    """

    clauses: List[BoolPoly]
    fixes: Dict[Var, FixTarget] = field(default_factory=dict)

    @property
    def free_vars(self) -> List[Var]:
        seen = set()
        for c in self.clauses:
            seen.update(c.variables())
        return sorted(seen)


def build_clauses(inst: FactoringInstance) -> ClauseSystem:
    """Column equations of the multiplication table for inst.n."""
    L = inst.bit_length
    # both factors are odd with their top bit set
    fixes: Dict[Var, FixTarget] = dict.fromkeys(
        (pvar(0), qvar(0), pvar(L - 1), qvar(L - 1)), 1)

    def bit_factor(v: Var) -> BoolPoly:
        t = fixes.get(v)
        return BoolPoly.const(t) if t is not None else BoolPoly.of(v)

    ncols = 2 * L
    col_pp: List[List[BoolPoly]] = [[] for _ in range(ncols)]
    for i in range(L):
        for j in range(L):
            col_pp[i + j].append(bit_factor(pvar(i)) * bit_factor(qvar(j)))

    carries_in: List[List[Var]] = [[] for _ in range(ncols)]
    clauses: List[BoolPoly] = []
    for c in range(ncols):
        n_c = (inst.n >> c) & 1
        max_sum = len(col_pp[c]) + len(carries_in[c])
        k_out = max_sum.bit_length() - 1 if max_sum >= 2 else 0
        targets = range(c + 1, min(c + k_out, ncols - 1) + 1)
        clause = BoolPoly.const(-n_c)
        for pp in col_pp[c]:
            clause = clause + pp
        for z in carries_in[c]:
            clause = clause + BoolPoly.of(z)
        for t in targets:
            z = carry(c, t)
            carries_in[t].append(z)
            clause = clause - (2 ** (t - c)) * BoolPoly.of(z)
        if clause.is_zero():
            continue
        if not clause.variables():
            raise Infeasible(f"column {c} reduces to {clause.constant} = 0")
        clauses.append(clause)
    return ClauseSystem(clauses, fixes)


def cost_function(cs: ClauseSystem) -> BoolPoly:
    """Sum of squared clauses; zero exactly on the system's solutions."""
    total = BoolPoly.zero()
    for c in cs.clauses:
        total = total + c * c
    return total


# -- presolve ----------------------------------------------------------------

Clause = Dict[int, Union[int, Fraction]]  # monomial bitmask -> coefficient


def _held(clause: Clause) -> int:
    """The mask of the variables the clause holds."""
    return reduce(or_, clause, 0)


def _bounds(clause: Clause):
    """`BoolPoly.bounds` of the clause: the constant plus its negative, and
    plus its positive, non-constant coefficients."""
    neg = sum(c for m, c in clause.items() if m and c < 0)
    return clause.get(0, 0) + neg, sum(clause.values()) - neg


def _substitute(clause: Clause, zero: int, one: int) -> Clause:
    """The clause with the variables of mask `zero` set to 0 and of `one`
    set to 1, its terms merged in order as `BoolPoly.substitute` does."""
    out: Clause = {}
    for m, c in clause.items():
        if m & zero:
            continue
        m &= ~one
        acc = out.get(m, 0) + c
        if acc:
            out[m] = acc
        else:
            out.pop(m, None)
    return out


class _Bits(dict):
    """mask -> the variable numbers of mask, ascending, computed once."""

    def __missing__(self, mask: int) -> Tuple[int, ...]:
        out = self[mask] = tuple(i for i in range(mask.bit_length()) if mask >> i & 1)
        return out


_NO_VERDICT: Tuple[tuple, None] = ((), None)


class _Presolve:
    """One `preprocess` call's state: variable i is `vars[i]`, numbered in
    canonical order (so numbers sort as the `Var`s do), each mask's numbers
    and the memo of each clause's rule verdicts.  Fixes map numbers to 0/1."""

    def __init__(self, polys: Sequence[BoolPoly]):
        self.vars: List[Var] = sorted({v for c in polys for m in c.terms for v in m})
        self._bit = {v: 1 << i for i, v in enumerate(self.vars)}
        self.bits = _Bits()
        self.memo: Dict[tuple, tuple] = {}

    def encode(self, poly: BoolPoly) -> Clause:
        """poly in mask form and term order, with `int` coefficients when
        all are integral (much cheaper than Fractions)."""
        ints = all(k.denominator == 1 for k in poly.terms.values())
        return {sum(map(self._bit.__getitem__, m)): k.numerator if ints else k
                for m, k in poly.terms.items()}

    def decode(self, clause: Clause) -> BoolPoly:
        return BoolPoly({tuple(self.vars[i] for i in self.bits[m]): Fraction(k)
                         for m, k in clause.items()})

    def excludes_zero_at(self, clause: Clause) -> Dict[int, Tuple[bool, bool]]:
        """For each variable v: do the clause's bounds at v = 0, and at v = 1,
        exclude 0?  v = 0 drops v's monomials, v = 1 merges each into its rest."""
        lo, hi = _bounds(clause)
        at: Dict[int, List] = {}  # v -> [lo0, hi0, lo1, hi1]
        for m, c in clause.items():
            for v in self.bits[m]:
                b = at.get(v)
                if b is None:
                    b = at[v] = [lo, hi, lo, hi]
                if c > 0:  # v = 0: the monomial vanishes
                    b[1] -= c
                else:
                    b[0] -= c
                rest = m ^ 1 << v  # v = 1: c merges into rest's coefficient
                if rest:
                    a = clause.get(rest, 0)
                    b[2] += min(a + c, 0) - min(a, 0) - min(c, 0)
                    b[3] += max(a + c, 0) - max(a, 0) - max(c, 0)
                else:  # a is the constant, counted in both bounds
                    b[2] += c - min(c, 0)
                    b[3] += c - max(c, 0)
        return {v: (b[0] > 0 or b[1] < 0, b[2] > 0 or b[3] < 0) for v, b in at.items()}

    def _rules(self, clause: Clause) -> Tuple[List[Tuple[int, int]], Optional[str]]:
        """The cheap rules on one clause: the (variable, value) fixes they
        record, in order, and the message of a contradiction or None."""
        held = _held(clause)
        k = clause.get(0, 0)
        if not held:
            return [], "constant clause is nonzero" if k else None
        lo, hi = _bounds(clause)
        if lo > 0 or hi < 0:
            return [], f"bounds exclude 0: {format_poly(self.decode(clause))}"
        records = []

        # same-signed monomials summing to zero force each one to vanish
        if not k and (all(c > 0 for c in clause.values())
                      or all(c < 0 for c in clause.values())):
            records += [(m.bit_length() - 1, 0) for m in clause if not m & (m - 1)]

        # parity: reduce the clause mod 2 when all coefficients are integral
        if k.numerator % 2 and all(c.denominator == 1 for c in clause.values()):
            odd = [m for m, c in clause.items() if m and c.numerator % 2]
            if not odd:
                return records, f"parity violation: {format_poly(self.decode(clause))}"
            if len(odd) == 1:
                records += [(v, 1) for v in self.bits[odd[0]]]

        # single-clause tightening: a value whose substitution empties the
        # clause's value interval of 0 is impossible
        excludes = self.excludes_zero_at(clause)
        for v in self.bits[held]:
            ex0, ex1 = excludes[v]
            if ex0 and ex1:
                return records, f"{self.vars[v].name} has no feasible value"
            if ex0 or ex1:
                records.append((v, 1 if ex0 else 0))
        return records, None

    def scan_fixes(self, clauses: Sequence[Clause]) -> Dict[int, int]:
        """One pass of the cheap rules over every clause: fixes that hold
        in every solution, or Infeasible.  A clause's verdict depends on
        its ordered terms alone, so it is memoized and replayed."""
        found: Dict[int, int] = {}
        for clause in clauses:
            key = tuple(chain.from_iterable(clause.items()))
            verdict = self.memo.get(key)
            if verdict is None:
                records, error = self._rules(clause)
                # most clauses yield nothing: their verdicts share one value
                verdict = (tuple(records), error) if records or error else _NO_VERDICT
                self.memo[key] = verdict
            records, error = verdict
            for v, b in records:
                if found.setdefault(v, b) != b:
                    raise Infeasible(f"{self.vars[v].name} forced to both 0 and 1")
            if error:
                raise Infeasible(error)
        return found

    def propagate(self, clauses: Sequence[Clause], fixes: Optional[Dict[int, int]] = None
                  ) -> Tuple[List[Clause], Dict[int, int]]:
        """Apply `fixes`, then run the cheap rules to fixpoint.

        Returns (clauses, the given fixes followed by the derived ones).
        Each round substitutes its fixes into, and the next scans, only
        the clauses holding a fixed variable, in list order.  A clause no
        fix touched yields nothing new, so the rounds find what full
        rescans would, in the same order.  Without `fixes` the first round
        scans every clause; with them, `clauses` must already be at a
        fixpoint.
        """
        clauses = list(clauses)
        held = [_held(c) for c in clauses]
        found = self.scan_fixes(clauses) if fixes is None else fixes
        derived: Dict[int, int] = {}
        while found:
            derived.update(found)
            one = sum(1 << v for v, b in found.items() if b)
            zero = sum(1 << v for v, b in found.items() if not b)
            rescan = []
            for i, h in enumerate(held):
                if h & (zero | one):
                    c = _substitute(clauses[i], zero, one)
                    held[i] = h = _held(c)
                    clauses[i] = c if h else None
                    if h:
                        rescan.append(c)
                    elif c:
                        raise Infeasible("clause reduced to nonzero constant")
            found = self.scan_fixes(rescan)
        return [c for c in clauses if c is not None], derived

    def feasible(self, clauses: Sequence[Clause], assumption: Dict[int, int]) -> bool:
        """Can propagation live with this tentative assignment?  `clauses`
        must be at a propagation fixpoint."""
        try:
            self.propagate(clauses, assumption)
            return True
        except Infeasible:
            return False

    def annihilate_products(self, clauses: List[Clause]
                            ) -> Optional[Tuple[List[Clause], Dict[int, int]]]:
        """Strip monomials whose variable pair is provably never (1,1).

        For every pair of variables sharing a monomial, probe the joint
        assignment (1,1); if propagation refutes it, the product uv is
        zero on every solution and each monomial containing both u and v
        (a multiple of uv) can be removed without losing solutions.  The
        reduced system is then re-probed: every pair actually used must
        still be refuted, which closes the reverse inclusion and makes the
        rewrite an exact solution-set-preserving step.

        Returns the rewrite, propagated, and the fixes that propagation
        derived; None when nothing was removed or a verification failed.
        Probes start from a fixpoint, so the rewrite is propagated first.
        The rules only tighten as variables get fixed, so that order does
        not change a verdict, and a pair propagation fixed to 0 is refuted
        already.
        """
        co = {pr for c in clauses for m in c for pr in combinations(self.bits[m], 2)}
        zero = {pr for pr in co if not self.feasible(clauses, dict.fromkeys(pr, 1))}
        if not zero:
            return None

        used = set()
        out: List[Clause] = []
        for c in clauses:
            kept: Clause = {}
            # canonical term order: by (degree, variable sequence)
            for m in sorted(c, key=lambda m: (len(self.bits[m]), self.bits[m])):
                hit = next((pr for pr in combinations(self.bits[m], 2) if pr in zero), None)
                if hit is None:
                    kept[m] = c[m]
                else:
                    used.add(hit)
            if _held(kept):
                out.append(kept)
            elif kept:
                raise Infeasible("clause reduced to nonzero constant")
        if not used:
            return None
        out, derived = self.propagate(out)
        for u, v in sorted(used):
            if 0 not in (derived.get(u), derived.get(v)) and self.feasible(out, {u: 1, v: 1}):
                return None
        return out, derived


def preprocess(cs: ClauseSystem, probe_depth: int = 2) -> ClauseSystem:
    """Reduce the system with bounds, tightening, parity, and probing.

    probe_depth 0 runs only the propagation rules; depth 1 probes single
    variables; depth 2 additionally probes co-occurring pairs, fixing
    one-sided values and erasing products that can never switch on.
    Deterministic given probe_depth: scans follow the canonical variable
    order.  A probe costs what its fixes touch, not the whole system:
    propagation substitutes and rescans only the clauses holding a fixed
    variable.  Clauses equal to 0 are dropped.

    The rules run on integers: a monomial is a bitmask over the variables
    numbered in canonical order, a clause a dict {mask: coefficient} (the
    constant under 0) with `int`s when all are integral.  Probes meet the
    same clauses again and again, so each clause's rule verdict is
    memoized for the call.  The result holds Fractions.
    """
    if probe_depth not in (0, 1, 2):
        raise InvalidConfig(f"probe_depth must be 0, 1 or 2, got {probe_depth}")
    polys = [c for c in cs.clauses if not c.is_zero()]
    ps = _Presolve(polys)
    clauses = [ps.encode(c) for c in polys]
    fixes: Dict[Var, FixTarget] = dict(cs.fixes)

    def adopt(result: Tuple[List[Clause], Dict[int, int]]) -> None:
        nonlocal clauses
        clauses, derived = result
        merge_fixes(fixes, {ps.vars[v]: b for v, b in derived.items()})

    adopt(ps.propagate(clauses))
    while True:
        changed = False
        if probe_depth >= 1:
            # single-variable probing with full propagation inside each probe
            progress = True
            while progress:
                progress = False
                held = reduce(or_, map(_held, clauses), 0)
                for v in ps.bits[held]:
                    if not held >> v & 1:
                        continue  # eliminated by an earlier fix in this pass
                    f0 = ps.feasible(clauses, {v: 0})
                    f1 = ps.feasible(clauses, {v: 1})
                    if not f0 and not f1:
                        raise Infeasible(f"{ps.vars[v].name} has no feasible value")
                    if f0 != f1:
                        adopt(ps.propagate(clauses, {v: 0 if f0 else 1}))
                        held = reduce(or_, map(_held, clauses), 0)
                        progress = changed = True
        if probe_depth >= 2:
            pairs = sorted({pr for c in clauses for pr in combinations(ps.bits[_held(c)], 2)})
            for u, v in pairs:
                live = {(bu, bv) for bu in (0, 1) for bv in (0, 1)
                        if ps.feasible(clauses, {u: bu, v: bv})}
                if not live:
                    raise Infeasible(
                        f"no joint value for {ps.vars[u].name},{ps.vars[v].name}")
                new: Dict[int, int] = {}
                u_vals = {a for a, _ in live}
                v_vals = {b for _, b in live}
                if len(u_vals) == 1:
                    new[u] = u_vals.pop()
                if len(v_vals) == 1:
                    new[v] = v_vals.pop()
                if new:
                    adopt(ps.propagate(clauses, new))
                    changed = True
                    break  # pair list is stale; rebuild
        if not changed and probe_depth >= 2:
            rewrite = ps.annihilate_products(clauses)
            if rewrite is not None:
                adopt(rewrite)
                changed = True
        if not changed:
            break

    # drop duplicate clauses, keeping first occurrences
    seen_keys = set()
    unique: List[BoolPoly] = []
    for c in clauses:
        key = frozenset(c.items())
        if key not in seen_keys:
            seen_keys.add(key)
            unique.append(ps.decode(c))
    return ClauseSystem(unique, fixes)


def resolve_fix(fixes: Dict[Var, FixTarget], v: Var) -> FixTarget:
    """Follow alias chains to a 0/1 value or a still-free variable."""
    t: FixTarget = v
    seen = set()
    while isinstance(t, Var) and t in fixes:
        if t in seen:
            raise Infeasible(f"alias cycle through {t.name}")
        seen.add(t)
        t = fixes[t]
    return t


def decode_factors(cs: ClauseSystem, assignment: Dict[Var, int],
                   bit_length: int) -> Tuple[int, int]:
    """Read the factor pair off an assignment of the free variables."""
    def bit(v: Var) -> int:
        t = resolve_fix(cs.fixes, v)
        if isinstance(t, Var):
            if t not in assignment:
                raise MissingVariable(f"no value for {t.name}")
            return assignment[t]
        return t

    p = sum(bit(pvar(i)) << i for i in range(bit_length))
    q = sum(bit(qvar(i)) << i for i in range(bit_length))
    return p, q


# -- clause files ------------------------------------------------------------

def clause_file_text(cs: ClauseSystem, header: str = "") -> str:
    lines = []
    if header:
        lines.extend(f"# {h}" for h in header.splitlines())
    lines.append("# one clause per line, each implicitly = 0")
    for v in sorted(cs.fixes):
        t = cs.fixes[v]
        lines.append(f"# fix {v.name} = {t.name if isinstance(t, Var) else t}")
    for c in cs.clauses:
        lines.append(format_poly(c))
    return "\n".join(lines) + "\n"


def write_clause_file(cs: ClauseSystem, path) -> None:
    Path(path).write_text(clause_file_text(cs))


def load_clause_file(path) -> ClauseSystem:
    """Read a clause file.  `# fix` comment lines restore eliminated bits."""
    text = Path(path).read_text()
    clauses: List[BoolPoly] = []
    fixes: Dict[Var, FixTarget] = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if line.startswith("# fix "):
            try:
                name, _, val = line[len("# fix "):].partition("=")
                v = Var.parse(name.strip())
                val = val.strip()
                fixes[v] = int(val) if val in ("0", "1") else Var.parse(val)
            except (ParseError, ValueError) as e:
                raise ParseError(f"{path}:{ln}: bad fix line: {e}") from None
            continue
        if not line or line.startswith("#"):
            continue
        try:
            poly = parse_poly(line)
        except ParseError as e:
            raise ParseError(f"{path}:{ln}: {e}") from None
        if not poly.is_zero():
            clauses.append(poly)
    return ClauseSystem(clauses, fixes)


# -- synthetic instances -------------------------------------------------------

def make_random_clause_system(seed: int, n_bits: int = 3,
                              n_clauses: int = 4) -> ClauseSystem:
    """A planted-solution clause system in the multiplication-table shape.

    Each clause mixes one or two p*q products with a few single bits and a
    constant chosen so a hidden random assignment satisfies it, so the
    squared-clause cost always has minimum value 0.
    """
    rng = np.random.default_rng(seed)
    ps = [pvar(i) for i in range(1, n_bits + 1)]
    qs = [qvar(i) for i in range(1, n_bits + 1)]
    planted = {v: int(rng.integers(2)) for v in ps + qs}

    clauses = []
    while len(clauses) < n_clauses:
        clause = BoolPoly.zero()
        for _ in range(int(rng.integers(1, 3))):
            a = ps[int(rng.integers(n_bits))]
            b = qs[int(rng.integers(n_bits))]
            clause = clause + BoolPoly.of(a) * BoolPoly.of(b)
        for _ in range(int(rng.integers(0, 3))):
            v = (ps + qs)[int(rng.integers(2 * n_bits))]
            sign = 1 if rng.integers(2) else -1
            clause = clause + sign * BoolPoly.of(v)
        clause = clause - clause.evaluate(planted)
        if clause.is_zero() or not clause.variables():
            continue
        clauses.append(clause)
    return ClauseSystem(clauses, {})
