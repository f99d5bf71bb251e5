"""Encoding and presolve: clause construction, propagation, factor recovery.

The residual systems for 35, 143, and 291311 were frozen after checking
them by hand and by exhaustive enumeration; any drift here means the
presolve changed behavior.
"""

import hashlib
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from vqf import encoder
from vqf.encoder import (
    ClauseSystem,
    FactoringInstance,
    _held,
    _Presolve,
    build_clauses,
    clause_file_text,
    cost_function,
    decode_factors,
    load_clause_file,
    make_random_clause_system,
    preprocess,
    resolve_fix,
    write_clause_file,
)
from vqf.errors import Infeasible, InfeasibleInstance, InvalidConfig, VqfError
from vqf.pboly import (BoolPoly, Var, brute_force_minima, format_poly,
                       parse_poly, pvar, qvar)


def _clause_strings(cs):
    return sorted(format_poly(c) for c in cs.clauses)


def _solutions(cs):
    """All satisfying assignments of the system, as dicts over free_vars."""
    vs = cs.free_vars
    out = []
    for bits in itertools.product((0, 1), repeat=len(vs)):
        a = dict(zip(vs, bits))
        if all(c.evaluate(a) == 0 for c in cs.clauses):
            out.append(a)
    return out


def _solution_tuples(cs):
    """All satisfying assignments of the residual system, as tuples over free_vars."""
    return {tuple(a.values()) for a in _solutions(cs)}


@pytest.fixture(scope="module")
def system_58483():
    return preprocess(build_clauses(FactoringInstance(58483, 8)))


@pytest.fixture(scope="module")
def system_2867():
    return preprocess(build_clauses(FactoringInstance(2867, 6)))


# -- instance validation --------------------------------------------------------

def test_instance_rejects_bad_inputs():
    with pytest.raises(InfeasibleInstance):
        FactoringInstance(10, 4)   # even composite has no odd factor pair
    with pytest.raises(InfeasibleInstance):
        FactoringInstance(143, 2)  # 2 bits per factor cannot reach 11*13
    with pytest.raises(InfeasibleInstance):
        FactoringInstance(3, 2)    # prime below any composite window
    with pytest.raises(InfeasibleInstance):
        FactoringInstance(-15, 3)


def test_instance_accepts_known_semiprimes():
    for n, b in ((35, 3), (143, 4), (291311, 10)):
        inst = FactoringInstance(n, b)
        assert inst.n == n
        assert inst.bit_length == b


# -- raw clause construction -----------------------------------------------------

def test_build_clauses_vanish_at_true_factors():
    # substituting the actual factor bits (and consistent carries) must
    # zero every column clause; checked via the quadratic cost instead of
    # guessing carry values: min of sum of squares is 0.
    for n, b in ((35, 3), (143, 4)):
        cs = build_clauses(FactoringInstance(n, b))
        cost = cost_function(cs)
        lo, args = brute_force_minima(cost)
        assert lo == 0
        for a in args:
            f1, f2 = decode_factors(cs, a, b)
            assert f1 * f2 == n


def test_build_clauses_fix_edge_bits():
    cs = build_clauses(FactoringInstance(143, 4))
    # odd factors with known width: constant bits never reach the clauses
    free = {v.name for v in cs.free_vars}
    assert "p0" not in free and "q0" not in free
    assert "p3" not in free and "q3" not in free


# -- presolve: frozen residual systems -------------------------------------------

def test_presolve_35(system_35):
    assert _clause_strings(system_35) == ["-1 + p1 + q1"]
    assert [v.name for v in system_35.free_vars] == ["p1", "q1"]


def test_presolve_143(system_143):
    assert _clause_strings(system_143) == [
        "-1 + p1 + q1",
        "-1 + p1*q2 + p2*q1",
        "-1 + p2 + q2",
    ]
    assert [v.name for v in system_143.free_vars] == ["p1", "p2", "q1", "q2"]


def test_presolve_291311(system_291311):
    assert _clause_strings(system_291311) == [
        "-1 + p1 + q1",
        "-1 + p1*q2 + p2*q1",
        "-1 + p1*q5 + p5*q1",
        "-1 + p2 + q2",
        "-1 + p5 + q5",
        "-2 + p2 + p5 + q2 + q5",
    ]
    assert [v.name for v in system_291311.free_vars] == [
        "p1", "p2", "p5", "q1", "q2", "q5"]


def test_presolve_58483(system_58483):
    assert _clause_strings(system_58483) == [
        "-1 + p1 + q1",
        "-1 + p1 + q1 + p4*q4",
        "-1 + p4 + q4",
        "-2 + p1 + p4 + q1 + q4",
        "p1*q1",
        "p1*q4 + p4*q1",
    ]
    assert [v.name for v in system_58483.free_vars] == ["p1", "p4", "q1", "q4"]


def test_presolve_2867(system_2867):
    assert _clause_strings(system_2867) == [
        "-1 + p1 + q1",
        "-1 + p1*q4 + p4*q1",
        "-1 + p4 + q4",
        "-2 + p1 + p4 + q1 + q4",
    ]
    assert [v.name for v in system_2867.free_vars] == ["p1", "p4", "q1", "q4"]


# sha256 of clause_file_text(preprocess(...)), recorded before propagation
# became a worklist: the worklist must reach these bytes exactly
_PRESOLVE_DIGESTS = {
    (35, 3): ("5679d274827a7ee9bdac6cdf1a1a6c1cf8482c35edaeb805bd2e47ae665dec9f",
              "5679d274827a7ee9bdac6cdf1a1a6c1cf8482c35edaeb805bd2e47ae665dec9f",
              "bc373a93444020c47244877b0d0fce076f6bb945e06f90bcc568c45a44920159"),
    (143, 4): ("5f7eb85e0f2b9f9b8d22c8ae43982e48d849ce668a9726ca06053479df189b23",
               "6da886611987f3485acbd0336cbb6ead4bc63bb3e65d7d6fbceb256d8b07b110",
               "7ca2d8bfec49b708db3c13935c0dadc2a36a7fe181dc0c1ebcfa19696e7280c5"),
    (291311, 10): ("95223b31364ca874c033eb883130148b38d5358aa137321c595f8e426150bada",
                   "b6ca2a50823f080252afc7934a5d4c2ee85d4880cfa4caca2d1f6c0488d82f81",
                   "9e6cf4650969f35c2af3cb1eae4c1c6366fb5065ccfbfbc96915ad7ca01f6a92"),
    (58483, 8): ("8fd754587144895ea98d9a97b229d3ef5ae139ead19cd07082951fa3ff611b19",
                 "3ae94bd4bcb077fffac1026192122e196e9f1ded7caf772020c9156e9519f91f",
                 "fc12caba7bff3b1af5498f12b58d205e317c10d41c35300b15a095b54df9becd"),
    (2867, 6): ("d66cdae3fd4894d44cf846fcc248de5d1cd4401111f2fe48647e18d239be73c0",
                "d50779422e4a4c89ec76987b88e68ea35b3b95ca8fa2bc98f81db5f98f464f01",
                "43d8e825ef0baa5ca360e1f8bd98708d89ba075f8160bf831b2a600d4b8341af"),
}


@pytest.mark.parametrize("n, bits", list(_PRESOLVE_DIGESTS))
@pytest.mark.parametrize("depth", [0, 1, 2])
def test_presolve_output_is_pinned(n, bits, depth):
    text = clause_file_text(preprocess(build_clauses(FactoringInstance(n, bits)),
                                       probe_depth=depth))
    assert hashlib.sha256(text.encode()).hexdigest() == _PRESOLVE_DIGESTS[n, bits][depth]


def _presolve_record(cs, depth):
    """The clause text and the fixes in insertion order, or the error."""
    try:
        out = preprocess(cs, probe_depth=depth)
    except VqfError as exc:
        return f"{type(exc).__name__}: {exc}\n"
    fixes = "".join(f"{v.name} -> {t.name if isinstance(t, Var) else t}\n"
                    for v, t in out.fixes.items())
    return clause_file_text(out) + fixes


def test_presolve_of_random_systems_is_pinned():
    # 1,800 presolves; some of them erase products (`annihilate_products`)
    h = hashlib.sha256()
    for seed in range(200):
        for n_bits, n_clauses in ((3, 4), (4, 6), (5, 8)):
            cs = make_random_clause_system(seed, n_bits, n_clauses)
            for depth in (0, 1, 2):
                h.update(f"{seed} {n_bits} {n_clauses} {depth}\n".encode())
                h.update(_presolve_record(cs, depth).encode())
    assert h.hexdigest() == "b317ff1c1a896de3fa8c9f9df6ed528900f2cd541585ab91c04a9cfdcc589482"


def _primes(bits):
    return [n for n in range(1 << (bits - 1), 1 << bits)
            if all(n % d for d in range(2, int(n ** 0.5) + 1))]


def test_presolve_of_the_census_is_pinned():
    # every p*q with primes p <= q of exactly L bits, L = 4, 5, 6: 46
    # instances, recorded before the presolve moved to bitmask monomials
    h = hashlib.sha256()
    count = 0
    for bits in (4, 5, 6):
        ps = _primes(bits)
        for a, p in enumerate(ps):
            for q in ps[a:]:
                count += 1
                h.update(f"{p} {q} {bits}\n".encode())
                try:
                    text = clause_file_text(preprocess(build_clauses(
                        FactoringInstance(p * q, bits))))
                except VqfError as exc:
                    text = f"{type(exc).__name__}: {exc}\n"
                h.update(text.encode())
    assert count == 46
    assert h.hexdigest() == "e87dba482fe2b1981d56715d451590f80334c7dc500c2905608d437629bfdaea"


class _NoMemo(dict):
    """A rule memo that never stores."""

    def __setitem__(self, key, value):
        pass


def _depth_2_records():
    return [_presolve_record(make_random_clause_system(seed, n_bits, n_clauses), 2)
            for seed in range(200) for n_bits, n_clauses in ((3, 4), (4, 6), (5, 8))]


def test_rule_memo_changes_no_verdict(monkeypatch):
    # the memo replays each clause's records and error: without it the
    # presolve reaches the same clauses, fixes in insertion order and errors
    want = _depth_2_records()
    memos = []
    init = _Presolve.__init__

    def forgetful(self, polys):
        init(self, polys)
        self.memo = _NoMemo()
        memos.append(self.memo)

    monkeypatch.setattr(_Presolve, "__init__", forgetful)
    assert _depth_2_records() == want
    assert len(memos) == 600 and not any(memos)


def test_each_presolve_starts_with_an_empty_memo(monkeypatch):
    states = []
    init = _Presolve.__init__

    def spy(self, polys):
        init(self, polys)
        states.append((self, len(self.memo)))

    monkeypatch.setattr(_Presolve, "__init__", spy)
    cs = build_clauses(FactoringInstance(143, 4))
    assert clause_file_text(preprocess(cs)) == clause_file_text(preprocess(cs))
    (first, held_first), (second, held_second) = states
    assert held_first == held_second == 0
    # the second call met the same clauses and stored each one again
    assert second.memo is not first.memo
    assert len(second.memo) == len(first.memo) > 0
    # verdicts with no records and no error share one value
    empty = [v for v in first.memo.values() if v == ((), None)]
    assert empty and all(v is empty[0] for v in empty)


def _presolve_of(polys):
    """A presolve state numbering the variables of polys, and polys in
    its mask form."""
    ps = _Presolve(polys)
    return ps, [ps.encode(c) for c in polys]


def test_probe_substitutes_only_the_clauses_its_fixes_touch(monkeypatch):
    ps, clauses = _presolve_of(build_clauses(FactoringInstance(291311, 10)).clauses)
    settled, _ = ps.propagate(clauses)
    v = ps.vars.index(Var.parse("z2_3"))  # in 2 of the 14 clauses; both values propagate
    calls = []
    substitute = encoder._substitute

    def spy(clause, zero, one):
        calls.append((clause, zero, one))
        return substitute(clause, zero, one)

    monkeypatch.setattr(encoder, "_substitute", spy)
    for b, feasible in ((0, True), (1, False)):
        calls.clear()
        assert ps.feasible(settled, {v: b}) is feasible
        # first the clauses holding v, in list order; then only clauses
        # holding a variable that the previous round fixed
        first = (0, 1 << v) if b else (1 << v, 0)
        assert [c for c, *f in calls if tuple(f) == first] == [
            c for c in settled if _held(c) >> v & 1]
        assert len(calls) > 2
        for c, zero, one in calls:
            assert (zero | one) & _held(c)


@pytest.mark.parametrize("clauses, want", [
    # the rewrite propagates to p1 = 0, which refutes (p1, q2) = (1, 1)
    (["-2*p1*q2", "-p1 + p1*q2"], ([], {"p1": 0})),
    (["-p1*p3 + q1*q3 + p3*p4*q1 + p4*q2*q3", "2*q3 - 2*q2*q3",
      "-2 + 2*p3 + p4*q2 + q1*q3 - p3*q1*q2", "-q2 + 2*p1*q2"],
     (["-p1 + p4*q1"], {"q3": 0, "p3": 1, "q2": 0})),
    # the rewrite propagates to p3 = 1, and (p2, p3) = (1, 1) stays live
    (["-2 + 2*p3 + 2*p2*p3 + 2*p2*q3", "-1 + p2 + q3"], None),
])
def test_annihilation_reprobes_its_propagated_rewrite(clauses, want):
    # an erased product can leave a rewrite that propagation reduces
    # further; the verdicts must be those of probing the raw rewrite
    # (recorded before propagation became a worklist)
    ps, clauses = _presolve_of([parse_poly(c) for c in clauses])
    assert ps.propagate(clauses)[1] == {}  # probes start from a fixpoint
    got = ps.annihilate_products(clauses)
    if got is not None:
        got = ([format_poly(ps.decode(c)) for c in got[0]],
               {ps.vars[v].name: t for v, t in got[1].items()})
    assert got == want


def test_presolve_rejects_an_unknown_probe_depth(raw_143):
    with pytest.raises(InvalidConfig, match="probe_depth must be 0, 1 or 2, got 3"):
        preprocess(raw_143, probe_depth=3)


def test_presolve_drops_zero_clauses():
    # a clause equal to 0 holds nothing, whether or not anything gets fixed
    for text in ("-1 + p1 + q1", "-1 + p1"):
        out = preprocess(ClauseSystem([BoolPoly.zero(), parse_poly(text)]))
        assert all(c.variables() for c in out.clauses)


@pytest.mark.parametrize("fixture, n, bits, pair", [
    ("system_291311", 291311, 10, {523, 557}),
    ("system_58483", 58483, 8, {233, 251}),
    ("system_2867", 2867, 6, {47, 61}),
])
def test_presolved_zero_set_is_the_factor_pairs(request, fixture, n, bits, pair):
    cs = request.getfixturevalue(fixture)
    # every ordered pair of bits-bit odd factors whose product is n
    lo, hi = 2 ** (bits - 1), 2 ** bits
    want = {(f, n // f) for f in range(lo + 1, hi, 2)
            if n % f == 0 and lo <= n // f < hi}
    assert {frozenset(fs) for fs in want} == {frozenset(pair)}
    assert {decode_factors(cs, a, bits) for a in _solutions(cs)} == want


def test_presolve_hands_back_fractions(system_35, system_143, system_291311,
                                       system_58483, system_2867):
    # the presolve runs on int coefficients; its result holds Fractions
    for cs in (system_35, system_143, system_291311, system_58483, system_2867):
        for c in cs.clauses:
            assert all(type(k) is Fraction for k in c.terms.values())


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_bits=st.integers(1, 4),
       n_clauses=st.integers(1, 5), depth=st.sampled_from([0, 1, 2]))
def test_presolve_keeps_the_projected_solution_set(seed, n_bits, n_clauses, depth):
    cs = make_random_clause_system(seed, n_bits=n_bits, n_clauses=n_clauses)
    before = _solutions(cs)
    out = preprocess(cs, probe_depth=depth)
    free = out.free_vars
    assert {tuple(x[v] for v in free) for x in before} == _solution_tuples(out)
    for x in before:
        for v in out.fixes:
            t = resolve_fix(out.fixes, v)
            assert x[v] == (x[t] if isinstance(t, Var) else t)


_TIGHTEN_VARS = (pvar(1), pvar(2), qvar(1), qvar(2))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(
    st.sets(st.sampled_from(_TIGHTEN_VARS), max_size=3),
    st.fractions(min_value=-4, max_value=4, max_denominator=3)), min_size=1, max_size=8))
def test_tightening_matches_substitution(terms):
    clause = BoolPoly.zero()
    for vs, c in terms:
        clause = clause + BoolPoly.monomial(vs, c)

    def excludes_zero(poly):
        lo, hi = poly.bounds()
        return lo > 0 or hi < 0

    want = {v: (excludes_zero(clause.substitute({v: 0})),
                excludes_zero(clause.substitute({v: 1})))
            for v in clause.variables()}
    ps = _Presolve([clause])

    def excludes_zero_at(coeff):
        masks = {sum(1 << ps.vars.index(v) for v in m): coeff(k)
                 for m, k in clause.terms.items()}
        return {ps.vars[v]: ex for v, ex in ps.excludes_zero_at(masks).items()}

    assert excludes_zero_at(lambda k: k) == want
    assert excludes_zero_at(lambda k: k.numerator if k.denominator == 1 else k) == want


def test_presolve_preserves_solutions_143(raw_143, system_143):
    # both factor orderings survive, nothing else
    assert _solution_tuples(system_143) == {(0, 1, 1, 0), (1, 0, 0, 1)}


def test_presolve_solutions_decode_to_factors(system_143, system_291311):
    for cs, n, b, pair in ((system_143, 143, 4, {11, 13}),
                           (system_291311, 291311, 10, {523, 557})):
        sols = _solution_tuples(cs)
        assert len(sols) == 2
        for bits in sols:
            a = dict(zip(cs.free_vars, bits))
            f1, f2 = decode_factors(cs, a, b)
            assert f1 * f2 == n
            assert {f1, f2} == pair


def test_presolve_idempotent(system_143):
    again = preprocess(system_143)
    assert _clause_strings(again) == _clause_strings(system_143)


def test_presolve_depth_zero_keeps_rows():
    # probing disabled: only scanning and substitution run, so the
    # residual system stays larger but equivalent
    cs0 = preprocess(build_clauses(FactoringInstance(143, 4)), probe_depth=0)
    cs2 = preprocess(build_clauses(FactoringInstance(143, 4)), probe_depth=2)
    assert len(cs0.clauses) >= len(cs2.clauses)
    vs0 = cs0.free_vars
    sols0 = _solution_tuples(cs0)
    decoded = set()
    for bits in sols0:
        decoded.add(decode_factors(cs0, dict(zip(vs0, bits)), 4))
    assert decoded == {(11, 13), (13, 11)}


def test_resolve_fix_follows_chains(system_143):
    # every eliminated variable lands on 0, 1, or a free variable
    for v in system_143.fixes:
        t = resolve_fix(system_143.fixes, v)
        if isinstance(t, int):
            assert t in (0, 1)
        else:
            assert t in system_143.free_vars


def test_infeasible_semiprime_detected():
    # 25 = 5*5 needs both factors 101b, but with 3-bit factors of 33,
    # an honest non-semiprime gets caught during presolve or probing
    with pytest.raises((Infeasible, InfeasibleInstance)):
        cs = build_clauses(FactoringInstance(33, 3))
        # 33 = 3 * 11: 11 needs 4 bits, so a 3-bit window is infeasible
        preprocess(cs)


# -- clause files -----------------------------------------------------------------

def test_clause_file_round_trip(tmp_path, system_143):
    path = tmp_path / "sys.txt"
    write_clause_file(system_143, path)
    back = load_clause_file(path)
    assert _clause_strings(back) == _clause_strings(system_143)
    # fixes ride along as "# fix" lines
    for v, t in system_143.fixes.items():
        assert back.fixes.get(v) == t


def test_clause_file_text_header(system_35):
    text = clause_file_text(system_35, header="two-variable toy")
    assert text.splitlines()[0] == "# two-variable toy"
    assert "-1 + p1 + q1" in text


def test_load_clause_file_ignores_blank_and_comments(tmp_path):
    path = tmp_path / "loose.txt"
    path.write_text("# header\n\np1 + q1 - 1\n   \n# trailing\n")
    cs = load_clause_file(path)
    assert len(cs.clauses) == 1
    assert cs.clauses[0] == parse_poly("p1 + q1 - 1")


# -- synthetic systems -------------------------------------------------------------

@pytest.mark.parametrize("seed", [3, 11, 23])
def test_random_clause_systems_are_satisfiable(seed):
    cs = make_random_clause_system(seed, n_bits=3, n_clauses=4)
    cost = cost_function(cs)
    lo, args = brute_force_minima(cost)
    assert lo == 0
    assert len(args) >= 1


def test_random_clause_system_deterministic():
    a = make_random_clause_system(7, n_bits=4, n_clauses=5)
    b = make_random_clause_system(7, n_bits=4, n_clauses=5)
    assert _clause_strings(a) == _clause_strings(b)


# -- cost function ------------------------------------------------------------------

def test_cost_function_is_sum_of_squares(system_143):
    cost = cost_function(system_143)
    total = BoolPoly.zero()
    for c in system_143.clauses:
        total = total + c * c
    assert (cost - total).is_zero()
    # nonnegative on every assignment, zero exactly on solutions
    vs = system_143.free_vars
    zeros = set()
    for bits in itertools.product((0, 1), repeat=len(vs)):
        val = cost.evaluate(dict(zip(vs, bits)))
        assert val >= 0
        if val == 0:
            zeros.add(bits)
    assert zeros == _solution_tuples(system_143)
