"""Encoding and presolve: clause construction, propagation, factor recovery.

The residual systems for 35, 143, and 291311 were frozen after checking
them by hand and by exhaustive enumeration; any drift here means the
presolve changed behavior.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from vqf.encoder import (
    FactoringInstance,
    _excludes_zero,
    _excludes_zero_at,
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
from vqf.errors import Infeasible, InfeasibleInstance
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
    want = {v: (_excludes_zero(clause.substitute({v: 0})),
                _excludes_zero(clause.substitute({v: 1})))
            for v in clause.variables()}
    assert _excludes_zero_at(clause) == want
    as_ints = BoolPoly({m: k.numerator if k.denominator == 1 else k
                        for m, k in clause.terms.items()})
    assert _excludes_zero_at(as_ints) == want


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
