"""Cost transformations: frozen expansions, penalty rules, spin mapping.

The expanded polynomials for the 143 system were worked out by hand and
cross-checked by exhaustive enumeration before being frozen here.
"""

import itertools
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from vqf.encoder import load_clause_file, make_random_clause_system
from vqf.errors import InvalidPenaltyCoefficients, ParseError
from vqf.pboly import BoolPoly, aux, brute_force_minima, parse_poly, pvar, qvar
from vqf.transform import (
    ALL_KINDS,
    DIRECT,
    GROBNER,
    Hamiltonian,
    SCHALLER,
    SIM_GROBNER,
    TransformKind,
    apply_transform,
    to_hamiltonian,
    transform_direct,
    transform_grobner,
    transform_schaller,
    transform_sim_grobner,
)

_INSTANCES = Path(__file__).resolve().parents[1] / "instances"
_BENCH_291311 = (Path(__file__).resolve().parents[1] / "bench" / "data"
                 / "clauses-291311.txt")

DIRECT_143 = ("3 - p1 - p2 - q1 - q2 + 2*p1*q1 - p1*q2 - p2*q1 + 2*p2*q2"
              " + 2*p1*p2*q1*q2")

SCHALLER_143 = ("5 - 3*p1 - p2 - q1 - 3*q2 + 2*p1*q1 + 2*p2*q2 + p1*q2"
                " - 3*p2*q1 + 2*p1*p2*q1 + 2*p2*q1*q2")


# -- kind objects -----------------------------------------------------------------

def test_kind_parse():
    assert TransformKind.parse("direct") == DIRECT
    assert TransformKind.parse("SIM-GROBNER") == SIM_GROBNER
    assert TransformKind.parse("grobner") == GROBNER
    assert TransformKind.parse("grobner").abc == (-2, -2, 1)


def test_kind_parse_rejects():
    with pytest.raises(ParseError):
        TransformKind.parse("cubic")
    with pytest.raises(ParseError):
        TransformKind("DIRECT", abc=(-2, -2, 1))


def test_kind_custom_penalties_distinct():
    strict = TransformKind("GROBNER", abc=(-3, -3, 2))
    assert strict != GROBNER
    assert strict.abc == (-3, -3, 2)


# -- frozen expansions --------------------------------------------------------------

def test_direct_143_frozen(system_143):
    got = transform_direct(system_143)
    assert (got - parse_poly(DIRECT_143)).is_zero()


def test_direct_143_uniform_mean(system_143):
    # average over all 16 assignments, computed exactly
    f = transform_direct(system_143)
    vs = f.variables()
    total = Fraction(0)
    for bits in itertools.product((0, 1), repeat=len(vs)):
        total += f.evaluate(dict(zip(vs, bits)))
    assert total / 16 == Fraction(13, 8)


def test_schaller_143_frozen(system_143):
    got = transform_schaller(system_143)
    assert (got - parse_poly(SCHALLER_143)).is_zero()


def test_schaller_nonnegative_and_matches_zeros(system_143):
    direct = transform_direct(system_143)
    schaller = transform_schaller(system_143)
    vs = sorted(set(direct.variables()) | set(schaller.variables()))
    for bits in itertools.product((0, 1), repeat=len(vs)):
        a = dict(zip(vs, bits))
        s = schaller.evaluate(a)
        assert s >= 0
        assert (s == 0) == (direct.evaluate(a) == 0)


def test_grobner_143_aux_order(system_143):
    _, aux_vars = transform_grobner(system_143)
    assert [v.name for v in aux_vars] == ["w1_1", "w2_2"]
    _, aux_sim = transform_sim_grobner(system_143)
    assert [v.name for v in aux_sim] == ["w1_1", "w2_2"]


def test_grobner_291311_aux_order(system_291311):
    _, aux_vars = transform_grobner(system_291311)
    assert [v.name for v in aux_vars] == ["w1_1", "w2_2", "w5_5"]


def test_grobner_no_high_degree_adds_nothing(system_35):
    poly, aux_vars = transform_grobner(system_35)
    assert aux_vars == []
    assert (poly - transform_direct(system_35)).is_zero()


# -- penalty coefficients --------------------------------------------------------------

def test_penalty_value_table():
    # default (-2, -2, 1): zero on the product truth table, positive off it
    poly, aux_vars = transform_grobner_penalty_only()
    p, q, w = pvar(9), qvar(9), aux(9, 9)
    for bp, bq in itertools.product((0, 1), repeat=2):
        for bw in (0, 1):
            val = poly.evaluate({p: bp, q: bq, w: bw})
            if bw == bp * bq:
                assert val == 0
            else:
                assert val > 0


def transform_grobner_penalty_only():
    # isolated penalty for one product bit, built from the same formula
    p, q, w = pvar(9), qvar(9), aux(9, 9)
    pq = BoolPoly.monomial((p, q))
    pw = BoolPoly.monomial((p, w))
    qw = BoolPoly.monomial((q, w))
    wl = BoolPoly.of(w)
    poly = (pw - wl) * -2 + (qw - wl) * -2 + (pq - wl)
    return poly, [w]


def test_penalty_formula_matches_implementation(system_143):
    # difference between GROBNER and its substitution-only core is exactly
    # the sum of per-aux penalties with the default coefficients
    poly, aux_vars = transform_grobner(system_143)
    sim, _ = transform_sim_grobner(system_143)
    vs = poly.variables()
    for bits in itertools.product((0, 1), repeat=len(vs)):
        a = dict(zip(vs, bits))
        if all(a[w] == a[pvar(w.i)] * a[qvar(w.j)] for w in aux_vars):
            # on the consistent slice both penalized forms agree
            assert poly.evaluate(a) == sim.evaluate(a)


@pytest.mark.parametrize("abc", [(0, 0, 1), (-2, -2, 0), (-1, -1, 1),
                                 (-2, -2, -1), (1, 1, 1)])
def test_invalid_penalties_rejected(abc, system_143):
    with pytest.raises(InvalidPenaltyCoefficients):
        transform_grobner(system_143, *abc)


def test_valid_nondefault_penalty(system_143):
    poly, aux_vars = transform_grobner(system_143, -3, -3, 2)
    lo, args = brute_force_minima(poly)
    assert lo == 0
    for a in args:
        for w in aux_vars:
            assert a[w] == a[pvar(w.i)] * a[qvar(w.j)]


# -- ground-set equivalence ---------------------------------------------------------------

def _reference_solutions(cs):
    lo, args = brute_force_minima(transform_direct(cs))
    assert lo == 0
    return {tuple(a[v] for v in cs.free_vars) for a in args}


def _check_ground_sets(cs):
    ref = _reference_solutions(cs)
    for kind in ALL_KINDS:
        poly, aux_vars = apply_transform(cs, kind)
        lo, args = brute_force_minima(poly)
        assert lo == 0, kind.name
        got = {tuple(a[v] for v in cs.free_vars) for a in args}
        assert got == ref, kind.name
        for a in args:
            for w in aux_vars:
                assert a[w] == a[pvar(w.i)] * a[qvar(w.j)], kind.name


def test_ground_sets_35(system_35):
    _check_ground_sets(system_35)


def test_ground_sets_143(system_143):
    _check_ground_sets(system_143)


def test_ground_sets_291311(system_291311):
    _check_ground_sets(system_291311)


@pytest.mark.parametrize("fname", ["synthetic-a.txt", "synthetic-b.txt"])
def test_ground_sets_synthetic_universal_kinds(fname):
    # DIRECT and SCHALLER preserve ground sets for any clause system;
    # the substitution kinds only do so when the penalty outweighs the
    # substituted coefficients, which the synthetic systems deliberately
    # violate (they carry coefficient-2 monomials).
    cs = load_clause_file(_INSTANCES / fname)
    ref = _reference_solutions(cs)
    for kind in (DIRECT, SCHALLER):
        poly, _ = apply_transform(cs, kind)
        lo, args = brute_force_minima(poly)
        assert lo == 0, kind.name
        assert {tuple(a[v] for v in cs.free_vars) for a in args} == ref, kind.name


@pytest.mark.parametrize("fname", ["synthetic-a.txt", "synthetic-b.txt"])
def test_ground_sets_synthetic_scaled_penalty(fname):
    # a penalty stronger than the total coefficient mass restores the
    # exact ground set, product consistency included
    cs = load_clause_file(_INSTANCES / fname)
    ref = _reference_solutions(cs)
    direct = transform_direct(cs)
    m = 1 + sum(abs(c) for _, c in direct.monomials())
    poly, aux_vars = transform_grobner(cs, -2 * m, -2 * m, m)
    lo, args = brute_force_minima(poly)
    assert lo == 0
    assert {tuple(a[v] for v in cs.free_vars) for a in args} == ref
    for a in args:
        for w in aux_vars:
            assert a[w] == a[pvar(w.i)] * a[qvar(w.j)]


# -- locality and size table -------------------------------------------------------------

LOCALITY_TABLE = [
    ("system_143", DIRECT, 4, 4),
    ("system_143", SCHALLER, 3, 4),
    ("system_143", GROBNER, 2, 6),
    ("system_143", SIM_GROBNER, 3, 6),
    ("system_291311", DIRECT, 4, 6),
    ("system_291311", SCHALLER, 3, 6),
    ("system_291311", GROBNER, 2, 9),
    ("system_291311", SIM_GROBNER, 3, 9),
]


@pytest.mark.parametrize("fixture,kind,locality,n_vars", LOCALITY_TABLE)
def test_locality_table(fixture, kind, locality, n_vars, request):
    cs = request.getfixturevalue(fixture)
    poly, _ = apply_transform(cs, kind)
    assert poly.degree() == locality
    assert len(poly.variables()) == n_vars
    h = to_hamiltonian(poly)
    assert h.locality == locality
    assert h.n_qubits == n_vars


# -- spin mapping -----------------------------------------------------------------------

def test_to_hamiltonian_two_qubit_example():
    f = parse_poly("1 - p1 - q1 + 2*p1*q1")  # squared sum clause
    h = to_hamiltonian(f)
    assert h.offset == 0.5
    assert h.terms == [(0.5, (0, 1))]
    assert h.var_map == {pvar(1): 0, qvar(1): 1}


def test_to_hamiltonian_value_matches_poly(system_143):
    for kind in ALL_KINDS:
        poly, _ = apply_transform(system_143, kind)
        h = to_hamiltonian(poly)
        vs = poly.variables()
        assert h.var_map == {v: k for k, v in enumerate(vs)}
        diag = h.diagonal()
        for idx in range(1 << len(vs)):
            bits = [(idx >> k) & 1 for k in range(len(vs))]
            want = float(poly.evaluate({v: bits[k] for k, v in enumerate(vs)}))
            assert abs(h.value(bits) - want) < 1e-9
            assert abs(diag[idx] - want) < 1e-9


def test_hamiltonian_qubit_numbering_is_canonical(system_291311):
    poly, _ = apply_transform(system_291311, GROBNER)
    h = to_hamiltonian(poly)
    names = [v.name for v, _ in sorted(h.var_map.items(), key=lambda kv: kv[1])]
    assert names == ["p1", "p2", "p5", "q1", "q2", "q5", "w1_1", "w2_2", "w5_5"]


def test_hamiltonian_json_round_trip(system_143):
    poly, _ = apply_transform(system_143, SIM_GROBNER)
    h = to_hamiltonian(poly)
    back = Hamiltonian.from_json(h.to_json())
    assert back.offset == h.offset
    assert back.terms == h.terms
    assert back.var_map == h.var_map


def test_hamiltonian_json_rejects_garbage():
    with pytest.raises(ParseError):
        Hamiltonian.from_json("{not json")
    with pytest.raises(ParseError):
        Hamiltonian.from_json('{"offset": 0.0}')


def test_hamiltonian_rejects_duplicate_qubit_sets():
    with pytest.raises(ValueError):
        Hamiltonian(0.0, [(1.0, (0, 1)), (2.0, (0, 1))], {pvar(1): 0, qvar(1): 1})
    with pytest.raises(ValueError):
        Hamiltonian(0.0, [(1.0, (0, 0))], {pvar(1): 0})


def _assert_diagonal_is_exact(poly):
    """The Hamiltonian's diagonal equals the polynomial on every basis
    index, to the last bit.

    The sampled objective averages diagonal entries in float, so it is
    byte-identical to the exact Fraction average only while this holds.
    """
    h = to_hamiltonian(poly)
    diag = h.diagonal()
    for x in range(1 << h.n_qubits):
        bits = {v: (x >> q) & 1 for v, q in h.var_map.items()}
        assert diag[x] == poly.evaluate(bits), (x, diag[x], poly.evaluate(bits))


@pytest.mark.parametrize("system", ["system_35", "system_143", "clauses_291311"])
def test_hamiltonian_diagonal_equals_cost_exactly(system, request):
    cs = (load_clause_file(_BENCH_291311) if system == "clauses_291311"
          else request.getfixturevalue(system))
    for kind in ALL_KINDS:
        poly, _ = apply_transform(cs, kind)
        _assert_diagonal_is_exact(poly)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_bits=st.integers(1, 3),
       n_clauses=st.integers(1, 4), kind=st.sampled_from(ALL_KINDS))
def test_hamiltonian_diagonal_equals_cost_on_random_systems(seed, n_bits,
                                                            n_clauses, kind):
    cs = make_random_clause_system(seed, n_bits=n_bits, n_clauses=n_clauses)
    poly, _ = apply_transform(cs, kind)
    _assert_diagonal_is_exact(poly)


def test_constant_poly_has_no_terms():
    h = to_hamiltonian(BoolPoly.const(Fraction(5, 2)))
    assert h.offset == 2.5
    assert h.terms == []
    assert h.n_qubits == 0
