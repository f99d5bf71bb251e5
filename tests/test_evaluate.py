"""Resilience scoring: the gain metric, sweeps, reports, selection."""

import functools
import hashlib
from pathlib import Path

import numpy as np
import pytest

import vqf.sim as sim
from vqf.circuit import CircuitStats, compile_qaoa, stats
from vqf.encoder import (FactoringInstance, build_clauses, decode_factors,
                         load_clause_file, make_random_clause_system,
                         preprocess)
from vqf.errors import (DegenerateBaseline, InvalidConfig, NoFeasibleCandidate,
                        TooManyQubits)
from vqf.evaluate import (
    NrpgReport,
    SweepConfig,
    compute_rand,
    masking_experiment,
    minimizer_indices,
    nrpg,
    reports_from_json,
    reports_to_csv,
    reports_to_json,
    reports_to_plot_tsv,
    select_circuit,
    sweep,
)
from vqf.pboly import BoolPoly, brute_force_minima
from vqf.sim import NoiseModel
from vqf.transform import (ALL_KINDS, DIRECT, GROBNER, SCHALLER, SIM_GROBNER,
                           apply_transform, to_hamiltonian)


# -- the gain metric --------------------------------------------------------------

def test_nrpg_frozen_values():
    assert nrpg(0.2, 0.5, 0.125) == pytest.approx(0.2)
    assert nrpg(0.5, 0.5, 0.125) == 1.0
    assert nrpg(0.125, 0.5, 0.125) == 0.0


def test_nrpg_affine_properties():
    # invariant under affine rescaling of the success axis: doubling the
    # distances from rand leaves G fixed
    assert nrpg(0.3, 0.7, 0.1) == pytest.approx(nrpg(0.5, 1.3, 0.1))
    # larger m_ip means larger G at fixed baseline
    assert nrpg(0.6, 0.7, 0.1) > nrpg(0.4, 0.7, 0.1)
    # G can exceed 1 if noise helps and go negative below guessing
    assert nrpg(0.8, 0.7, 0.1) > 1.0
    assert nrpg(0.05, 0.7, 0.1) < 0.0


def test_nrpg_degenerate_baseline():
    with pytest.raises(DegenerateBaseline):
        nrpg(0.2, 0.125, 0.125)
    with pytest.raises(DegenerateBaseline):
        nrpg(0.2, 0.1250005, 0.125)  # inside the epsilon guard


def test_compute_rand_frozen(system_143):
    poly, _ = apply_transform(system_143, DIRECT)
    assert compute_rand(poly) == 2 / 16
    gro, _ = apply_transform(system_143, GROBNER)
    assert compute_rand(gro) == 2 / 64
    assert compute_rand(BoolPoly.const(3)) == 1.0


def test_minimizer_indices_decode_to_factors(system_143):
    poly, _ = apply_transform(system_143, DIRECT)
    h = to_hamiltonian(poly)
    indices = minimizer_indices(h)
    # bitstrings "0110" and "1001", character k being qubit k
    assert indices.dtype == np.int64 and indices.tolist() == [6, 9]
    for x in indices:
        assignment = {v: (int(x) >> q) & 1 for v, q in h.var_map.items()}
        f1, f2 = decode_factors(system_143, assignment, 4)
        assert f1 * f2 == 143


def test_minimizer_indices_cover_aux_kinds(system_143):
    # with product bits the register doubles in width, but the minimizers
    # stay two in number: the aux values are forced
    poly, _ = apply_transform(system_143, SIM_GROBNER)
    h = to_hamiltonian(poly)
    assert h.n_qubits == 6
    assert len(minimizer_indices(h)) == 2


_CLAUSES_291311 = Path(__file__).resolve().parents[1] / "bench" / "data" / "clauses-291311.txt"


@functools.cache
def _system(name):
    if name == "291311":
        return load_clause_file(_CLAUSES_291311)
    n, bits = {"143": (143, 4), "2867": (2867, 6), "58483": (58483, 8)}[name]
    return preprocess(build_clauses(FactoringInstance(n, bits)))


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.name)
@pytest.mark.parametrize("name", ["143", "2867", "58483", "291311"])
def test_minimizer_indices_match_brute_force(name, kind):
    # the diagonal's argmin against the polynomial's exact minimizers,
    # each assignment read as a basis index through var_map
    poly, _ = apply_transform(_system(name), kind)
    h = to_hamiltonian(poly)
    _, minimizers = brute_force_minima(poly)
    want = sorted(sum(bit << h.var_map[v] for v, bit in m.items()) for m in minimizers)
    assert minimizer_indices(h).tolist() == want


# -- reports ------------------------------------------------------------------------

def _mk_report(**kw):
    base = dict(instance="143", transform="DIRECT", p=1, i=0.3, m_ip=0.4,
                m_0p=0.9, rand=0.125, nrpg=0.355, seed=3,
                stats=CircuitStats(4, 23, 34, 44))
    base.update(kw)
    return NrpgReport(**base)


def test_report_json_round_trip():
    reports = [_mk_report(), _mk_report(transform="GROBNER", i=0.6, seed=4)]
    back = reports_from_json(reports_to_json(reports))
    assert len(back) == 2
    for a, b in zip(reports, back):
        assert a.as_dict() == b.as_dict()


def test_report_csv_layout():
    text = reports_to_csv([_mk_report()])
    lines = text.strip().splitlines()
    assert lines[0] == ("instance,transform,p,i,m_ip,m_0p,rand,nrpg,"
                        "n_qubits,n_cnot,depth,seed")
    cells = lines[1].split(",")
    assert cells[0] == "143" and cells[1] == "DIRECT"
    assert cells[2] == "1" and float(cells[3]) == 0.3
    assert cells[8:] == ["4", "34", "44", "3"]


def test_report_plot_tsv_averages_seeds():
    reports = [_mk_report(nrpg=0.4, seed=0), _mk_report(nrpg=0.6, seed=1),
               _mk_report(transform="SCHALLER", nrpg=0.9, seed=0)]
    text = reports_to_plot_tsv(reports)
    lines = text.strip().splitlines()
    assert lines[0] == "transform\tp\ti\tmean_nrpg\tsem\tn_seeds"
    rows = {ln.split("\t")[0]: ln.split("\t") for ln in lines[1:]}
    assert float(rows["DIRECT"][3]) == pytest.approx(0.5)
    assert int(rows["DIRECT"][5]) == 2
    assert float(rows["SCHALLER"][4]) == 0.0  # single seed: no spread


def test_report_json_rejects_garbage():
    from vqf.errors import ParseError
    with pytest.raises(ParseError):
        reports_from_json('[{"instance": "143"}]')


# -- sweep configuration ---------------------------------------------------------------

def test_sweep_config_validation():
    with pytest.raises(InvalidConfig):
        SweepConfig(seeds=())
    with pytest.raises(InvalidConfig):
        SweepConfig(train_shots=0)
    with pytest.raises(InvalidConfig):
        SweepConfig(seeds=(0, -1))
    cfg = SweepConfig(seeds=[0, 1], population_size=10, max_generations=5)
    de = cfg.de_config(2, 7)
    assert de.dim == 4 and de.population_size == 10
    assert de.max_generations == 5 and de.seed == (7,)
    # a scalar seed is one replicate, 0 included ("at least one seed" before)
    assert SweepConfig(seeds=0).seeds == (0,) and SweepConfig(seeds=3).seeds == (3,)


def _tiny_cfg(**kw):
    base = dict(seeds=(0,), train_shots=128, report_shots=512,
                population_size=6, max_generations=3, tol=0.0)
    base.update(kw)
    return SweepConfig(**base)


# -- sweeps -----------------------------------------------------------------------------

def test_sweep_zero_level_rows_have_unit_gain(system_143):
    reports = sweep(system_143, [DIRECT], [1], [0.0, 0.5], _tiny_cfg())
    zero = [r for r in reports if r.i == 0.0]
    assert len(zero) == 1
    assert zero[0].nrpg == 1.0
    assert zero[0].m_ip == zero[0].m_0p


def test_sweep_adds_zero_level_if_missing(system_143):
    reports = sweep(system_143, [DIRECT], [1], [0.5], _tiny_cfg())
    assert sorted({r.i for r in reports}) == [0.0, 0.5]


def test_sweep_rejects_negative_levels(system_143):
    with pytest.raises(InvalidConfig):
        sweep(system_143, [DIRECT], [1], [-0.1, 0.5], _tiny_cfg())


def test_sweep_checks_settings_before_any_training(monkeypatch, system_143):
    calls = []

    def no_training(*args, **kwargs):
        calls.append(args)
        raise RuntimeError("trained before the settings were checked")

    monkeypatch.setattr("vqf.evaluate._train", no_training)
    # a level above 1 is not a noise scale
    with pytest.raises(InvalidConfig):
        sweep(system_143, [DIRECT], [1], [1.5], _tiny_cfg())
    # 12 qubits fit the statevector but not the noisy density matrix
    wide = make_random_clause_system(2, n_bits=6, n_clauses=6)
    assert to_hamiltonian(apply_transform(wide, DIRECT)[0]).n_qubits == 12
    with pytest.raises(TooManyQubits):
        sweep(wide, [DIRECT], [1], [0.5], _tiny_cfg())
    assert calls == []


def test_sweep_rows_sorted_and_complete(system_143):
    cfg = _tiny_cfg(seeds=(1, 0))
    reports = sweep(system_143, [SCHALLER, DIRECT], [1], [0.4, 0.0], cfg)
    keys = [(r.transform, r.p, r.i, r.seed) for r in reports]
    # DIRECT before SCHALLER regardless of request order; seeds ascending
    assert keys == [
        ("DIRECT", 1, 0.0, 0), ("DIRECT", 1, 0.0, 1),
        ("DIRECT", 1, 0.4, 0), ("DIRECT", 1, 0.4, 1),
        ("SCHALLER", 1, 0.0, 0), ("SCHALLER", 1, 0.0, 1),
        ("SCHALLER", 1, 0.4, 0), ("SCHALLER", 1, 0.4, 1),
    ]
    for r in reports:
        assert r.instance == "system"
        assert r.rand == 0.125
        assert r.stats.n_qubits == 4


def test_sweep_label_and_instance_forms(system_143):
    by_instance = sweep(FactoringInstance(143, 4), [DIRECT], [1], [0.0],
                        _tiny_cfg())
    assert by_instance[0].instance == "143"
    labeled = sweep(system_143, [DIRECT], [1], [0.0], _tiny_cfg(),
                    label="one-four-three")
    assert labeled[0].instance == "one-four-three"


def test_sweep_noise_free_device_gives_unit_gain_everywhere(system_143):
    # with both noise families masked the scale axis does nothing
    nm = NoiseModel(gate_noise_on=False, decoherence_on=False)
    reports = sweep(system_143, [DIRECT], [1], [0.0, 0.7, 1.0],
                    _tiny_cfg(noise=nm))
    for r in reports:
        assert r.nrpg == 1.0
        assert r.m_ip == r.m_0p


def test_sweep_deterministic_bytes(system_143):
    a = sweep(system_143, [DIRECT], [1], [0.0, 0.6], _tiny_cfg(seeds=(0, 1)))
    b = sweep(system_143, [DIRECT], [1], [0.0, 0.6], _tiny_cfg(seeds=(0, 1)))
    assert reports_to_json(a) == reports_to_json(b)


def test_noisy_train_sweep_report_is_pinned():
    # the benchmark's noisy-train round at seed 0 (9-qubit GROBNER trained
    # under full noise); the digest was recorded before the density engine
    # moved to the measurement-aware schedule
    clauses = Path(__file__).resolve().parents[1] / "bench" / "data" / "clauses-291311.txt"
    cfg = SweepConfig(seeds=(0,), train_shots=512, report_shots=2048,
                      population_size=8, max_generations=4)
    reports = sweep(load_clause_file(clauses), [GROBNER], [1], [1.0], cfg,
                    label="clauses-291311")
    digest = hashlib.sha256(reports_to_json(reports).encode()).hexdigest()
    assert digest == "46246d82bf2dfa74dc8cb6b0215e27891fada28fa1f47977e729aea3c037787b"


def test_sweep_reuse_params_mode(system_143):
    # reuse mode scores the i=0 angles at every level, so they share m_0p
    cfg = _tiny_cfg(reuse_params=True)
    reports = sweep(system_143, [DIRECT], [1], [0.0, 0.5, 1.0], cfg)
    m0 = {r.m_0p for r in reports}
    assert len(m0) == 1


def test_reuse_params_sweep_builds_one_report_plan_per_level(monkeypatch, system_143):
    # training runs noiseless here, so every density plan is a report
    # plan, and both seeds score from the one of their (kind, p, level)
    built = []

    class Counted(sim._DensityPlan):
        def __init__(self, circuit, nm, keep=()):
            built.append((circuit.n_qubits, circuit.p, nm.scale))
            super().__init__(circuit, nm, keep)

    monkeypatch.setattr(sim, "_DensityPlan", Counted)
    cfg = _tiny_cfg(seeds=(0, 1), reuse_params=True)
    reports = sweep(system_143, [DIRECT, SCHALLER], [1, 2], [0.0, 0.5, 1.0], cfg)
    assert len(reports) == 2 * 2 * 3 * 2
    assert sorted(built) == sorted((4, p, i) for _kind in range(2) for p in (1, 2)
                                   for i in (0.5, 1.0))


def test_masking_experiment_structure(system_143):
    out = masking_experiment(system_143, DIRECT, [1], [0.0, 1.0],
                             _tiny_cfg(seeds=(0,)))
    assert set(out) == {"gate", "decoherence"}
    for rows in out.values():
        assert sorted({r.i for r in rows}) == [0.0, 1.0]
    # each arm runs the same grid with one mechanism alive, so the i=0
    # rows agree; noiseless training is shared
    g0 = [r for r in out["gate"] if r.i == 0.0][0]
    d0 = [r for r in out["decoherence"] if r.i == 0.0][0]
    assert g0.m_0p == d0.m_0p


# -- circuit selection --------------------------------------------------------------------

def _stats_for(system, kind, p=1):
    poly, _ = apply_transform(system, kind)
    return stats(compile_qaoa(to_hamiltonian(poly), p))


def test_select_prefers_fewest_cnots(system_143):
    cands = [(k, _stats_for(system_143, k)) for k in ALL_KINDS]
    assert select_circuit(cands, qubit_budget=16) == GROBNER


def test_select_honors_qubit_budget(system_143):
    cands = [(k, _stats_for(system_143, k)) for k in ALL_KINDS]
    # 4-qubit budget excludes both 6-qubit substitution kinds
    assert select_circuit(cands, qubit_budget=4) == SCHALLER
    with pytest.raises(NoFeasibleCandidate):
        select_circuit(cands, qubit_budget=3)
    with pytest.raises(NoFeasibleCandidate):
        select_circuit([], qubit_budget=10)


def test_select_permutation_invariant(system_143):
    cands = [(k, _stats_for(system_143, k)) for k in ALL_KINDS]
    for rotation in range(len(cands)):
        rotated = cands[rotation:] + cands[:rotation]
        assert select_circuit(rotated, qubit_budget=16) == GROBNER


def test_select_tie_breaks_by_cnot_density_then_name():
    a = CircuitStats(n_qubits=4, n_single_gates=10, n_cnot=20, depth=30)
    b = CircuitStats(n_qubits=5, n_single_gates=10, n_cnot=20, depth=30)
    # same CNOT count: lower CNOTs per qubit wins
    assert select_circuit([(DIRECT, a), (SCHALLER, b)], 8) == SCHALLER
    # fully tied stats: alphabetical name, for a stable verdict
    assert select_circuit([(SIM_GROBNER, a), (SCHALLER, a)], 8) == SCHALLER


def test_select_single_candidate(system_143):
    cands = [(DIRECT, _stats_for(system_143, DIRECT))]
    assert select_circuit(cands, qubit_budget=4) == DIRECT
