"""Differential evolution: configuration, convergence, determinism."""

import math
from fractions import Fraction

import numpy as np
import pytest

from vqf.circuit import compile_qaoa
from vqf.errors import InvalidConfig, ParseError, TooManyQubits
from vqf.optimize import DeConfig, OptResult, minimize, train_qaoa
from vqf.pboly import parse_poly
from vqf.sim import NoiseModel, sample
from vqf.transform import Hamiltonian, apply_transform, to_hamiltonian, DIRECT, GROBNER


# -- configuration ---------------------------------------------------------------

def test_de_config_defaults():
    cfg = DeConfig(dim=4)
    assert cfg.population_size == 60
    assert cfg.f == 0.8 and cfg.cr == 0.9
    assert cfg.max_generations == 100 and cfg.tol == 1e-3
    assert cfg.bounds == (0.0, 2 * math.pi)
    assert cfg.seed == (0,)


@pytest.mark.parametrize("kw", [
    {"dim": 0}, {"population_size": 3}, {"f": 0.0}, {"f": 2.5},
    {"cr": -0.1}, {"cr": 1.1}, {"max_generations": 0}, {"tol": -1e-6},
    {"bounds": (1.0, 1.0)}, {"bounds": (2.0, 1.0)}, {"seed": -1}, {"seed": (3, -4)},
    {"tol": float("nan")},  # DE could never stop on tol
    # int() used to truncate these: 6.9 ran a population of 6
    {"population_size": 6.9}, {"max_generations": 2.5}, {"dim": True}, {"seed": 1.5},
])
def test_de_config_rejects(kw):
    base = {"dim": 2}
    base.update(kw)
    with pytest.raises(InvalidConfig):
        DeConfig(**base)


def test_de_config_replace_and_seed_tuple():
    cfg = DeConfig(dim=2, seed=(3, 4))
    assert cfg.seed == (3, 4)
    other = cfg.replace(f=1.2, seed=7)
    assert other.f == 1.2 and other.seed == (7,)
    assert cfg.f == 0.8
    with pytest.raises(AttributeError):
        cfg.f = 0.1


# -- results ---------------------------------------------------------------------

def test_opt_result_json_round_trip():
    res = OptResult(np.array([0.1, 0.2]), 0.5, 7, 120, [1.0, 0.7, 0.5])
    back = OptResult.from_json(res.to_json())
    assert np.array_equal(back.best_params, res.best_params)
    assert back.best_objective == 0.5
    assert back.generations_used == 7 and back.evaluation_count == 120
    assert back.history == [1.0, 0.7, 0.5]
    with pytest.raises(ParseError):
        OptResult.from_json('{"best_params": [0.1]}')


def test_opt_result_params_read_only():
    res = OptResult(np.array([0.1]), 0.5, 1, 4, [0.5])
    with pytest.raises(ValueError):
        res.best_params[0] = 9.0


# -- minimize on deterministic objectives --------------------------------------------

def _sphere(x):
    return float(((np.asarray(x) - 1.0) ** 2).sum())


def test_minimize_converges_on_sphere():
    cfg = DeConfig(dim=3, population_size=30, max_generations=200,
                   tol=1e-10, seed=1)
    res = minimize(_sphere, cfg)
    assert res.best_objective < 1e-4
    assert np.all(np.abs(res.best_params - 1.0) < 0.05)


def test_minimize_history_non_increasing():
    cfg = DeConfig(dim=2, population_size=12, max_generations=60, seed=5)
    res = minimize(_sphere, cfg)
    assert all(a >= b for a, b in zip(res.history, res.history[1:]))
    assert res.history[-1] == res.best_objective


def test_minimize_constant_objective_stops_immediately():
    cfg = DeConfig(dim=2, population_size=8, max_generations=50, seed=2)
    res = minimize(lambda x: 4.25, cfg)
    # spread 0 < tol at the first generation gate
    assert res.generations_used == 1
    assert res.evaluation_count == 8
    assert res.history == [4.25]


def test_minimize_respects_bounds():
    cfg = DeConfig(dim=2, population_size=16, max_generations=40,
                   bounds=(0.5, 1.5), tol=0.0, seed=9)
    seen = []

    def spy(x):
        seen.append(np.array(x))
        return _sphere(x)

    res = minimize(spy, cfg)
    arr = np.vstack(seen)
    assert arr.min() >= 0.5 and arr.max() <= 1.5
    assert np.all(res.best_params >= 0.5) and np.all(res.best_params <= 1.5)


def test_minimize_deterministic():
    cfg = DeConfig(dim=2, population_size=10, max_generations=25, seed=(8, 1))
    a = minimize(_sphere, cfg)
    b = minimize(_sphere, cfg)
    assert np.array_equal(a.best_params, b.best_params)
    assert a.history == b.history
    assert a.evaluation_count == b.evaluation_count
    c = minimize(_sphere, cfg.replace(seed=(8, 2)))
    assert not np.array_equal(a.best_params, c.best_params)


def test_minimize_evaluation_count_accounting():
    cfg = DeConfig(dim=2, population_size=6, max_generations=10, tol=0.0, seed=3)
    calls = []

    def counting(x):
        calls.append(1)
        return _sphere(x)

    res = minimize(counting, cfg)
    # tol 0 never trips: init + one trial per member per generation
    assert res.evaluation_count == 6 + 6 * 10
    assert len(calls) == res.evaluation_count
    assert res.generations_used == 10
    assert len(res.history) == 11


def test_minimize_passes_generation_member_keys():
    keys = []

    def keyed(x, key):
        keys.append(key)
        return _sphere(x)

    cfg = DeConfig(dim=2, population_size=5, max_generations=3, tol=0.0, seed=4)
    minimize(keyed, cfg)
    # init is generation 0, then members 0..4 for each later generation
    assert keys[:5] == [(0, i) for i in range(5)]
    assert keys[5:10] == [(1, i) for i in range(5)]
    assert len(keys) == 5 + 5 * 3


def test_minimize_keyed_objective_is_pinned_not_resampled():
    # a stochastic objective keyed on (gen, member) must see the same
    # draw when the same candidate slot repeats across runs
    def noisy(x, key):
        rng = np.random.default_rng([*key, 77])
        return _sphere(x) + 0.1 * rng.standard_normal()

    cfg = DeConfig(dim=2, population_size=8, max_generations=15, seed=6)
    a = minimize(noisy, cfg)
    b = minimize(noisy, cfg)
    assert np.array_equal(a.best_params, b.best_params)
    assert a.history == b.history


def test_minimize_rejects_non_callable():
    with pytest.raises(InvalidConfig):
        minimize("not a function", DeConfig(dim=1))


# -- QAOA training --------------------------------------------------------------------

def test_train_qaoa_validates_dimensions():
    h = to_hamiltonian(parse_poly("1 - p1 - q1 + 2*p1*q1"))
    with pytest.raises(InvalidConfig):
        train_qaoa(h, 2, NoiseModel().with_scale(0.0), 64,
                   DeConfig(dim=2))  # p=2 needs dim 4


@pytest.mark.parametrize("m", [2.5, True, "64"])
def test_train_qaoa_rejects_non_integral_shot_counts(m):
    h = to_hamiltonian(parse_poly("1 - p1 - q1 + 2*p1*q1"))
    cfg = DeConfig(dim=2, population_size=4, max_generations=1)
    for nm in (NoiseModel().with_scale(0.0), NoiseModel()):
        with pytest.raises(InvalidConfig):
            train_qaoa(h, 1, nm, m, cfg)


def test_train_qaoa_beats_uniform_mean_noiseless(system_143):
    # p=1 on the squared-clause cost: uniform sampling averages 13/8, so
    # any useful training must land strictly below that
    poly, _ = apply_transform(system_143, DIRECT)
    h = to_hamiltonian(poly)
    cfg = DeConfig(dim=2, population_size=12, max_generations=20,
                   tol=1e-4, seed=0)
    res = train_qaoa(h, 1, NoiseModel().with_scale(0.0), 512, cfg)
    assert res.best_objective < 13 / 8
    assert res.best_params.shape == (2,)


def test_train_qaoa_deterministic(system_143):
    poly, _ = apply_transform(system_143, DIRECT)
    h = to_hamiltonian(poly)
    cfg = DeConfig(dim=2, population_size=8, max_generations=6,
                   tol=0.0, seed=(41,))
    nm = NoiseModel(p1=0.01, p2=0.02)
    a = train_qaoa(h, 1, nm, 256, cfg)
    b = train_qaoa(h, 1, nm, 256, cfg)
    assert np.array_equal(a.best_params, b.best_params)
    assert a.history == b.history


def test_train_qaoa_objective_is_the_exact_cost_average(system_143):
    # generation 0 scores member i on the shots of seed (*cfg.seed, 0, i);
    # the float lookup in h.diagonal() must equal the exact Fraction mean
    # of the cost polynomial over those shots, rounded once
    poly, _ = apply_transform(system_143, GROBNER)
    h = to_hamiltonian(poly)
    nm = NoiseModel().with_scale(0.5)
    cfg = DeConfig(dim=2, population_size=4, max_generations=1, seed=(5,))
    res = train_qaoa(h, 1, nm, 96, cfg)
    pop = np.random.default_rng([5]).uniform(0.0, 2 * math.pi, size=(4, 2))
    circuit = compile_qaoa(h, 1)
    exact = []
    for i, x in enumerate(pop):
        shots = sample(circuit.bind(x[:1], x[1:]), nm, 96, (5, 0, i))
        total = sum(poly.evaluate({v: int(bits[q]) for v, q in h.var_map.items()}) * c
                    for bits, c in shots.counts.items())
        exact.append(float(Fraction(total) / 96))
    assert res.history[0] == min(exact)


def test_train_qaoa_noiseless_objective_is_the_exact_cost_average(system_143):
    # the noiseless twin of the test above: generation 0 is scored in one
    # batched statevector pass, yet each member's objective must be the
    # public `sample` of its bound circuit on seed (*cfg.seed, 0, i),
    # averaged exactly and rounded once
    poly, _ = apply_transform(system_143, GROBNER)
    h = to_hamiltonian(poly)
    nm = NoiseModel().with_scale(0.0)
    cfg = DeConfig(dim=2, population_size=4, max_generations=1, seed=(5,))
    res = train_qaoa(h, 1, nm, 96, cfg)
    pop = np.random.default_rng([5]).uniform(0.0, 2 * math.pi, size=(4, 2))
    circuit = compile_qaoa(h, 1)
    exact = []
    for i, x in enumerate(pop):
        shots = sample(circuit.bind(x[:1], x[1:]), nm, 96, (5, 0, i))
        total = sum(poly.evaluate({v: int(bits[q]) for v, q in h.var_map.items()}) * c
                    for bits, c in shots.counts.items())
        exact.append(float(Fraction(total) / 96))
    assert res.history[0] == min(exact)


@pytest.mark.parametrize("n, nm, shots, error, match", [
    (25, NoiseModel().with_scale(0.0), 512, TooManyQubits, "24-qubit simulator cap"),
    (12, NoiseModel(), 512, TooManyQubits, "11-qubit cap on noisy simulation"),
    (3, NoiseModel(), 0, InvalidConfig, "shot count must be >= 1, got 0"),
], ids=["noiseless-25-qubits", "noisy-12-qubits", "zero-shots"])
def test_train_qaoa_rejects_before_any_work(monkeypatch, n, nm, shots, error, match):
    # a 25-qubit diagonal alone takes seconds and over a GB, so width and
    # shot count are checked before it is computed
    h = to_hamiltonian(parse_poly(" + ".join(f"p{i}" for i in range(1, n + 1))))

    def spy(self):
        raise AssertionError("Hamiltonian.diagonal called")

    monkeypatch.setattr(Hamiltonian, "diagonal", spy)
    with pytest.raises(error, match=match):
        train_qaoa(h, 1, nm, shots, DeConfig(dim=2, population_size=4, max_generations=1))
