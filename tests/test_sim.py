"""Simulator: exact gate action, noise channels, sampling, determinism.

The channel tests compare the density-matrix engine's output
probabilities with closed forms, and the whole engine entry by entry with
a Kraus/Pauli reference computed independently in this file.  The
noiseless statevector plan is compared byte for byte with the per-gate
loop it replaced, kept here as `_reference_state`.  Noisy sampling is
checked to draw every shot from the density diagonal.
"""

import dataclasses
import hashlib
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import vqf.sim as sim
from vqf.circuit import BoundCircuit, Gate, ParamCircuit, compile_qaoa
from vqf.errors import InvalidConfig, ParseError, TooManyQubits
from vqf.evaluate import _EVAL_SALT
from vqf.pboly import parse_poly, pvar, qvar
from vqf.sim import (
    NoiseModel,
    SampleSet,
    estimate_expectation,
    sample,
    simulate_statevector,
    success_probability,
)
from vqf.transform import (ALL_KINDS, DIRECT, GROBNER, SCHALLER, SIM_GROBNER,
                           apply_transform, to_hamiltonian)

QUIET = NoiseModel().with_scale(0.0)


def _rx(theta):
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


def _rz(theta):
    return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])


_H = np.array([[1, 1], [1, -1]]) / math.sqrt(2)


def _gate_matrix(g, n):
    """Dense unitary with qubit k on bit k of the basis index."""
    if g.kind == "CNOT":
        c, t = g.qubits
        perm = np.zeros((1 << n, 1 << n), dtype=complex)
        for i in range(1 << n):
            j = i ^ (1 << t) if (i >> c) & 1 else i
            perm[j, i] = 1.0
        return perm
    if g.kind == "H":
        single = _H
    elif g.kind == "RX":
        single = _rx(g.angle)
    else:
        single = _rz(g.angle)
    u = np.array([[1.0]])
    for k in range(n):
        u = np.kron(single if k == g.qubits[0] else np.eye(2), u)
    return u


def _dense_state(circuit):
    state = np.zeros(1 << circuit.n_qubits, dtype=complex)
    state[0] = 1.0
    for g in circuit.gates:
        state = _gate_matrix(g, circuit.n_qubits) @ state
    return state


# -- noise model ------------------------------------------------------------------

def test_noise_model_defaults():
    nm = NoiseModel()
    assert nm.p1 == 0.002 and nm.p2 == 0.025
    assert nm.t1_us == 50.0 and nm.t2_us == 60.0
    assert nm.scale == 1.0 and nm.gate_noise_on and nm.decoherence_on


@pytest.mark.parametrize("kw", [
    {"p1": -0.1}, {"p2": 1.5}, {"scale": -0.2}, {"scale": 1.2},
    {"t1_us": 0.0}, {"t2_us": -1.0}, {"dur1_ns": -5.0},
    {"t1_us": 10.0, "t2_us": 25.0},  # t2 > 2*t1
    {"gate_noise_on": "false"}, {"decoherence_on": 0},  # bool("false") is True
])
def test_noise_model_rejects(kw):
    with pytest.raises(InvalidConfig):
        NoiseModel(**kw)


@pytest.mark.parametrize("field", ["t1_us", "t2_us", "dur1_ns", "dur2_ns"])
def test_noise_model_rejects_nan_times(field):
    # NaN fails every comparison, so a check phrased as "reject if bad"
    # lets it through and sampling then runs with nan damping
    with pytest.raises(InvalidConfig):
        NoiseModel(**{field: float("nan")})


def test_damp_gamma_formula():
    nm = NoiseModel(t1_us=50.0)
    want = 1.0 - math.exp(-100.0 / 50000.0)
    assert nm.damp_gamma(100.0) == pytest.approx(want, rel=1e-12)
    assert nm.damp_gamma(0.0) == 0.0


def test_dephase_prob_formula():
    nm = NoiseModel(t1_us=50.0, t2_us=60.0)
    rate = 1.0 / 60.0 - 1.0 / 100.0
    want = (1.0 - math.exp(-0.1 * rate)) / 2.0
    assert nm.dephase_prob(100.0) == pytest.approx(want, rel=1e-12)
    # t2 at the 2*t1 boundary: no pure dephasing at all
    assert NoiseModel(t1_us=50.0, t2_us=100.0).dephase_prob(300.0) == 0.0


def test_noise_model_replace_and_scale():
    nm = NoiseModel().with_scale(0.3)
    assert nm.scale == 0.3
    off = nm.replace(gate_noise_on=np.bool_(False))
    assert off.gate_noise_on is False and off.scale == 0.3
    with pytest.raises(AttributeError):
        nm.p1 = 0.5


def test_noise_model_json_round_trip():
    nm = NoiseModel(p1=0.004, p2=0.03, scale=0.7, decoherence_on=False)
    back = NoiseModel.from_json(nm.to_json())
    assert back.to_json() == nm.to_json()
    with pytest.raises(ParseError):
        NoiseModel.from_json('{"p1": "many"}')
    with pytest.raises(InvalidConfig):
        NoiseModel.from_json('{"gate_noise_on": "false"}')


# -- sample sets ------------------------------------------------------------------

def test_sample_set_validates_total():
    with pytest.raises(InvalidConfig):
        SampleSet(2, [1, 2], [2, 1], 4)


@pytest.mark.parametrize("counts", [
    ([2, 1], [1, 2]),   # unsorted
    ([1, 1], [1, 2]),   # a duplicate index
    ([1, 4], [1, 2]),   # past 2^n - 1
    ([1, 2], [3]),      # one count for two indices
    ([-1, 2], [1, 2]),  # a negative index
    ([[1, 2]], [[1, 2]]),  # not one-dimensional
])
def test_sample_set_rejects_malformed_outcomes(counts):
    index, count = counts
    with pytest.raises(InvalidConfig):
        SampleSet(2, index, count, 3)


def test_sample_set_stores_basis_indices():
    # character k is qubit k, so index 1 reads "10" and index 2 "01"
    given = np.array([1, 2])
    s = SampleSet(2, given, [3, 1], 4)
    assert dataclasses.is_dataclass(s)
    assert s.index.tolist() == [1, 2] and s.count.tolist() == [3, 1]
    assert s.counts == {"10": 3, "01": 1}
    with pytest.raises(ValueError):
        s.count[0] = 4
    with pytest.raises(AttributeError):
        s.total = 5
    given[0] = 0  # the set holds its own copy
    assert s.index.tolist() == [1, 2]


def test_sample_set_checks_total_on_every_path():
    # one constructor serves callers and the shot draw alike
    with pytest.raises(InvalidConfig):
        SampleSet(2, [1, 2], [4, -1], 3)
    s = sample(BoundCircuit(2, [Gate("H", (0,))]), QUIET, 64, 3)
    assert int(s.count.sum()) == s.total == 64
    assert SampleSet(2, [], [], 0).counts == {}


# -- exact statevector -------------------------------------------------------------

def test_statevector_matches_dense_oracle():
    rng = np.random.default_rng(7)
    kinds = ["H", "RX", "RZ", "CNOT"]
    for _ in range(15):
        gates = []
        for _ in range(12):
            kind = kinds[rng.integers(len(kinds))]
            if kind == "CNOT":
                c, t = rng.choice(3, size=2, replace=False)
                gates.append(Gate("CNOT", (int(c), int(t))))
            elif kind == "H":
                gates.append(Gate("H", (int(rng.integers(3)),)))
            else:
                gates.append(Gate(kind, (int(rng.integers(3)),),
                                  angle=float(rng.uniform(-3, 3))))
        circ = BoundCircuit(3, gates)
        got = simulate_statevector(circ)
        assert np.allclose(got, _dense_state(circ), atol=1e-12)


def test_qaoa_cost_layer_is_diagonal_phase():
    # with beta = 0 the full level is a pure phase on the uniform state
    h = to_hamiltonian(parse_poly("3 - p1 - p2 - q1 - q2 + 2*p1*q1 - p1*q2"
                                  " - p2*q1 + 2*p2*q2 + 2*p1*p2*q1*q2"))
    gamma = 0.7
    state = simulate_statevector(compile_qaoa(h, 1).bind([gamma], [0.0]))
    n = h.n_qubits
    want = np.exp(-1j * gamma * h.diagonal()) / math.sqrt(1 << n)
    ratio = want[0] / state[0]  # global phase from the discarded offset
    assert abs(abs(ratio) - 1.0) < 1e-12
    assert np.allclose(state * ratio, want, atol=1e-9)


def test_statevector_norm_and_qubit_cap():
    state = simulate_statevector(BoundCircuit(2, [Gate("H", (0,)), Gate("CNOT", (0, 1))]))
    assert np.linalg.norm(state) == pytest.approx(1.0)
    assert state[0] == pytest.approx(1 / math.sqrt(2))
    assert state[3] == pytest.approx(1 / math.sqrt(2))
    big = BoundCircuit(25, [Gate("H", (0,))])
    with pytest.raises(TooManyQubits):
        simulate_statevector(big)
    with pytest.raises(TooManyQubits):
        sample(big, QUIET, 10, 0)


# -- sampling: conventions and determinism --------------------------------------------

def test_bitstring_convention_qubit_k_is_char_k():
    # flip only qubit 0 of two: every shot must read "10"
    bound = BoundCircuit(2, [Gate("RX", (0,), angle=math.pi)])
    s = sample(bound, QUIET, 64, 1)
    assert s.counts == {"10": 64}


def test_noiseless_sampling_matches_manual_stream():
    # freeze the measurement stream layout: block b uses substream
    # (*seed, b, 1) and inverse-transform sampling over the exact state
    bound = BoundCircuit(2, [Gate("H", (0,)), Gate("CNOT", (0, 1)),
                             Gate("RX", (1,), angle=0.7)])
    m, seed = 600, (11, 4)
    got = sample(bound, QUIET, m, seed)
    state = simulate_statevector(bound)
    cum = np.cumsum(np.abs(state) ** 2)
    u = np.concatenate([
        np.random.default_rng([11, 4, b, 1]).random(min(256, m - 256 * b))
        for b in range(3)])
    idx = np.minimum(np.searchsorted(cum, u * cum[-1], side="right"), 3)
    want = {}
    for i in idx:
        bits = format(int(i), "02b")[::-1]
        want[bits] = want.get(bits, 0) + 1
    assert got.counts == want


def _written_out_draw(probs, m, seed):
    """`sim._draw` as one fresh generator per 256-shot block."""
    cum = np.cumsum(probs)
    u = np.concatenate([
        np.random.default_rng([*seed, b, 1]).random(min(256, m - 256 * b))
        for b in range(-(-m // 256))])
    return np.minimum(np.searchsorted(cum, u * cum[-1], side="right"), probs.size - 1)


@pytest.mark.parametrize("m", [1, 255, 256, 257, 600, 8192])
def test_draw_equals_fresh_streams_with_cold_warm_and_cleared_cache(m):
    # each substream's seeded state is cached per process; the cache must
    # never change a uniform, whether it holds the state or not
    probs = np.random.default_rng(m).random(32)
    probs[[0, 5, 6, 31]] = 0.0
    seeds = [(3,), (11, 4), (7, _EVAL_SALT), (7, 2, 5)]
    want = [_written_out_draw(probs, m, seed) for seed in seeds]
    sim._stream_state.cache_clear()
    for _ in ("cold", "warm"):
        for seed, w in zip(seeds, want):
            assert np.array_equal(sim._draw(probs, m, seed), w)
    blocks = -(-m // 256)
    info = sim._stream_state.cache_info()
    assert (info.misses, info.hits) == (4 * blocks, 4 * blocks)
    assert info.maxsize is not None  # bounded
    sim._stream_state.cache_clear()
    for seed, w in zip(seeds, want):
        assert np.array_equal(sim._draw(probs, m, seed), w)


@pytest.mark.parametrize("m", [1, 7, 600])
def test_shots_count_like_unique(m):
    probs = np.array([0.0, 0.3, 0.0, 0.0, 0.5, 0.2, 0.0, 0.0])
    got = sim._shots(probs, 3, m, (9,))
    values, counts = np.unique(sim._draw(probs, m, (9,)), return_counts=True)
    assert got.index.tolist() == values.tolist()
    assert got.count.tolist() == counts.tolist()
    assert got.total == m


def test_sampling_rejects_zero_shots():
    bound = BoundCircuit(1, [Gate("H", (0,))])
    with pytest.raises(InvalidConfig):
        sample(bound, QUIET, 0, 1)


@pytest.mark.parametrize("seed", [-3, (4, -1)])
def test_sampling_rejects_negative_seeds(seed):
    # numpy's bare ValueError used to surface here
    bound = BoundCircuit(1, [Gate("H", (0,))])
    for nm in (QUIET, NoiseModel()):
        with pytest.raises(InvalidConfig):
            sample(bound, nm, 4, seed)


@pytest.mark.parametrize("m, seed", [(10.5, 0), (True, 0), ("8", 0), (8, 1.5),
                                     (8, True), (8, (2, 1.5)), (8, "7")],
                         ids=["shots-float", "shots-bool", "shots-str", "seed-float",
                              "seed-bool", "seed-tuple-float", "seed-str"])
def test_sampling_rejects_non_integral_shots_and_seeds(m, seed):
    # a float shot count used to raise a bare TypeError and True drew one
    # shot; a float seed raised "'float' object is not iterable"
    bound = BoundCircuit(1, [Gate("H", (0,))])
    for nm in (QUIET, NoiseModel()):
        with pytest.raises(InvalidConfig):
            sample(bound, nm, m, seed)


def test_sampling_takes_integral_floats_as_integers():
    bound = BoundCircuit(2, [Gate("H", (0,)), Gate("CNOT", (0, 1))])
    a, b = sample(bound, QUIET, 300.0, (4.0, 2)), sample(bound, QUIET, 300, (4, 2))
    assert (a.total, a.index.tolist(), a.count.tolist()) == \
        (b.total, b.index.tolist(), b.count.tolist())


def _noisy_test_circuit():
    h = to_hamiltonian(parse_poly("1 - p1 - q1 + 2*p1*q1"))
    return compile_qaoa(h, 1).bind([0.9], [0.6])


def _wide_circuit(n, shift=0.0):
    """H layer, CNOT-RZ-CNOT gadgets in both orientations, RX layer; `shift`
    moves every RZ angle up and every RX angle down."""
    gates = [Gate("H", (k,)) for k in range(n)]
    for k in range(n - 1):
        c, t = (k, k + 1) if k % 2 else (k + 1, k)
        gates += [Gate("CNOT", (c, t)), Gate("RZ", (t,), angle=0.3 + 0.2 * k + shift),
                  Gate("CNOT", (c, t))]
    gates += [Gate("RX", (k,), angle=0.7 - 0.1 * k - shift) for k in range(n)]
    return BoundCircuit(n, gates)


def test_noisy_sample_draws_from_density_diagonal():
    # one engine for every shot count: the shots are `_draw` on diag(rho)
    bound = _wide_circuit(8)
    nm = NoiseModel().with_scale(0.5)
    # rho[x, x] is the coordinate sum_q x_q 4^q: x's binary digits read in base 4
    diag_at = [int(format(x, "b"), 4) for x in range(1 << 8)]
    diag = np.maximum(sim._evolve_density(bound, nm, keep=range(8))[diag_at], 0.0)
    for m in (1, 7, 511, 512):
        values, counts = np.unique(sim._draw(diag, m, (4,)), return_counts=True)
        got = sample(bound, nm, m, 4)
        assert got.index.tolist() == values.tolist()
        assert got.count.tolist() == counts.tolist()


# sha256 of the little-endian int64 `index` then `count` of 512 noisy shots,
# recorded before the engine moved to real Hermitian coordinates
_PINNED_9Q_SAMPLES = [
    (0.0, 0, "06df0215c312552b6f8195c44d7cc1b5887a47d5ceba6c145d29e7e136e8e2e5"),
    (0.55, 17, "3ccd166d4d0cb16b5db2610c2c46a5cf496c979e2d50a58404bce7eb0d09d1c2"),
    (-1.2, (3, 8), "1501d183982f9c3239986b119d3b89bb6b228a935e12eea55a66216704cbcb56"),
]


@pytest.mark.parametrize("shift, seed, digest", _PINNED_9Q_SAMPLES,
                         ids=["shift0", "shift0.55", "shift-1.2"])
def test_noisy_sampled_bits_are_pinned(shift, seed, digest):
    # an engine change that moves any sampled bit must fail here, not pass
    # quietly; if it is meant to, bump OUTPUT_VERSION and re-record
    s = sample(_wide_circuit(9, shift), NoiseModel(), 512, seed)
    got = hashlib.sha256(s.index.astype("<i8").tobytes()
                         + s.count.astype("<i8").tobytes()).hexdigest()
    assert got == digest


def test_noisy_sample_rejects_wide_circuit():
    # noisy simulation stops at 11 qubits, the noiseless path at 24
    wide = BoundCircuit(12, [Gate("H", (0,))])
    with pytest.raises(TooManyQubits):
        sample(wide, NoiseModel(), 1, 0)
    assert sample(wide, QUIET, 4, 0).total == 4


def test_scale_zero_equals_noiseless_path():
    bound = _noisy_test_circuit()
    a = sample(bound, NoiseModel().with_scale(0.0), 512, 9)
    b = sample(bound, NoiseModel(p1=0.0, p2=0.0, dur1_ns=0.0, dur2_ns=0.0), 512, 9)
    assert a.counts == b.counts


# -- batched noiseless evolve --------------------------------------------------------

def _candidates(p, rows, seed):
    """Random (gammas, betas) rows plus rows clipped to 0 and 2*pi, as DE
    clips its mutants."""
    two_pi = 2 * math.pi
    x = np.random.default_rng(seed).uniform(0.0, two_pi, size=(rows, 2 * p))
    edges = np.array([[0.0] * (2 * p), [two_pi] * (2 * p),
                      [0.0, two_pi] * p, [two_pi, 0.0] * p])
    return np.vstack([x, edges])


def _reference_state(circuit):
    """The final state of a bound circuit, gate by gate, as the engine
    computed it before the statevector plan: a CNOT swaps the target-bit
    slices of the control-1 subspace, and H, RZ and RX act in place on the
    two slices of their qubit.  The plan applies the same multiplies and
    adds to each amplitude in the same order, so it must give these bytes;
    a moved rounding shows here long before it moves a sampled shot."""
    n = circuit.n_qubits
    state = np.zeros(1 << n, dtype=np.complex128)
    state[0] = 1.0
    for g in circuit.gates:
        if g.kind == "CNOT":
            c, t = g.qubits
            hi, lo = max(c, t), min(c, t)
            v = state.reshape(1 << (n - 1 - hi), 2, 1 << (hi - lo - 1), 2, 1 << lo)
            if c > t:
                a = v[:, 1, :, 0, :].copy()
                v[:, 1, :, 0, :] = v[:, 1, :, 1, :]
                v[:, 1, :, 1, :] = a
            else:
                a = v[:, 0, :, 1, :].copy()
                v[:, 0, :, 1, :] = v[:, 1, :, 1, :]
                v[:, 1, :, 1, :] = a
            continue
        k = g.qubits[0]
        v = state.reshape(1 << (n - k - 1), 2, 1 << k)
        s0, s1 = v[:, 0, :], v[:, 1, :]
        if g.kind == "H":
            tmp = s0.copy()
            s0 += s1
            s0 *= 1.0 / np.sqrt(2.0)
            s1 *= -1.0
            s1 += tmp
            s1 *= 1.0 / np.sqrt(2.0)
            continue
        half = 0.5 * g.angle
        if g.kind == "RZ":
            s0 *= complex(np.cos(half), -np.sin(half))
            s1 *= complex(np.cos(half), np.sin(half))
        else:
            f0, f1 = np.cos(half), -1j * np.sin(half)
            tmp = s0.copy()
            s0 *= f0
            s0 += f1 * s1
            s1 *= f0
            s1 += f1 * tmp
    return state


def _assert_rows_equal_bound(circuit, X):
    """Every row of one `_StatePlan` has the bytes of `_reference_state` of
    the bound circuit, and so has that circuit's own plan."""
    p = circuit.p
    plan = sim._StatePlan(circuit)
    states = [row for chunk in plan.evolve(X) for row in chunk]
    assert len(states) == len(X)
    for x, state in zip(X, states):
        bound = circuit.bind(x[:p], x[p:])
        want = _reference_state(bound).tobytes()
        assert state.tobytes() == want
        assert simulate_statevector(bound).tobytes() == want


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.name)
def test_batched_states_equal_bound_statevectors(system_143, kind, p):
    # bit for bit, so the sampled shots and every trained angle stay put
    circuit = compile_qaoa(to_hamiltonian(apply_transform(system_143, kind)[0]), p)
    _assert_rows_equal_bound(circuit, _candidates(p, 6, 10 * p))


def test_batched_states_equal_bound_statevectors_at_9_qubits(system_291311):
    circuit = compile_qaoa(to_hamiltonian(apply_transform(system_291311, GROBNER)[0]), 1)
    assert circuit.n_qubits == 9
    _assert_rows_equal_bound(circuit, _candidates(1, 8, 3))


@pytest.mark.parametrize("rows_per_chunk", [3, 0])
def test_batched_states_cross_chunk_boundaries(system_143, monkeypatch, rows_per_chunk):
    # 10 rows in chunks of 3, 3, 3, 1; at a budget below one state, one
    # row at a time, as wide registers run, with nothing held: the prefix
    # gates and every mask rebuilt in each chunk
    circuit = compile_qaoa(to_hamiltonian(apply_transform(system_143, DIRECT)[0]), 2)
    monkeypatch.setattr(sim, "_BATCH_AMPS", rows_per_chunk << circuit.n_qubits)
    plan = sim._StatePlan(circuit)
    assert plan.chunk == max(1, rows_per_chunk)
    assert (plan._prefix is None) == (rows_per_chunk == 0)
    _assert_rows_equal_bound(circuit, _candidates(2, 6, 8))


# CNOTs outside ladders, H and RX after a CNOT on the same qubit, fixed
# angles, an idle qubit, no gates, and frames left unresolved at the end
_CNOT_WEB = BoundCircuit(4, [
    Gate("H", (0,)), Gate("H", (2,)), Gate("CNOT", (0, 1)), Gate("CNOT", (2, 0)),
    Gate("RZ", (1,), angle=0.9), Gate("CNOT", (1, 3)), Gate("RZ", (3,), angle=-1.7),
    Gate("RZ", (0,), angle=0.4), Gate("H", (0,)), Gate("CNOT", (3, 2)),
    Gate("RX", (2,), angle=2.1), Gate("CNOT", (0, 3)), Gate("CNOT", (3, 1)),
    Gate("RZ", (1,), angle=-0.0), Gate("RZ", (2,), angle=0.0)])
_H_AFTER_CNOT = BoundCircuit(3, [Gate("H", (0,)), Gate("CNOT", (0, 1)), Gate("H", (1,)),
                                 Gate("RZ", (1,), angle=0.3), Gate("CNOT", (1, 0))])
_IDLE_QUBIT = BoundCircuit(3, [Gate("H", (0,)), Gate("RX", (2,), angle=0.8),
                               Gate("CNOT", (2, 0)), Gate("RZ", (0,), angle=1.1)])


def _random_cnot_circuit(n, gates, seed):
    rng = np.random.default_rng(seed)
    out = [Gate("H", (q,)) for q in range(n)]
    for _ in range(gates):
        kind = ("H", "RX", "RZ", "CNOT", "CNOT", "CNOT")[rng.integers(6)]
        if kind == "CNOT":
            out.append(Gate("CNOT", tuple(int(q) for q in rng.choice(n, 2, replace=False))))
        else:
            out.append(Gate(kind, (int(rng.integers(n)),),
                            None if kind == "H" else float(rng.uniform(-4, 4))))
    return BoundCircuit(n, out)


@pytest.mark.parametrize("circuit", [_CNOT_WEB, _H_AFTER_CNOT, _IDLE_QUBIT, BoundCircuit(2, []),
                                     BoundCircuit(1, [Gate("RX", (0,), angle=0.5)]),
                                     _random_cnot_circuit(5, 60, 1),
                                     _random_cnot_circuit(7, 90, 2)],
                         ids=["cnot-web", "h-after-cnot", "idle", "empty", "one-qubit",
                              "random-5", "random-7"])
def test_bound_statevector_equals_reference_bytes(circuit):
    want = _reference_state(circuit).tobytes()
    assert simulate_statevector(circuit).tobytes() == want
    probs = next(sim._distributions(circuit, QUIET)(np.empty((1, 0))))
    amps = np.frombuffer(want, dtype=np.complex128)
    assert probs.tobytes() == (amps.real ** 2 + amps.imag ** 2).tobytes()


@pytest.mark.parametrize("batch_amps", [1 << 16, 0], ids=["held", "rebuilt"])
def test_batched_states_with_fixed_angles_and_loose_cnots(monkeypatch, batch_amps):
    # fixed-angle gates and CNOTs that no ladder undoes, before, between and
    # after parameter gates; with nothing held, every gather index is rebuilt
    monkeypatch.setattr(sim, "_BATCH_AMPS", batch_amps)
    gates = [Gate("H", (0,)), Gate("RX", (1,), angle=0.4), Gate("CNOT", (0, 1)),
             Gate("RZ", (1,), param=("gamma", 0, 1.5)), Gate("RZ", (0,), angle=-0.8),
             Gate("CNOT", (1, 0)), Gate("RX", (1,), param=("beta", 0, 2.0)),
             Gate("RX", (1,), angle=1.3), Gate("H", (2,)), Gate("RZ", (2,), angle=0.6),
             Gate("CNOT", (2, 1)), Gate("RZ", (1,), param=("gamma", 0, -0.5)),
             Gate("CNOT", (0, 2)), Gate("H", (1,)), Gate("CNOT", (1, 2)),
             Gate("RZ", (2,), param=("gamma", 0, 1.5)), Gate("RX", (2,), param=("beta", 0, 2.0)),
             Gate("CNOT", (2, 0))]
    _assert_rows_equal_bound(ParamCircuit(3, gates, 1), _candidates(1, 4, 9))


# tracemalloc peak of one 18-qubit row through `_distributions` with the
# per-gate engine that the statevector plan replaced (numpy 2.4.6, Python
# 3.11.7), where every CNOT was three slice passes; the plan may add one
# 2^n index array to it
_PEAK_18_BEFORE_PLAN = 8_690_352


def _two_local_circuit(n, terms, seed):
    rng = np.random.default_rng(seed)
    pairs = set()
    while len(pairs) < terms:
        pairs.add(tuple(sorted(int(q) for q in rng.choice(n, 2, replace=False))))
    gates = [Gate("H", (q,)) for q in range(n)]
    for a, b in sorted(pairs):
        gates += [Gate("CNOT", (a, b)),
                  Gate("RZ", (b,), param=("gamma", 0, float(rng.uniform(-2, 2)))),
                  Gate("CNOT", (a, b))]
    gates += [Gate("RX", (q,), param=("beta", 0, 2.0)) for q in range(n)]
    return ParamCircuit(n, gates, 1)


def test_wide_evolve_memory_stays_bounded():
    # a wide register evolves one row at a time and holds at most one
    # chunk's bytes of masks, so the peak stays that of the per-gate engine
    # plus one index array, whatever the number of terms
    import tracemalloc
    n = 18
    circuit = _two_local_circuit(n, 3 * n, 0)
    X = np.array([[0.3, 1.1]])
    tracemalloc.start()
    try:
        probs = next(sim._distributions(circuit, QUIET)(X))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert probs.shape == (1 << n,) and abs(probs.sum() - 1.0) < 1e-9
    assert peak <= _PEAK_18_BEFORE_PLAN + (8 << n)
    # at the 24-qubit cap the plan holds no prefix row and no mask; one
    # qubit more raises before any work
    plan = sim._StatePlan(_two_local_circuit(24, 72, 0))
    assert plan._prefix is None
    assert not any(isinstance(table, np.ndarray) for _, _, table, _ in plan._steps)
    wide = _two_local_circuit(25, 1, 0)
    with pytest.raises(TooManyQubits):
        sim._distributions(wide, QUIET)
    with pytest.raises(TooManyQubits):
        simulate_statevector(wide.bind([0.1], [0.2]))


# -- channel oracles --------------------------------------------------------------------

# The Hermitian operator basis of one qubit: E00, E11, E01 + E10, i(E01 - E10).
_HERMITIAN_BASIS = np.array([[[1, 0], [0, 0]], [[0, 0], [0, 1]],
                             [[0, 1], [1, 0]], [[0, 1j], [-1j, 0]]])


def _density_matrix(circuit, nm):
    """rho[ket, bra] from the engine's real coordinates: coordinate
    sum_q c_q 4^q weighs the product over qubits q of _HERMITIAN_BASIS[c_q]
    acting on qubit q (bit q of ket and bra)."""
    n = circuit.n_qubits
    coords = sim._evolve_density(circuit, nm, keep=range(n))
    assert coords.dtype == np.float64 and coords.shape == (4 ** n,)
    rho = np.zeros((1 << n, 1 << n), dtype=complex)
    for c in np.flatnonzero(coords):
        term = np.ones((1, 1))
        for q in range(n):
            term = np.kron(_HERMITIAN_BASIS[(c >> (2 * q)) & 3], term)
        rho += coords[c] * term
    return rho


def _exact_probabilities(circuit, nm):
    return np.real(np.diag(_density_matrix(circuit, nm)))


# Each closed form is checked against the density-matrix engine to rounding.

def test_depolarizing_single_qubit_rate():
    # RX(pi/3) then depolarizing with p = 0.3:
    # P(1) = sin^2(pi/6) + (2p/3)(1 - 2 sin^2(pi/6)) = 0.25 + p/3
    nm = NoiseModel(p1=0.3, p2=0.0, decoherence_on=False)
    bound = BoundCircuit(1, [Gate("RX", (0,), angle=math.pi / 3)])
    assert _exact_probabilities(bound, nm)[1] == pytest.approx(0.35, abs=1e-12)


def test_depolarizing_two_qubit_rate():
    # CNOT on |00> with two-qubit depolarizing p2 = 0.3: the 15 Paulis
    # split 3/4/4/4 across outcomes 00/10/01/11 (basis indices 0/1/2/3)
    nm = NoiseModel(p1=0.0, p2=0.3, decoherence_on=False)
    bound = BoundCircuit(2, [Gate("CNOT", (0, 1))])
    want = [1 - 0.8 * 0.3] + [0.3 * 4 / 15] * 3
    assert _exact_probabilities(bound, nm) == pytest.approx(want, abs=1e-12)


def test_amplitude_damping_rate():
    # prepare |1> and damp with gamma = 1 - exp(-dur/t1) close to 0.5
    nm = NoiseModel(p1=0.0, p2=0.0, t1_us=1.0, t2_us=2.0,
                    dur1_ns=1000.0 * math.log(2.0), gate_noise_on=True)
    assert nm.dephase_prob(nm.dur1_ns) == 0.0
    bound = BoundCircuit(1, [Gate("RX", (0,), angle=math.pi)])
    assert _exact_probabilities(bound, nm)[1] == pytest.approx(0.5, abs=1e-12)


def test_dephasing_rate():
    # H, dephase with pz, H: P(1) = pz (the flip shows up in the X basis)
    t2 = 0.1 / (-math.log(1.0 - 2 * 0.2))  # pz = 0.2 at dur1 = 100ns
    nm = NoiseModel(p1=0.0, p2=0.0, t1_us=1e12, t2_us=t2, dur1_ns=100.0)
    bound = BoundCircuit(1, [Gate("H", (0,)), Gate("H", (0,))])
    # second H also dephases, but that leaves populations alone
    assert _exact_probabilities(bound, nm)[1] == pytest.approx(0.2, abs=1e-12)


def _density_reference(circuit, nm):
    """n-qubit density-matrix evolution by explicit Kraus/Pauli sums."""
    n = circuit.n_qubits
    dim = 1 << n
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    paulis = [np.eye(2), np.array([[0, 1], [1, 0]]),
              np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0])]

    def lift(mat, k):
        u = np.array([[1.0]])
        for bit in range(n):
            u = np.kron(mat if bit == k else np.eye(2), u)
        return u

    s = nm.scale
    for g in circuit.gates:
        u = _gate_matrix(g, n)
        rho = u @ rho @ u.conj().T
        two = g.kind == "CNOT"
        p = s * (nm.p2 if two else nm.p1)
        if nm.gate_noise_on and p > 0:
            if two:
                mix = np.zeros_like(rho)
                for pc in range(4):
                    for pt in range(4):
                        if pc == pt == 0:
                            continue
                        op = lift(paulis[pc], g.qubits[0]) @ lift(paulis[pt], g.qubits[1])
                        mix += op @ rho @ op.conj().T
                rho = (1 - p) * rho + (p / 15) * mix
            else:
                mix = np.zeros_like(rho)
                for code in (1, 2, 3):
                    op = lift(paulis[code], g.qubits[0])
                    mix += op @ rho @ op.conj().T
                rho = (1 - p) * rho + (p / 3) * mix
        if nm.decoherence_on:
            dur = nm.dur2_ns if two else nm.dur1_ns
            gam = s * nm.damp_gamma(dur)
            pz = s * nm.dephase_prob(dur)
            for k in g.qubits:
                if gam > 0:
                    k0 = lift(np.diag([1.0, math.sqrt(1 - gam)]), k)
                    k1 = lift(np.array([[0, math.sqrt(gam)], [0, 0]]), k)
                    rho = k0 @ rho @ k0.conj().T + k1 @ rho @ k1.conj().T
                if pz > 0:
                    z = lift(paulis[3], k)
                    rho = (1 - pz) * rho + pz * (z @ rho @ z.conj().T)
    return rho


_C2 = BoundCircuit(2, [Gate("H", (0,)), Gate("RX", (1,), angle=0.7),
                       Gate("CNOT", (0, 1)), Gate("RZ", (0,), angle=1.3),
                       Gate("CNOT", (1, 0)), Gate("RX", (0,), angle=-0.4),
                       Gate("RZ", (1,), angle=0.2)])
_C3 = BoundCircuit(3, [Gate("H", (0,)), Gate("H", (2,)), Gate("CNOT", (0, 2)),
                       Gate("RX", (1,), angle=0.9), Gate("CNOT", (2, 1)),
                       Gate("RZ", (2,), angle=-1.1), Gate("CNOT", (1, 0)),
                       Gate("RX", (2,), angle=0.5), Gate("H", (1,)),
                       Gate("CNOT", (0, 1)), Gate("RZ", (0,), angle=0.3)])
_HEAVY = NoiseModel(p1=0.05, p2=0.1, t1_us=2.0, t2_us=3.0,
                    dur1_ns=150.0, dur2_ns=400.0)
_ARMS = {
    "gate": _HEAVY.replace(decoherence_on=False),
    "decoherence": _HEAVY.replace(gate_noise_on=False),
    "both": _HEAVY,
    "scaled": _HEAVY.with_scale(0.6),
}


def _random_angle_circuit():
    """One-qubit runs on qubit 3 and two-qubit runs on the nonadjacent
    qubits 1 and 4, CNOTs both ways, at angles drawn over (-2 pi, 2 pi)."""
    rng = np.random.default_rng(5)
    gates = []
    for _ in range(8):
        a, b, c = rng.uniform(-2 * math.pi, 2 * math.pi, size=3)
        gates += [Gate("H", (3,)), Gate("RX", (3,), angle=a), Gate("RZ", (3,), angle=b),
                  Gate("H", (4,)), Gate("CNOT", (1, 4)), Gate("RZ", (4,), angle=a),
                  Gate("CNOT", (4, 1)), Gate("RX", (1,), angle=b),
                  Gate("RZ", (1,), angle=c)]
    return BoundCircuit(5, gates)


@pytest.mark.parametrize("arm", sorted(_ARMS))
@pytest.mark.parametrize("circuit", [_C2, _C3, _wide_circuit(5), _random_angle_circuit()],
                         ids=["2q", "3q", "5q", "random"])
def test_density_engine_matches_kraus_reference(circuit, arm):
    got = _density_matrix(circuit, _ARMS[arm])
    want = _density_reference(circuit, _ARMS[arm])
    assert np.abs(got - want).max() < 1e-12  # every entry, diagonal included
    assert np.trace(got) == pytest.approx(1.0, abs=1e-12)


# Ends of the measurement-aware schedule: qubit 1 of _IDLE has no gate,
# qubit 1 of _LONE only one-qubit gates, _EMPTY no gate at all, and the
# one-qubit gates of qubits 0 and 1 in _INTERLEAVED sit between CNOTs on
# other qubits.
_IDLE = BoundCircuit(3, [Gate("H", (0,)), Gate("CNOT", (0, 2)),
                         Gate("RX", (2,), angle=0.8), Gate("RZ", (0,), angle=-0.6)])
_LONE = BoundCircuit(3, [Gate("H", (1,)), Gate("H", (0,)), Gate("CNOT", (0, 2)),
                         Gate("RX", (1,), angle=1.1), Gate("RZ", (2,), angle=0.4),
                         Gate("CNOT", (2, 0)), Gate("RZ", (1,), angle=-0.9)])
_EMPTY = BoundCircuit(2, [])
_INTERLEAVED = BoundCircuit(4, [
    Gate("H", (0,)), Gate("CNOT", (1, 2)), Gate("RX", (0,), angle=0.5),
    Gate("CNOT", (2, 3)), Gate("RZ", (0,), angle=1.2), Gate("H", (3,)),
    Gate("RZ", (2,), angle=-0.4), Gate("CNOT", (3, 1)), Gate("CNOT", (0, 1)),
    Gate("RX", (1,), angle=-0.7), Gate("CNOT", (2, 3)), Gate("RX", (0,), angle=0.3),
    Gate("CNOT", (3, 2)), Gate("RZ", (0,), angle=0.9), Gate("H", (1,))])


@pytest.mark.parametrize("arm", sorted(_ARMS))
@pytest.mark.parametrize("circuit", [_IDLE, _LONE, _EMPTY, _INTERLEAVED],
                         ids=["idle", "lone", "empty", "interleaved"])
def test_density_engine_schedule_edges_match_kraus_reference(circuit, arm):
    want = _density_reference(circuit, _ARMS[arm])
    got = _density_matrix(circuit, _ARMS[arm])
    assert np.abs(got - want).max() < 1e-12  # every entry, diagonal included
    assert np.trace(got) == pytest.approx(1.0, abs=1e-12)
    # with every qubit closed after its last block only diag(rho) is left
    diag = sim._evolve_density(circuit, _ARMS[arm])
    assert diag.shape == (1 << circuit.n_qubits,)
    assert np.abs(diag - np.real(np.diag(want))).max() < 1e-12


def test_diagonal_only_evolve_equals_full_diagonal():
    bound = _wide_circuit(9)
    full = sim._evolve_density(bound, NoiseModel(), keep=range(9))
    diag_at = [int(format(x, "b"), 4) for x in range(1 << 9)]
    diag = sim._evolve_density(bound, NoiseModel())
    assert np.abs(diag - full[diag_at]).max() <= 1e-15


def test_block_products_stay_small(monkeypatch):
    # OpenBLAS hands a product of more than about 2^14 multiply-adds to
    # extra threads, which then spin for CPU time after every call; the
    # engine stacks small products instead (`_GEMM_MACS`)
    shapes = []
    matmul = np.matmul

    def spy(a, b, *args, **kwargs):
        shapes.append((a.shape, b.shape))
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    # every coordinate kept, so the tensor grows to all 4^9
    sim._evolve_density(_wide_circuit(9), NoiseModel(), keep=range(9))
    assert shapes
    for (rows, cols), (stack, cols_b, width) in shapes:
        assert cols == cols_b
        assert rows * cols * width <= 1 << 14
    # the cap is what splits the products here: some are stacked
    assert max(stack for _, (stack, _, _) in shapes) > 1


# -- batched noisy evolve ------------------------------------------------------------

def _reference_coords(circuit, nm, keep=()):
    """The engine's coordinates for a bound circuit, computed the way one
    candidate at a time computed them before the density plan: each
    block's map from the identity, gate by gate, noise times gate, lifted
    by np.kron, then the same selections, gathers and product shapes.
    The same arithmetic in the same order, so the same bytes; a rounding
    move in the engine shows here and almost never in a sampled shot."""
    n, gates, keep = circuit.n_qubits, circuit.gates, set(keep)
    runs = sim._fuse(gates, sim._schedule(gates))
    noise = sim._noise_maps(nm)
    closes = {q: i for i, (qubits, _) in enumerate(runs) for q in qubits
              if q not in keep}
    src, dst = np.empty(4 ** n), np.empty(4 ** n)
    src[0], size, order = 1.0, 1, []
    for i, (qubits, run) in enumerate(runs):
        k, local = len(qubits), {q: j for j, q in enumerate(qubits)}
        sup = np.eye(4 ** k)
        for g in (gates[j] for j in run):
            if g.kind in ("H", "CNOT"):
                m = sim._fixed_map(g.kind, local[g.qubits[0]] if g.kind == "CNOT" else 0)
            else:
                c, s = math.cos(g.angle), math.sin(g.angle)
                m = np.array([[1.0, 0, 0, 0], [0, 1, 0, 0], [0, 0, c, s], [0, 0, -s, c]]
                             if g.kind == "RZ" else
                             [[(1 + c) / 2, (1 - c) / 2, 0, -s], [(1 - c) / 2, (1 + c) / 2, 0, s],
                              [0, 0, 1, 0], [s / 2, -s / 2, 0, c]])
            m = noise[g.kind == "CNOT"] @ m
            if k > len(g.qubits):
                m = np.kron(m, np.eye(4)) if local[g.qubits[0]] else np.kron(np.eye(4), m)
            sup = m @ sup
        fresh = sum(3 << 2 * j for j, q in enumerate(qubits) if 2 * q not in order)
        done = sum(2 << 2 * j for j, q in enumerate(qubits) if closes.get(q) == i)
        sup = sup[np.ix_([x for x in range(4 ** k) if not x & done],
                         [x for x in range(4 ** k) if not x & fresh])]
        front = [b for q in reversed(qubits) if 2 * q in order for b in (2 * q + 1, 2 * q)]
        if order[:len(front)] != front:
            new = front + [b for b in order if b not in front]
            np.copyto(dst[:size].reshape((2,) * len(new)), src[:size].reshape(
                (2,) * len(order)).transpose([order.index(b) for b in new]))
            src, dst, order = dst, src, new
        rows, cols = sup.shape
        rest = size // cols
        width = min(rest, sim._GEMM_MACS // (rows * cols))
        np.matmul(sup, src[:size].reshape(cols, rest // width, width).transpose(1, 0, 2),
                  out=dst[:rows * rest].reshape(rows, rest // width, width).transpose(1, 0, 2))
        order = [b for q in reversed(qubits) for b in (2 * q + 1, 2 * q)
                 if b == 2 * q or closes.get(q) != i] + order[len(front):]
        src, dst, size = dst, src, rows * rest
    bits = [b for q in reversed(range(n)) for b in (2 * q + 1, 2 * q) if b == 2 * q or q in keep]
    out = np.zeros(1 << len(bits))
    held = out.reshape((2,) * len(bits))[
        tuple(slice(None) if b in order else 0 for b in bits) + (...,)]
    np.copyto(held, src[:size].reshape((2,) * len(order)).transpose(
        [order.index(b) for b in bits if b in order]))
    return out


def _assert_plan_rows_equal_bound(circuit, X, nm, keep=(), rows_per_chunk=None,
                                  monkeypatch=None):
    """Every row that one `_DensityPlan` evolves has the bytes of the bound
    circuit evolved alone, and of `_reference_coords`; with
    `rows_per_chunk` the rows cross chunk boundaries."""
    if rows_per_chunk is not None:
        largest = sim._DensityPlan(circuit, nm, keep).largest
        monkeypatch.setattr(sim, "_BATCH_AMPS", rows_per_chunk * largest)
    plan = sim._DensityPlan(circuit, nm, keep)
    if rows_per_chunk is not None:
        assert plan.chunk == rows_per_chunk < len(X)
    got = list(plan.evolve(X))
    assert len(got) == len(X)
    p = circuit.p
    for x, coords in zip(X, got):
        bound = circuit.bind(x[:p], x[p:])
        want = _reference_coords(bound, nm, keep).tobytes()
        assert coords.tobytes() == want
        assert sim._evolve_density(bound, nm, keep).tobytes() == want


@pytest.mark.parametrize("rows_per_chunk", [3, None], ids=["chunks-of-3", "one-chunk"])
@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.name)
def test_batched_density_rows_equal_bound_rows(system_143, monkeypatch, kind, p,
                                               rows_per_chunk):
    # 8 rows in chunks of 3, 3, 2, or all at once; the heavy gate-only
    # model keeps every rounding of the channel maps in play
    circuit = compile_qaoa(to_hamiltonian(apply_transform(system_143, kind)[0]), p)
    for nm in (NoiseModel(), _ARMS["gate"]):
        _assert_plan_rows_equal_bound(circuit, _candidates(p, 4, 7 * p), nm,
                                      rows_per_chunk=rows_per_chunk,
                                      monkeypatch=monkeypatch)


@pytest.mark.parametrize("kind", [GROBNER, SIM_GROBNER], ids=lambda k: k.name)
def test_batched_density_rows_equal_bound_rows_at_9_qubits(system_291311, monkeypatch,
                                                           kind):
    circuit = compile_qaoa(to_hamiltonian(apply_transform(system_291311, kind)[0]), 1)
    assert circuit.n_qubits == 9
    _assert_plan_rows_equal_bound(circuit, _candidates(1, 4, 11), NoiseModel(),
                                  rows_per_chunk=3, monkeypatch=monkeypatch)


@pytest.mark.parametrize("keep", [range(6), (1, 4)], ids=["all", "some"])
def test_batched_density_rows_keep_qubits(system_143, monkeypatch, keep):
    circuit = compile_qaoa(to_hamiltonian(apply_transform(system_143, SIM_GROBNER)[0]), 1)
    assert circuit.n_qubits == 6
    _assert_plan_rows_equal_bound(circuit, _candidates(1, 4, 5), _ARMS["both"], keep,
                                  rows_per_chunk=3, monkeypatch=monkeypatch)


def test_batched_density_rows_with_fixed_angles(monkeypatch):
    # a parameter circuit may also hold RZ/RX gates of fixed angle; those
    # compose like H and CNOT, before, between and after parameter gates
    gates = [Gate("H", (0,)), Gate("RX", (1,), angle=0.4), Gate("CNOT", (0, 1)),
             Gate("RZ", (1,), param=("gamma", 0, 1.5)), Gate("RZ", (0,), angle=-0.8),
             Gate("CNOT", (1, 0)), Gate("RX", (1,), param=("beta", 0, 2.0)),
             Gate("RX", (1,), angle=1.3), Gate("H", (2,)), Gate("RZ", (2,), angle=0.6),
             Gate("CNOT", (2, 1)), Gate("RX", (2,), param=("beta", 0, 2.0))]
    circuit = ParamCircuit(3, gates, 1)
    _assert_plan_rows_equal_bound(circuit, _candidates(1, 4, 9), _ARMS["both"],
                                  rows_per_chunk=3, monkeypatch=monkeypatch)


@pytest.mark.parametrize("arm", sorted(_ARMS))
@pytest.mark.parametrize("circuit", [_C2, _C3, _wide_circuit(5), _random_angle_circuit(),
                                     _IDLE, _LONE, _EMPTY, _INTERLEAVED],
                         ids=["2q", "3q", "5q", "random", "idle", "lone", "empty",
                              "interleaved"])
def test_bound_density_equals_reference_bytes(circuit, arm):
    for keep in ((), range(circuit.n_qubits)):
        want = _reference_coords(circuit, _ARMS[arm], keep)
        assert sim._evolve_density(circuit, _ARMS[arm], keep).tobytes() == want.tobytes()


@pytest.mark.parametrize("nm, kind", [(QUIET, SCHALLER), (NoiseModel(), GROBNER)],
                         ids=["quiet", "noisy"])
def test_distribution_rows_sample_as_bound_circuits(system_143, nm, kind):
    # each row of the seam draws the shots of its bound circuit, and the
    # bound circuit's one empty row holds the same bytes
    circuit = compile_qaoa(to_hamiltonian(apply_transform(system_143, kind)[0]), 1)
    X = _candidates(1, 5, 2)
    rows = list(sim._distributions(circuit, nm)(X))
    assert len(rows) == len(X)
    for i, (x, probs) in enumerate(zip(X, rows)):
        bound = circuit.bind(x[:1], x[1:])
        alone = list(sim._distributions(bound, nm)(np.empty((1, 0))))
        assert len(alone) == 1 and alone[0].tobytes() == probs.tobytes()
        got = sim._shots(probs, circuit.n_qubits, 300, (7, 3, i))
        want = sample(bound, nm, 300, (7, 3, i))
        assert got.index.tolist() == want.index.tolist()
        assert got.count.tolist() == want.count.tolist()


@pytest.mark.parametrize("kind", [GROBNER, SIM_GROBNER], ids=lambda k: k.name)
def test_noisy_buffers_stay_small(system_291311, monkeypatch, kind):
    # two buffers of (rows per chunk) x (largest live tensor), never a
    # 4^n coordinate array per row
    circuit = compile_qaoa(to_hamiltonian(apply_transform(system_291311, kind)[0]), 1)
    plan = sim._DensityPlan(circuit, NoiseModel())
    X = _candidates(1, 12, 4)
    shapes = []
    empty = np.empty

    def spy(*args, **kwargs):
        out = empty(*args, **kwargs)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(np, "empty", spy)
    assert len(list(plan.evolve(X))) == len(X)
    assert shapes == [(2, min(len(X), plan.chunk) * plan.largest)]
    assert shapes[0][1] <= max(sim._BATCH_AMPS, plan.largest)


_DIGEST_CHILD = """
import hashlib, sys
from vqf.circuit import BoundCircuit
from vqf.sim import NoiseModel, sample
s = sample(BoundCircuit.from_json(sys.stdin.read()), NoiseModel(), 512, int(sys.argv[1]))
print(hashlib.sha256(s.index.astype("<i8").tobytes()
                     + s.count.astype("<i8").tobytes()).hexdigest())
"""


def _run_python(code, *args, stdin=None, **env):
    """stdout of a fresh interpreter running `code`, with this vqf importable."""
    src = str(Path(sim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args], input=stdin,
                          env=dict(os.environ, PYTHONPATH=path, **env),
                          capture_output=True, text=True, check=True).stdout


@pytest.mark.parametrize("threads", ["1", "2"])
def test_noisy_sampled_bits_do_not_depend_on_blas_threads(threads):
    # `_GEMM_MACS` keeps every product on one core, so the OpenBLAS
    # thread count, read once at process start, must not move a bit
    shift, seed, digest = _PINNED_9Q_SAMPLES[0]
    out = _run_python(_DIGEST_CHILD, str(seed), stdin=_wide_circuit(9, shift).to_json(),
                      OPENBLAS_NUM_THREADS=threads)
    assert out.strip() == digest


def test_no_map_is_cached_at_import():
    # the fixed gate and channel maps are built on the first noisy evolve,
    # so a process that never simulates noise builds none
    _run_python("import vqf.cli, vqf.sim as s\n"
                "assert not s._fixed_map.cache_info().currsize\n"
                "assert not s._channel_map.cache_info().currsize")


def test_import_leaves_numpy_random_unloaded():
    # the scratch generator is built on the first draw, so a process that
    # never samples, such as a dry run, does not load numpy.random
    _run_python("import sys, vqf.cli\n"
                "assert 'numpy.random' not in sys.modules")


# -- estimators ----------------------------------------------------------------------

def test_estimate_expectation_exact_average():
    h = to_hamiltonian(parse_poly("1 - p1 - q1 + 2*p1*q1"))
    assert h.var_map == {pvar(1): 0, qvar(1): 1}
    s = SampleSet(2, [0, 1, 2, 3], [1, 1, 1, 5], 8)
    # f values: 00 -> 1, 10 -> 0, 01 -> 0, 11 -> 1
    assert estimate_expectation(s, h.diagonal()) == float(Fraction(6, 8))


def test_estimate_expectation_fractional_costs():
    h = to_hamiltonian(parse_poly("-1/8 + 3/4*p1"))
    assert h.var_map == {pvar(1): 0}
    s = SampleSet(1, [0, 1], [3, 1], 4)
    assert estimate_expectation(s, h.diagonal()) == float(Fraction(-1, 8) + Fraction(3, 16))


def test_estimate_expectation_rejects_wrong_width_energies():
    s = SampleSet(2, [2], [2], 2)
    with pytest.raises(InvalidConfig):
        estimate_expectation(s, np.zeros(8))


def test_success_probability():
    # bitstrings "0110", "1001" and "1111" are indices 6, 9 and 15
    s = SampleSet(4, [6, 9, 15], [30, 20, 50], 100)
    assert success_probability(s, {6, 9}) == 0.5
    assert success_probability(s, np.array([6, 9])) == 0.5
    assert success_probability(s, {0}) == 0.0
    with pytest.raises(InvalidConfig):
        success_probability(s, set())


@pytest.mark.parametrize("solution", ["011", "01101", "01a0", "0110", 16, -1])
def test_success_probability_rejects_foreign_solutions(solution):
    # a solution of the wrong width used to score 0.0 without complaint;
    # solutions are basis indices in [0, 2^n), and a bitstring is none
    s = SampleSet(4, [6, 9, 15], [30, 20, 50], 100)
    with pytest.raises(InvalidConfig):
        success_probability(s, [6, solution])
