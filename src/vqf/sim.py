"""Noisy circuit sampling: an exact density matrix or stochastic trajectories.

Both engines apply the same channels after every gate (depolarizing noise,
then amplitude damping and pure dephasing on each participating qubit) and
draw i.i.d. shots from the resulting output distribution, so they differ
only in cost and in which bits a given seed yields.

* The density-matrix engine evolves rho as one vector on a doubled
  2n-qubit register and draws every shot from diag(rho).  It runs when
  4^n fits `_AMP_BUDGET` and the shot count m is at least 2^(n+1); one
  pass then costs less than the trajectories it replaces.
* The trajectory engine evolves one pure state per shot: depolarizing
  noise may insert a random Pauli, each qubit may undergo an
  amplitude-damping jump (probability proportional to its excited-state
  population, the standard Monte-Carlo wavefunction rule, so the ensemble
  reproduces the channel) followed by a pure-dephasing Z flip.  Shots are
  batched per 256-shot block into a (rows, 2^n) array.

The engine is chosen from (n, m) alone and all randomness comes from
counter-keyed substreams, so results are byte-identical regardless of
thread count (`VQF_THREADS`) or chunking.  The noiseless case collapses
to one statevector pass.

A measured outcome is a basis index (bit k is qubit k) from sampling
through scoring.  Bitstrings (character k is qubit k) appear only at the
boundaries: the `SampleSet` constructor and CSV form, and the solution
sets that `success_probability` takes.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import exp, sqrt
from typing import Dict, List, Mapping, Sequence, Set, Tuple, Union

import numpy as np

from .circuit import BoundCircuit, Gate
from .errors import InvalidConfig, ParseError, TooManyQubits

# Shots per random-stream block; compatibility constant, do not change.
SHOT_BLOCK = 256

# Max amplitudes simulated at once (~128 MB of complex128).
_AMP_BUDGET = 1 << 23

_MAX_QUBITS = 24

Seed = Union[int, Sequence[int]]

_SQRT_HALF = 1.0 / np.sqrt(2.0)

_BITSTRING = re.compile("[01]+")


def _seed_tuple(seed: Seed) -> Tuple[int, ...]:
    if isinstance(seed, (int, np.integer)):
        return (int(seed),)
    return tuple(int(s) for s in seed)


@dataclass(frozen=True, slots=True, eq=False)
class NoiseModel:
    """Homogeneous-qubit noise description.

    `p1`/`p2` are depolarizing probabilities per single-qubit gate / CNOT;
    `t1_us`, `t2_us` are relaxation and dephasing times in microseconds
    (t2 <= 2*t1); `dur1_ns`, `dur2_ns` are gate durations in nanoseconds.
    `scale` multiplies every noise probability, so scale 0 is the ideal
    device.  `gate_noise_on` and `decoherence_on` mask the two families
    independently.  Defaults are artifact calibration, order-of-magnitude
    typical for a small transmon device.
    """

    p1: float = 0.002
    p2: float = 0.025
    t1_us: float = 50.0
    t2_us: float = 60.0
    dur1_ns: float = 100.0
    dur2_ns: float = 300.0
    scale: float = 1.0
    gate_noise_on: bool = True
    decoherence_on: bool = True

    def __post_init__(self):
        if not 0.0 <= self.p1 <= 1.0 or not 0.0 <= self.p2 <= 1.0:
            raise InvalidConfig(
                f"depolarizing probabilities out of [0,1]: {self.p1}, {self.p2}")
        if not 0.0 <= self.scale <= 1.0:
            raise InvalidConfig(f"noise scale must lie in [0,1], got {self.scale}")
        # phrased so that NaN fails every comparison
        if not (self.t1_us > 0 and self.t2_us > 0
                and self.dur1_ns >= 0 and self.dur2_ns >= 0):
            raise InvalidConfig("times must be positive and durations nonnegative")
        if not self.t2_us <= 2.0 * self.t1_us:
            raise InvalidConfig(
                f"t2 = {self.t2_us}us exceeds 2*t1 = {2 * self.t1_us}us")
        for name in ("p1", "p2", "t1_us", "t2_us", "dur1_ns", "dur2_ns", "scale"):
            object.__setattr__(self, name, float(getattr(self, name)))
        for name in ("gate_noise_on", "decoherence_on"):
            object.__setattr__(self, name, bool(getattr(self, name)))

    def replace(self, **kw) -> "NoiseModel":
        return dataclasses.replace(self, **kw)

    def with_scale(self, i: float) -> "NoiseModel":
        return self.replace(scale=i)

    def damp_gamma(self, dur_ns: float) -> float:
        """Relaxation jump probability for one gate of the given duration."""
        return 1.0 - exp(-dur_ns / (self.t1_us * 1000.0))

    def dephase_prob(self, dur_ns: float) -> float:
        """Z-flip probability; pure-dephasing rate is 1/t2 - 1/(2*t1)."""
        rate = 1.0 / self.t2_us - 1.0 / (2.0 * self.t1_us)
        if rate <= 0.0:
            return 0.0
        return (1.0 - exp(-dur_ns / 1000.0 * rate)) / 2.0

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "NoiseModel":
        try:
            doc = json.loads(text)
            return NoiseModel(**doc)
        except (TypeError, ValueError, json.JSONDecodeError) as exc:
            raise ParseError(f"bad noise model JSON: {exc}") from exc


def _bits_index(bits: str, n: int) -> int:
    """Basis index of an n-character bitstring whose character k is qubit k."""
    if len(bits) != n or not _BITSTRING.fullmatch(bits):
        raise InvalidConfig(f"{bits!r} is not a {n}-qubit bitstring")
    return int(bits[::-1], 2)


class SampleSet:
    """Measurement outcomes of an n-qubit register, as basis indices.

    Bit k of a basis index is the measured value of qubit k.  `index`
    holds the distinct indices seen, ascending, and `count` how often
    each was seen (read-only int64 arrays); they sum to the shot count
    `total`.  The constructor takes the bitstring form instead, mapping
    bitstrings (character k is qubit k, all of one width) to counts; the
    `counts` property gives that form back for CSV and display.
    """

    __slots__ = ("n_qubits", "index", "count", "total")

    def __init__(self, counts: Mapping[str, int], total: int):
        n = len(str(next(iter(counts), "")))
        pairs = sorted((_bits_index(str(b), n), int(c)) for b, c in counts.items())
        self._set(n, [i for i, c in pairs if c], [c for _, c in pairs if c], total)

    @classmethod
    def _from_indices(cls, n_qubits: int, index: np.ndarray, count: np.ndarray,
                      total: int) -> "SampleSet":
        """Build from ascending distinct basis indices and their counts."""
        out = object.__new__(cls)
        out._set(n_qubits, index, count, total)
        return out

    def _set(self, n_qubits: int, index, count, total: int) -> None:
        index = np.asarray(index, dtype=np.int64)
        count = np.asarray(count, dtype=np.int64)
        if count.size and count.min() < 0:
            raise InvalidConfig("sample counts must be nonnegative")
        if int(count.sum()) != total:
            raise InvalidConfig(f"counts sum to {int(count.sum())}, not M={total}")
        index.setflags(write=False)
        count.setflags(write=False)
        object.__setattr__(self, "n_qubits", int(n_qubits))
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "count", count)
        object.__setattr__(self, "total", int(total))

    def __setattr__(self, key, value):
        raise AttributeError("SampleSet is immutable")

    @property
    def counts(self) -> Dict[str, int]:
        """Bitstring -> count, character k being qubit k."""
        n = self.n_qubits
        return {format(int(i), f"0{n}b")[::-1]: int(c)
                for i, c in zip(self.index, self.count)}

    def frequency(self, bitstring: str) -> float:
        return self.counts.get(bitstring, 0) / self.total

    def to_csv(self) -> str:
        lines = ["bitstring,count"]
        lines.extend(f"{b},{c}" for b, c in sorted(self.counts.items()))
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_csv(text: str) -> "SampleSet":
        counts: Dict[str, int] = {}
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0].strip() != "bitstring,count":
            raise ParseError("sample CSV must start with 'bitstring,count'")
        for lineno, line in enumerate(lines[1:], start=2):
            try:
                bits, count = line.split(",")
                counts[bits.strip()] = counts.get(bits.strip(), 0) + int(count)
            except ValueError as exc:
                raise ParseError(f"line {lineno}: bad sample row {line!r}") from exc
        try:
            return SampleSet(counts, sum(counts.values()))
        except InvalidConfig as exc:
            raise ParseError(f"bad sample CSV: {exc}") from exc

    def __repr__(self):
        return f"SampleSet(total={self.total}, distinct={self.index.size})"


def _view(states: np.ndarray, n: int, k: int) -> np.ndarray:
    """Expose qubit k as the middle axis: (rows, high, 2, low)."""
    rows = states.shape[0]
    return states.reshape(rows, 1 << (n - k - 1), 2, 1 << k)


def _apply_cnot(states: np.ndarray, n: int, c: int, t: int) -> None:
    """Swap the target-bit slices of the control=1 subspace (no gather)."""
    rows = states.shape[0]
    hi, lo = (c, t) if c > t else (t, c)
    v = states.reshape(rows, 1 << (n - 1 - hi), 2, 1 << (hi - lo - 1), 2, 1 << lo)
    if c > t:
        a = v[:, :, 1, :, 0, :].copy()
        v[:, :, 1, :, 0, :] = v[:, :, 1, :, 1, :]
        v[:, :, 1, :, 1, :] = a
    else:
        a = v[:, :, 0, :, 1, :].copy()
        v[:, :, 0, :, 1, :] = v[:, :, 1, :, 1, :]
        v[:, :, 1, :, 1, :] = a


def _apply_unitary(states: np.ndarray, n: int, g: Gate) -> None:
    if g.kind == "CNOT":
        _apply_cnot(states, n, g.qubits[0], g.qubits[1])
        return
    k = g.qubits[0]
    v = _view(states, n, k)
    s0 = v[:, :, 0, :]
    s1 = v[:, :, 1, :]
    if g.kind == "H":
        tmp = s0.copy()
        s0 += s1
        s0 *= _SQRT_HALF
        s1 *= -1.0
        s1 += tmp
        s1 *= _SQRT_HALF
    elif g.kind == "RZ":
        half = 0.5 * g.angle
        s0 *= complex(np.cos(half), -np.sin(half))
        s1 *= complex(np.cos(half), np.sin(half))
    else:  # RX
        half = 0.5 * g.angle
        cos, msin = np.cos(half), -1j * np.sin(half)
        tmp = s0.copy()
        s0 *= cos
        s0 += msin * s1
        s1 *= cos
        s1 += msin * tmp


def _apply_pauli_rows(states: np.ndarray, n: int, rows: np.ndarray,
                      which: int, k: int) -> None:
    """Pauli (1=X, 2=Y, 3=Z) on qubit k of the selected rows."""
    sub = states[rows]
    v = _view(sub, n, k)
    if which == 1:
        tmp = v[:, :, 0, :].copy()
        v[:, :, 0, :] = v[:, :, 1, :]
        v[:, :, 1, :] = tmp
    elif which == 2:
        tmp = v[:, :, 0, :].copy()
        v[:, :, 0, :] = -1j * v[:, :, 1, :]
        v[:, :, 1, :] = 1j * tmp
    else:
        v[:, :, 1, :] *= -1.0
    states[rows] = sub


def _depolarize(states: np.ndarray, n: int, g: Gate, prob: float,
                u_event: np.ndarray, u_choice: np.ndarray) -> None:
    hit = np.flatnonzero(u_event < prob)
    if hit.size == 0:
        return
    if g.kind == "CNOT":
        # uniformly one of the 15 nontrivial two-qubit Paulis, control-major
        pick = np.minimum((u_choice[hit] * 15).astype(np.int64), 14) + 1
        for code in np.unique(pick):
            rows = hit[pick == code]
            pc, pt = int(code) // 4, int(code) % 4
            if pc:
                _apply_pauli_rows(states, n, rows, pc, g.qubits[0])
            if pt:
                _apply_pauli_rows(states, n, rows, pt, g.qubits[1])
    else:
        pick = np.minimum((u_choice[hit] * 3).astype(np.int64), 2) + 1
        for code in (1, 2, 3):
            rows = hit[pick == code]
            if rows.size:
                _apply_pauli_rows(states, n, rows, code, g.qubits[0])


def _damp(states: np.ndarray, n: int, k: int, gamma_s: float,
          u: np.ndarray, mass: np.ndarray) -> None:
    """Amplitude damping on qubit k, one stochastic jump decision per row.

    Renormalization is deferred: `mass` tracks each row's squared norm and
    jump probabilities and measurement thresholds divide by it, which
    reproduces the normalize-every-step trajectory exactly.
    """
    v = _view(states, n, k)
    s1 = v[:, :, 1, :]
    pop1 = (s1.real ** 2 + s1.imag ** 2).sum(axis=(1, 2))
    jump = u * mass < gamma_s * pop1
    hit = np.flatnonzero(jump)
    if hit.size:
        excited = v[hit, :, 1, :]
        v[hit, :, 0, :] = excited
        v[hit, :, 1, :] = 0.0
    s1 *= sqrt(1.0 - gamma_s)
    mass -= gamma_s * pop1
    if hit.size:
        mass[hit] = pop1[hit]


def _dephase(states: np.ndarray, n: int, k: int, prob: float,
             u: np.ndarray) -> None:
    hit = np.flatnonzero(u < prob)
    if hit.size:
        _apply_pauli_rows(states, n, hit, 3, k)


class _DrawPlan:
    """Fixed column layout of per-shot gate-noise draws for one circuit.

    Columns per gate: [depol event, depol choice] then [damp, dephase] per
    participating qubit, always reserved whether or not a noise source is
    enabled, so masked runs consume aligned streams.
    """

    __slots__ = ("offsets", "total")

    def __init__(self, circuit: BoundCircuit):
        self.offsets: List[int] = []
        col = 0
        for g in circuit.gates:
            self.offsets.append(col)
            col += 2 + 2 * len(g.qubits)
        self.total = col


def _noise_active(nm: NoiseModel) -> Tuple[bool, bool]:
    gate = nm.gate_noise_on and nm.scale > 0 and (nm.p1 > 0 or nm.p2 > 0)
    deco = nm.decoherence_on and nm.scale > 0 and (
        nm.damp_gamma(nm.dur1_ns) > 0 or nm.damp_gamma(nm.dur2_ns) > 0
        or nm.dephase_prob(nm.dur1_ns) > 0 or nm.dephase_prob(nm.dur2_ns) > 0)
    return gate, deco


def _channel_rates(nm: NoiseModel) -> Tuple[Dict[bool, float], ...]:
    """Scaled depolarizing, damping and dephasing rates, keyed by is-CNOT."""
    s = nm.scale
    probs = {False: s * nm.p1, True: s * nm.p2}
    gammas = {False: s * nm.damp_gamma(nm.dur1_ns), True: s * nm.damp_gamma(nm.dur2_ns)}
    flips = {False: s * nm.dephase_prob(nm.dur1_ns), True: s * nm.dephase_prob(nm.dur2_ns)}
    return probs, gammas, flips


def _evolve_block(circuit: BoundCircuit, nm: NoiseModel, draws: np.ndarray,
                  plan: _DrawPlan) -> np.ndarray:
    """Run `draws.shape[0]` trajectories; returns (rows, 2^n) states.

    Rows are left unnormalized; `mass` carries each row's squared norm so
    jump decisions stay exact probabilities.
    """
    n = circuit.n_qubits
    rows = draws.shape[0]
    states = np.zeros((rows, 1 << n), dtype=np.complex128)
    states[:, 0] = 1.0
    mass = np.ones(rows)
    gate_on, deco_on = _noise_active(nm)
    probs, gammas, flips = _channel_rates(nm)
    for g, base in zip(circuit.gates, plan.offsets):
        _apply_unitary(states, n, g)
        two = g.kind == "CNOT"
        if gate_on and probs[two] > 0:
            _depolarize(states, n, g, probs[two],
                        draws[:, base], draws[:, base + 1])
        if deco_on:
            gamma_s, pz = gammas[two], flips[two]
            col = base + 2
            for k in g.qubits:
                if gamma_s > 0:
                    _damp(states, n, k, gamma_s, draws[:, col], mass)
                if pz > 0:
                    _dephase(states, n, k, pz, draws[:, col + 1])
                col += 2
    return states


def _measure_rows(states: np.ndarray, u: np.ndarray) -> np.ndarray:
    probs = states.real ** 2 + states.imag ** 2
    cum = np.cumsum(probs, axis=1)
    # per-row searchsorted(cum, u * norm^2, "right"); rows self-normalize
    out = (cum <= (u * cum[:, -1])[:, None]).sum(axis=1)
    return np.minimum(out, states.shape[1] - 1)


def _check_size(circuit: BoundCircuit) -> None:
    if circuit.n_qubits > _MAX_QUBITS:
        raise TooManyQubits(
            f"{circuit.n_qubits} qubits exceeds the {_MAX_QUBITS}-qubit simulator cap")


def simulate_statevector(circuit: BoundCircuit) -> np.ndarray:
    """Exact noiseless final state (2^n complex amplitudes)."""
    _check_size(circuit)
    n = circuit.n_qubits
    states = np.zeros((1, 1 << n), dtype=np.complex128)
    states[0, 0] = 1.0
    for g in circuit.gates:
        _apply_unitary(states, n, g)
    return states[0]


def run_trajectory(circuit: BoundCircuit, nm: NoiseModel, seed: Seed) -> np.ndarray:
    """One stochastic trajectory; equals shot 0 of the trajectory sampler
    (`_sample_trajectories`) at this seed, whichever engine `sample` picks."""
    _check_size(circuit)
    seed_t = _seed_tuple(seed)
    plan = _DrawPlan(circuit)
    gate_on, deco_on = _noise_active(nm)
    if not (gate_on or deco_on):
        return simulate_statevector(circuit)
    rng = np.random.default_rng([*seed_t, 0, 0])
    draws = rng.random((1, plan.total))
    state = _evolve_block(circuit, nm, draws, plan)[0]
    return state / np.linalg.norm(state)


def _block_rows(block: int, m: int) -> int:
    return min(SHOT_BLOCK, m - block * SHOT_BLOCK)


def _draw(probs: np.ndarray, m: int, seed_t: Tuple[int, ...]) -> np.ndarray:
    """m basis indices by inverse CDF over the unnormalized `probs`.

    Shot j's uniform comes from substream (*seed, j // 256, 1), the same
    measurement stream the trajectory sampler uses.
    """
    cum = np.cumsum(probs)
    u = np.concatenate([
        np.random.default_rng([*seed_t, block, 1]).random(_block_rows(block, m))
        for block in range((m + SHOT_BLOCK - 1) // SHOT_BLOCK)])
    return np.minimum(np.searchsorted(cum, u * cum[-1], side="right"),
                      probs.size - 1)


def _uses_density(n: int, m: int) -> bool:
    """Engine rule for noisy sampling, from circuit width and shot count only.

    A density-matrix pass does 4^n work per gate, a trajectory 2^n.  Timed
    on one thread for n = 3..10, one pass cost as much as 2^n to 2^(n+1)
    trajectories, so from m = 2^(n+1) on it is never the slower engine.
    The rule ignores VQF_THREADS so that sampled bits cannot depend on it.
    """
    return 4 ** n <= _AMP_BUDGET and 2 ** (n + 1) <= m


def _conjugate(g: Gate, n: int) -> Gate:
    """conj(U) of gate g, on the bra half of the doubled register."""
    qubits = [q + n for q in g.qubits]
    if g.angle is None:  # H and CNOT are real
        return Gate(g.kind, qubits)
    return Gate(g.kind, qubits, angle=-g.angle)


def _block(rho_t: np.ndarray, n: int, qubits: Sequence[int],
           ket: int, bra: int) -> np.ndarray:
    """View of rho with the ket bits of `qubits` fixed to `ket` and their
    bra bits to `bra` (bit j of each selects qubits[j])."""
    idx: List[Union[int, slice]] = [slice(None)] * (2 * n)
    for j, q in enumerate(qubits):
        idx[2 * n - 1 - q] = (ket >> j) & 1
        idx[n - 1 - q] = (bra >> j) & 1
    return rho_t[(*idx, ...)]  # the Ellipsis keeps a 0-d result a view


def _depolarize_density(rho_t: np.ndarray, n: int, qubits: Sequence[int],
                        prob: float) -> None:
    """rho -> (1 - lam) rho + lam (I/d (x) Tr_qubits rho), lam = prob d^2/(d^2 - 1).

    Equal to (1 - prob) rho + prob/(d^2 - 1) * (sum over the nontrivial
    Paulis P of P rho P), the channel the trajectories sample.
    """
    d = 1 << len(qubits)
    lam = prob * d * d / (d * d - 1)
    diag = [_block(rho_t, n, qubits, x, x) for x in range(d)]
    mixed = sum(diag) * (lam / d)
    rho_t *= 1.0 - lam
    for b in diag:
        b += mixed


def _relax_density(rho_t: np.ndarray, n: int, k: int, gamma_s: float,
                   pz: float) -> None:
    """Amplitude damping then dephasing on qubit k (Kraus forms)."""
    r00 = _block(rho_t, n, (k,), 0, 0)
    r11 = _block(rho_t, n, (k,), 1, 1)
    r00 += gamma_s * r11
    r11 *= 1.0 - gamma_s
    coherence = sqrt(1.0 - gamma_s) * (1.0 - 2.0 * pz)
    for ket, bra in ((0, 1), (1, 0)):
        off = _block(rho_t, n, (k,), ket, bra)
        off *= coherence


def _evolve_density(circuit: BoundCircuit, nm: NoiseModel) -> np.ndarray:
    """Exact output density matrix as one flat vector of 4^n entries.

    Entry ket + (bra << n) holds rho[ket, bra]: qubits 0..n-1 of the
    doubled register carry the ket, qubits n..2n-1 the bra.  U rho U^dagger
    is U on the ket qubits and conj(U) on the bra qubits.  Channels,
    masks, scale and per-gate order mirror `_evolve_block`.
    """
    n = circuit.n_qubits
    rho = np.zeros((1, 1 << (2 * n)), dtype=np.complex128)
    rho[0, 0] = 1.0
    rho_t = rho.reshape((2,) * (2 * n))
    gate_on, deco_on = _noise_active(nm)
    probs, gammas, flips = _channel_rates(nm)
    for g in circuit.gates:
        _apply_unitary(rho, 2 * n, g)
        _apply_unitary(rho, 2 * n, _conjugate(g, n))
        two = g.kind == "CNOT"
        if gate_on and probs[two] > 0:
            _depolarize_density(rho_t, n, g.qubits, probs[two])
        if deco_on:
            for k in g.qubits:
                _relax_density(rho_t, n, k, gammas[two], flips[two])
    return rho[0]


def _sample_chunk_noisy(circuit: BoundCircuit, nm: NoiseModel, plan: _DrawPlan,
                        seed_t: Tuple[int, ...],
                        blocks: Sequence[Tuple[int, int]]) -> np.ndarray:
    """Evolve several whole blocks as one batch; streams stay per-block."""
    draws = np.concatenate([
        np.random.default_rng([*seed_t, b, 0]).random((rows, plan.total))
        for b, rows in blocks])
    u = np.concatenate([
        np.random.default_rng([*seed_t, b, 1]).random(rows)
        for b, rows in blocks])
    states = _evolve_block(circuit, nm, draws, plan)
    return _measure_rows(states, u)


def _chunk_blocks(n_blocks: int, m: int, n_qubits: int,
                  threads: int) -> List[List[Tuple[int, int]]]:
    """Split blocks into contiguous groups bounded by the amplitude budget."""
    max_rows = max(SHOT_BLOCK, _AMP_BUDGET >> n_qubits)
    want = max((m + max_rows - 1) // max_rows, min(threads, n_blocks))
    per = (n_blocks + want - 1) // want
    groups = []
    for lo in range(0, n_blocks, per):
        groups.append([(b, _block_rows(b, m))
                       for b in range(lo, min(lo + per, n_blocks))])
    return groups


def _sample_trajectories(circuit: BoundCircuit, nm: NoiseModel, m: int,
                         seed_t: Tuple[int, ...], threads: int) -> np.ndarray:
    """Basis index of each of m shots, one fresh trajectory per shot.

    Shot j draws from substreams keyed (seed, j // 256); the result does
    not depend on `threads` or on chunking.
    """
    plan = _DrawPlan(circuit)
    n_blocks = (m + SHOT_BLOCK - 1) // SHOT_BLOCK
    groups = _chunk_blocks(n_blocks, m, circuit.n_qubits, threads)
    if threads > 1 and len(groups) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(_sample_chunk_noisy, circuit, nm, plan,
                                   seed_t, grp) for grp in groups]
            return np.concatenate([f.result() for f in futures])
    return np.concatenate([_sample_chunk_noisy(circuit, nm, plan, seed_t, grp)
                           for grp in groups])


def sample(circuit: BoundCircuit, nm: NoiseModel, m: int, seed: Seed) -> SampleSet:
    """M i.i.d. shots of the circuit under noise model `nm`, measured once each.

    The engine follows from the input alone: with no active noise, one
    exact statevector; with noise, the exact density matrix when
    `_uses_density(n, m)` holds, else one trajectory per shot.  Each
    samples the same channel.  The result is a deterministic function of
    (circuit, nm, m, seed), independent of thread count (VQF_THREADS,
    which must be an integer) and chunking.
    """
    _check_size(circuit)
    if m < 1:
        raise InvalidConfig(f"shot count must be >= 1, got {m}")
    threads = _thread_count()
    seed_t = _seed_tuple(seed)
    n = circuit.n_qubits
    gate_on, deco_on = _noise_active(nm)
    if not (gate_on or deco_on):
        state = simulate_statevector(circuit)
        idx = _draw(state.real ** 2 + state.imag ** 2, m, seed_t)
    elif _uses_density(n, m):
        rho = _evolve_density(circuit, nm)
        # diag(rho) sits at stride 2^n + 1; clip rounding below zero
        idx = _draw(np.maximum(rho[::(1 << n) + 1].real, 0.0), m, seed_t)
    else:
        idx = _sample_trajectories(circuit, nm, m, seed_t, threads)
    values, counts = np.unique(idx, return_counts=True)
    return SampleSet._from_indices(n, values, counts, m)


def _thread_count() -> int:
    raw = os.environ.get("VQF_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise InvalidConfig(f"VQF_THREADS must be an integer, got {raw!r}")


def estimate_expectation(samples: SampleSet, energies: np.ndarray) -> float:
    """Shot-averaged energy: the mean of energies[x] over the sampled
    basis indices x, where `energies` is the cost of every basis state
    (`Hamiltonian.diagonal()`).

    While every count * energy partial sum is exact in float (small
    dyadic energies, as for the factoring costs), the result is the exact
    rational mean rounded once.
    """
    if len(energies) != 1 << samples.n_qubits:
        raise InvalidConfig(f"{len(energies)} energies for a "
                            f"{samples.n_qubits}-qubit sample set")
    return float(samples.count @ energies[samples.index]) / samples.total


def success_probability(samples: SampleSet, solutions: Set[str]) -> float:
    """Fraction of shots landing in the solution set, given as bitstrings."""
    if not solutions:
        raise InvalidConfig("empty solution set")
    targets = [_bits_index(b, samples.n_qubits) for b in solutions]
    hits = int(samples.count[np.isin(samples.index, targets)].sum())
    return hits / samples.total
