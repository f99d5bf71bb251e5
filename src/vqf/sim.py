"""Noisy circuit sampling from the exact output distribution.

After every gate the same channels act on its qubits: depolarizing noise,
then amplitude damping and pure dephasing on each participating qubit.
With any of them active, the density matrix rho is evolved exactly and
every shot drawn from diag(rho).  rho is held as real coordinates in
the Hermitian operator basis E00, E11, E01 + E10, i(E01 - E10) of each
qubit.  Every gate and channel is a real map of these coordinates, 4 x 4
on one qubit and 16 x 16 on two: RZ and RX in closed form per angle, H,
CNOT and the noise built once from their Kraus operators.  Each run of
consecutive gates on at most two qubits composes its maps, channels
included, into one block, and each block costs one pass over the
coordinates held.  Those are only what can reach diag(rho): a qubit
joins at its first gate, still E00, and after its last gate keeps only
E00 and E11.  Noisy simulation stops at 11 qubits (`_MAX_NOISY_QUBITS`).
Without noise, one statevector pass serves up to 24 qubits.

One function picks the engine: `_distributions(circuit, nm)` maps each
row of an angle matrix to its exact output distribution, |psi|^2 without
active noise, else diag(rho), bit for bit as if the row were bound alone.
Each seam builds one plan that holds all but the RZ/RX angles.  Without
noise a `_StatePlan` holds the prefix row of the leading fixed gates (the
H wall) and a parity mask per RZ: CNOTs only relabel basis states, so
they fold into the masks and cost no pass, and the rows evolve as one
(rows, 2^n) statevector array.  Under noise a `_DensityPlan` holds the
schedule, the blocks and their fixed gates' maps, and the gathers.  A
call then only builds its angle gates' factors or maps, composes any
blocks and evolves its rows.

Shot j of a draw under seed tuple s reads uniform j % 256 of substream
(*s, j // 256, 1), so the result is a deterministic function of (circuit,
noise model, shot count, seed), and shot j reads the same uniform
whatever the shot count.  Many draws share substreams: training seeds
generation g's member i with (*seed, g, i) whatever the transform kind,
depth or noise level, and every report draw of a sweep seed uses
(seed, `evaluate._EVAL_SALT`).  So each substream's seeded state is built
once per process, in a bounded cache (`_stream_state`), and set on one
scratch generator per thread before the block is filled.

A measured outcome is a basis index (bit k is qubit k) from sampling
through scoring, solution sets included.  Only `SampleSet.counts` writes
bitstrings (character k is qubit k), for display.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import threading
from dataclasses import dataclass
from math import cos, exp, sin, sqrt
from typing import (Callable, Collection, Dict, Iterator, List, Optional, Sequence,
                    Set, Tuple, Union)

import numpy as np

from .circuit import BoundCircuit, Gate, ParamCircuit
from .errors import InvalidConfig, ParseError, TooManyQubits

# Shots per random-stream block; compatibility constant, do not change.
SHOT_BLOCK = 256

_MAX_QUBITS = 24

# Noisy runs hold two buffers of (rows evolved together) x (largest live
# tensor) float64 coordinates: 64 MB in all for one row of all 4^n at 11
# qubits.
_MAX_NOISY_QUBITS = 11

# Most multiply-adds per BLAS call when a block is applied.  OpenBLAS
# hands larger products to extra threads, which then spin for about
# 0.1 s of CPU after every call and save little wall time at these sizes.
_GEMM_MACS = 1 << 14

# Most amplitudes, or density coordinates, evolved at once when candidates
# are simulated together.  A state of 16 or more qubits, or a density
# tensor that reaches 2^16 coordinates, evolves alone, so peak memory stays
# that of one candidate.
_BATCH_AMPS = 1 << 16

Seed = Union[int, Sequence[int]]

_SQRT_HALF = 1.0 / np.sqrt(2.0)


def _integer(value, what: str) -> int:
    """`value` as an int: an int, or a float with an integral value (so
    2.0 means 2).  Anything else, a bool included, raises InvalidConfig."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise InvalidConfig(f"{what} must be an integer, got {value!r}")


def _boolean(value, what: str) -> bool:
    """`value`, a bool or numpy bool, as a bool; else InvalidConfig."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    raise InvalidConfig(f"{what} must be true or false, got {value!r}")


def _seed_tuple(seed: Seed) -> Tuple[int, ...]:
    try:
        seed = tuple(seed)
    except TypeError:
        seed = (seed,)
    out = tuple(_integer(s, "a seed") for s in seed)
    if any(s < 0 for s in out):
        raise InvalidConfig(f"seeds must be nonnegative, got {out}")
    return out


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
            object.__setattr__(self, name, _boolean(getattr(self, name), name))

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


@dataclass(frozen=True, slots=True, eq=False)
class SampleSet:
    """Measurement outcomes of an n-qubit register, as basis indices.

    Bit k of a basis index is the measured value of qubit k.  `index`
    holds the distinct indices seen, strictly ascending in [0, 2^n), and
    `count` how often each was seen (read-only int64 copies); they sum
    to the shot count `total`.  `counts` gives the bitstring form for
    display.
    """

    n_qubits: int
    index: np.ndarray
    count: np.ndarray
    total: int

    def __post_init__(self):
        n, total = int(self.n_qubits), int(self.total)
        index = np.array(self.index, dtype=np.int64)
        count = np.array(self.count, dtype=np.int64)
        if index.ndim != 1 or index.shape != count.shape:
            raise InvalidConfig(f"{index.shape} indices for {count.shape} counts")
        if n < 0 or index.size and (np.any(index[1:] <= index[:-1]) or index[0] < 0
                                    or int(index[-1]) >= 1 << n):
            raise InvalidConfig(f"indices must be strictly ascending in [0, 2^{n})")
        if count.size and count.min() < 0:
            raise InvalidConfig("sample counts must be nonnegative")
        if int(count.sum()) != total:
            raise InvalidConfig(f"counts sum to {int(count.sum())}, not M={total}")
        index.setflags(write=False)
        count.setflags(write=False)
        for name, value in (("n_qubits", n), ("index", index), ("count", count),
                            ("total", total)):
            object.__setattr__(self, name, value)

    @property
    def counts(self) -> Dict[str, int]:
        """Bitstring -> count, character k being qubit k."""
        n = self.n_qubits
        return {format(int(i), f"0{n}b")[::-1]: int(c)
                for i, c in zip(self.index, self.count)}

    def __repr__(self):
        return f"SampleSet(total={self.total}, distinct={self.index.size})"


def _noise_active(nm: NoiseModel) -> Tuple[bool, bool]:
    gate = nm.gate_noise_on and nm.scale > 0 and (nm.p1 > 0 or nm.p2 > 0)
    deco = nm.decoherence_on and nm.scale > 0 and (
        nm.damp_gamma(nm.dur1_ns) > 0 or nm.damp_gamma(nm.dur2_ns) > 0
        or nm.dephase_prob(nm.dur1_ns) > 0 or nm.dephase_prob(nm.dur2_ns) > 0)
    return gate, deco


def check_width(n_qubits: int, nm: Optional[NoiseModel] = None) -> None:
    """Raise TooManyQubits unless `sample` can run n qubits under `nm`.

    Without active noise one 2^n statevector is evolved, up to 24 qubits;
    with noise, the 4^n-entry density matrix, up to 11 qubits.
    """
    if n_qubits > _MAX_QUBITS:
        raise TooManyQubits(
            f"{n_qubits} qubits exceeds the {_MAX_QUBITS}-qubit simulator cap")
    noisy = nm is not None and any(_noise_active(nm))
    if noisy and n_qubits > _MAX_NOISY_QUBITS:
        raise TooManyQubits(
            f"{n_qubits} qubits exceeds the {_MAX_NOISY_QUBITS}-qubit cap "
            "on noisy simulation")


def simulate_statevector(circuit: BoundCircuit) -> np.ndarray:
    """Exact noiseless final state (2^n complex amplitudes)."""
    check_width(circuit.n_qubits)
    return next(_StatePlan(circuit).evolve(np.empty((1, 0))))[0]


def _span(vectors: np.ndarray) -> np.ndarray:
    """out[..., x] for every x < 2^len(vectors): the XOR of vectors[j] over
    the set bits j of x.  With the bits of w, the parity of x & w; with the
    columns of a GF(2) matrix, the image of x.  Each of vectors[j] may be an
    array, so one call spans many at once."""
    out = np.zeros(vectors.shape[1:] + (1,), dtype=vectors.dtype)
    for v in vectors:
        out = np.concatenate([out, out ^ v[..., None]], axis=-1)
    return out


def _rotation_factors(rz: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """The two factors of an RZ or RX at each of `angles`, as out[0] and
    out[1] shaped like it, `rz` marking its RZ columns.  RZ(a) scales |0>
    by cos(a/2) - i sin(a/2) and |1> by cos(a/2) + i sin(a/2); RX(a) mixes
    them with cos(a/2) on the diagonal and -i sin(a/2) off it."""
    half = 0.5 * angles
    c, s = np.cos(half), np.sin(half)
    out = np.empty((2,) + angles.shape, dtype=np.complex128)
    out.real[0] = c
    out.imag[0] = np.where(rz, -s, 0.0)
    out.real[1] = np.where(rz, c, 0.0)
    out.imag[1] = np.where(rz, s, -s)
    return out


class _StatePlan:
    """Everything of a noiseless evolve but the RZ/RX angles, built once
    per circuit.

    `evolve(X)` gives the final state of the circuit bound to each row of
    X, as (rows, 2^n) arrays of at most `_BATCH_AMPS` amplitudes (one row
    once 2^n reaches it).  A row is (gamma_1..gamma_p, beta_1..beta_p), and
    each parameter angle is scale * float(row entry), as `bind` computes
    it; a `BoundCircuit` evolves one empty row.

    A CNOT relabels basis states, linearly over GF(2), so the plan does no
    work for it: the state is held in a frame L, the product of the CNOTs
    since the last gather, amplitude x of the array being that of basis
    state Lx.  Qubit k of Lx is the parity of x & (row k of L), so an RZ on
    qubit k multiplies each amplitude by its first factor where that
    parity mask is 0 and by its second where it is 1.  Before an H or RX,
    and at the end, a frame other than the identity is undone by one
    gather through L^-1.  A QAOA cost term's two CNOT ladders cancel, so
    its CNOTs cost nothing.  An RX is one pass: its second factor times
    the amplitudes with bit k flipped, then its first factor times the
    amplitudes, then their sum.  The leading gates without a parameter
    (the H wall) evolve once, into a prefix row that each chunk copies.

    Each amplitude still takes every gate's multiplies and adds, with the
    same operands in the same order as when the gates are applied one by
    one, so the states are the same bits.  The masks and gather indices
    are held, in first-use order, while they fit in the bytes of one
    chunk of amplitudes; the rest are rebuilt in each chunk.
    """

    def __init__(self, circuit: Union[ParamCircuit, BoundCircuit]):
        n = circuit.n_qubits
        first = {"gamma": 0, "beta": getattr(circuit, "p", 0)}
        identity = [1 << k for k in range(n)]
        # the frame: rows[k] is row k of L, cols[j] column j of L^-1
        rows, cols = identity[:], identity[:]
        rotations: Dict[Tuple[bool, int, float], int] = {}
        steps: List[Tuple] = []

        def gather():
            if rows != identity:
                steps.append(("gather", None, tuple(cols), None))
                rows[:], cols[:] = identity, identity

        for g in circuit.gates:
            if g.kind == "CNOT":
                c, t = g.qubits
                rows[t] ^= rows[c]
                cols[c] ^= cols[t]
                continue
            k, f = g.qubits[0], None
            if g.param is not None:
                family, level, scale = g.param
                f = rotations.setdefault((g.kind == "RZ", first[family] + level, scale),
                                         len(rotations))
            elif g.kind != "H":
                f = _rotation_factors(np.array(g.kind == "RZ"), np.array([g.angle]))
            if g.kind == "RZ":
                steps.append(("RZ", None, tuple(bool(rows[k] >> j & 1) for j in range(n)), f))
            else:
                gather()
                steps.append((g.kind, k, None, f))
        gather()
        self._rz = np.array([rz for rz, _, _ in rotations], dtype=bool)
        self._cols = np.array([col for _, col, _ in rotations], dtype=np.int64)
        self._scales = np.array([scale for _, _, scale in rotations])
        self._n = n
        room = 16 * _BATCH_AMPS
        self._prefix = None
        if 16 << n <= room:
            cut = next((i for i, step in enumerate(steps) if type(step[3]) is int),
                       len(steps))
            self._prefix = self._run(self._zero(1), steps[:cut], None)
            steps, room = steps[cut:], room - (16 << n)
        held: Dict[Tuple, Optional[np.ndarray]] = {}
        for op, _, spec, _ in steps:
            if spec is not None and (op, spec) not in held:
                size = np.array(spec).itemsize << n
                if size <= room:
                    held[op, spec] = None
                    room -= size
        for op in ("RZ", "gather"):
            specs = [spec for kind, spec in held if kind == op]
            if specs:
                held.update(zip([(op, spec) for spec in specs], _span(np.array(specs).T)))
        self._steps = [(op, k, held.get((op, spec), spec), f) for op, k, spec, f in steps]
        self.chunk = max(1, _BATCH_AMPS >> n)

    @staticmethod
    def _run(states: np.ndarray, steps: Sequence[Tuple],
             F: Optional[np.ndarray]) -> np.ndarray:
        """Apply `steps` to each row of `states`, shape (rows, 2^n); a
        parameter rotation r takes row i's factors from F[:, i, r].
        Returns the states, gathered or not."""
        rows = len(states)
        for op, k, table, f in steps:
            if type(f) is int:
                f = F[:, :, f]
            if type(table) is tuple:  # not held: rebuilt for this chunk
                table = _span(np.array(table))
            if op == "RZ":
                states *= np.where(table, f[1, :, None], f[0, :, None])
            elif op == "gather":
                states = states[:, table]
            else:
                v = states.reshape(rows, -1, 2, 1 << k)
                if op == "RX":
                    tmp = f[1, :, None, None, None] * v[:, :, ::-1]
                    v *= f[0, :, None, None, None]
                    v += tmp
                else:
                    s0, s1 = v[:, :, 0], v[:, :, 1]
                    tmp = s0.copy()
                    s0 += s1
                    s0 *= _SQRT_HALF
                    s1 *= -1.0
                    s1 += tmp
                    s1 *= _SQRT_HALF
                del tmp  # so that one temporary is live at a time
        return states

    def _zero(self, rows: int) -> np.ndarray:
        states = np.zeros((rows, 1 << self._n), dtype=np.complex128)
        states[:, 0] = 1.0
        return states

    def evolve(self, X: np.ndarray) -> Iterator[np.ndarray]:
        """The final states of the rows of X, a chunk of rows at a time."""
        X = np.asarray(X, dtype=np.float64)
        F = _rotation_factors(self._rz, X[:, self._cols] * self._scales)
        for start in range(0, len(X), self.chunk):
            f = F[:, start:start + self.chunk]
            rows = f.shape[1]
            states = (self._zero(rows) if self._prefix is None
                      else np.repeat(self._prefix, rows, axis=0))
            yield self._run(states, self._steps, f)


@functools.lru_cache(maxsize=1 << 14)
def _stream_state(key: Tuple[int, ...]) -> Tuple[int, int]:
    """The seeded PCG64 (state, inc) of substream (*key, 1), as
    `np.random.default_rng([*key, 1])` starts it.  An entry holds about
    350 bytes, so a full cache about 6 MB."""
    state = np.random.PCG64([*key, 1]).state["state"]
    return state["state"], state["inc"]


_SCRATCH = threading.local()


def _draw(probs: np.ndarray, m: int, seed_t: Tuple[int, ...]) -> np.ndarray:
    """m basis indices by inverse CDF over the unnormalized `probs`.

    Shot j's uniform is uniform j % 256 of substream (*seed_t, j // 256, 1),
    so shot j reads the same uniform whatever m is.  Draws under one seed
    tuple share these substreams: one DE slot's draws for every kind,
    depth and noise level, or every report draw of a seed.  So each block
    takes its seeded state from `_stream_state`, a bounded per-process
    cache, and sets it on this thread's scratch generator, built on the
    thread's first draw, which then fills the block's uniforms.
    """
    gen = getattr(_SCRATCH, "gen", None)
    if gen is None:
        gen = _SCRATCH.gen = np.random.Generator(np.random.PCG64(0))
    cum = np.cumsum(probs)
    u = np.empty(m)
    for block, start in enumerate(range(0, m, SHOT_BLOCK)):
        state, inc = _stream_state((*seed_t, block))
        gen.bit_generator.state = {"bit_generator": "PCG64",
                                   "state": {"state": state, "inc": inc},
                                   "has_uint32": 0, "uinteger": 0}
        gen.random(out=u[start:start + SHOT_BLOCK])
    return np.minimum(np.searchsorted(cum, u * cum[-1], side="right"),
                      probs.size - 1)


def _real_map(kraus: Sequence[np.ndarray]) -> np.ndarray:
    """The channel rho -> sum_K K rho K^dagger on one or two qubits, as a
    real map of the coordinates that `_DensityPlan` holds.

    Entry [a, b] is coordinate a of the image of basis operator b.  On two
    qubits operator c0 + 4 c1 is B[c1] (x) B[c0], and a Kraus matrix row
    or column is bit0 + 2 bit1.  Coordinate a of a Hermitian A is
    Tr(B[a] A) weighed by 1/2 for each off-diagonal factor of B[a].  The
    result is read-only, as every caller caches it.
    """
    basis = np.array([[[1, 0], [0, 0]], [[0, 0], [0, 1]],
                      [[0, 1], [1, 0]], [[0, 1j], [-1j, 0]]])
    weight = np.array([1.0, 1.0, 0.5, 0.5])
    if len(kraus[0]) == 4:
        basis = np.einsum("aij,bkl->abikjl", basis, basis).reshape(16, 4, 4)
        weight = np.outer(weight, weight).ravel()
    images = sum(k @ basis @ k.conj().T for k in kraus)
    out = np.einsum("aij,bji->ab", basis, images).real * weight[:, None]
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=None)
def _fixed_map(kind: str, control: int = 0) -> np.ndarray:
    """The map of H, or of a CNOT whose control is local qubit `control`
    of the two it acts on."""
    if kind == "H":
        return _real_map([np.array([[1.0, 1.0], [1.0, -1.0]]) * _SQRT_HALF])
    return _real_map([np.eye(4)[[0, 3, 2, 1] if control == 0 else [0, 1, 3, 2]]])


@functools.lru_cache(maxsize=64)
def _channel_map(two: bool, prob: float, gamma: float, pz: float) -> np.ndarray:
    """The noise after a gate on one qubit or two: depolarizing with
    probability `prob` (Pauli form), then amplitude damping with `gamma`
    and dephasing with Z-flip probability `pz` on each qubit.  Cached for
    the few noise models a run uses, two maps each."""
    paulis = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
              np.diag([1.0, -1.0])]
    damp = [np.diag([1.0, sqrt(1.0 - gamma)]), np.array([[0.0, sqrt(gamma)], [0.0, 0.0]])]
    relax = _real_map([sqrt(1.0 - pz) * k for k in damp]
                      + [sqrt(pz) * paulis[3] @ k for k in damp])
    if two:
        paulis = [np.kron(a, b) for a in paulis for b in paulis]
        relax = np.kron(relax, relax)
    rest = sqrt(prob / (len(paulis) - 1))
    out = relax @ _real_map([sqrt(1.0 - prob) * paulis[0]] + [rest * p for p in paulis[1:]])
    out.setflags(write=False)
    return out


def _noise_maps(nm: NoiseModel) -> Dict[bool, np.ndarray]:
    """The `_channel_map` after a one-qubit gate and after a CNOT under
    `nm`, keyed by is-CNOT."""
    s = nm.scale
    return {two: _channel_map(two, s * p if nm.gate_noise_on else 0.0,
                              s * nm.damp_gamma(dur) if nm.decoherence_on else 0.0,
                              s * nm.dephase_prob(dur) if nm.decoherence_on else 0.0)
            for two, p, dur in ((False, nm.p1, nm.dur1_ns), (True, nm.p2, nm.dur2_ns))}


def _rotation_maps(kind: str, angles: np.ndarray) -> np.ndarray:
    """The maps of RZ or RX at each angle, shape (len(angles), 4, 4).  RZ
    turns coordinates (2, 3) by -angle, RX ((0 - 1)/2, 3) by angle."""
    c = np.array([cos(a) for a in angles])
    s = np.array([sin(a) for a in angles])
    out = np.zeros((len(c), 4, 4))
    if kind == "RZ":
        out[:, 0, 0] = out[:, 1, 1] = 1.0
        out[:, 2, 2], out[:, 2, 3], out[:, 3, 2], out[:, 3, 3] = c, s, -s, c
    else:
        out[:, 0, 0] = out[:, 1, 1] = (1 + c) / 2
        out[:, 0, 1] = out[:, 1, 0] = (1 - c) / 2
        out[:, 0, 3], out[:, 1, 3], out[:, 2, 2] = -s, s, 1.0
        out[:, 3, 0], out[:, 3, 1], out[:, 3, 3] = s / 2, -s / 2, c
    return out


def _lift(m: np.ndarray, high: bool) -> np.ndarray:
    """A one-qubit map, or a stack of them, on local qubit 1 (`high`) or 0
    of two: np.kron(m, I) or np.kron(I, m), by the same products."""
    eye = np.eye(4)
    if high:
        out = m[..., :, None, :, None] * eye[None, :, None, :]
    else:
        out = eye[:, None, :, None] * m[..., None, :, None, :]
    return out.reshape(m.shape[:-2] + (16, 16))


def _fuse(gates: Sequence[Gate],
          order: Sequence[int]) -> List[Tuple[Tuple[int, ...], List[int]]]:
    """Split gates[order] into runs of consecutive gates on at most two
    qubits; returns (sorted qubits, gate positions) per run."""
    runs: List[Tuple[Set[int], List[int]]] = []
    for j in order:
        qubits = gates[j].qubits
        if runs and len(runs[-1][0].union(qubits)) <= 2:
            runs[-1][0].update(qubits)
            runs[-1][1].append(j)
        else:
            runs.append((set(qubits), [j]))
    return [(tuple(sorted(qs)), run) for qs, run in runs]


def _schedule(gates: Sequence[Gate]) -> List[int]:
    """The gate positions in an order with the same channel, for `_fuse`.

    Each qubit's one-qubit gates before its first CNOT move to just
    before that CNOT, and those after its last CNOT to just after it; a
    qubit with no CNOT gets all its gates at its last one.  Each gate's
    noise acts on its own qubits alone and an idle qubit gets none, so
    gates on disjoint qubits commute, channels included.
    """
    first: Dict[int, int] = {}
    last: Dict[int, int] = {}
    final: Dict[int, int] = {}
    for i, g in enumerate(gates):
        for q in g.qubits:
            final[q] = i
            if g.kind == "CNOT":
                first.setdefault(q, i)
                last[q] = i

    def slot(i: int) -> Tuple[int, int, int]:
        q = gates[i].qubits[0]
        if gates[i].kind == "CNOT":
            return (i, 1, i)
        if q not in first:
            return (final[q], 1, i)
        if i < first[q]:
            return (first[q], 0, i)
        if i > last[q]:
            return (last[q], 2, i)
        return (i, 1, i)

    return sorted(range(len(gates)), key=slot)


@dataclass(frozen=True, slots=True, eq=False)
class _Block:
    """One fused run of a `_DensityPlan`.

    Its map is `fold`, the run's leading fixed gates, then each of `steps`
    in order: a fixed gate's lifted map, or (rotation, lift) for an RZ or
    RX whose angle is a parameter, lift being None on a one-qubit run and
    else whether the gate sits on local qubit 1.  `select` then keeps the
    rows and columns that `_DensityPlan` documents; a run without
    parameters has them kept in `fold` already.  `gather` is None, or the
    transpose of (row, bits held) that brings the run's bits to the
    front.  The map is applied as (rest // width) products of
    rows x cols @ cols x width.
    """

    fold: np.ndarray
    steps: Tuple
    select: Optional[Tuple[np.ndarray, np.ndarray]]
    gather: Optional[List[int]]
    rows: int
    cols: int
    rest: int
    width: int


class _DensityPlan:
    """Everything of an exact noisy evolve but the RZ/RX angles, built once
    per (circuit, noise model, `keep`).

    `evolve(X)` gives, for each row x of X, the real coordinates that
    reach diag(rho), plus every coordinate of the qubits in `keep`.  A row
    is (gamma_1..gamma_p, beta_1..beta_p), and each parameter angle is
    scale * float(row entry), as `bind` computes it.  Every other gate is
    fixed, so a `BoundCircuit` evolves one empty row.

    Coordinate sum_q c_q 4^q weighs the tensor product over qubits q of
    basis operator c_q: 0 is E00, 1 E11, 2 E01 + E10, 3 i(E01 - E10), so
    index bits 2q and 2q+1 carry qubit q.  Each run of gates from `_fuse`
    on the `_schedule` order acts as one block, its transfer matrix in
    this basis (Wood, Biamonte & Cory 2015): the product of each gate's
    map followed by its noise, lifted to the run's qubits, in gate order.

    A qubit is held only from its first block to its last.  Before its
    first block it is still E00, so that block takes only its columns at
    coordinate 0 of the qubit and adds the qubit's two bits.  After its
    last block only coordinates 0 and 1 reach the diagonal, so that block
    keeps only its rows with the qubit's high bit clear, and bit 2q+1 is
    gone; qubits in `keep` are never closed.  The result is indexed by
    the bits left, in descending order: all 4^n coordinates when `keep`
    is every qubit, and diag(rho) in basis-index order when it is empty.

    Rows evolve together, at most `_BATCH_AMPS // largest` at a time
    (one once the largest live tensor reaches it).  Each row's live
    tensor has one binary axis per bit held, in whatever order the last
    block left, packed row after row at the start of one of two buffers.
    A block gathers its axes to the front with one transposing copy into
    the other buffer, skipped when they are already there, then one
    matmul per row writes it back, as a stack of small products
    (`_GEMM_MACS`).  Every product has the shape and operand order that a
    one-row evolve gives it, so a row's coordinates do not depend on the
    rows evolved with it.
    """

    def __init__(self, circuit: Union[ParamCircuit, BoundCircuit], nm: NoiseModel,
                 keep: Sequence[int] = ()):
        n = circuit.n_qubits
        gates = circuit.gates
        keep = set(keep)
        runs = _fuse(gates, _schedule(gates))
        noise = _noise_maps(nm)
        self._noise = noise[False]
        closes = {q: i for i, (qubits, _) in enumerate(runs) for q in qubits
                  if q not in keep}
        first = {"gamma": 0, "beta": getattr(circuit, "p", 0)}
        rotations: Dict[Tuple[str, int, float], int] = {}
        blocks = []
        size = largest = 1
        order: List[int] = []  # the index bit of each axis
        for i, (qubits, run) in enumerate(runs):
            k = len(qubits)
            local = {q: j for j, q in enumerate(qubits)}
            fold, steps = np.eye(4 ** k), []
            for j in run:
                g = gates[j]
                lift = local[g.qubits[0]] if k > len(g.qubits) else None
                if g.param is not None:
                    family, level, scale = g.param
                    key = (g.kind, first[family] + level, scale)
                    steps.append((rotations.setdefault(key, len(rotations)), lift))
                    continue
                if g.kind == "H":
                    m = _fixed_map("H")
                elif g.kind == "CNOT":
                    m = _fixed_map("CNOT", local[g.qubits[0]])
                else:
                    m = _rotation_maps(g.kind, [g.angle])[0]
                m = noise[g.kind == "CNOT"] @ m
                if lift is not None:
                    m = _lift(m, lift)
                if steps:
                    steps.append(m)
                else:
                    fold = m @ fold
            # local qubit j holds bits 2j and 2j+1 of a block index: drop the
            # columns where an opening qubit is off E00 and the rows where a
            # closing one is off E00 and E11
            fresh = done = 0
            for j, q in enumerate(qubits):
                if 2 * q not in order:
                    fresh |= 3 << 2 * j
                if closes.get(q) == i:
                    done |= 2 << 2 * j
            kept = ([x for x in range(4 ** k) if not x & done],
                    [x for x in range(4 ** k) if not x & fresh])
            select = np.ix_(*kept) if fresh or done else None
            if select is not None and not steps:
                fold, select = fold[select], None
            front = [b for q in reversed(qubits) if 2 * q in order
                     for b in (2 * q + 1, 2 * q)]
            gather = None
            if order[:len(front)] != front:
                new = front + [b for b in order if b not in front]
                gather = [0] + [1 + order.index(b) for b in new]
                order = new
            rows, cols = map(len, kept)
            rest = size // cols
            blocks.append(_Block(fold, tuple(steps), select, gather, rows, cols, rest,
                                 min(rest, _GEMM_MACS // (rows * cols))))
            order = [b for q in reversed(qubits) for b in (2 * q + 1, 2 * q)
                     if b == 2 * q or closes.get(q) != i] + order[len(front):]
            size = rows * rest
            largest = max(largest, size)
        bits = [b for q in reversed(range(n)) for b in (2 * q + 1, 2 * q)
                if b == 2 * q or q in keep]
        self._blocks = blocks
        self._kinds = [kind for kind, _, _ in rotations]
        self._lifts = list(dict.fromkeys(
            step for b in blocks for step in b.steps if type(step) is tuple))
        self._cols = np.array([col for _, col, _ in rotations], dtype=np.int64)
        self._scales = np.array([scale for _, _, scale in rotations])
        self._bits = len(bits)
        self._axes = len(order)
        # a qubit that no gate touched is still at coordinate 0
        self._held = tuple(slice(None) if b in order else 0 for b in bits)
        self._final = [0] + [1 + order.index(b) for b in bits if b in order]
        self.largest = largest
        self.chunk = max(1, _BATCH_AMPS // largest)

    def _maps(self, angles: np.ndarray) -> Dict[Tuple, np.ndarray]:
        """(rotation, lift) -> that gate's map and noise for each row,
        lifted as `_Block.steps` says."""
        base = [self._noise @ _rotation_maps(kind, angles[:, r])
                for r, kind in enumerate(self._kinds)]
        return {(r, lift): base[r] if lift is None else _lift(base[r], lift)
                for r, lift in self._lifts}

    def evolve(self, X: np.ndarray) -> Iterator[np.ndarray]:
        """The coordinates of each row of X, in row order."""
        X = np.asarray(X, dtype=np.float64)
        angles = X[:, self._cols] * self._scales
        rows_max = min(len(X), self.chunk)
        # one allocation for both: two raised peak RSS by about 0.3 MB
        src, dst = np.empty((2, rows_max * self.largest))
        for start in range(0, len(X), self.chunk):
            a = angles[start:start + self.chunk]
            c = len(a)
            maps = self._maps(a)
            src[:c] = 1.0
            size = 1
            for b in self._blocks:
                sup = b.fold
                for step in b.steps:
                    sup = (maps[step] if type(step) is tuple else step) @ sup
                if b.select is not None:
                    sup = sup[(slice(None),) + b.select]
                if b.gather is not None:
                    shape = (c,) + (2,) * (len(b.gather) - 1)
                    np.copyto(dst[:c * size].reshape(shape),
                              src[:c * size].reshape(shape).transpose(b.gather))
                    src, dst = dst, src
                out_size = b.rows * b.rest
                for r in range(c):
                    np.matmul(sup if sup.ndim == 2 else sup[r],
                              src[r * size:(r + 1) * size]
                              .reshape(b.cols, b.rest // b.width, b.width).transpose(1, 0, 2),
                              out=dst[r * out_size:(r + 1) * out_size]
                              .reshape(b.rows, b.rest // b.width, b.width).transpose(1, 0, 2))
                src, dst, size = dst, src, out_size
            out = np.zeros((c, 1 << self._bits))
            held = out.reshape((c,) + (2,) * self._bits)[(slice(None),) + self._held]
            np.copyto(held, src[:c * size].reshape((c,) + (2,) * self._axes)
                      .transpose(self._final))
            yield from out


def _evolve_density(circuit: BoundCircuit, nm: NoiseModel,
                    keep: Sequence[int] = ()) -> np.ndarray:
    """The one row of `_DensityPlan(circuit, nm, keep)`: the exact output
    density matrix as the real coordinates that reach diag(rho), plus
    every coordinate of the qubits in `keep`."""
    return next(_DensityPlan(circuit, nm, keep).evolve(np.empty((1, 0))))


def _distributions(circuit: Union[ParamCircuit, BoundCircuit], nm: NoiseModel
                   ) -> Callable[[np.ndarray], Iterator[np.ndarray]]:
    """A function giving, for each row of an angle matrix X, the exact
    output distribution of `circuit` bound to it under `nm`: |psi|^2
    without active noise, else diag(rho).  The one place that picks the
    engine; it checks the width and builds the density plan once."""
    check_width(circuit.n_qubits, nm)
    if not any(_noise_active(nm)):
        states = _StatePlan(circuit)

        def rows(X):
            for chunk in states.evolve(X):
                probs = chunk.real ** 2
                probs += chunk.imag ** 2
                yield from probs

        return rows
    plan = _DensityPlan(circuit, nm)
    # diag(rho) in basis-index order; clip rounding below zero
    return lambda X: (np.maximum(coords, 0.0) for coords in plan.evolve(X))


def sample(circuit: BoundCircuit, nm: NoiseModel, m: int, seed: Seed) -> SampleSet:
    """M i.i.d. shots of the circuit under noise model `nm`, measured once each.

    The shots come from the circuit's one row of `_distributions`: one
    exact statevector with no active noise, else the diagonal of the exact
    density matrix (up to 11 qubits).  The result is a deterministic
    function of (circuit, nm, m, seed).
    """
    distributions = _distributions(circuit, nm)
    m = _integer(m, "shot count")
    if m < 1:
        raise InvalidConfig(f"shot count must be >= 1, got {m}")
    seed_t = _seed_tuple(seed)
    return _shots(next(distributions(np.empty((1, 0)))), circuit.n_qubits, m, seed_t)


def _shots(probs: np.ndarray, n: int, m: int, seed_t: Tuple[int, ...]) -> SampleSet:
    counts = np.bincount(_draw(probs, m, seed_t))
    index = np.flatnonzero(counts)
    return SampleSet(n, index, counts[index], m)


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


def success_probability(samples: SampleSet, solutions: Collection[int]) -> float:
    """Fraction of shots that land on a solution, the solutions given as
    basis indices (`evaluate.minimizer_indices`)."""
    targets = np.array(list(solutions))
    if not targets.size:
        raise InvalidConfig("empty solution set")
    if (targets.dtype.kind not in "iu" or targets.min() < 0
            or targets.max() >= 1 << samples.n_qubits):
        raise InvalidConfig(
            f"solutions must be basis indices in [0, 2^{samples.n_qubits})")
    hits = int(samples.count[np.isin(samples.index, targets)].sum())
    return hits / samples.total
