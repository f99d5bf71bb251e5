"""Noise-resilience scoring, sweeps, and circuit selection.

The figure of merit is the normalized residual performance gain

    G = (m_i - rand) / (m_0 - rand)

where m_i is the success probability of the trained circuit at noise
scale i, m_0 the noiseless one, and rand the probability of hitting a
solution by uniform guessing over the transformed variable space.  G is
1 without noise and 0 once the device is no better than guessing.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .circuit import CircuitStats, compile_qaoa, stats
from .encoder import ClauseSystem, FactoringInstance, build_clauses, preprocess
from .errors import (DegenerateBaseline, InvalidConfig, NoFeasibleCandidate,
                     ParseError)
from .optimize import DeConfig, _train
from .pboly import BoolPoly, brute_force_minima
from .sim import (NoiseModel, _boolean, _distributions, _integer, _seed_tuple, _shots,
                  check_width, success_probability)
from .transform import (ALL_KINDS, Hamiltonian, TransformKind, apply_transform,
                        to_hamiltonian)

# report-shot seeds get this sentinel in place of a generation index, so
# they can never collide with a training draw
_EVAL_SALT = 2 ** 31 - 1

_BASELINE_EPS = 1e-6


def minimizer_indices(h: Hamiltonian) -> np.ndarray:
    """Exact argmin set of the Hamiltonian, as ascending basis indices."""
    diag = h.diagonal()
    return np.flatnonzero(diag <= diag.min() + 1e-9)


def compute_rand(f: BoolPoly) -> float:
    """Probability that a uniform random assignment minimizes f."""
    _, minimizers = brute_force_minima(f)
    return len(minimizers) / 2 ** len(f.variables())


def nrpg(m_ip: float, m_0p: float, rand: float) -> float:
    """Normalized residual performance gain (m_i - rand)/(m_0 - rand)."""
    if m_0p <= rand + _BASELINE_EPS:
        raise DegenerateBaseline(
            f"noiseless success {m_0p} does not beat random guessing {rand}")
    return (m_ip - rand) / (m_0p - rand)


@dataclass(frozen=True, slots=True, eq=False)
class NrpgReport:
    """One sweep grid point: trained circuit scored at one noise level."""

    instance: str
    transform: str
    p: int
    i: float
    m_ip: float
    m_0p: float
    rand: float
    nrpg: float
    stats: CircuitStats
    seed: int

    def __post_init__(self):
        for name, cast in (("instance", str), ("transform", str), ("p", int),
                           ("i", float), ("m_ip", float), ("m_0p", float),
                           ("rand", float), ("nrpg", float), ("seed", int)):
            object.__setattr__(self, name, cast(getattr(self, name)))

    def as_dict(self) -> Dict[str, object]:
        doc = dataclasses.asdict(self)
        doc["stats"] = self.stats.as_dict()
        return doc

    def __repr__(self):
        return (f"NrpgReport({self.instance}/{self.transform} p={self.p} "
                f"i={self.i} G={self.nrpg:.4f} seed={self.seed})")


CSV_COLUMNS = ("instance", "transform", "p", "i", "m_ip", "m_0p", "rand",
               "nrpg", "n_qubits", "n_cnot", "depth", "seed")


def reports_to_json(reports: Sequence[NrpgReport]) -> str:
    return json.dumps([r.as_dict() for r in reports], indent=2, sort_keys=True)


def reports_from_json(text: str) -> List[NrpgReport]:
    try:
        docs = json.loads(text)
        out = []
        for d in docs:
            st_doc = dict(d["stats"])
            st_doc.pop("cnot_per_qubit", None)  # derived, not a field
            st = CircuitStats(**st_doc)
            out.append(NrpgReport(d["instance"], d["transform"], d["p"],
                                  d["i"], d["m_ip"], d["m_0p"], d["rand"],
                                  d["nrpg"], st, d["seed"]))
        return out
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad report JSON: {exc}") from exc


def reports_to_csv(reports: Sequence[NrpgReport]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for r in reports:
        lines.append(",".join([
            r.instance, r.transform, str(r.p), repr(r.i), repr(r.m_ip),
            repr(r.m_0p), repr(r.rand), repr(r.nrpg),
            str(r.stats.n_qubits), str(r.stats.n_cnot),
            str(r.stats.depth), str(r.seed)]))
    return "\n".join(lines) + "\n"


def reports_to_plot_tsv(reports: Sequence[NrpgReport]) -> str:
    """Seed-averaged curves, one row per (transform, p, i) group."""
    groups: Dict[Tuple[str, int, float], List[float]] = {}
    for r in reports:
        groups.setdefault((r.transform, r.p, r.i), []).append(r.nrpg)
    lines = ["transform\tp\ti\tmean_nrpg\tsem\tn_seeds"]
    for (t, p, i), vals in sorted(groups.items()):
        arr = np.array(vals)
        sem = float(arr.std(ddof=1) / np.sqrt(len(arr))) if len(arr) > 1 else 0.0
        lines.append(f"{t}\t{p}\t{i!r}\t{float(arr.mean())!r}\t{sem!r}\t{len(arr)}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True, slots=True, eq=False)
class SweepConfig:
    """Budget and seeding for sweep and masking runs.

    `noise` is the base device model; each grid level i runs under
    noise.with_scale(i).  `seeds` drives both DE and sampling; every
    seed yields an independent training replicate.  `reuse_params`
    switches from retrain-per-level (default) to evaluating the
    noiseless parameters at every level.  Every field is checked when
    the config is built, including the DE budget, so a bad setting
    fails before any training starts.
    """

    noise: NoiseModel = NoiseModel()
    seeds: Tuple[int, ...] = (0,)
    train_shots: int = 2048
    report_shots: int = 8192
    population_size: Optional[int] = None
    max_generations: int = 100
    tol: float = 1e-3
    reuse_params: bool = False

    def __post_init__(self):
        object.__setattr__(self, "seeds", _seed_tuple(self.seeds))
        if not self.seeds:
            raise InvalidConfig("at least one seed is required")
        for name in ("train_shots", "report_shots", "max_generations"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.population_size is not None:
            object.__setattr__(self, "population_size",
                               _integer(self.population_size, "population_size"))
        if self.train_shots < 1 or self.report_shots < 1:
            raise InvalidConfig("shot counts must be positive")
        self.de_config(1, 0)  # raises now on a DE budget that training would reject
        object.__setattr__(self, "tol", float(self.tol))
        object.__setattr__(self, "reuse_params", _boolean(self.reuse_params, "reuse_params"))

    def replace(self, **kw) -> "SweepConfig":
        return dataclasses.replace(self, **kw)

    def de_config(self, p: int, seed: int) -> DeConfig:
        return DeConfig(dim=2 * p, population_size=self.population_size,
                        max_generations=self.max_generations, tol=self.tol,
                        seed=(seed,))


Instance = Union[FactoringInstance, ClauseSystem]


def _clause_system(instance: Instance) -> Tuple[ClauseSystem, str]:
    if isinstance(instance, FactoringInstance):
        return preprocess(build_clauses(instance)), str(instance.n)
    return instance, "system"


def _kind_rank(name: str) -> int:
    for k, kind in enumerate(ALL_KINDS):
        if kind.name == name:
            return k
    return len(ALL_KINDS)


def sweep(instance: Instance, transformations: Sequence[TransformKind],
          p_list: Sequence[int], noise_levels: Sequence[float],
          cfg: Optional[SweepConfig] = None,
          label: Optional[str] = None) -> List[NrpgReport]:
    """Train and score every (transform, p, noise level, seed) grid point.

    For each (transform, p, seed) the i = 0 run fixes the baseline
    m_0p, so its own report row carries G = 1 exactly.  Levels above
    zero either retrain under that noise (default) or score the
    noiseless parameters again (cfg.reuse_params).  Rows come back sorted by
    (transform, p, i, seed) no matter the requested order.
    """
    if cfg is None:
        cfg = SweepConfig()
    levels = sorted({float(i) for i in noise_levels})
    if not levels or levels[0] < 0.0:
        raise InvalidConfig(f"noise levels must be nonnegative, got {noise_levels}")
    if 0.0 not in levels:
        levels = [0.0] + levels
    noise = {i: cfg.noise.with_scale(i) for i in levels}  # NoiseModel checks each
    cs, derived = _clause_system(instance)
    name = label if label is not None else derived
    hams = []
    for kind in transformations:
        poly, _aux = apply_transform(cs, kind)
        h = to_hamiltonian(poly)
        check_width(h.n_qubits, noise[levels[-1]])
        hams.append((kind, poly, h))

    reports: List[NrpgReport] = []
    for kind, poly, h in hams:
        rand = compute_rand(poly)
        solutions = minimizer_indices(h)
        energies = h.diagonal()
        for p in p_list:
            circuit = compile_qaoa(h, p)
            st = stats(circuit)
            # one exact-distribution seam per level, shared by every seed's
            # training and scoring
            dists = {i: _distributions(circuit, noise[i]) for i in levels}
            for seed in cfg.seeds:
                de_cfg = cfg.de_config(p, seed)
                eval_seed = (seed, _EVAL_SALT)

                def measure(params, scale):
                    probs = next(dists[scale](params[None]))
                    shots = _shots(probs, h.n_qubits, cfg.report_shots, eval_seed)
                    return success_probability(shots, solutions)

                base = _train(dists[0.0], energies, cfg.train_shots, de_cfg)
                m_0p = measure(base.best_params, 0.0)
                for i in levels:
                    if i == 0.0:
                        m_ip = m_0p
                    elif cfg.reuse_params:
                        m_ip = measure(base.best_params, i)
                    else:
                        res = _train(dists[i], energies, cfg.train_shots, de_cfg)
                        m_ip = measure(res.best_params, i)
                    reports.append(NrpgReport(
                        name, kind.name, p, i, m_ip, m_0p, rand,
                        nrpg(m_ip, m_0p, rand), st, seed))

    reports.sort(key=lambda r: (_kind_rank(r.transform), r.p, r.i, r.seed))
    return reports


def masking_experiment(instance: Instance, kind: TransformKind,
                       p_list: Sequence[int], noise_levels: Sequence[float],
                       cfg: Optional[SweepConfig] = None,
                       label: Optional[str] = None
                       ) -> Dict[str, List[NrpgReport]]:
    """Paired sweeps isolating the two noise families.

    Runs one sweep with depolarizing gate noise only and one with
    relaxation and dephasing only, under identical seeds and scales, so
    the two report lists differ only in which mechanism is active.
    """
    if cfg is None:
        cfg = SweepConfig()
    gate_cfg = cfg.replace(noise=cfg.noise.replace(gate_noise_on=True,
                                                   decoherence_on=False))
    deco_cfg = cfg.replace(noise=cfg.noise.replace(gate_noise_on=False,
                                                   decoherence_on=True))
    return {
        "gate": sweep(instance, [kind], p_list, noise_levels, gate_cfg, label),
        "decoherence": sweep(instance, [kind], p_list, noise_levels, deco_cfg, label),
    }


def select_circuit(candidates: Sequence[Tuple[TransformKind, CircuitStats]],
                   qubit_budget: int) -> TransformKind:
    """Pick the most noise-tolerant compiled candidate within budget.

    CNOTs dominate the error budget, so order by total CNOT count, then
    CNOTs per qubit, then qubit count; the transformation name breaks
    exact stat ties to keep the choice order-independent.
    """
    if not candidates:
        raise NoFeasibleCandidate("no candidates supplied")
    fits = [(k, s) for k, s in candidates if s.n_qubits <= qubit_budget]
    if not fits:
        raise NoFeasibleCandidate(
            f"every candidate exceeds the {qubit_budget}-qubit budget")
    fits.sort(key=lambda ks: (ks[1].n_cnot, ks[1].cnot_per_qubit,
                              ks[1].n_qubits, ks[0].name))
    return fits[0][0]
