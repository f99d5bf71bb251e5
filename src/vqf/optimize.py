"""Differential-evolution training of QAOA angles.

The training objective is the shot-averaged energy of the noisy
sampler's outcomes: each sampled basis index looks up its energy in the
Hamiltonian's diagonal, computed once per run.  The objective is
stochastic by construction.  Instead of drawing fresh shots on every call
we pin one sampling seed per (generation, member) slot; the whole run is
then deterministic and regression-testable, at the price of a small
frozen shot-noise bias.

DE draws every decision of a generation before it scores any candidate,
so a generation is scored as one trial matrix.  Its candidates get their
exact output distributions together, from one `sim._distributions` built
per training run (or, in a sweep, per circuit and noise level for every
seed), and each draws its shots from its own slot's seed, so the result
is bit for bit that of binding and sampling them one at a time.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import math
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .circuit import compile_qaoa
from .errors import InvalidConfig, ParseError
from .sim import NoiseModel, _distributions, _draw, _integer, _seed_tuple
from .transform import Hamiltonian

Seed = Union[int, Sequence[int]]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True, slots=True, eq=False)
class DeConfig:
    """Knobs for DE/rand/1/bin.

    `dim` is the search-space dimension (2p for QAOA: all gammas, then
    all betas).  `population_size` defaults to 15 per dimension.  The
    run stops after `max_generations`, or earlier once the spread
    (max - min) of the population objectives falls below `tol`.  Every
    coordinate lives in the closed box `bounds`, default [0, 2*pi].
    """

    dim: int
    population_size: Optional[int] = None
    f: float = 0.8
    cr: float = 0.9
    max_generations: int = 100
    tol: float = 1e-3
    bounds: Tuple[float, float] = (0.0, TWO_PI)
    seed: Seed = 0

    def __post_init__(self):
        object.__setattr__(self, "dim", _integer(self.dim, "dim"))
        if self.dim < 1:
            raise InvalidConfig(f"dimension must be >= 1, got {self.dim}")
        if self.population_size is None:
            object.__setattr__(self, "population_size", 15 * self.dim)
        for name in ("population_size", "max_generations"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.population_size < 4:
            raise InvalidConfig(
                f"population_size must be >= 4 for rand/1/bin, got {self.population_size}")
        if not 0.0 < self.f <= 2.0:
            raise InvalidConfig(f"weight f must lie in (0, 2], got {self.f}")
        if not 0.0 <= self.cr <= 1.0:
            raise InvalidConfig(f"crossover cr must lie in [0, 1], got {self.cr}")
        if self.max_generations < 1:
            raise InvalidConfig(
                f"max_generations must be >= 1, got {self.max_generations}")
        if not self.tol >= 0.0:  # phrased so that NaN fails it
            raise InvalidConfig(f"tol must be nonnegative, got {self.tol}")
        lo, hi = float(self.bounds[0]), float(self.bounds[1])
        if not lo < hi:
            raise InvalidConfig(f"bounds must satisfy lower < upper, got [{lo}, {hi}]")
        for name in ("f", "cr", "tol"):
            object.__setattr__(self, name, float(getattr(self, name)))
        object.__setattr__(self, "bounds", (lo, hi))
        object.__setattr__(self, "seed", _seed_tuple(self.seed))

    def replace(self, **kw) -> "DeConfig":
        return dataclasses.replace(self, **kw)


@dataclass(frozen=True, slots=True, eq=False)
class OptResult:
    """Outcome of one DE run.

    `history` holds the population-best objective after initialization
    and after each completed generation, so it is non-increasing.
    `best_objective` is the minimum over every candidate evaluated.
    """

    best_params: np.ndarray
    best_objective: float
    generations_used: int
    evaluation_count: int
    history: List[float]

    def __post_init__(self):
        params = np.array(self.best_params, dtype=float)
        params.setflags(write=False)
        object.__setattr__(self, "best_params", params)
        object.__setattr__(self, "best_objective", float(self.best_objective))
        object.__setattr__(self, "generations_used", int(self.generations_used))
        object.__setattr__(self, "evaluation_count", int(self.evaluation_count))
        object.__setattr__(self, "history", [float(h) for h in self.history])

    def to_json(self) -> str:
        doc = dataclasses.asdict(self)
        doc["best_params"] = [float(x) for x in self.best_params]
        return json.dumps(doc, indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "OptResult":
        try:
            doc = json.loads(text)
            return OptResult(np.array(doc["best_params"], dtype=float),
                             doc["best_objective"], doc["generations_used"],
                             doc["evaluation_count"], doc["history"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad optimizer result JSON: {exc}") from exc

    def __repr__(self):
        return (f"OptResult(best={self.best_objective:.6g}, "
                f"gens={self.generations_used}, evals={self.evaluation_count})")


def _accepts_key(objective: Callable) -> bool:
    try:
        params = inspect.signature(objective).parameters
    except (TypeError, ValueError):
        return False
    if "key" in params:
        return True
    return any(p.kind == inspect.Parameter.VAR_KEYWORD for p in params.values())


def _de(score: Callable[[np.ndarray, int], np.ndarray], cfg: DeConfig) -> OptResult:
    """DE/rand/1/bin over the box given by cfg.bounds.

    `score(X, gen)` returns the objective of each row of X as a (k,)
    float array: the initial population is generation 0, and each later
    generation scores its whole trial matrix at once.  Selection is
    greedy (accept on <=) and applied synchronously at generation
    boundaries, so within one generation every trial competes against
    the previous population.
    """
    rng = np.random.default_rng(list(cfg.seed))
    np_, dim = cfg.population_size, cfg.dim
    lo, hi = cfg.bounds

    pop = rng.uniform(lo, hi, size=(np_, dim))
    objs = score(pop, 0)
    evals = np_
    history = [float(objs.min())]

    gens_used = cfg.max_generations
    for gen in range(1, cfg.max_generations + 1):
        if float(objs.max() - objs.min()) < cfg.tol:
            gens_used = gen
            break

        # Draw all decisions for this generation before any evaluation,
        # so the outcome cannot depend on evaluation order.
        r = np.empty((np_, 3), dtype=np.int64)
        for i in range(np_):
            picks = rng.choice(np_ - 1, size=3, replace=False)
            r[i] = picks + (picks >= i)
        cross = rng.random((np_, dim)) < cfg.cr
        jrand = rng.integers(0, dim, size=np_)
        cross[np.arange(np_), jrand] = True

        mutant = pop[r[:, 0]] + cfg.f * (pop[r[:, 1]] - pop[r[:, 2]])
        np.clip(mutant, lo, hi, out=mutant)
        trials = np.where(cross, mutant, pop)

        t_objs = score(trials, gen)
        evals += np_
        accept = t_objs <= objs
        pop = np.where(accept[:, None], trials, pop)
        objs = np.where(accept, t_objs, objs)
        history.append(float(objs.min()))

    best = int(np.argmin(objs))
    return OptResult(pop[best], float(objs[best]), gens_used, evals, history)


def minimize(objective: Callable[..., float], cfg: DeConfig) -> OptResult:
    """DE/rand/1/bin (`_de`) with a scalar objective, called once per
    candidate in member order.

    If the objective accepts a `key` keyword it receives `(generation,
    member)` for each candidate, letting stochastic objectives pin their
    own randomness.
    """
    if not callable(objective):
        raise InvalidConfig("objective must be callable")
    keyed = _accepts_key(objective)

    def score(X, gen):
        if keyed:
            return np.array([float(objective(x, key=(gen, i))) for i, x in enumerate(X)])
        return np.array([float(objective(x)) for x in X])

    return _de(score, cfg)


def train_qaoa(h: Hamiltonian, p: int, nm: NoiseModel, m: int = 2048,
               cfg: Optional[DeConfig] = None) -> OptResult:
    """Train level-p QAOA angles to minimize the sampled energy of h.

    The candidate vector is (gamma_1..gamma_p, beta_1..beta_p).  Each
    candidate is scored by sampling m shots under nm with the seed
    (cfg.seed, generation, member) and averaging h's diagonal over the
    sampled basis indices.  A generation's candidates evolve together,
    unbound, through one `sim._distributions` built for the whole run.
    Training runs under the same noise configuration used for any later
    evaluation; there is no separate calibration pass.
    """
    m = _integer(m, "shot count")
    if m < 1:
        raise InvalidConfig(f"shot count must be >= 1, got {m}")
    if cfg is None:
        cfg = DeConfig(dim=2 * p)
    elif cfg.dim != 2 * p:
        raise InvalidConfig(
            f"cfg.dim = {cfg.dim} but level p = {p} needs {2 * p} parameters")
    return _train(_distributions(compile_qaoa(h, p), nm), h.diagonal(), m, cfg)


def _train(distributions: Callable[[np.ndarray], Iterator[np.ndarray]],
           energies: np.ndarray, m: int, cfg: DeConfig) -> OptResult:
    """`train_qaoa` through a prebuilt seam: `distributions` of the
    compiled circuit under the noise model, `energies` the Hamiltonian's
    diagonal, `m` a checked shot count and `cfg` of dimension 2p."""
    base = cfg.seed

    def score(X, gen):
        # one bincount, row i at offset i * 2^n; each count * energy
        # partial sum is exact, so rows average as `estimate_expectation`
        shots = [_draw(probs, m, (*base, gen, i)) + i * len(energies)
                 for i, probs in enumerate(distributions(X))]
        counts = np.bincount(np.concatenate(shots), minlength=len(X) * len(energies))
        return counts.reshape(len(X), -1) @ energies / m

    return _de(score, cfg)
