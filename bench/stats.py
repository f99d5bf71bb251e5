"""Summary statistics for the benchmark: percentiles, self time, DE accept ratio.

Pure functions over plain lists, so the harness's own arithmetic can be
tested without running the workbench.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

# Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)

# A tail percentile is only reported with at least this many samples above it.
TAIL_MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The q-th percentile (0..100) by linear interpolation between ranks."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def tail_percentile(n: int) -> Optional[float]:
    """Highest ladder percentile that leaves >= TAIL_MIN_BEYOND samples above it.

    None when n samples are too few for any rung.
    """
    for q in TAIL_LADDER:
        if n * (1.0 - q / 100.0) >= TAIL_MIN_BEYOND - 1e-9:
            return q
    return None


def summarize(values: Sequence[float]) -> Dict[str, Optional[float]]:
    """Median, the reportable tail percentile and its value, and the count."""
    q = tail_percentile(len(values))
    return {"n": len(values),
            "median": median(values) if values else None,
            "tail_pct": q,
            "tail": percentile(values, q) if q is not None else None}


# Span = (name, start, end, parent index or -1); parents precede children.
Span = Tuple[str, float, float, int]


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the durations of its direct children.

    One stack on one thread records the spans, so children are disjoint
    and lie inside their parent.
    """
    out = [end - start for name, start, end, parent in spans]
    for name, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def accept_ratio(evals: Iterable[Tuple[int, int, int, float]]) -> Tuple[int, int]:
    """Replay DE greedy selection from the objective values it saw.

    `evals` holds (run, generation, member, value) in call order.  In
    generation 0 each member's value initialises its slot; afterwards a
    trial is accepted when its value is <= the slot's current value, the
    rule `vqf.optimize.minimize` applies.  Returns (accepted, trials).
    """
    slots: Dict[Tuple[int, int], float] = {}
    accepted = trials = 0
    for run, gen, member, value in evals:
        if gen == 0:
            slots[(run, member)] = value
            continue
        trials += 1
        if value <= slots[(run, member)]:
            slots[(run, member)] = value
            accepted += 1
    return accepted, trials
