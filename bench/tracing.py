"""Spans around the workbench's public functions, installed from outside.

`install` replaces each function at the name its callers look it up by
(`vqf.cli.preprocess`, `vqf.optimize.sample`, ...) with a wrapper that
records a span: (name, start, end, parent index, attributes).  Spans stay
in memory; the caller writes them out once the run is over.  Nothing
under `src/` is edited.

Wrappers are built with `functools.wraps`, so `inspect.signature` still
sees the wrapped function's parameters.  That matters for the DE
objective: `vqf.optimize.minimize` passes `key=(generation, member)` only
to objectives whose signature takes `key`, and dropping it would change
every seeded result.

`per_layer` turns the spans of one traced round into the per-layer
metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from stats import accept_ratio, percentile, self_times, tail_percentile

LAYERS = ("encoder", "transform", "circuit", "sim", "optimize", "evaluate", "cli")
KINDS = ("DIRECT", "SCHALLER", "GROBNER", "SIM_GROBNER")

AttrFn = Callable[[tuple, dict, object], dict]


class Tracer:
    """Collects nested spans from the calling thread.

    Only the main thread calls the wrapped functions (the simulator's
    worker threads run below `sample`), so one stack tracks the parent.
    """

    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []

    def wrap(self, fn: Callable, name: str, attrs: Optional[AttrFn] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, time.perf_counter(), 0.0,
                   self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                rec[4] = attrs(args, kwargs, out)
            return out
        return traced


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _preprocess_attrs(args, kwargs, out) -> dict:
    cs_in = _arg(args, kwargs, 0, "cs")
    return {"vars_in": len(cs_in.free_vars), "vars_out": len(out.free_vars),
            "clauses_out": len(out.clauses)}


def _transform_attrs(args, kwargs, out) -> dict:
    poly, _aux = out
    return {"kind": _arg(args, kwargs, 1, "kind").name,
            "qubits": len(poly.variables())}


def _compile_attrs(args, kwargs, out) -> dict:
    return {"gates": len(out.gates)}


def _sample_attrs(site: str, noise_active: Callable) -> AttrFn:
    """`noise_active` is the simulator's own test of whether a noise model
    takes the trajectory path (`vqf.sim._noise_active`)."""
    def attrs(args, kwargs, out) -> dict:
        circuit = _arg(args, kwargs, 0, "circuit")
        noisy = any(noise_active(_arg(args, kwargs, 1, "nm")))
        return {"site": site, "noisy": noisy, "shots": int(out.total),
                "gates": len(circuit.gates), "qubits": int(circuit.n_qubits),
                "distinct": len(out.counts)}
    return attrs


def _objective_attrs(args, kwargs, out) -> dict:
    key = kwargs.get("key")
    doc = {"value": float(out)}
    if key is not None:
        doc["gen"], doc["member"] = int(key[0]), int(key[1])
    return doc


def _minimize_attrs(args, kwargs, out) -> dict:
    return {"generations": int(out.generations_used),
            "evaluations": int(out.evaluation_count)}


def _sweep_attrs(args, kwargs, out) -> dict:
    return {"rows": len(out)}


def _write_attrs(args, kwargs, out) -> dict:
    return {"bytes": len(_arg(args, kwargs, 1, "text").encode())}


def _traced_minimize(tracer: Tracer, minimize: Callable) -> Callable:
    @functools.wraps(minimize)
    def traced(objective, *args, **kwargs):
        return minimize(tracer.wrap(objective, "optimize.objective", _objective_attrs),
                        *args, **kwargs)
    return tracer.wrap(traced, "optimize.minimize", _minimize_attrs)


def install(tracer: Tracer) -> List[str]:
    """Wrap every lookup site; returns the sites this tree does not have."""
    import vqf.cli as cli
    import vqf.circuit as circuit
    import vqf.evaluate as evaluate
    import vqf.optimize as optimize
    import vqf.sim as sim

    sites: Sequence[Tuple[object, str, str, Optional[AttrFn]]] = (
        (cli, "build_clauses", "encoder.build_clauses", None),
        (cli, "preprocess", "encoder.preprocess", _preprocess_attrs),
        (cli, "load_clause_file", "encoder.load_clause_file", None),
        (cli, "apply_transform", "transform.apply_transform", _transform_attrs),
        (cli, "to_hamiltonian", "transform.to_hamiltonian", None),
        (cli, "compile_qaoa", "circuit.compile_qaoa", _compile_attrs),
        (cli, "stats", "circuit.stats", None),
        (cli, "sweep", "evaluate.sweep", _sweep_attrs),
        (cli, "select_circuit", "evaluate.select_circuit", None),
        (cli, "reports_to_json", "evaluate.reports_to_json", None),
        (cli, "reports_to_csv", "evaluate.reports_to_csv", None),
        (cli, "reports_to_plot_tsv", "evaluate.reports_to_plot_tsv", None),
        (cli, "_write", "cli.write", _write_attrs),
        (evaluate, "build_clauses", "encoder.build_clauses", None),
        (evaluate, "preprocess", "encoder.preprocess", _preprocess_attrs),
        (evaluate, "apply_transform", "transform.apply_transform", _transform_attrs),
        (evaluate, "to_hamiltonian", "transform.to_hamiltonian", None),
        (evaluate, "compile_qaoa", "circuit.compile_qaoa", _compile_attrs),
        (evaluate, "stats", "circuit.stats", None),
        (evaluate, "compute_rand", "evaluate.compute_rand", None),
        (evaluate, "minimizer_bitstrings", "evaluate.minimizer_bitstrings", None),
        (evaluate, "train_qaoa", "optimize.train_qaoa", None),
        (evaluate, "sample", "sim.sample", _sample_attrs("report", sim._noise_active)),
        (evaluate, "success_probability", "sim.success_probability", None),
        (optimize, "compile_qaoa", "circuit.compile_qaoa", _compile_attrs),
        (optimize, "sample", "sim.sample", _sample_attrs("objective", sim._noise_active)),
        (optimize, "estimate_expectation", "sim.estimate_expectation", None),
        (circuit.ParamCircuit, "bind", "circuit.bind", None),
    )
    missing = []
    for owner, attr, name, attrs in sites:
        fn = getattr(owner, attr, None)
        if fn is None:
            missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            continue
        setattr(owner, attr, tracer.wrap(fn, name, attrs))
    if hasattr(optimize, "minimize"):
        optimize.minimize = _traced_minimize(tracer, optimize.minimize)
    else:
        missing.append("vqf.optimize.minimize")
    return missing


# name -> unit of every metric `per_layer` returns, in report order
PER_LAYER_UNITS: Dict[str, str] = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "encoder.preprocess.busy_s": "s",
    "encoder.preprocess.calls": "count",
    "encoder.vars_in": "count",
    "encoder.vars_out": "count",
    "encoder.clauses_out": "count",
    "transform.busy_s": "s",
    **{f"transform.qubits.{kind}": "count" for kind in KINDS},
    "circuit.compile.busy_s": "s",
    "circuit.gates": "count",
    "circuit.bind.calls": "count",
    "circuit.bind.busy_s": "s",
    **{f"sim.sample.{site}.{mode}.{what}": unit
       for site in ("objective", "report")
       for mode in ("noisy", "noiseless")
       for what, unit in (("busy_s", "s"), ("calls", "count"), ("shots", "count"))},
    "sim.noisy_shots_per_s": "1/s",
    "sim.gate_shots": "count",
    "sim.amp_updates": "count",
    "sim.outcomes_distinct": "count",
    "sim.estimate_expectation.busy_s": "s",
    "sim.estimate_expectation.calls": "count",
    "sim.success_probability.busy_s": "s",
    "optimize.train.calls": "count",
    "optimize.evals": "count",
    "optimize.generations": "count",
    "optimize.accept_ratio": "ratio",
    "optimize.eval_ms.p50": "ms",
    "optimize.eval_ms.tail": "ms",
    "optimize.eval_ms.tail_pct": "%",
    "evaluate.sweep.busy_s": "s",
    "evaluate.points": "count",
    "evaluate.compute_rand.busy_s": "s",
    "evaluate.success_p0": "ratio",
    "evaluate.nrpg_mean": "ratio",
    "cli.artifact_bytes": "bytes",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
    "trace.spans": "count",
}


def per_layer(processes: Sequence[Tuple[Sequence[list], float]]) -> Dict[str, float]:
    """Per-layer metrics of one traced round.

    `processes` holds, per CLI process of the round, its spans and its
    traced wall time.  Busy time is summed span time; self time is busy
    time minus child spans.  The result readings (`evaluate.success_p0`,
    `evaluate.nrpg_mean`) and `trace.overhead_s` need the artifacts and the
    untraced rounds, so the caller fills them in; they start at 0 here.
    """
    m: Dict[str, float] = defaultdict(float)
    evals_ms: List[float] = []
    replay: List[Tuple[Tuple[int, int], int, int, float]] = []
    for proc, (spans, wall) in enumerate(processes):
        selfs = self_times([(s[0], s[1], s[2], s[3]) for s in spans])
        m["trace.wall_s"] += wall
        m["trace.unattributed_s"] += wall - sum(selfs)
        m["trace.spans"] += len(spans)
        for k, (name, start, end, parent, attrs) in enumerate(spans):
            dur = end - start
            m[f"{name.split('.')[0]}.self_s"] += selfs[k]
            attrs = attrs or {}
            if name == "encoder.preprocess":
                m["encoder.preprocess.busy_s"] += dur
                m["encoder.preprocess.calls"] += 1
                for key in ("vars_in", "vars_out", "clauses_out"):
                    m[f"encoder.{key}"] += attrs[key]
            elif name.startswith("transform."):
                m["transform.busy_s"] += dur
                if name == "transform.apply_transform":
                    key = f"transform.qubits.{attrs['kind']}"
                    m[key] = max(m[key], attrs["qubits"])
            elif name in ("circuit.compile_qaoa", "circuit.stats"):
                m["circuit.compile.busy_s"] += dur
                m["circuit.gates"] += attrs.get("gates", 0)
            elif name == "circuit.bind":
                m["circuit.bind.calls"] += 1
                m["circuit.bind.busy_s"] += dur
            elif name == "sim.sample":
                mode = "noisy" if attrs["noisy"] else "noiseless"
                base = f"sim.sample.{attrs['site']}.{mode}"
                m[f"{base}.busy_s"] += dur
                m[f"{base}.calls"] += 1
                m[f"{base}.shots"] += attrs["shots"]
                m["sim.gate_shots"] += attrs["shots"] * attrs["gates"]
                # the noiseless path evolves one statevector for all shots
                evolved = attrs["shots"] if attrs["noisy"] else 1
                m["sim.amp_updates"] += evolved * attrs["gates"] * (1 << attrs["qubits"])
                m["sim.outcomes_distinct"] += attrs["distinct"]
            elif name == "sim.estimate_expectation":
                m["sim.estimate_expectation.busy_s"] += dur
                m["sim.estimate_expectation.calls"] += 1
            elif name == "sim.success_probability":
                m["sim.success_probability.busy_s"] += dur
            elif name == "optimize.train_qaoa":
                m["optimize.train.calls"] += 1
            elif name == "optimize.minimize":
                m["optimize.generations"] += attrs["generations"]
            elif name == "optimize.objective":
                m["optimize.evals"] += 1
                evals_ms.append(dur * 1e3)
                if "gen" in attrs:
                    replay.append(((proc, parent), attrs["gen"], attrs["member"],
                                   attrs["value"]))
            elif name == "evaluate.sweep":
                m["evaluate.sweep.busy_s"] += dur
                m["evaluate.points"] += attrs["rows"]
            elif name == "evaluate.compute_rand":
                m["evaluate.compute_rand.busy_s"] += dur
            elif name == "cli.write":
                m["cli.artifact_bytes"] += attrs["bytes"]

    noisy_shots = sum(m[f"sim.sample.{s}.noisy.shots"] for s in ("objective", "report"))
    noisy_busy = sum(m[f"sim.sample.{s}.noisy.busy_s"] for s in ("objective", "report"))
    m["sim.noisy_shots_per_s"] = noisy_shots / noisy_busy if noisy_busy > 0 else 0.0
    accepted, trials = accept_ratio(replay)
    m["optimize.accept_ratio"] = accepted / trials if trials else 0.0
    if evals_ms:
        m["optimize.eval_ms.p50"] = percentile(evals_ms, 50.0)
        q = tail_percentile(len(evals_ms))
        if q is not None:
            m["optimize.eval_ms.tail_pct"] = q
            m["optimize.eval_ms.tail"] = percentile(evals_ms, q)
    return {name: float(m[name]) for name in PER_LAYER_UNITS}
