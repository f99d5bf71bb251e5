"""End-to-end acceptance checklist for the whole workbench.

One test per numbered requirement, each printing a single
``ACCEPTANCE #k PASS/FAIL`` line, so ``pytest -s tests/test_acceptance.py``
reads as a checklist.  Thresholds are asserted exactly as stated in the
README table; budgets are sized to leave wide margins while keeping the
module a few minutes of wall time.  Seeds are fixed throughout, so every
number printed here is reproducible bit for bit.
"""

import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import vqf
from vqf.circuit import compile_qaoa, stats
from vqf.cli import EXIT_OK, main
from vqf.encoder import (FactoringInstance, build_clauses, cost_function,
                         decode_factors, preprocess)
from vqf.evaluate import (SweepConfig, compute_rand, masking_experiment,
                          minimizer_indices, nrpg, select_circuit, sweep)
from vqf.optimize import DeConfig, train_qaoa
from vqf.pboly import Var, brute_force_minima, pvar, qvar
from vqf.sim import (NoiseModel, estimate_expectation, sample,
                     simulate_statevector, success_probability)
from vqf.transform import (ALL_KINDS, DIRECT, SCHALLER, Hamiltonian,
                           apply_transform, to_hamiltonian)

INSTANCES = ((35, 3, {(5, 7), (7, 5)}),
             (143, 4, {(11, 13), (13, 11)}),
             (291311, 10, {(523, 557), (557, 523)}))


def check(num, desc, ok, detail=""):
    line = f"ACCEPTANCE #{num} {'PASS' if ok else 'FAIL'}: {desc}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def _system(n, bits):
    return preprocess(build_clauses(FactoringInstance(n, bits)))


def _solution_set(cs):
    # exhaustive zero set of the residual cost, as assignment dicts
    vs = cs.free_vars
    cost = cost_function(cs)
    out = []
    for bits in itertools.product((0, 1), repeat=len(vs)):
        a = dict(zip(vs, bits))
        if cost.evaluate(a) == 0:
            out.append(a)
    return out


def test_01_minimizers_decode_to_the_factors(system_35, system_143,
                                             system_291311):
    t0 = time.time()
    systems = {35: system_35, 143: system_143, 291311: system_291311}
    ok = True
    details = []
    for n, bits, expected in INSTANCES:
        cs = systems[n]
        vs = cs.free_vars
        cost = cost_function(cs)
        zeros, positive = [], True
        for assignment in itertools.product((0, 1), repeat=len(vs)):
            a = dict(zip(vs, assignment))
            v = cost.evaluate(a)
            if v == 0:
                zeros.append(a)
            elif v <= 0:
                positive = False
        decoded = {decode_factors(cs, a, bits) for a in zeros}
        ok = ok and positive and decoded == expected
        details.append(f"{n}: {len(vs)} free vars, {len(zeros)} minimizers")
    check(1, "cost minimizers decode exactly to the factor pairs",
          ok and time.time() - t0 < 60, "; ".join(details))


def test_02_residual_143_reduces_to_the_parity_core(system_143):
    names = {v.name for v in system_143.free_vars}
    order = [pvar(1), qvar(1), pvar(2), qvar(2)]
    sols = {tuple(a[v] for v in order) for a in _solution_set(system_143)}
    check(2, "143 presolve leaves only p1,q1,p2,q2 with the two parity "
             "solutions",
          names <= {"p1", "q1", "p2", "q2"}
          and sols == {(0, 1, 1, 0), (1, 0, 0, 1)},
          f"free: {sorted(names)}")


def test_03_every_transformation_preserves_the_ground_set(
        system_35, system_143, system_291311):
    t0 = time.time()
    ok = True
    details = []
    for label, cs in (("35", system_35), ("143", system_143),
                      ("291311", system_291311)):
        base = {tuple(sorted((v.name, x) for v, x in a.items()))
                for a in _solution_set(cs)}
        core_vars = set(cs.free_vars)
        for kind in ALL_KINDS:
            poly, aux = apply_transform(cs, kind)
            lo, minimizers = brute_force_minima(poly)
            projected = {tuple(sorted((v.name, x) for v, x in a.items()
                                      if v in core_vars))
                         for a in minimizers}
            products_hold = all(
                a[w] == a[Var("p", w.i)] * a[Var("q", w.j)]
                for a in minimizers for w in aux)
            good = (lo == 0 and projected == base and products_hold
                    and len(minimizers) == len(base))
            ok = ok and good
            if not good:
                details.append(f"{label}/{kind.name}: min={lo}, "
                               f"{len(minimizers)} minimizers")
    check(3, "all four transformations keep the exact ground set "
             "(auxiliaries equal to the products)",
          ok and time.time() - t0 < 180, "; ".join(details) or "exact")


def test_04_interaction_locality_caps(system_143, system_291311):
    caps = {}
    for label, cs in (("143", system_143), ("291311", system_291311)):
        for kind in ALL_KINDS:
            poly, _ = apply_transform(cs, kind)
            h = to_hamiltonian(poly)
            caps[(label, kind.name)] = max(
                (len(q) for _, q in h.terms), default=0)
    ok = (caps[("143", "DIRECT")] == 4
          and all(caps[(l, "SCHALLER")] <= 3 for l in ("143", "291311"))
          and all(caps[(l, "SIM_GROBNER")] <= 3 for l in ("143", "291311"))
          and all(caps[(l, "GROBNER")] <= 2 for l in ("143", "291311")))
    check(4, "locality is 4 for DIRECT on 143, <=3 for SCHALLER and "
             "SIM_GROBNER, <=2 for GROBNER",
          ok, ", ".join(f"{l}/{k}={v}" for (l, k), v in sorted(caps.items())))


def test_05_phase_gadget_cnot_counts():
    counts = {}
    for k in range(2, 7):
        h = Hamiltonian(0.0, [(1.0, tuple(range(k)))],
                        {pvar(i + 1): i for i in range(k)})
        c = compile_qaoa(h, 1)
        counts[k] = sum(g.kind == "CNOT" for g in c.gates)
    ok = counts[4] == 6 and all(counts[k] == 2 * (k - 1) for k in counts)
    check(5, "a weight-4 interaction costs exactly 6 CNOTs and weight-k "
             "costs 2(k-1)",
          ok, ", ".join(f"w{k}:{v}" for k, v in counts.items()))


def test_06_cost_layer_matches_the_diagonal_phase(system_35, system_143):
    hams = [to_hamiltonian(apply_transform(system_35, DIRECT)[0]),
            to_hamiltonian(apply_transform(system_143, DIRECT)[0]),
            to_hamiltonian(apply_transform(system_143, SCHALLER)[0])]
    worst = 0.0
    for h in hams:
        assert h.n_qubits <= 4
        diag = h.diagonal()
        dim = 2 ** h.n_qubits
        for gamma in (0.37, 1.9, 5.0):
            bound = compile_qaoa(h, 1).bind([gamma], [0.0])
            state = simulate_statevector(bound)
            oracle = np.exp(-1j * gamma * diag) / np.sqrt(dim)
            ref = int(np.argmax(np.abs(oracle)))
            phase = state[ref] / oracle[ref]
            worst = max(worst, float(np.max(np.abs(state - phase * oracle))))
    check(6, "the compiled cost layer equals the diagonal phase exp(-i g C) "
             "up to global phase",
          worst < 1e-9, f"worst amplitude error {worst:.2e}")


def test_07_noiseless_training_reaches_half_success(system_143):
    t0 = time.time()
    poly, _ = apply_transform(system_143, DIRECT)
    h = to_hamiltonian(poly)
    diag = h.diagonal()
    n = h.n_qubits

    # independent dense oracle: phase multiply + single-qubit RX mixer,
    # never touching the compiled circuit path
    def qaoa_success(gammas, betas):
        psi = np.full(2 ** n, 1 / np.sqrt(2 ** n), dtype=complex)
        sol = np.abs(diag) < 1e-12
        for g, b in zip(gammas, betas):
            psi = psi * np.exp(-1j * g * diag)
            c, s = np.cos(b), -1j * np.sin(b)
            t = psi.reshape([2] * n)
            for ax in range(n):
                lo, hi = np.split(t, 2, axis=ax)
                t = np.concatenate([c * lo + s * hi, s * lo + c * hi],
                                   axis=ax)
            psi = t.reshape(-1)
        return float(np.sum(np.abs(psi[sol]) ** 2))

    grid = np.linspace(0.0, 2 * np.pi, 12, endpoint=False)
    best = max(qaoa_success([g1, g2], [b1, b2])
               for g1 in grid for g2 in grid for b1 in grid for b2 in grid)

    quiet = NoiseModel().with_scale(0.0)
    solutions = minimizer_indices(h)
    rand = compute_rand(poly)
    circuit = compile_qaoa(h, 2)
    succ = []
    for s in (0, 1, 2):
        cfg = DeConfig(dim=4, population_size=24, max_generations=40,
                       seed=(s,))
        res = train_qaoa(h, 2, quiet, m=2048, cfg=cfg)
        bound = circuit.bind(res.best_params[:2], res.best_params[2:])
        succ.append(success_probability(
            sample(bound, quiet, 8192, (s, 101)), solutions))
    mean = sum(succ) / len(succ)
    ok = (best >= 0.5 and all(x >= 0.45 for x in succ) and mean >= 0.5
          and mean - rand >= 0.375 and time.time() - t0 < 600)
    check(7, "noiseless p=2 training on 143 reaches success >= 0.5 "
             "(grid oracle confirms reachability)",
          ok, f"grid best {best:.3f}, trained "
              f"{', '.join(f'{x:.3f}' for x in succ)}, rand {rand}")


def test_08_estimator_error_shrinks_as_root_m(system_143):
    t0 = time.time()
    poly, _ = apply_transform(system_143, DIRECT)
    h = to_hamiltonian(poly)
    bound = compile_qaoa(h, 1).bind([0.9], [0.4])
    quiet = NoiseModel().with_scale(0.0)
    probs = np.abs(simulate_statevector(bound)) ** 2
    energies = h.diagonal()
    e_exact = float(probs @ energies)
    ms = [2 ** k for k in range(8, 15)]
    errs = []
    for m in ms:
        vals = np.array([
            estimate_expectation(sample(bound, quiet, m, (m, r)), energies)
            for r in range(64)], dtype=float)
        errs.append(float(np.sqrt(np.mean((vals - e_exact) ** 2))))
    slope = float(np.polyfit(np.log(ms), np.log(errs), 1)[0])
    check(8, "sampling error of the energy estimator scales as M^(-1/2)",
          -0.6 <= slope <= -0.4 and time.time() - t0 < 300,
          f"log-log slope {slope:.3f} over M=2^8..2^14")


def test_09_gain_metric_endpoints():
    cases = [(0.62, 0.62, 0.125), (0.9, 0.9, 0.5), (0.33, 0.33, 0.25)]
    ones = all(nrpg(m0, m0, r) == 1.0 for m0, _, r in cases)
    zeros = all(nrpg(r, m0, r) == 0.0 for m0, _, r in cases)
    check(9, "the gain is exactly 1 at the noiseless baseline and exactly 0 "
             "at the random-guess floor",
          ones and zeros)


def _mean_gain(rows):
    # (transform, p, i) -> mean nrpg over seeds
    acc = {}
    for r in rows:
        acc.setdefault((r.transform, r.p, r.i), []).append(r.nrpg)
    return {k: sum(v) / len(v) for k, v in acc.items()}


_SWEEP_CFG = SweepConfig(seeds=(0, 1, 2, 3, 4), train_shots=1024,
                         report_shots=8192, population_size=16,
                         max_generations=30, reuse_params=True)


def test_10_gain_degrades_with_noise_and_depth():
    t0 = time.time()
    inst = FactoringInstance(143, 4)
    rows1 = sweep(inst, ALL_KINDS, [1], [0.3, 0.6, 1.0], _SWEEP_CFG)
    rows3 = sweep(inst, ALL_KINDS, [3], [0.6], _SWEEP_CFG)
    m1, m3 = _mean_gain(rows1), _mean_gain(rows3)
    levels = [0.0, 0.3, 0.6, 1.0]
    ok = True
    details = []
    for kind in ALL_KINDS:
        seq = [m1[(kind.name, 1, i)] for i in levels]
        decreasing = all(a > b for a, b in zip(seq, seq[1:]))
        deeper = m3[(kind.name, 3, 0.6)] <= m1[(kind.name, 1, 0.6)]
        ok = ok and decreasing and deeper
        details.append(f"{kind.name} "
                       + "/".join(f"{x:.2f}" for x in seq)
                       + f" p3@0.6={m3[(kind.name, 3, 0.6)]:.2f}")
    check(10, "mean gain decreases strictly with the noise level and does "
              "not improve at p=3",
          ok and time.time() - t0 < 7200, "; ".join(details))


def test_11_selection_prefers_the_low_locality_circuit():
    t0 = time.time()
    cs = _system(143, 4)
    candidates = []
    for kind in ALL_KINDS:
        poly, _ = apply_transform(cs, kind)
        candidates.append((kind, stats(compile_qaoa(to_hamiltonian(poly), 2))))
    choice = select_circuit(candidates, 16)
    rows = sweep(FactoringInstance(143, 4), ALL_KINDS, [2], [0.4], _SWEEP_CFG)
    means = _mean_gain(rows)
    ranking = sorted(ALL_KINDS, key=lambda k: -means[(k.name, 2, 0.4)])
    order = " > ".join(f"{k.name} {means[(k.name, 2, 0.4)]:.3f}"
                       for k in ranking)
    ok = (choice.name == "GROBNER" and ranking[-1].name == "DIRECT"
          and time.time() - t0 < 7200)
    check(11, "the static selector picks GROBNER on 143 and the measured "
              "gain ranking puts DIRECT last",
          ok, f"selected {choice.name}; {order}")


def test_12_gate_noise_hurts_more_than_decoherence():
    # best effort: asserts the sign of the gap at the default calibration,
    # not its magnitude
    t0 = time.time()
    cfg = _SWEEP_CFG.replace(seeds=(0, 1, 2))
    arms = masking_experiment(FactoringInstance(291311, 10), DIRECT,
                              [1], [1.0], cfg)
    gate = _mean_gain(arms["gate"])[("DIRECT", 1, 1.0)]
    deco = _mean_gain(arms["decoherence"])[("DIRECT", 1, 1.0)]
    complete = all(len(arms[a]) == 2 * len(cfg.seeds)
                   for a in ("gate", "decoherence"))
    check(12, "on 291311 the gate-noise-only arm degrades the gain more "
              "than the decoherence-only arm (best effort)",
          complete and gate < deco and time.time() - t0 < 7200,
          f"gate {gate:.3f} < decoherence {deco:.3f}")


def test_13_pipeline_reruns_are_byte_identical(tmp_path):
    doc = {
        "n": 143, "bits": 4,
        "transforms": ["DIRECT", "SCHALLER", "GROBNER", "SIM_GROBNER"],
        "p_list": [1], "levels": [0.0, 0.5], "train_shots": 128,
        "report_shots": 256, "population_size": 6, "max_generations": 2,
        "seeds": [0], "qubit_budget": 16, "out_dir": str(tmp_path / "a"),
    }
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))

    def report_bytes(out, **env):
        argv = ["pipeline", "--config", str(cfg), "--out", str(out)]
        if env:
            # OpenBLAS reads its thread count once, at process start
            src = str(Path(vqf.__file__).resolve().parents[1])
            path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
            assert subprocess.run([sys.executable, "-m", "vqf.cli", *argv],
                                  env=dict(os.environ, PYTHONPATH=path, **env),
                                  capture_output=True).returncode == EXIT_OK
        else:
            assert main(argv) == EXIT_OK
        hits = list(out.glob("nrpg-report-*.json"))
        assert len(hits) == 1
        return hits[0].read_bytes()

    first = report_bytes(tmp_path / "a")
    second = report_bytes(tmp_path / "b")
    third = report_bytes(tmp_path / "c", OPENBLAS_NUM_THREADS="1")
    check(13, "the full 143 pipeline is byte-identical across reruns and "
              "thread counts",
          first == second == third, f"{len(first)} report bytes")
