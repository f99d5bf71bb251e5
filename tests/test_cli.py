"""Command-line interface: exit codes, artifacts, reproducible reruns.

Every invocation goes through main(argv) in-process so coverage and
monkeypatching work; the console script wraps the same entry point.
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from vqf.cli import (EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_OK, EXIT_RUNTIME, RunConfig,
                     _build_parser, _config_from_args, main)
from vqf.circuit import BoundCircuit, CircuitStats, Gate, ParamCircuit, parse_qasm
from vqf.errors import InvalidConfig, InvalidPenaltyCoefficients
from vqf.evaluate import NrpgReport, SweepConfig
from vqf.optimize import OptResult
from vqf.pboly import pvar, qvar
from vqf.transform import GROBNER, Hamiltonian

_BENCH_291311 = (Path(__file__).resolve().parents[1] / "bench" / "data"
                 / "clauses-291311.txt")


def run(*argv):
    return main(list(argv))


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _encode_143(workdir):
    out = workdir / "clauses.txt"
    assert run("encode", "--n", "143", "--bits", "4", "--out", str(out)) == EXIT_OK
    return out


def _transform_143(workdir):
    clauses = _encode_143(workdir)
    assert run("transform", "--clauses", str(clauses),
               "--out", str(workdir)) == EXIT_OK
    hams = sorted(workdir.glob("hamiltonian-*.json"))
    assert len(hams) == 4
    return {p.name.split("-")[1]: p for p in hams}


# -- encode --------------------------------------------------------------------

def test_encode_writes_clause_file(workdir, capsys):
    out = _encode_143(workdir)
    text = out.read_text()
    assert "-1 + p1 + q1" in text
    assert "3 clauses over 4 free variables: p1, p2, q1, q2" in \
        capsys.readouterr().out


def test_encode_infeasible_exit(workdir, capsys):
    assert run("encode", "--n", "33", "--bits", "3") == EXIT_INFEASIBLE
    assert "error" in capsys.readouterr().err


def test_encode_bad_usage_exit(workdir, capsys):
    assert run("encode", "--n", "143") == EXIT_CONFIG  # missing --bits
    assert run("encode", "--n", "143", "--bits", "4",
               "--probe-depth", "9") == EXIT_CONFIG


# -- transform / compile ----------------------------------------------------------

def test_transform_writes_four_hamiltonians(workdir, capsys):
    hams = _transform_143(workdir)
    assert set(hams) == {"direct", "schaller", "grobner", "sim_grobner"}
    gro = Hamiltonian.from_json(hams["grobner"].read_text())
    assert gro.n_qubits == 6 and gro.locality == 2
    out = capsys.readouterr().out
    assert "GROBNER: locality 2, 6 qubits, 2 auxiliary" in out


def test_transform_single_kind(workdir):
    clauses = _encode_143(workdir)
    assert run("transform", "--clauses", str(clauses), "--kind", "schaller",
               "--out", str(workdir)) == EXIT_OK
    assert len(list(workdir.glob("hamiltonian-*.json"))) == 1


def test_transform_missing_file_exit(workdir):
    assert run("transform", "--clauses", "no-such-file.txt") == EXIT_CONFIG


def test_compile_writes_circuit_and_qasm(workdir, capsys):
    hams = _transform_143(workdir)
    circ = workdir / "circuit.json"
    qasm = workdir / "circuit.qasm"
    assert run("compile", "--hamiltonian", str(hams["direct"]), "--p", "1",
               "--out", str(circ), "--qasm", str(qasm),
               "--gamma", "0.4", "--beta", "0.9") == EXIT_OK
    back = ParamCircuit.from_json(circ.read_text())
    assert back.n_qubits == 4 and back.p == 1
    bound = parse_qasm(qasm.read_text())
    assert bound.n_qubits == 4
    assert "34 CNOT" in capsys.readouterr().out


def test_compile_qasm_needs_angles(workdir):
    hams = _transform_143(workdir)
    assert run("compile", "--hamiltonian", str(hams["direct"]), "--p", "1",
               "--qasm", str(workdir / "c.qasm")) == EXIT_CONFIG


@pytest.mark.parametrize("angles", [
    ("--gamma", "nan", "--beta", "0.3"),
    ("--gamma", "0.1", "--beta", "inf"),
    # two gammas for one layer: the angles are command-line configuration
    ("--gamma", "0.1", "0.2", "--beta", "0.3"),
])
def test_compile_rejects_bad_angles(workdir, capsys, angles):
    # non-finite angles used to exit 0 and write rz(nan) lines that
    # parse_qasm rejects; a wrong angle count used to exit 4
    hams = _transform_143(workdir)
    circ, qasm = workdir / "circuit.json", workdir / "circuit.qasm"
    assert run("compile", "--hamiltonian", str(hams["direct"]), "--p", "1",
               "--out", str(circ), "--qasm", str(qasm), *angles) == EXIT_CONFIG
    assert "error" in capsys.readouterr().err
    assert not circ.exists() and not qasm.exists()


def test_compile_rejects_bad_p(workdir):
    hams = _transform_143(workdir)
    assert run("compile", "--hamiltonian", str(hams["direct"]),
               "--p", "0") == EXIT_CONFIG


# -- train ------------------------------------------------------------------------

def test_train_writes_angles(workdir):
    hams = _transform_143(workdir)
    out = workdir / "train.json"
    assert run("train", "--hamiltonian", str(hams["grobner"]), "--p", "1",
               "--scale", "0.0", "--shots", "128", "--population", "6",
               "--generations", "2", "--out", str(out)) == EXIT_OK
    doc = json.loads(out.read_text())
    assert len(doc["gamma"]) == 1 and len(doc["beta"]) == 1
    assert doc["evaluation_count"] >= 6
    assert "config_hash" in doc


def test_train_missing_noise_file(workdir):
    hams = _transform_143(workdir)
    assert run("train", "--hamiltonian", str(hams["direct"]), "--p", "1",
               "--noise", "absent.json") == EXIT_CONFIG


# -- select -----------------------------------------------------------------------

def test_select_verdict(workdir, capsys):
    assert run("select", "--n", "143", "--bits", "4", "--p", "1",
               "--budget", "16", "--out", str(workdir)) == EXIT_OK
    assert "selected: GROBNER" in capsys.readouterr().out
    sel = json.loads(next(workdir.glob("selection-*.json")).read_text())
    assert sel["selected"] == "GROBNER"
    assert len(sel["candidates"]) == 4


def test_select_budget_excludes_everything(workdir):
    assert run("select", "--n", "143", "--bits", "4", "--p", "1",
               "--budget", "2", "--out", str(workdir)) == 4


# -- config files --------------------------------------------------------------------

def _pipeline_config(workdir, **overrides):
    doc = {
        "n": 143, "bits": 4, "transforms": ["DIRECT"], "p_list": [1],
        "levels": [0.0, 0.5], "train_shots": 128, "report_shots": 256,
        "population_size": 6, "max_generations": 2, "seeds": [0],
        "qubit_budget": 16, "out_dir": str(workdir / "out"),
    }
    doc.update(overrides)
    path = workdir / "run.json"
    path.write_text(json.dumps(doc))
    return path


def test_config_unknown_key_rejected(workdir):
    cfg = _pipeline_config(workdir, fidelity=0.9)
    assert run("pipeline", "--config", str(cfg), "--dry-run") == EXIT_CONFIG


def test_config_nan_tol_rejected(workdir):
    # json reads NaN; DE could never stop on it, and the config hash
    # would be taken over it
    cfg = _pipeline_config(workdir, tol=float("nan"))
    assert '"tol": NaN' in cfg.read_text()
    assert run("pipeline", "--config", str(cfg), "--dry-run") == EXIT_CONFIG
    assert run("sweep", "--config", str(cfg)) == EXIT_CONFIG


def test_config_toml_handling(workdir, capsys):
    toml = workdir / "run.toml"
    toml.write_text(
        'n = 143\nbits = 4\ntransforms = ["DIRECT"]\np_list = [1]\n'
        f'out_dir = "{workdir / "out"}"\n')
    code = run("pipeline", "--config", str(toml), "--dry-run")
    if sys.version_info >= (3, 11):
        assert code == EXIT_OK
    else:
        # no tomllib before 3.11: fail as a config error with a clear hint
        assert code == EXIT_CONFIG
        assert "JSON" in capsys.readouterr().err


def test_config_needs_instance_or_clauses(workdir):
    cfg = workdir / "run.json"
    cfg.write_text(json.dumps({"p_list": [1]}))
    assert run("sweep", "--config", str(cfg)) == EXIT_CONFIG


def test_cli_flag_overrides_config(workdir):
    cfg = _pipeline_config(workdir)
    out2 = workdir / "elsewhere"
    assert run("pipeline", "--config", str(cfg), "--dry-run",
               "--out", str(out2)) == EXIT_OK
    assert list(out2.glob("selection-*.json"))


def _config_flag(workdir, doc):
    """`--config` naming a file that holds doc, or nothing when doc is None."""
    if doc is None:
        return []
    (workdir / "run.json").write_text(json.dumps(doc))
    return ["--config", str(workdir / "run.json")]


_PIPELINE_143 = ("pipeline", "--n", "143", "--bits", "4")
_DRY_RUN_143 = _PIPELINE_143 + ("--dry-run",)
_SWEEP_291311 = ("sweep", "--clauses", str(_BENCH_291311))


@pytest.mark.parametrize("command, flags, doc", [
    (_DRY_RUN_143, ["--train-shots", "0"], None),
    (_DRY_RUN_143, ["--population", "2"], None),
    (_DRY_RUN_143, ["--generations", "0"], None),
    (_DRY_RUN_143, ["--level", "-1"], None),
    (_DRY_RUN_143, ["--level", "1.5"], None),
    (_DRY_RUN_143, [], {"seeds": []}),
    (_DRY_RUN_143, [], {"levels": []}),
    (_DRY_RUN_143, ["--probe-depth", "9"], None),
    (_SWEEP_291311, ["--probe-depth", "9"], None),
    (_DRY_RUN_143, [], {"seeds": [0, -1]}),
    (_PIPELINE_143, ["--seed", "-1"], None),
    (_SWEEP_291311, ["--seed", "-1"], None),
    (_DRY_RUN_143, [], {"train_shots": 2.5}),
    (_DRY_RUN_143, [], {"report_shots": True}),
    (_DRY_RUN_143, [], {"seeds": [1.5]}),
    (_DRY_RUN_143, [], {"seeds": [True]}),
    (_DRY_RUN_143, [], {"population_size": 6.9}),
    (_DRY_RUN_143, [], {"max_generations": 2.5}),
    (_DRY_RUN_143, [], {"p_list": [1.5]}),
    (_DRY_RUN_143, [], {"qubit_budget": 16.5}),
    (_DRY_RUN_143, [], {"probe_depth": True}),
    (_DRY_RUN_143, [], {"reuse_params": "false"}),
    (_DRY_RUN_143, [], {"reuse_params": 1}),
    (_DRY_RUN_143, [], {"noise": {"gate_noise_on": "false"}}),
    (_DRY_RUN_143, [], {"noise": {"decoherence_on": 0}}),
], ids=["train-shots-0", "population-2", "generations-0", "level-neg",
        "level-above-1", "no-seeds", "no-levels", "probe-depth-9",
        "sweep-probe-depth-9", "seed-neg", "pipeline-seed-neg", "sweep-seed-neg",
        "train-shots-float", "report-shots-bool", "seed-float", "seed-bool",
        "population-float", "generations-float", "p-float", "budget-float",
        "probe-depth-bool", "reuse-params-str", "reuse-params-int",
        "gate-noise-str", "decoherence-int"])
def test_bad_sweep_settings_fail_before_any_artifact(workdir, command, flags, doc):
    # a dry run never sweeps, so only the config itself can reject these;
    # a negative seed used to pass it, and the full pipeline wrote its
    # clauses, Hamiltonians, stats and selection before training failed;
    # int() truncated a non-integral count, so "train_shots": 2.5 ran 2;
    # bool("false") is True, so "reuse_params": "false" ran a reuse sweep
    assert run(*command, "--out", str(workdir / "out"), *flags,
               *_config_flag(workdir, doc)) == EXIT_CONFIG
    assert not (workdir / "out").exists()


def test_train_rejects_negative_seed(workdir):
    hams = _transform_143(workdir)
    before = sorted(workdir.iterdir())
    assert run("train", "--hamiltonian", str(hams["grobner"]), "--p", "1",
               "--seed", "-1", "--out", str(workdir / "train.json")) == EXIT_CONFIG
    assert sorted(workdir.iterdir()) == before


_QUICK_START = ("pipeline --n 143 --bits 4 --p 1 --level 0 --level 0.5 "
                "--level 1.0 --seed 0 --seed 1 --train-shots 512 "
                "--population 10 --generations 15 --reuse-params --out runs/143")
_NOISY_TRAIN = (f"sweep --clauses {_BENCH_291311} --transform GROBNER --p 1 "
                "--level 1.0 --seed 0 --train-shots 512 --report-shots 2048 "
                "--population 8 --generations 4 --out out")
_INT_CONFIG = {"n": 143, "bits": 4, "levels": [0, 1],
               "noise": {"t1_us": 50, "p1": 0}, "seeds": [0, 1],
               "transforms": ["grobner"]}
# every integer setting written as an integral float: the same config
_FLOAT_CONFIG = dict(_INT_CONFIG, n=143.0, bits=4.0, seeds=[0.0, 1.0], p_list=[1.0],
                     train_shots=2048.0, report_shots=8192.0, max_generations=100.0,
                     probe_depth=2.0, qubit_budget=16.0)


@pytest.mark.parametrize("argv, doc, want", [
    (_QUICK_START, None, "960a1c476c6e"),
    (_NOISY_TRAIN, None, "647c8036a036"),
    ("pipeline --dry-run --n 291311 --bits 10 --p 1 --p 3", None, "0c566d824076"),
    ("pipeline", _INT_CONFIG, "cb6fda5d4e1f"),
    ("pipeline", _FLOAT_CONFIG, "cb6fda5d4e1f"),
], ids=["quick-start", "noisy-train", "dry-run", "int-config", "float-config"])
def test_config_hash_is_pinned(workdir, argv, doc, want):
    # the hash names every artifact, so moving it renames every output
    args = _build_parser().parse_args(argv.split() + _config_flag(workdir, doc))
    assert _config_from_args(args).hash12 == want


def test_noisy_train_degenerate_seeds_are_pinned(workdir):
    # the benchmark's noisy-train command line exits 4 (DegenerateBaseline)
    # at exactly these seeds of 0-40, and the benchmark fails every round
    # of such a seed; a change that moves training bytes moves this set
    codes = {seed: run(*_NOISY_TRAIN.replace("--seed 0", f"--seed {seed}").split())
             for seed in range(41)}
    assert {seed for seed, code in codes.items() if code != EXIT_OK} == {29, 33, 36}
    assert {codes[29], codes[33], codes[36]} == {EXIT_RUNTIME}


_GATES = [Gate("H", (0,)), Gate("CNOT", (0, 1)),
          Gate("RZ", (1,), param=("gamma", 0, 2.0))]


@pytest.mark.parametrize("make, field, bad, error", [
    (lambda: RunConfig(n=143, bits=4), "seeds", [], InvalidConfig),
    (lambda: SweepConfig(), "train_shots", 0, InvalidConfig),
    (lambda: NrpgReport("143", "DIRECT", 1, 0.5, 0.4, 0.9, 0.125, 0.355,
                        CircuitStats(4, 23, 34, 44), 0), "p", "one", ValueError),
    (lambda: Hamiltonian(0.5, [(1.0, (0,))], {pvar(1): 0, qvar(1): 1}),
     "terms", [(1.0, (0, 0))], ValueError),
    (lambda: GROBNER, "abc", (1, 1, 1), InvalidPenaltyCoefficients),
    (lambda: CircuitStats(4, 23, 34, 44), "depth", 45, None),
    (lambda: OptResult(np.array([0.1, 0.2]), 0.5, 7, 120, [0.5]),
     "best_objective", "low", ValueError),
    (lambda: ParamCircuit(2, _GATES, 1), "n_qubits", 1, ValueError),
    (lambda: BoundCircuit(2, _GATES[:2]), "gates", _GATES, ValueError),
], ids=["RunConfig", "SweepConfig", "NrpgReport", "Hamiltonian", "TransformKind",
        "CircuitStats", "OptResult", "ParamCircuit", "BoundCircuit"])
def test_records_are_frozen_and_replace_revalidates(make, field, bad, error):
    obj = make()
    before = getattr(obj, field)
    with pytest.raises(AttributeError):
        setattr(obj, field, bad)
    if error is None:  # no rule to break: replace copies and changes one field
        assert getattr(dataclasses.replace(obj, **{field: bad}), field) == bad
    else:
        with pytest.raises(error):
            dataclasses.replace(obj, **{field: bad})
    assert getattr(obj, field) is before


# -- pipeline -------------------------------------------------------------------------

EXPECT_DRY = ("clauses-143-{h}.txt", "hamiltonian-direct-{h}.json",
              "stats-{h}.csv", "selection-{h}.json", "run-config-{h}.json")


def test_pipeline_dry_run_artifacts(workdir):
    cfg = _pipeline_config(workdir)
    assert run("pipeline", "--config", str(cfg), "--dry-run") == EXIT_OK
    outdir = workdir / "out"
    run_cfg = json.loads(next(outdir.glob("run-config-*.json")).read_text())
    h = run_cfg["config_hash"]
    names = {p.name for p in outdir.iterdir()}
    assert names == {pat.format(h=h) for pat in EXPECT_DRY}


def test_pipeline_full_and_rerun_identical(workdir):
    cfg = _pipeline_config(workdir)
    assert run("pipeline", "--config", str(cfg)) == EXIT_OK
    outdir = workdir / "out"
    first = {p.name: p.read_bytes() for p in outdir.iterdir()}
    assert any(n.startswith("nrpg-report-") and n.endswith(".json") for n in first)
    assert run("pipeline", "--config", str(cfg)) == EXIT_OK
    second = {p.name: p.read_bytes() for p in outdir.iterdir()}
    assert first == second


def test_pipeline_hash_ignores_out_dir(workdir):
    cfg_a = _pipeline_config(workdir, out_dir=str(workdir / "a"))
    assert run("pipeline", "--config", str(cfg_a), "--dry-run") == EXIT_OK
    cfg_b = workdir / "runb.json"
    doc = json.loads(cfg_a.read_text())
    doc["out_dir"] = str(workdir / "b")
    cfg_b.write_text(json.dumps(doc))
    assert run("pipeline", "--config", str(cfg_b), "--dry-run") == EXIT_OK
    ha = {p.name for p in (workdir / "a").iterdir()}
    hb = {p.name for p in (workdir / "b").iterdir()}
    assert ha == hb  # same config hash in every filename


def test_pipeline_clause_file_input(workdir):
    clauses = _encode_143(workdir)
    assert run("pipeline", "--clauses", str(clauses), "--transform", "GROBNER",
               "--p", "1", "--dry-run", "--out", str(workdir / "out")) == EXIT_OK
    sel = json.loads(next((workdir / "out").glob("selection-*.json")).read_text())
    assert sel["selected"] == "GROBNER"
    assert sel["instance"] == "clauses"


def test_no_command_is_config_error():
    assert run() == EXIT_CONFIG
    assert run("frobnicate") == EXIT_CONFIG
