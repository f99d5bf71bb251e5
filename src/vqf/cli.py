"""Command-line front end for the factoring workbench.

Each subcommand wraps one pipeline stage; `pipeline` chains them all:
encode, transform every clause system four ways, compile and tabulate
circuits, pick the most noise-tolerant one, then train and score it
across a noise grid.  Every invocation resolves to a config document
whose sha256 prefix is stamped into each artifact filename, so a rerun
of the same config overwrites its outputs with identical bytes.

Exit codes: 0 success, 2 configuration error, 3 infeasible instance,
4 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .circuit import bind, compile_qaoa, export_qasm, stats
from .encoder import (FactoringInstance, build_clauses, clause_file_text,
                      load_clause_file, preprocess)
from .errors import (DimensionMismatch, Infeasible, InfeasibleInstance,
                     InvalidConfig, InvalidPenaltyCoefficients, ParseError,
                     VqfError)
from .evaluate import (SweepConfig, reports_to_csv, reports_to_json,
                       reports_to_plot_tsv, select_circuit, sweep)
from .optimize import DeConfig, train_qaoa
from .sim import NoiseModel, _integer
from .transform import (ALL_KINDS, Hamiltonian, TransformKind, apply_transform,
                        to_hamiltonian)

# Part of every hashed config document.  Bump it whenever sampled bits
# or the report schema change, so that one config hash never names two
# different outputs.
OUTPUT_VERSION = 2

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_RUNTIME = 4

_CONFIG_ERRORS = (InvalidConfig, InvalidPenaltyCoefficients, ParseError,
                  DimensionMismatch, FileNotFoundError, IsADirectoryError,
                  NotADirectoryError, PermissionError, KeyError, ValueError,
                  TypeError)
_INFEASIBLE_ERRORS = (InfeasibleInstance, Infeasible)


def _hash12(doc: Dict) -> str:
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    print(path)


def _read_config_file(path: str) -> Dict:
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"config file not found: {path}")
    if p.suffix.lower() == ".toml":
        try:
            import tomllib
        except ImportError:
            raise InvalidConfig("TOML configs need Python 3.11+; use JSON")
        with open(p, "rb") as fh:
            return tomllib.load(fh)
    return json.loads(p.read_text())


def _load_noise(source) -> NoiseModel:
    if source is None:
        return NoiseModel()
    if isinstance(source, NoiseModel):
        return source
    if isinstance(source, dict):
        return NoiseModel(**source)
    p = Path(source)
    if not p.exists():
        raise FileNotFoundError(f"noise model file not found: {source}")
    return NoiseModel.from_json(p.read_text())


def _parse_kinds(names: Optional[Sequence[str]]) -> List[TransformKind]:
    if not names or list(names) == ["all"]:
        return list(ALL_KINDS)
    return [TransformKind.parse(n) for n in names]


@dataclass(frozen=True, slots=True, eq=False)
class RunConfig(SweepConfig):
    """Resolved settings for sweep, select and pipeline runs.

    The sweep settings are the inherited `SweepConfig` fields, and `sweep`
    takes this object as its config; `noise` may also be given as a dict
    of `NoiseModel` fields or the path of a noise-model JSON file.  Every
    field is checked when the config is built, so a bad setting fails
    before any artifact is written.  The config hash covers every field
    that influences outputs; the output directory is deliberately
    excluded so relocated runs keep their identity.
    """

    n: Optional[int] = None
    bits: Optional[int] = None
    clause_file: Optional[str] = None
    probe_depth: int = 2
    transforms: List[str] = ("all",)
    p_list: List[int] = (1,)
    levels: List[float] = (0.0, 0.5, 1.0)
    qubit_budget: int = 16
    out_dir: str = "vqf-out"

    def __post_init__(self):
        if self.clause_file is None and (self.n is None or self.bits is None):
            raise InvalidConfig("either a clause file or both n and bits are required")
        object.__setattr__(self, "noise", _load_noise(self.noise))
        SweepConfig.__post_init__(self)
        for name in ("n", "bits"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.clause_file is not None:
            object.__setattr__(self, "clause_file", str(self.clause_file))
        object.__setattr__(self, "probe_depth", _integer(self.probe_depth, "probe_depth"))
        if self.probe_depth not in (0, 1, 2):
            raise InvalidConfig(f"probe_depth must be 0, 1 or 2, got {self.probe_depth}")
        object.__setattr__(self, "transforms",
                           [k.name for k in _parse_kinds(self.transforms)])
        object.__setattr__(self, "p_list", [_integer(p, "a level p") for p in self.p_list])
        object.__setattr__(self, "levels", [float(i) for i in self.levels])
        object.__setattr__(self, "qubit_budget", _integer(self.qubit_budget, "qubit_budget"))
        object.__setattr__(self, "out_dir", str(self.out_dir))
        if not self.p_list or min(self.p_list) < 1:
            raise InvalidConfig(f"p_list must contain levels >= 1: {self.p_list}")
        if not self.levels:
            raise InvalidConfig("at least one noise level is required")
        for i in self.levels:
            self.noise.with_scale(i)  # a level is a noise scale: NoiseModel checks it

    def hashed_doc(self) -> Dict:
        doc = dataclasses.asdict(self)
        del doc["out_dir"]
        doc["output_version"] = OUTPUT_VERSION
        if self.clause_file is not None:
            # identity follows the clause content, not the path
            doc["clause_file"] = hashlib.sha256(
                Path(self.clause_file).read_bytes()).hexdigest()
        return doc

    @property
    def hash12(self) -> str:
        return _hash12(self.hashed_doc())

    def to_json(self) -> str:
        doc = dataclasses.asdict(self)
        doc["config_hash"] = self.hash12
        return json.dumps(doc, indent=2, sort_keys=True)


def _config_from_args(args) -> RunConfig:
    doc: Dict = {}
    if getattr(args, "config", None):
        doc.update(_read_config_file(args.config))
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    # each run flag's dest is the field it sets; a flag not given is None
    doc.update({k: getattr(args, k) for k in fields if getattr(args, k, None) is not None})
    unknown = set(doc) - fields
    if unknown:
        raise InvalidConfig(f"unknown config keys: {', '.join(sorted(unknown))}")
    return RunConfig(**doc)


def _resolve_system(cfg: RunConfig):
    if cfg.clause_file is not None:
        return load_clause_file(cfg.clause_file), Path(cfg.clause_file).stem
    inst = FactoringInstance(cfg.n, cfg.bits)
    return preprocess(build_clauses(inst), probe_depth=cfg.probe_depth), str(cfg.n)


def _stats_csv(rows: List[Dict]) -> str:
    cols = ("transform", "p", "n_qubits", "n_single_gates", "n_cnot",
            "depth", "cnot_per_qubit")
    out = [",".join(cols)]
    for r in rows:
        out.append(",".join(str(r[c]) for c in cols))
    return "\n".join(out) + "\n"


# -- subcommands ---------------------------------------------------------------

def _cmd_encode(args) -> int:
    inst = FactoringInstance(args.n, args.bits)
    cs = preprocess(build_clauses(inst), probe_depth=args.probe_depth)
    h = _hash12({"n": args.n, "bits": args.bits, "probe_depth": args.probe_depth})
    text = clause_file_text(cs, header=f"config {h}\nn = {args.n}, {args.bits}-bit factors")
    out = Path(args.out) if args.out else Path(f"clauses-{args.n}-{h}.txt")
    _write(out, text)
    free = sorted({v.name for c in cs.clauses for v in c.variables()})
    print(f"{len(cs.clauses)} clauses over {len(free)} free variables: "
          f"{', '.join(free)}")
    return EXIT_OK


def _cmd_transform(args) -> int:
    cs = load_clause_file(args.clauses)
    kinds = _parse_kinds(args.kinds)
    h12 = _hash12({"clauses": Path(args.clauses).read_text(),
                   "kinds": [k.name for k in kinds]})
    outdir = Path(args.out)
    for kind in kinds:
        poly, aux = apply_transform(cs, kind)
        ham = to_hamiltonian(poly)
        _write(outdir / f"hamiltonian-{kind.name.lower()}-{h12}.json", ham.to_json())
        print(f"{kind.name}: locality {ham.locality}, {ham.n_qubits} qubits, "
              f"{len(aux)} auxiliary")
    return EXIT_OK


def _cmd_compile(args) -> int:
    ham = Hamiltonian.from_json(Path(args.hamiltonian).read_text())
    circuit = compile_qaoa(ham, args.p)
    st = stats(circuit)
    h12 = _hash12({"hamiltonian": ham.to_json(), "p": args.p})
    bound = None
    if args.qasm:  # bind first, so that bad angles write no file
        if args.gamma is None or args.beta is None:
            raise InvalidConfig("QASM export needs --gamma and --beta angles")
        bound = bind(circuit, args.gamma, args.beta)
    if args.out:
        _write(Path(args.out), circuit.to_json())
    if bound is not None:
        _write(Path(args.qasm), export_qasm(bound))
    print(f"config {h12}: {st.n_qubits} qubits, {st.n_cnot} CNOT, "
          f"{st.n_single_gates} single-qubit, depth {st.depth}")
    return EXIT_OK


def _cmd_train(args) -> int:
    ham = Hamiltonian.from_json(Path(args.hamiltonian).read_text())
    nm = _load_noise(args.noise).with_scale(args.scale)
    cfg = DeConfig(dim=2 * args.p, population_size=args.population,
                   max_generations=args.generations, seed=args.seed)
    res = train_qaoa(ham, args.p, nm, args.shots, cfg)
    doc = json.loads(res.to_json())
    doc["config_hash"] = _hash12({
        "hamiltonian": ham.to_json(), "p": args.p, "noise": dataclasses.asdict(nm),
        "shots": args.shots, "seed": args.seed, "population": args.population,
        "generations": args.generations, "output_version": OUTPUT_VERSION})
    doc["gamma"] = doc["best_params"][:args.p]
    doc["beta"] = doc["best_params"][args.p:]
    out = Path(args.out) if args.out else Path(f"train-{doc['config_hash']}.json")
    _write(out, json.dumps(doc, indent=2, sort_keys=True))
    print(f"best objective {res.best_objective:.6g} after "
          f"{res.generations_used} generations ({res.evaluation_count} evaluations)")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = _config_from_args(args)
    cs, label = _resolve_system(cfg)
    reports = sweep(cs, _parse_kinds(cfg.transforms), cfg.p_list, cfg.levels,
                    cfg, label=label)
    outdir = Path(cfg.out_dir)
    h12 = cfg.hash12
    _write(outdir / f"nrpg-report-{h12}.json", reports_to_json(reports))
    _write(outdir / f"nrpg-report-{h12}.csv", reports_to_csv(reports))
    _write(outdir / f"nrpg-curves-{h12}.tsv", reports_to_plot_tsv(reports))
    _write(outdir / f"run-config-{h12}.json", cfg.to_json())
    print(f"{len(reports)} report rows")
    return EXIT_OK


def _cmd_select(args) -> int:
    cfg = _config_from_args(args)
    cs, label = _resolve_system(cfg)
    p = min(cfg.p_list)
    rows, cands = [], []
    for kind in _parse_kinds(cfg.transforms):
        poly, _ = apply_transform(cs, kind)
        st = stats(compile_qaoa(to_hamiltonian(poly), p))
        cands.append((kind, st))
        row = {"transform": kind.name, "p": p}
        row.update(st.as_dict())
        rows.append(row)
    verdict = select_circuit(cands, cfg.qubit_budget)
    doc = {"config_hash": cfg.hash12, "instance": label, "p": p,
           "qubit_budget": cfg.qubit_budget, "selected": verdict.name,
           "candidates": rows}
    outdir = Path(cfg.out_dir)
    _write(outdir / f"selection-{cfg.hash12}.json",
           json.dumps(doc, indent=2, sort_keys=True))
    print(f"selected: {verdict.name}")
    return EXIT_OK


def _cmd_pipeline(args) -> int:
    cfg = _config_from_args(args)
    outdir = Path(cfg.out_dir)
    h12 = cfg.hash12

    def stage(name, fn):
        try:
            return fn()
        except VqfError as exc:
            raise type(exc)(f"[{name}] {exc}") from exc

    cs, label = stage("encode", lambda: _resolve_system(cfg))
    _write(outdir / f"clauses-{label}-{h12}.txt",
           clause_file_text(cs, header=f"config {h12}"))

    kinds = _parse_kinds(cfg.transforms)
    hams = {}
    for kind in kinds:
        poly, _ = stage("transform", lambda k=kind: apply_transform(cs, k))
        hams[kind] = to_hamiltonian(poly)
        _write(outdir / f"hamiltonian-{kind.name.lower()}-{h12}.json",
               hams[kind].to_json())

    rows, cands = [], []
    for kind in kinds:
        for p in cfg.p_list:
            st = stage("compile", lambda k=kind, pp=p: stats(compile_qaoa(hams[k], pp)))
            row = {"transform": kind.name, "p": p}
            row.update(st.as_dict())
            rows.append(row)
            if p == min(cfg.p_list):
                cands.append((kind, st))
    _write(outdir / f"stats-{h12}.csv", _stats_csv(rows))

    verdict = stage("select", lambda: select_circuit(cands, cfg.qubit_budget))
    _write(outdir / f"selection-{h12}.json", json.dumps(
        {"config_hash": h12, "instance": label,
         "qubit_budget": cfg.qubit_budget, "selected": verdict.name,
         "candidates": rows}, indent=2, sort_keys=True))
    print(f"selected: {verdict.name}")

    if not args.dry_run:
        reports = stage("sweep", lambda: sweep(
            cs, kinds, cfg.p_list, cfg.levels, cfg, label=label))
        _write(outdir / f"nrpg-report-{h12}.json", reports_to_json(reports))
        _write(outdir / f"nrpg-report-{h12}.csv", reports_to_csv(reports))
        _write(outdir / f"nrpg-curves-{h12}.tsv", reports_to_plot_tsv(reports))

    _write(outdir / f"run-config-{h12}.json", cfg.to_json())
    return EXIT_OK


# -- parser --------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="vqf",
        description="Factor integers with noisy QAOA: encode, transform, "
                    "compile, train, and score circuits.")
    sub = ap.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="clause system from an integer")
    enc.add_argument("--n", type=int, required=True)
    enc.add_argument("--bits", type=int, required=True)
    enc.add_argument("--probe-depth", type=int, default=2, choices=(0, 1, 2))
    enc.add_argument("--out")
    enc.set_defaults(fn=_cmd_encode)

    tr = sub.add_parser("transform", help="cost Hamiltonians from clauses")
    tr.add_argument("--clauses", required=True)
    tr.add_argument("--kind", dest="kinds", action="append",
                    help="direct, schaller, grobner, sim_grobner, or all")
    tr.add_argument("--out", default=".")
    tr.set_defaults(fn=_cmd_transform)

    co = sub.add_parser("compile", help="QAOA circuit from a Hamiltonian")
    co.add_argument("--hamiltonian", required=True)
    co.add_argument("--p", type=int, required=True)
    co.add_argument("--out")
    co.add_argument("--qasm")
    co.add_argument("--gamma", type=float, nargs="+")
    co.add_argument("--beta", type=float, nargs="+")
    co.set_defaults(fn=_cmd_compile)

    tn = sub.add_parser("train", help="optimize angles under noise")
    tn.add_argument("--hamiltonian", required=True)
    tn.add_argument("--p", type=int, required=True)
    tn.add_argument("--noise")
    tn.add_argument("--scale", type=float, default=1.0)
    tn.add_argument("--shots", type=int, default=2048)
    tn.add_argument("--seed", type=int, default=0)
    tn.add_argument("--population", type=int)
    tn.add_argument("--generations", type=int, default=100)
    tn.add_argument("--out")
    tn.set_defaults(fn=_cmd_train)

    def common_run_flags(p):
        p.add_argument("--config")
        p.add_argument("--n", type=int)
        p.add_argument("--bits", type=int)
        p.add_argument("--clauses", dest="clause_file")
        p.add_argument("--probe-depth", type=int, dest="probe_depth")
        p.add_argument("--transform", dest="transforms", action="append")
        p.add_argument("--p", dest="p_list", type=int, action="append")
        p.add_argument("--level", dest="levels", type=float, action="append")
        p.add_argument("--noise")
        p.add_argument("--train-shots", type=int, dest="train_shots")
        p.add_argument("--report-shots", type=int, dest="report_shots")
        p.add_argument("--population", type=int, dest="population_size")
        p.add_argument("--generations", type=int, dest="max_generations")
        p.add_argument("--seed", dest="seeds", type=int, action="append")
        p.add_argument("--budget", type=int, dest="qubit_budget")
        p.add_argument("--reuse-params", action="store_const", const=True)
        p.add_argument("--out", dest="out_dir")

    sw = sub.add_parser("sweep", help="NRPG across a noise grid")
    common_run_flags(sw)
    sw.set_defaults(fn=_cmd_sweep)

    se = sub.add_parser("select", help="pick the most noise-tolerant circuit")
    common_run_flags(se)
    se.set_defaults(fn=_cmd_select)

    pl = sub.add_parser("pipeline", help="full flow: encode through sweep")
    common_run_flags(pl)
    pl.add_argument("--dry-run", action="store_true")
    pl.set_defaults(fn=_cmd_pipeline)

    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, matching our config-error code
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        return args.fn(args)
    except _INFEASIBLE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except VqfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
