"""The workbench's benchmark: time the `vqf` CLI on three fixed workloads.

    python3 bench/run.py --workload NAME [--seed S] [--seconds T] [--trace 0|1]

Run from anywhere inside a checkout of the repository; `vqf` need not be
installed.  Each round runs the workload's `vqf` commands, one fresh
process at a time (a closed loop with one client), and checks their
outputs.  Rounds repeat until the next one would end after --seconds.

--trace 0 reports the end-to-end metrics from untraced rounds.  --trace 1
alternates untraced and traced rounds and reports the per-layer metrics
of the traced ones.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  README.md in this
directory explains the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from stats import median, summarize
from tracing import PER_LAYER_UNITS, per_layer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CHILD = BENCH / "child.py"

# Presolved 291311 system, produced by
#   vqf encode --n 291311 --bits 10 --out bench/data/clauses-291311.txt
# at the commit that added the benchmark.  Pinned so that a presolve
# change cannot silently change the noisy-train workload's input.
PINNED_CLAUSES = BENCH / "data" / "clauses-291311.txt"
PINNED_SHA256 = "f34398c85defd2cbb64204469dbf592b92e7976302a4a01892233c8215aaa704"

KIND_NAMES = ("direct", "schaller", "grobner", "sim_grobner")

PROCESS_TIMEOUT_S = 170  # a run must end within 180 s
DECODE_TOL = 1e-9        # minimizer test, as in vqf.evaluate.minimizer_bitstrings


@dataclass(frozen=True)
class Command:
    """One `vqf` process of a round and what its outputs must satisfy."""

    out: str                    # output directory, relative to the work dir
    argv: Tuple[str, ...]
    artifacts: Tuple[str, ...]  # globs that must each match exactly one file
    rows: int = 0               # expected report rows; 0 when no report
    factors: Optional[Tuple[int, int, int]] = None  # (n, bits, a factor)


@dataclass(frozen=True)
class Workload:
    threads: int                # VQF_THREADS
    commands: Tuple[Command, ...]


REPORT_GLOBS = ("nrpg-report-*.json", "nrpg-report-*.csv", "nrpg-curves-*.tsv")


def _pipeline_globs(n: int, report: bool) -> Tuple[str, ...]:
    globs = (f"clauses-{n}-*.txt", "stats-*.csv", "selection-*.json",
             "run-config-*.json")
    globs += tuple(f"hamiltonian-{k}-*.json" for k in KIND_NAMES)
    return globs + (REPORT_GLOBS if report else ())


# (n, bit length, one factor): the dry-run instances.  Random semiprimes
# were rejected: their presolve time ranges from 0.9 s to 318 s.
DRYRUN_INSTANCES = ((291311, 10, 523), (58483, 8, 233), (2867, 6, 47))


def workloads(seed: int, nproc: int) -> Dict[str, Workload]:
    quick = Command(
        out="out",
        argv=("pipeline", "--n", "143", "--bits", "4", "--p", "1",
              "--level", "0", "--level", "0.5", "--level", "1.0",
              "--seed", str(seed), "--seed", str(seed + 1),
              "--train-shots", "512", "--population", "10",
              "--generations", "15", "--reuse-params", "--out", "out"),
        artifacts=_pipeline_globs(143, report=True),
        rows=4 * 1 * 3 * 2, factors=(143, 4, 11))
    noisy = Command(
        out="out",
        argv=("sweep", "--clauses",
              os.path.relpath(PINNED_CLAUSES, _work_dir("noisy-train-291311")),
              "--transform", "GROBNER", "--p", "1", "--level", "1.0",
              "--seed", str(seed), "--train-shots", "512",
              "--report-shots", "2048", "--population", "8",
              "--generations", "4", "--out", "out"),
        artifacts=REPORT_GLOBS + ("run-config-*.json",),
        rows=1 * 1 * 2 * 1)
    dry = tuple(
        Command(out=f"out/{n}",
                argv=("pipeline", "--dry-run", "--n", str(n), "--bits", str(bits),
                      "--p", "1", "--p", "3", "--out", f"out/{n}"),
                artifacts=_pipeline_globs(n, report=False),
                factors=(n, bits, factor))
        for n, bits, factor in DRYRUN_INSTANCES)
    # why each workload exists: README.md and BENCHMARK.json
    return {
        "quickstart-143": Workload(1, (quick,)),
        "noisy-train-291311": Workload(nproc, (noisy,)),
        "presolve-dryrun": Workload(1, dry),
    }


def _work_dir(workload: str) -> Path:
    return WORK / workload


# -- processes ------------------------------------------------------------------

def _spawn(argv: Sequence[str], cwd: Path, threads: int, traced: bool,
           log) -> Dict:
    """Run child.py once; returns its result document plus setup_s and rc."""
    result = cwd / "child-result.json"
    result.unlink(missing_ok=True)
    opts = [str(result)] + (["--trace"] if traced else [])
    env = dict(os.environ, VQF_THREADS=str(threads))
    t_spawn = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(CHILD), *opts, "--", *argv],
                            cwd=cwd, env=env, stdout=log, stderr=log)
    try:
        rc = proc.wait(timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return {"rc": None, "error": "timed out"}
    if not result.exists():
        return {"rc": rc, "error": f"exited {rc} without a result"}
    doc = json.loads(result.read_text())
    doc["rc"] = rc
    doc["setup_s"] = doc["ready"] - t_spawn
    return doc


def _digest(paths: Sequence[Path], root: Path) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(str(p.relative_to(root)).encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


# -- output checks --------------------------------------------------------------

class Checker:
    """Output checks; decoding results are cached by artifact content."""

    def __init__(self):
        sys.path.insert(0, str(SRC))
        import numpy
        from vqf.encoder import decode_factors, load_clause_file
        from vqf.transform import Hamiltonian
        self._np = numpy
        self._decode = decode_factors
        self._load = load_clause_file
        self._ham = Hamiltonian
        self._decoded: Dict[str, List[str]] = {}

    def check(self, cmd: Command, out: Path) -> Tuple[List[str], Dict]:
        """Returns (problems, readings) for one finished command."""
        problems: List[str] = []
        found: Dict[str, Path] = {}
        for pattern in cmd.artifacts:
            hits = sorted(out.glob(pattern))
            if len(hits) != 1:
                problems.append(f"{out.name}: {len(hits)} files match {pattern}")
            else:
                found[pattern] = hits[0]
        readings: Dict = {}
        if cmd.rows and "nrpg-report-*.json" in found:
            rows = json.loads(found["nrpg-report-*.json"].read_text())
            problems += self._check_rows(rows, cmd.rows)
            readings = {"m_0p": [r["m_0p"] for r in rows],
                        "nrpg": [r["nrpg"] for r in rows if r["i"] > 0]}
        if cmd.factors is not None:
            clauses = [p for g, p in found.items() if g.startswith("clauses-")]
            hams = [p for g, p in found.items() if g.startswith("hamiltonian-")]
            for ham in hams:
                for clause_file in clauses:
                    problems += self._check_decode(ham, clause_file, cmd.factors)
        return problems, readings

    @staticmethod
    def _check_rows(rows: List[Dict], expected: int) -> List[str]:
        problems = []
        if len(rows) != expected:
            problems.append(f"{len(rows)} report rows, expected {expected}")
        for r in rows:
            if r["i"] == 0.0 and r["nrpg"] != 1.0:
                problems.append(f"i=0 row has nrpg {r['nrpg']}: {r}")
            if not (0.0 <= r["m_ip"] <= 1.0 and 0.0 <= r["m_0p"] <= 1.0):
                problems.append(f"success probability outside [0, 1]: {r}")
        return problems

    def _check_decode(self, ham_path: Path, clause_path: Path,
                      factors: Tuple[int, int, int]) -> List[str]:
        key = hashlib.sha256(ham_path.read_bytes() + b"\0" +
                             clause_path.read_bytes()).hexdigest()
        if key not in self._decoded:
            n, bits, factor = factors
            want = sorted((factor, n // factor))
            h = self._ham.from_json(ham_path.read_text())
            cs = self._load(clause_path)
            diag = h.diagonal()
            problems = []
            for idx in self._np.flatnonzero(diag <= diag.min() + DECODE_TOL):
                assignment = {v: (int(idx) >> q) & 1 for v, q in h.var_map.items()}
                got = sorted(self._decode(cs, assignment, bits))
                if got != want:
                    problems.append(f"{ham_path.name}: minimizer {int(idx)} "
                                    f"decodes to {got}, not {want}")
            self._decoded[key] = problems
        return self._decoded[key]


# -- environment ----------------------------------------------------------------

def _src_files() -> List[Path]:
    return sorted(p for p in SRC.rglob("*")
                  if p.is_file() and "__pycache__" not in p.parts)


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def environment(threads: int) -> Dict:
    import numpy
    files = _src_files()
    return {
        "git_sha": _git_sha(),
        "src_sha256": _digest(files, ROOT),
        "src_py_lines": sum(len(p.read_text().splitlines())
                            for p in files if p.suffix == ".py"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "VQF_THREADS": threads,
        "loadavg_before": _loadavg(),
    }


# -- rounds ---------------------------------------------------------------------

def run_round(wl: Workload, work: Path, traced: bool, checker: Checker) -> Dict:
    """Every command of the workload once, in order, then the output checks."""
    started = time.monotonic()
    shutil.rmtree(work / "out", ignore_errors=True)
    procs, problems, exits, readings = [], [], [], {"m_0p": [], "nrpg": []}
    with open(work / "log.txt", "w") as log:
        for cmd in wl.commands:
            (work / cmd.out).mkdir(parents=True, exist_ok=True)
            doc = _spawn(cmd.argv, work, wl.threads, traced, log)
            procs.append(doc)
            if doc["rc"] != 0:
                reason = doc.get("error") or f"exit {doc['rc']}"
                exits.append(f"`vqf {' '.join(cmd.argv)}`: {reason}")
                continue
            found, read = checker.check(cmd, work / cmd.out)
            problems += found
            for k, v in read.items():
                readings[k] += v
    if exits:
        tail = (work / "log.txt").read_text().splitlines()[-3:]
        print("round failed: " + "; ".join(exits) + " | " + " / ".join(tail),
              file=sys.stderr)
    timed = [p for p in procs if "wall_s" in p]
    report_files = sorted(p for p in (work / "out").rglob("*")
                          if p.is_file() and _is_result_artifact(p))
    return {
        "traced": traced,
        "failed": bool(exits or problems),
        "exits": exits,
        "problems": problems,
        "wall_s": sum(p["wall_s"] for p in timed),
        "cpu_s": sum(p["cpu_s"] for p in timed),
        "peak_rss_mb": max((p["peak_rss_mb"] for p in timed), default=0.0),
        "setup_s": [p["setup_s"] for p in procs if "setup_s" in p],
        "report_sha256": None if exits else _digest(report_files, work / "out"),
        "readings": readings,
        "processes": [(p.get("spans", []), p["wall_s"]) for p in timed],
        "missing": sorted({m for p in procs for m in p.get("missing", [])}),
        "duration": time.monotonic() - started,
    }


def _is_result_artifact(path: Path) -> bool:
    """The report where there is one; else every artifact but run-config."""
    if path.name.startswith("nrpg-report-") and path.suffix == ".json":
        return True
    has_report = any(path.parent.glob("nrpg-report-*.json"))
    return not has_report and not path.name.startswith("run-config-")


def _reference_sha(workload: str, seed: int, src_sha: str, first: str) -> str:
    """The report digest recorded by an earlier run of the same src/ tree,
    workload and seed; without one, `first` is recorded and returned."""
    record_path = WORK / "report-sha256.json"
    record = json.loads(record_path.read_text()) if record_path.exists() else {}
    ref = record.setdefault(src_sha, {}).setdefault(f"{workload}/seed={seed}", first)
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True))
    return ref


# -- metrics --------------------------------------------------------------------

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def _ok(rounds: List[Dict], traced: bool) -> List[Dict]:
    """The rounds that did all their work and passed every check; only
    these give samples, since a failed round's timings cover part of it."""
    return [r for r in rounds if r["traced"] == traced and not r["failed"]]


def _e2e(rounds: List[Dict]) -> Dict[str, List[float]]:
    ok = _ok(rounds, traced=False)
    samples = {k: [r[k] for r in ok] for k in ("wall_s", "cpu_s", "peak_rss_mb")}
    samples["setup_s"] = [s for r in ok for s in r["setup_s"]]
    return samples


def _layers(rounds: List[Dict], untraced_wall: float) -> Dict[str, float]:
    ok = _ok(rounds, traced=True)
    per_round = [per_layer(r["processes"]) for r in ok]
    metrics = {name: median([m[name] for m in per_round]) for name in PER_LAYER_UNITS}
    readings = ok[0]["readings"]
    metrics["evaluate.success_p0"] = (sum(readings["m_0p"]) / len(readings["m_0p"])
                                      if readings["m_0p"] else 0.0)
    metrics["evaluate.nrpg_mean"] = (sum(readings["nrpg"]) / len(readings["nrpg"])
                                     if readings["nrpg"] else 0.0)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced_wall
    return metrics


def _line(name: str, unit: str, values: List[float]) -> str:
    s = summarize(values)
    tail = (f"p{s['tail_pct']:g} {s['tail']!r}" if s["tail"] is not None
            else "no percentile with >= 10 samples beyond it")
    return f"  {name:<40} median {s['median']!r} {unit}  ({tail}; n={s['n']})"


def main(argv: Optional[Sequence[str]] = None) -> int:
    nproc = len(os.sched_getaffinity(0))
    names = list(workloads(0, nproc))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=42.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "vqf" / "cli.py").is_file():
        print(f"error: no workbench sources at {SRC / 'vqf'}; run inside a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    pinned = hashlib.sha256(PINNED_CLAUSES.read_bytes()).hexdigest()
    if pinned != PINNED_SHA256:
        print(f"error: {PINNED_CLAUSES.name} has sha256 {pinned}, "
              f"expected {PINNED_SHA256}", file=sys.stderr)
        return 2

    wl = workloads(args.seed, nproc)[args.workload]
    work = _work_dir(args.workload)
    work.mkdir(parents=True, exist_ok=True)
    started = time.monotonic()
    deadline = started + args.seconds
    env = environment(wl.threads)
    checker = Checker()

    rounds: List[Dict] = []
    last: Dict[bool, float] = {}
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        r = run_round(wl, work, traced, checker)
        rounds.append(r)
        last[traced] = r["duration"]
        nxt = bool(args.trace) and len(rounds) % 2 == 1
        done = len(rounds) >= (2 if args.trace else 1)
        est = last.get(nxt, r["duration"])
        if done and time.monotonic() + est > deadline:
            break
    env["loadavg_after"] = _loadavg()

    # every round, traced or not, and every run of the same src/ tree must
    # write the same report bytes
    shas = [r["report_sha256"] for r in rounds if r["report_sha256"] is not None]
    ref = _reference_sha(args.workload, args.seed, env["src_sha256"], shas[0]) \
        if shas else None
    for r in rounds:
        if r["report_sha256"] not in (None, ref):
            r["failed"] = True
            r["problems"].append(f"report_sha256 {r['report_sha256']} differs "
                                 f"from {ref}, recorded for this src/ tree")
    problems = [p for r in rounds for p in r["problems"]]
    failed = sum(r["failed"] for r in rounds)
    attempted = len(rounds)
    samples = _e2e(rounds)
    # metrics come only from rounds that did all their work, so a run
    # without such a round has no figures to give
    measured = bool(_ok(rounds, traced=False)) and \
        (not args.trace or bool(_ok(rounds, traced=True)))
    correct = measured and not problems

    print(f"workload {args.workload} (seed {args.seed}, trace {args.trace})")
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"report_sha256 {ref or 'none'}  "
          f"(rounds agree with it: {set(shas) <= {ref}})")
    print(f"error_rate {failed}/{attempted} = {failed / attempted!r}")
    for p in problems:
        print(f"  check failed: {p}")
    if not measured:
        print("no round of the needed kind succeeded: no metrics")
        metrics, units = {}, {}
    else:
        print("end to end (untraced rounds that succeeded):")
        for name, unit in E2E_UNITS.items():
            print(_line(name, unit, samples[name]))
    if measured and args.trace:
        metrics = _layers(rounds, median(samples["wall_s"]))
        missing = sorted({m for r in rounds for m in r["missing"]})
        print(f"per layer (median of {sum(r['traced'] for r in rounds)} traced "
              f"rounds; sites not found: {', '.join(missing) or 'none'}):")
        for name, unit in PER_LAYER_UNITS.items():
            print(f"  {name:<40} {metrics[name]!r} {unit}")
        units = PER_LAYER_UNITS
    elif measured:
        metrics = {name: median(v) for name, v in samples.items()}
        units = E2E_UNITS

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    (WORK / "results").mkdir(exist_ok=True)
    detail = dict(result, workload=args.workload, seed=args.seed,
                  trace=args.trace, env=env, samples=samples,
                  report_sha256=ref, problems=problems,
                  elapsed_s=time.monotonic() - started,
                  rounds=[{k: v for k, v in r.items() if k != "processes"}
                          for r in rounds])
    (WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(detail, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
