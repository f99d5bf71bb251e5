"""Run one `vqf` command in this fresh process and record what it cost.

    python3 bench/child.py RESULT_JSON [--trace] -- VQF_ARGS...

The repository's `src/` goes first on the import path.  Set-up ends once
`vqf.cli` is imported (and, with --trace, the spans are installed); the
result records that moment on the shared monotonic clock so the parent can
subtract its own spawn time.  The run is `vqf.cli.main(VQF_ARGS)`; its wall
and CPU time (all threads) and the process's peak RSS go to RESULT_JSON,
with the spans when traced.  The process exits with the command's code.
"""

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _cpu_s(ru) -> float:
    return ru.ru_utime + ru.ru_stime


def main() -> int:
    sep = sys.argv.index("--")
    opts, vqf_argv = sys.argv[1:sep], sys.argv[sep + 1:]
    result_path = Path(opts[0])
    sys.path.insert(0, str(ROOT / "src"))
    import vqf.cli

    entry, tracer, missing = vqf.cli.main, None, []
    if "--trace" in opts:
        from tracing import Tracer, install
        tracer = Tracer()
        missing = install(tracer)
        entry = tracer.wrap(vqf.cli.main, "cli.main")
    doc = {"ready": time.monotonic()}
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    rc = entry(vqf_argv)
    wall = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    doc.update(rc=rc, wall_s=wall, cpu_s=_cpu_s(ru1) - _cpu_s(ru0),
               peak_rss_mb=ru1.ru_maxrss / 1024.0)
    if tracer is not None:
        doc.update(spans=tracer.spans, missing=missing)
    result_path.write_text(json.dumps(doc))
    return rc


if __name__ == "__main__":
    sys.exit(main())
