"""Tests of the benchmark harness's own arithmetic and instrumentation.

    python3 -m pytest bench
"""

import json
import statistics
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from stats import (accept_ratio, median, percentile, self_times,  # noqa: E402
                   summarize, tail_percentile)
from tracing import PER_LAYER_UNITS, Tracer, install, per_layer  # noqa: E402


# -- percentiles ----------------------------------------------------------------

def test_percentile_interpolates_between_ranks():
    xs = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert percentile(xs, 0) == 1.0
    assert percentile(xs, 100) == 5.0
    assert percentile(xs, 25) == 2.0
    assert percentile(xs, 90) == pytest.approx(4.6)
    assert median([4.0, 1.0, 2.0, 3.0]) == 2.5
    assert median(xs) == statistics.median(xs)


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


@pytest.mark.parametrize("n, q", [(9, None), (39, None), (40, 75.0), (99, 75.0),
                                  (100, 90.0), (200, 95.0), (1000, 99.0),
                                  (10000, 99.9)])
def test_tail_percentile_keeps_ten_samples_beyond(n, q):
    assert tail_percentile(n) == q
    if q is not None:
        assert n * (1 - q / 100) >= 10 - 1e-9


def test_summarize_reports_count_and_tail():
    s = summarize([float(k) for k in range(100)])
    assert s["n"] == 100 and s["median"] == 49.5
    assert s["tail_pct"] == 90.0 and s["tail"] == pytest.approx(89.1)
    assert summarize([1.0, 2.0])["tail"] is None


# -- self time -------------------------------------------------------------------

def test_self_time_subtracts_children():
    spans = [("root", 0.0, 10.0, -1),
             ("a", 1.0, 3.0, 0),
             ("b", 4.0, 8.0, 0),
             ("b.1", 5.0, 6.0, 2)]
    assert self_times(spans) == [4.0, 2.0, 3.0, 1.0]
    assert sum(self_times(spans)) == 10.0


# -- DE accept ratio ------------------------------------------------------------

def test_accept_ratio_replays_greedy_selection():
    evals = [(0, 0, 0, 5.0), (0, 0, 1, 3.0),
             (0, 1, 0, 4.0),   # 4 <= 5: accepted
             (0, 1, 1, 3.5),   # 3.5 > 3: rejected
             (0, 2, 0, 4.0),   # tie with the accepted 4: accepted
             (0, 2, 1, 3.0),   # tie with 3: accepted
             (1, 0, 0, 9.0),   # another run keeps its own slots
             (1, 1, 0, 9.5)]
    assert accept_ratio(evals) == (3, 5)


def _traced_minimize_ratio(value_of_generation):
    from vqf.optimize import DeConfig, minimize
    from tracing import _traced_minimize
    tracer = Tracer()
    traced = _traced_minimize(tracer, minimize)

    def objective(x, key):
        return value_of_generation(key[0])

    res = traced(objective, DeConfig(dim=2, population_size=5,
                                     max_generations=3, tol=0.0, seed=1))
    evals = [((0, s[3]), s[4]["gen"], s[4]["member"], s[4]["value"])
             for s in tracer.spans if s[0] == "optimize.objective"]
    assert len(evals) == res.evaluation_count
    return accept_ratio(evals)


@pytest.mark.parametrize("value, expected", [
    (lambda gen: -gen, (15, 15)),    # every trial improves
    (lambda gen: gen, (0, 15)),      # every trial is worse
    (lambda gen: 1.0, (15, 15)),     # ties are accepted (<=)
])
def test_accept_ratio_through_real_minimize(value, expected):
    assert _traced_minimize_ratio(value) == expected


# -- instrumentation ------------------------------------------------------------

def test_wrapped_objective_keeps_key_and_results():
    import inspect
    from vqf.optimize import DeConfig, minimize, _accepts_key
    from tracing import _traced_minimize

    def objective(x, key):
        return float((x[0] - 1.0) ** 2 + x[1] + 1e-3 * key[1])

    cfg = DeConfig(dim=2, population_size=6, max_generations=4, seed=3)
    tracer = Tracer()
    seen = []
    inner = tracer.wrap(objective, "optimize.objective")
    assert "key" in inspect.signature(inner).parameters
    assert _accepts_key(inner)

    def spy(obj, c):
        seen.append(_accepts_key(obj))
        return minimize(obj, c)
    traced = _traced_minimize(tracer, spy)
    plain, wrapped = minimize(objective, cfg), traced(objective, cfg)
    assert seen == [True]
    assert list(plain.best_params) == list(wrapped.best_params)
    assert plain.history == wrapped.history


@pytest.fixture()
def restore_sites():
    import vqf.circuit
    import vqf.cli
    import vqf.evaluate
    import vqf.optimize
    owners = (vqf.cli, vqf.evaluate, vqf.optimize, vqf.circuit.ParamCircuit)
    saved = [(o, dict(vars(o))) for o in owners]
    yield
    for owner, attrs in saved:
        for name, value in attrs.items():
            if callable(value) and getattr(owner, name, None) is not value:
                setattr(owner, name, value)


SWEEP = ["sweep", "--n", "35", "--bits", "3", "--transform", "GROBNER",
         "--p", "1", "--level", "1.0", "--seed", "0", "--train-shots", "64",
         "--report-shots", "128", "--population", "4", "--generations", "2"]


def test_traced_run_writes_the_same_report(tmp_path, monkeypatch, restore_sites):
    import vqf.cli
    monkeypatch.chdir(tmp_path)
    assert vqf.cli.main(SWEEP + ["--out", "plain"]) == 0
    tracer = Tracer()
    assert install(tracer) == []
    assert tracer.wrap(vqf.cli.main, "cli.main")(SWEEP + ["--out", "traced"]) == 0
    for plain in (tmp_path / "plain").glob("nrpg-report-*.json"):
        assert (tmp_path / "traced" / plain.name).read_bytes() == plain.read_bytes()

    names = {s[0] for s in tracer.spans}
    assert {"cli.main", "encoder.preprocess", "evaluate.sweep", "sim.sample",
            "sim.estimate_expectation", "optimize.minimize", "optimize.objective",
            "circuit.bind", "cli.write"} <= names
    wall = tracer.spans[0][2] - tracer.spans[0][1]
    m = per_layer([(tracer.spans, wall)])
    assert set(m) == set(PER_LAYER_UNITS)
    layer_self = sum(m[k] for k in PER_LAYER_UNITS
                     if k.endswith(".self_s") and not k.startswith("trace."))
    assert layer_self + m["trace.unattributed_s"] == pytest.approx(wall)
    assert m["evaluate.points"] == 2
    assert m["optimize.train.calls"] == 2
    assert m["sim.sample.objective.noisy.calls"] == m["optimize.evals"] / 2
    assert 0.0 <= m["optimize.accept_ratio"] <= 1.0
    assert m["cli.artifact_bytes"] == sum(
        p.stat().st_size for p in (tmp_path / "traced").iterdir())


def test_sample_is_noisy_only_where_the_simulator_says_so():
    from types import SimpleNamespace
    from vqf.sim import NoiseModel, _noise_active
    from tracing import _sample_attrs
    attrs = _sample_attrs("report", _noise_active)
    circuit = SimpleNamespace(gates=[0, 1, 2], n_qubits=2)
    out = SimpleNamespace(total=8, counts={"00": 8})
    silent = NoiseModel(p1=0.0, p2=0.0, decoherence_on=False)   # scale 1, no rates
    assert not attrs((circuit, silent), {}, out)["noisy"]
    assert attrs((circuit, NoiseModel()), {}, out)["noisy"]


def test_failed_rounds_give_no_samples():
    from run import _e2e

    def round_(wall, failed, traced=False):
        return {"traced": traced, "failed": failed, "wall_s": wall, "cpu_s": wall,
                "peak_rss_mb": 1.0, "setup_s": [0.1]}
    assert _e2e([round_(5.0, False), round_(0.5, True),
                 round_(9.0, False, traced=True)])["wall_s"] == [5.0]
    assert _e2e([round_(0.5, True)]) == {"wall_s": [], "cpu_s": [],
                                         "peak_rss_mb": [], "setup_s": []}


def test_benchmark_json_names_every_emitted_metric():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    from run import E2E_UNITS, workloads
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == PER_LAYER_UNITS
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == E2E_UNITS
    assert [w["name"] for w in doc["workloads"]] == list(workloads(0, 1))
