"""Every `vqf` name that the benchmark in `bench/` reads still exists.

The harness runs `vqf.cli.main`, checks the written artifacts with the
encoder and `Hamiltonian`, and its tracer and harness tests read the
simulator's noise test and the optimizer's entry points.  The tracer
wraps the presolve names that `vqf.cli` and `vqf.evaluate` import, and
reads `free_vars` of `preprocess`'s first argument and of its result.  A name gone
from `src/` breaks the benchmark's output checks or a traced run, so
each one is looked up here.
"""

import importlib
import inspect

import pytest

_NAMES = [
    ("vqf.cli", "main"),
    ("vqf.cli", "preprocess"),
    ("vqf.cli", "build_clauses"),
    ("vqf.cli", "load_clause_file"),
    ("vqf.evaluate", "preprocess"),
    ("vqf.evaluate", "build_clauses"),
    ("vqf.encoder", "decode_factors"),
    ("vqf.encoder", "load_clause_file"),
    ("vqf.encoder", "ClauseSystem.free_vars"),
    ("vqf.transform", "Hamiltonian.from_json"),
    ("vqf.transform", "Hamiltonian.diagonal"),
    ("vqf.transform", "Hamiltonian.var_map"),
    ("vqf.sim", "_noise_active"),
    ("vqf.optimize", "minimize"),
    ("vqf.optimize", "_accepts_key"),
    ("vqf.optimize", "DeConfig"),
]


@pytest.mark.parametrize("module, name", _NAMES, ids=[f"{m}.{n}" for m, n in _NAMES])
def test_benchmark_name_exists(module, name):
    owner = importlib.import_module(module)
    *path, last = name.split(".")
    for part in path:
        owner = getattr(owner, part)
    # a dataclass field counts whether or not the class has slots
    assert hasattr(owner, last) or last in getattr(owner, "__dataclass_fields__", {})


def test_traced_preprocess_takes_its_clause_system_first_as_cs():
    # `_preprocess_attrs` reads the first positional argument, else `cs`
    from vqf.encoder import preprocess
    assert next(iter(inspect.signature(preprocess).parameters)) == "cs"
