"""Variational quantum factoring workbench.

Pipeline: encode an odd semiprime as a pseudo-Boolean clause system,
preprocess it classically, turn the squared-clause cost into a diagonal
spin Hamiltonian under one of four transformations, compile a QAOA ansatz,
train it on a noisy simulator, and score each transformation's
noise resilience.
"""

from .errors import VqfError
from .pboly import BoolPoly, Var, brute_force_minima
from .encoder import (FactoringInstance, ClauseSystem, build_clauses,
                      preprocess, cost_function, decode_factors,
                      load_clause_file, write_clause_file,
                      make_random_clause_system)
from .transform import (TransformKind, DIRECT, SCHALLER, GROBNER, SIM_GROBNER,
                        ALL_KINDS, apply_transform, Hamiltonian,
                        to_hamiltonian)
from .circuit import (Gate, ParamCircuit, BoundCircuit, CircuitStats,
                      compile_qaoa, bind, stats, export_qasm, parse_qasm)
from .sim import (NoiseModel, SampleSet, simulate_statevector, sample,
                  estimate_expectation, success_probability)
from .optimize import DeConfig, OptResult, minimize, train_qaoa
from .evaluate import (NrpgReport, SweepConfig, compute_rand, nrpg, sweep,
                       masking_experiment, select_circuit,
                       minimizer_indices, reports_to_csv, reports_to_json,
                       reports_from_json, reports_to_plot_tsv)

__version__ = "0.1.0"
