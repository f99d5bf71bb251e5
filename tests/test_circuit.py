"""Circuit compilation: gate layout, parameter binding, stats, QASM."""

import math

import pytest

from vqf.circuit import (
    BoundCircuit,
    CircuitStats,
    Gate,
    ParamCircuit,
    bind,
    compile_qaoa,
    export_qasm,
    parse_qasm,
    stats,
)
from vqf.errors import DimensionMismatch, EmptyHamiltonian, InvalidConfig, ParseError
from vqf.pboly import parse_poly, pvar, qvar
from vqf.transform import ALL_KINDS, Hamiltonian, apply_transform, to_hamiltonian

TWO_QUBIT_H = to_hamiltonian(parse_poly("1 - p1 - q1 + 2*p1*q1"))


# -- gate validation -----------------------------------------------------------

def test_gate_rejects_malformed():
    with pytest.raises(ValueError):
        Gate("CNOT", (1, 1))
    with pytest.raises(ValueError):
        Gate("CNOT", (0,))
    with pytest.raises(ValueError):
        Gate("H", (0,), angle=0.5)
    with pytest.raises(ValueError):
        Gate("RZ", (0,))  # neither angle nor param
    with pytest.raises(ValueError):
        Gate("RZ", (0,), angle=1.0, param=("gamma", 0, 1.0))
    with pytest.raises(ValueError):
        Gate("SWAP", (0, 1))


def test_gate_immutable():
    g = Gate("H", (0,))
    with pytest.raises(AttributeError):
        g.kind = "RX"


# -- compilation ----------------------------------------------------------------

def test_compile_two_qubit_structure():
    # ZZ term on (0, 1): H wall, ladder, RZ on the top qubit, ladder back,
    # RX wall; the RZ scale is twice the term coefficient
    c = compile_qaoa(TWO_QUBIT_H, 1)
    assert c.n_qubits == 2 and c.p == 1
    assert c.gates == [
        Gate("H", (0,)),
        Gate("H", (1,)),
        Gate("CNOT", (0, 1)),
        Gate("RZ", (1,), param=("gamma", 0, 1.0)),
        Gate("CNOT", (0, 1)),
        Gate("RX", (0,), param=("beta", 0, 2.0)),
        Gate("RX", (1,), param=("beta", 0, 2.0)),
    ]


def test_compile_weight_four_term_uses_six_cnots():
    h = Hamiltonian(0.0, [(0.125, (0, 1, 2, 3))],
                    {pvar(1): 0, pvar(2): 1, qvar(1): 2, qvar(2): 3})
    c = compile_qaoa(h, 1)
    cnots = [g for g in c.gates if g.kind == "CNOT"]
    assert len(cnots) == 6
    # ascending ladder then its mirror
    assert [g.qubits for g in cnots] == [
        (0, 1), (1, 2), (2, 3), (2, 3), (1, 2), (0, 1)]
    rz = [g for g in c.gates if g.kind == "RZ"]
    assert len(rz) == 1 and rz[0].qubits == (3,)
    assert rz[0].param == ("gamma", 0, 0.25)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_compile_weight_k_cnot_count(k):
    h = Hamiltonian(0.0, [(1.0, tuple(range(k)))],
                    {pvar(i + 1): i for i in range(k)})
    c = compile_qaoa(h, 1)
    assert sum(g.kind == "CNOT" for g in c.gates) == 2 * (k - 1)


def test_compile_orders_terms_by_weight_then_qubits():
    h = Hamiltonian(0.0, [(1.0, (0, 2)), (1.0, (1,)), (1.0, (0, 1))],
                    {pvar(1): 0, pvar(2): 1, qvar(1): 2})
    c = compile_qaoa(h, 1)
    rz_targets = [g.qubits[0] for g in c.gates if g.kind == "RZ"]
    # weight-1 term first, then (0,1) before (0,2)
    assert rz_targets == [1, 1, 2]


def test_compile_levels_share_structure():
    c1 = compile_qaoa(TWO_QUBIT_H, 1)
    c3 = compile_qaoa(TWO_QUBIT_H, 3)
    per_level = len(c1.gates) - c1.n_qubits
    assert len(c3.gates) == c3.n_qubits + 3 * per_level
    levels = {g.param[1] for g in c3.gates if g.param is not None}
    assert levels == {0, 1, 2}


def test_compile_rejects_bad_inputs():
    with pytest.raises(InvalidConfig):
        compile_qaoa(TWO_QUBIT_H, 0)
    with pytest.raises(EmptyHamiltonian):
        compile_qaoa(Hamiltonian(1.5, [], {}), 1)


# -- binding ----------------------------------------------------------------------

def test_bind_resolves_scaled_angles():
    c = compile_qaoa(TWO_QUBIT_H, 2)
    b = c.bind([0.3, 0.7], [0.1, 0.2])
    angles = [g.angle for g in b.gates if g.kind == "RZ"]
    assert angles == pytest.approx([0.3, 0.7])
    rx = [g.angle for g in b.gates if g.kind == "RX"]
    assert rx == pytest.approx([0.2, 0.2, 0.4, 0.4])
    assert all(g.param is None for g in b.gates)


def test_bind_dimension_mismatch():
    c = compile_qaoa(TWO_QUBIT_H, 2)
    with pytest.raises(DimensionMismatch):
        c.bind([0.1], [0.2, 0.3])
    with pytest.raises(DimensionMismatch):
        bind(c, [0.1, 0.2], [0.3])


# -- stats ------------------------------------------------------------------------

def test_stats_asap_depth_by_hand():
    b = compile_qaoa(TWO_QUBIT_H, 1).bind([0.5], [0.5])
    st = stats(b)
    # H|H then CNOT, RZ, CNOT, then the two RX share a layer
    assert st == CircuitStats(n_qubits=2, n_single_gates=5, n_cnot=2, depth=5)
    assert st.cnot_per_qubit == 1.0


def test_stats_parallel_gates_share_layer():
    gates = [Gate("H", (0,)), Gate("H", (1,)), Gate("H", (2,)),
             Gate("CNOT", (0, 1)), Gate("RZ", (2,), angle=0.1)]
    st = stats(BoundCircuit(3, gates))
    assert st.depth == 2
    assert st.n_single_gates == 4 and st.n_cnot == 1


FROZEN_P1_STATS = [
    ("system_143", "DIRECT", 4, 34, 44),
    ("system_143", "SCHALLER", 4, 20, 27),
    ("system_143", "GROBNER", 6, 18, 21),
    ("system_143", "SIM_GROBNER", 6, 26, 25),
    ("system_291311", "DIRECT", 6, 74, 79),
    ("system_291311", "SCHALLER", 6, 46, 45),
    ("system_291311", "GROBNER", 9, 38, 30),
    ("system_291311", "SIM_GROBNER", 9, 50, 34),
]


@pytest.mark.parametrize("fixture,kind_name,n_qubits,n_cnot,depth", FROZEN_P1_STATS)
def test_frozen_p1_stats(fixture, kind_name, n_qubits, n_cnot, depth, request):
    cs = request.getfixturevalue(fixture)
    kind = next(k for k in ALL_KINDS if k.name == kind_name)
    poly, _ = apply_transform(cs, kind)
    st = stats(compile_qaoa(to_hamiltonian(poly), 1))
    assert (st.n_qubits, st.n_cnot, st.depth) == (n_qubits, n_cnot, depth)


def test_stats_scale_linearly_with_p(system_143):
    poly, _ = apply_transform(system_143, ALL_KINDS[0])
    h = to_hamiltonian(poly)
    s1 = stats(compile_qaoa(h, 1))
    s3 = stats(compile_qaoa(h, 3))
    assert s3.n_cnot == 3 * s1.n_cnot


def test_stats_as_dict_has_derived_field():
    st = CircuitStats(4, 10, 8, 12)
    d = st.as_dict()
    assert d["cnot_per_qubit"] == 2.0
    assert d["n_qubits"] == 4 and d["depth"] == 12


# -- serialization -------------------------------------------------------------------

def test_param_circuit_json_round_trip():
    c = compile_qaoa(TWO_QUBIT_H, 2)
    back = ParamCircuit.from_json(c.to_json())
    assert back.n_qubits == c.n_qubits and back.p == c.p
    assert back.gates == c.gates


def test_bound_circuit_json_round_trip():
    b = compile_qaoa(TWO_QUBIT_H, 1).bind([0.25], [1.5])
    back = BoundCircuit.from_json(b.to_json())
    assert back.gates == b.gates


def test_circuit_json_rejects_garbage():
    with pytest.raises(ParseError):
        ParamCircuit.from_json("[]")
    with pytest.raises(ParseError):
        BoundCircuit.from_json('{"n_qubits": 2}')


@pytest.mark.parametrize("cls, gate", [
    (BoundCircuit, '{"kind": "RZ", "qubits": [0], "angle": Infinity}'),
    (BoundCircuit, '{"kind": "RX", "qubits": [1], "angle": NaN}'),
    (BoundCircuit, '{"kind": "RX", "qubits": [1], "angle": "-inf"}'),
    (ParamCircuit, '{"kind": "RZ", "qubits": [0], "param": ["gamma", 0, NaN]}'),
    (ParamCircuit, '{"kind": "RX", "qubits": [1], "param": ["beta", 0, -Infinity]}'),
    (ParamCircuit, '{"kind": "RX", "qubits": [1], "angle": Infinity}'),
], ids=["angle-inf", "angle-nan", "angle-str", "scale-nan", "scale-neg-inf",
        "param-circuit-angle"])
def test_circuit_json_rejects_non_finite_angles(cls, gate):
    # json.loads reads NaN and Infinity; the circuit must not
    text = f'{{"n_qubits": 2, "p": 1, "gates": [{gate}]}}'
    with pytest.raises(ParseError, match="not finite"):
        cls.from_json(text)


# -- QASM ------------------------------------------------------------------------------

def test_qasm_round_trip():
    b = compile_qaoa(TWO_QUBIT_H, 2).bind([0.3, -0.9], [0.1, math.pi])
    text = export_qasm(b)
    assert text.startswith("OPENQASM 2.0;")
    back = parse_qasm(text)
    assert back.n_qubits == b.n_qubits
    assert back.gates == b.gates


def test_qasm_parse_reports_line_numbers():
    text = 'OPENQASM 2.0;\nqreg q[2];\nfrobnicate q[0];\n'
    with pytest.raises(ParseError, match="line 3"):
        parse_qasm(text)


def test_qasm_parse_rejects_gate_before_qreg():
    with pytest.raises(ParseError, match="before qreg"):
        parse_qasm("h q[0];\nqreg q[1];\n")


def test_qasm_parse_rejects_double_qreg():
    with pytest.raises(ParseError, match="second qreg"):
        parse_qasm("qreg q[1];\nqreg q[2];\n")


def test_qasm_parse_skips_comments_and_blanks():
    back = parse_qasm("// a comment\n\nqreg q[1];\nh q[0];\nrx(0.5) q[0];\n")
    assert back.gates == [Gate("H", (0,)), Gate("RX", (0,), angle=0.5)]


@pytest.mark.parametrize("line", [
    "h q[0],q[1];",         # a second operand on a one-qubit gate
    "rx(0.5) q[0],q[1];",
    "h(0.3) q[0];",         # an angle on a gate that takes none
    "cx(0.3) q[0],q[1];",
    "rz q[0];",             # no angle
    "rx(half) q[0];",
    "cx q[0];",
    "cx q[1],q[1];",        # a repeated qubit
    "cx q[0],q[2];",        # outside the register
    "h q[2];",
    "rx(nan) q[1];",        # a non-finite angle
    "rz(inf) q[0];",
    "rx(-Infinity) q[0];",
])
def test_qasm_parse_rejects_malformed_gates(line):
    with pytest.raises(ParseError, match="line 3"):
        parse_qasm(f"OPENQASM 2.0;\nqreg q[2];\n{line}\n")
