"""QAOA circuit compilation over the {H, RX, RZ, CNOT} basis.

A diagonal Ising cost compiles into the standard alternating structure: a
Hadamard wall, then per level one cost layer (a CNOT ladder + RZ + reversed
ladder per term) and one RX mixer wall.  Angles stay symbolic (scaled
references to the level's gamma or beta) until `bind` resolves them, so one
compiled circuit serves a whole training run.  Depth is as-soon-as-possible
layering on all-to-all connectivity; there is no routing and no gate
cancellation.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .errors import DimensionMismatch, EmptyHamiltonian, InvalidConfig, ParseError
from .transform import Hamiltonian

# A symbolic angle is (family, level, scale): angle = scale * family[level].
ParamRef = Tuple[str, int, float]

_GATE_KINDS = ("H", "RX", "RZ", "CNOT")


@dataclass(frozen=True, slots=True)
class Gate:
    """One gate: H, RX, RZ (one qubit) or CNOT (control, target)."""

    kind: str
    qubits: Tuple[int, ...]
    angle: Optional[float] = None
    param: Optional[ParamRef] = None

    def __post_init__(self):
        kind, qubits, angle, param = self.kind, self.qubits, self.angle, self.param
        # `bind` builds thousands of gates per training run from fields that
        # are already coerced; storing them again would cost measurable time
        if type(qubits) is not tuple or not all(type(q) is int for q in qubits):
            qubits = tuple(int(q) for q in qubits)
            object.__setattr__(self, "qubits", qubits)
        if kind not in _GATE_KINDS:
            raise ValueError(f"unknown gate kind {kind!r}")
        if kind == "CNOT":
            if len(qubits) != 2 or qubits[0] == qubits[1]:
                raise ValueError(f"CNOT needs two distinct qubits, got {qubits}")
            if angle is not None or param is not None:
                raise ValueError("CNOT carries no angle")
        else:
            if len(qubits) != 1:
                raise ValueError(f"{kind} acts on one qubit, got {qubits}")
            if kind == "H":
                if angle is not None or param is not None:
                    raise ValueError("H carries no angle")
            elif (angle is None) == (param is None):
                raise ValueError(f"{kind} needs exactly one of angle or param")
        if angle is not None and type(angle) is not float:
            object.__setattr__(self, "angle", float(angle))

    def __repr__(self):
        if self.kind in ("H", "CNOT"):
            return f"Gate({self.kind}, {self.qubits})"
        ang = self.angle if self.angle is not None else self.param
        return f"Gate({self.kind}, {self.qubits}, {ang})"


def _gate_to_doc(g: Gate) -> dict:
    doc: dict = {"kind": g.kind, "qubits": list(g.qubits)}
    if g.angle is not None:
        doc["angle"] = g.angle
    if g.param is not None:
        doc["param"] = [g.param[0], g.param[1], g.param[2]]
    return doc


def _finite(g: Gate) -> Gate:
    """`g` itself, if its angle or parameter scale is finite.

    The parsers check this, not `Gate`, which `bind` builds per gate: a NaN
    angle would otherwise simulate without complaint.
    """
    for x in (g.angle, None if g.param is None else g.param[2]):
        if x is not None and not math.isfinite(x):
            raise ValueError(f"{g.kind} angle {x} is not finite")
    return g


def _gate_from_doc(doc: dict) -> Gate:
    param = doc.get("param")
    if param is not None:
        param = (str(param[0]), int(param[1]), float(param[2]))
    return _finite(Gate(doc["kind"], doc["qubits"], doc.get("angle"), param))


@dataclass(frozen=True, slots=True, eq=False)
class _CircuitBase:
    n_qubits: int
    gates: List[Gate]

    def __post_init__(self):
        for g in self.gates:
            if max(g.qubits) >= self.n_qubits:
                raise ValueError(f"gate {g!r} outside {self.n_qubits}-qubit register")
        object.__setattr__(self, "n_qubits", int(self.n_qubits))
        object.__setattr__(self, "gates", list(self.gates))


@dataclass(frozen=True, slots=True, eq=False)
class ParamCircuit(_CircuitBase):
    """Gate list with symbolic angles; `p` cost/mixer levels.

    Parameter order for `bind` is (gamma_1..gamma_p, beta_1..beta_p) given
    as two separate vectors.
    """

    p: int

    def __post_init__(self):
        _CircuitBase.__post_init__(self)
        object.__setattr__(self, "p", int(self.p))

    def bind(self, gamma: Sequence[float], beta: Sequence[float]) -> "BoundCircuit":
        return bind(self, gamma, beta)

    def to_json(self) -> str:
        doc = {"n_qubits": self.n_qubits, "p": self.p,
               "gates": [_gate_to_doc(g) for g in self.gates]}
        return json.dumps(doc, indent=2)

    @staticmethod
    def from_json(text: str) -> "ParamCircuit":
        try:
            doc = json.loads(text)
            gates = [_gate_from_doc(d) for d in doc["gates"]]
            return ParamCircuit(doc["n_qubits"], gates, doc["p"])
        except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
            raise ParseError(f"bad circuit JSON: {exc}") from exc

    def __repr__(self):
        return f"ParamCircuit(n_qubits={self.n_qubits}, p={self.p}, gates={len(self.gates)})"


@dataclass(frozen=True, slots=True, eq=False)
class BoundCircuit(_CircuitBase):
    """Gate list with every angle concrete, ready for simulation."""

    def __post_init__(self):
        for g in self.gates:
            if g.param is not None:
                raise ValueError(f"unbound parameter in {g!r}")
        _CircuitBase.__post_init__(self)

    def to_json(self) -> str:
        doc = {"n_qubits": self.n_qubits,
               "gates": [_gate_to_doc(g) for g in self.gates]}
        return json.dumps(doc, indent=2)

    @staticmethod
    def from_json(text: str) -> "BoundCircuit":
        try:
            doc = json.loads(text)
            return BoundCircuit(doc["n_qubits"], [_gate_from_doc(d) for d in doc["gates"]])
        except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
            raise ParseError(f"bad circuit JSON: {exc}") from exc

    def __repr__(self):
        return f"BoundCircuit(n_qubits={self.n_qubits}, gates={len(self.gates)})"


@dataclass(frozen=True, slots=True)
class CircuitStats:
    """Gate-count and depth summary of one circuit."""

    n_qubits: int
    n_single_gates: int
    n_cnot: int
    depth: int

    @property
    def cnot_per_qubit(self) -> float:
        return self.n_cnot / self.n_qubits

    def as_dict(self) -> dict:
        return {**dataclasses.asdict(self), "cnot_per_qubit": self.cnot_per_qubit}


def compile_qaoa(h: Hamiltonian, p: int) -> ParamCircuit:
    """Compile `p` QAOA levels for a diagonal Hamiltonian.

    Layout: one H per qubit, then per level k the cost terms in (weight,
    qubit-tuple) order, each as an ascending CNOT ladder, RZ(2*gamma_k*c)
    on the term's highest qubit, and the reversed ladder, followed by
    RX(2*beta_k) on every qubit.  The Hamiltonian offset is a global phase
    and compiles to nothing.
    """
    if p < 1:
        raise InvalidConfig(f"QAOA level must be >= 1, got {p}")
    if h.n_qubits < 1 or not h.terms:
        raise EmptyHamiltonian("cost Hamiltonian has no qubits or no terms")
    n = h.n_qubits
    terms = sorted(h.terms, key=lambda t: (len(t[1]), t[1]))
    gates: List[Gate] = [Gate("H", (q,)) for q in range(n)]
    for level in range(p):
        for coeff, qs in terms:
            for a, b in zip(qs, qs[1:]):
                gates.append(Gate("CNOT", (a, b)))
            gates.append(Gate("RZ", (qs[-1],), param=("gamma", level, 2.0 * coeff)))
            for a, b in zip(qs[-2::-1], qs[:0:-1]):
                gates.append(Gate("CNOT", (a, b)))
        gates.extend(Gate("RX", (q,), param=("beta", level, 2.0)) for q in range(n))
    return ParamCircuit(n, gates, p)


def bind(circuit: ParamCircuit, gamma: Sequence[float], beta: Sequence[float]) -> BoundCircuit:
    """Resolve symbolic angles against one (gamma, beta) parameter point."""
    if len(gamma) != circuit.p or len(beta) != circuit.p:
        raise DimensionMismatch(
            f"need {circuit.p} gammas and betas, got {len(gamma)} and {len(beta)}")
    values = {"gamma": [float(x) for x in gamma], "beta": [float(x) for x in beta]}
    if not all(map(math.isfinite, values["gamma"] + values["beta"])):
        raise InvalidConfig(f"angles must be finite, got gammas {values['gamma']} "
                            f"and betas {values['beta']}")
    gates: List[Gate] = []
    for g in circuit.gates:
        if g.param is None:
            gates.append(g)
        else:
            family, level, scale = g.param
            gates.append(Gate(g.kind, g.qubits, angle=scale * values[family][level]))
    return BoundCircuit(circuit.n_qubits, gates)


def stats(circuit) -> CircuitStats:
    """Counts plus depth under as-soon-as-possible layering.

    A gate lands on layer 1 + max(busy layer of its qubits); gates touching
    disjoint qubits share layers.  All-to-all connectivity is assumed.
    """
    free = [0] * circuit.n_qubits
    n_single = 0
    n_cnot = 0
    for g in circuit.gates:
        if g.kind == "CNOT":
            n_cnot += 1
        else:
            n_single += 1
        layer = max(free[q] for q in g.qubits) + 1
        for q in g.qubits:
            free[q] = layer
    return CircuitStats(circuit.n_qubits, n_single, n_cnot, max(free, default=0))


_QASM_HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'
_QASM_KINDS = {"h": "H", "rx": "RX", "rz": "RZ", "cx": "CNOT"}
_QASM_LINE = re.compile(
    r"^(h|rx|rz|cx)\s*(?:\(([^)]+)\))?\s+q\[(\d+)\](?:\s*,\s*q\[(\d+)\])?;$")


def export_qasm(circuit: BoundCircuit) -> str:
    """OpenQASM 2.0 text; angles use shortest round-trip float repr."""
    lines = [_QASM_HEADER + f"qreg q[{circuit.n_qubits}];"]
    for g in circuit.gates:
        if g.kind == "H":
            lines.append(f"h q[{g.qubits[0]}];")
        elif g.kind == "CNOT":
            lines.append(f"cx q[{g.qubits[0]}],q[{g.qubits[1]}];")
        else:
            lines.append(f"{g.kind.lower()}({g.angle!r}) q[{g.qubits[0]}];")
    return "\n".join(lines) + "\n"


def parse_qasm(text: str) -> BoundCircuit:
    """Parse the subset of OpenQASM 2.0 emitted by `export_qasm`."""
    n_qubits = None
    gates: List[Gate] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if (not line or line.startswith("//") or line.startswith("OPENQASM")
                or line.startswith("include")):
            continue
        m = re.match(r"^qreg\s+q\[(\d+)\];$", line)
        if m:
            if n_qubits is not None:
                raise ParseError(f"line {lineno}: second qreg declaration")
            n_qubits = int(m.group(1))
            continue
        m = _QASM_LINE.match(line)
        if m is None:
            raise ParseError(f"line {lineno}: cannot parse {line!r}")
        op, angle, *operands = m.groups()
        if n_qubits is None:
            raise ParseError(f"line {lineno}: gate before qreg declaration")
        qubits = tuple(int(q) for q in operands if q is not None)
        if max(qubits) >= n_qubits:
            raise ParseError(f"line {lineno}: qubit {max(qubits)} outside the "
                             f"{n_qubits}-qubit register")
        try:  # Gate checks the operand count, repeats and the angle
            gates.append(_finite(Gate(_QASM_KINDS[op], qubits,
                                      None if angle is None else float(angle))))
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {line!r}: {exc}") from exc
    if n_qubits is None:
        raise ParseError("no qreg declaration found")
    return BoundCircuit(n_qubits, gates)
