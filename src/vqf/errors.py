"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes, so every anticipated failure mode
raises a subclass of VqfError rather than a bare ValueError.
"""


class VqfError(Exception):
    """Base class for all errors raised by this package."""


class ConflictingFix(VqfError):
    """A variable was assigned two distinct substitution targets."""


class MissingVariable(VqfError):
    """An assignment does not cover a required variable."""


class TooManyVariables(VqfError):
    """Exhaustive enumeration was requested above the variable cap."""


class ParseError(VqfError):
    """A polynomial or clause file could not be parsed."""


class InfeasibleInstance(VqfError):
    """The factoring instance is malformed (bit width inconsistent with N)."""


class Infeasible(VqfError):
    """The clause system admits no satisfying assignment."""


class UndecomposableClause(VqfError):
    """A clause or monomial has no valid product split for the transformation."""


class InvalidPenaltyCoefficients(VqfError):
    """Penalty coefficients violate the validity constraints."""


class EmptyHamiltonian(VqfError):
    """The Hamiltonian has no Pauli terms to compile."""


class DimensionMismatch(VqfError):
    """Parameter vector length does not match the circuit's layer count."""


class InvalidConfig(VqfError):
    """An optimizer or run configuration is out of range."""


class TooManyQubits(VqfError):
    """The circuit exceeds the simulator's qubit cap."""


class DegenerateBaseline(VqfError):
    """Noiseless success probability is not above random guessing."""


class NoFeasibleCandidate(VqfError):
    """No compiled circuit fits the qubit budget."""
