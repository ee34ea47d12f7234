"""Shared error types and source locations for the Armada reproduction.

Every phase of the pipeline (lexing, parsing, resolution, type checking,
state-machine translation, proof generation, verification) raises a
subclass of :class:`ArmadaError` carrying an optional source location so
that callers can report errors the way the Armada tool does: with the
offending program position.
"""

from __future__ import annotations

from repro.record import Slotted


class SourceLoc(Slotted):
    """A position in an Armada source text (1-based line and column).

    Built once per token, so it writes out its ``__init__``; immutable
    by convention.
    """

    __slots__ = ("line", "column", "filename")

    def __init__(self, line: int, column: int,
                 filename: str = "<armada>") -> None:
        self.line = line
        self.column = column
        self.filename = filename

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}"


#: Placeholder location for synthesized nodes (e.g. proof-generated code).
NOWHERE = SourceLoc(0, 0, "<generated>")


class ArmadaError(Exception):
    """Base class for all errors raised by the Armada toolchain."""

    def __init__(self, message: str, loc: SourceLoc | None = None) -> None:
        self.message = message
        self.loc = loc
        super().__init__(f"{loc}: {message}" if loc else message)


class LexError(ArmadaError):
    """Raised when the lexer encounters an invalid token."""


class ParseError(ArmadaError):
    """Raised when the parser encounters invalid syntax."""


class ResolveError(ArmadaError):
    """Raised when name resolution fails (unknown identifiers, etc.)."""


class TypeError_(ArmadaError):
    """Raised when type checking fails.

    Named with a trailing underscore to avoid shadowing the builtin.
    """


class CoreViolation(ArmadaError):
    """Raised when a level-0 (implementation) program uses a non-core
    feature that the compiler would reject (§3.1.1)."""


class TranslationError(ArmadaError):
    """Raised when state-machine translation fails."""


class StrategyError(ArmadaError):
    """Raised when a proof strategy detects that the two levels do not
    exhibit the correspondence the recipe claims (the 'error message
    indicating the problem' path of §2.2)."""


class ProofFailure(ArmadaError):
    """Raised when a generated lemma fails verification (the analogue of
    a Dafny verification error in §2.2)."""


class StateBudgetExceeded(ArmadaError):
    """Raised when bounded exploration exhausts its state budget before
    covering the reachable state space.  Callers must never treat a
    truncated enumeration as exhaustive: an obligation or a strategy
    that consumes ``Explorer.reachable_states`` sees this error turn
    into an *inconclusive* verdict, neither passing on partial coverage
    nor claiming a refutation."""

    def __init__(self, max_states: int, message: str | None = None) -> None:
        self.max_states = max_states
        super().__init__(
            message
            or (
                f"state budget exhausted after {max_states} states; "
                "bounded exploration is incomplete (raise --max-states)"
            )
        )


class ObligationTimeout(Exception):
    """An obligation exceeded its wall-clock deadline.  Not an
    :class:`ArmadaError`: it becomes a TIMEOUT verdict, which the engine
    reports as inconclusive, never as refuted."""

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        super().__init__(
            f"obligation exceeded its {seconds:g}s wall-clock deadline"
        )


class CompileError(ArmadaError):
    """Raised by the compiler back ends."""


class ExecutionError(ArmadaError):
    """Raised by the concrete runtime on unrecoverable misuse (not for
    modelled undefined behaviour, which terminates the state machine)."""
