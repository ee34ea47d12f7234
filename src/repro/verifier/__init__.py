"""The verification backend: the bounded prover that substitutes for
Dafny/Z3 in this reproduction.  It evaluates formulas with
:func:`repro.machine.evaluator.eval_formula`."""

from repro.verifier.prover import (  # noqa: F401
    DEFAULT_PROVER,
    PROVED,
    Prover,
    ProverConfig,
    REFUTED,
    SETTLED,
    TIMEOUT,
    UNKNOWN,
    Verdict,
)
