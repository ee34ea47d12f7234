"""The bounded prover: this reproduction's stand-in for Dafny/Z3.

Decides validity of quantifier-free formulas over typed free variables
by *small-model enumeration plus corner-and-random sampling*:

* boolean variables are enumerated exhaustively;
* fixed-width integer variables are checked exhaustively at a reduced
  width (every value of a few low bits) and additionally probed at
  corner values (0, ±1, min, max, mid) and deterministic pseudo-random
  full-width samples;
* mathematical integers are probed over a symmetric window plus large
  magnitudes.

A counterexample refutes validity *soundly* (the formula really is
falsifiable).  The absence of a counterexample yields a *bounded*
verification verdict — the documented substitution for the paper's
SMT-backed unbounded proofs (see DESIGN.md).  The proof artifacts record
which verdict each lemma received.
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Any

from repro.lang import asts as ast
from repro.lang import types as ty
from repro.obs import OBS
from repro.record import Record
from repro.verifier.interp import UNDEF, interpret, is_undef

PROVED = "proved"
REFUTED = "refuted"
UNKNOWN = "unknown"
#: The obligation ran out of wall-clock budget (per-obligation deadline
#: or whole-chain deadline).  Like UNKNOWN it is *inconclusive*: the
#: engine must neither treat it as a refutation nor hang on it.
TIMEOUT = "timeout"

#: Statuses that settle the obligation (safe to cache).  A
#: TIMEOUT or UNKNOWN verdict is environment-dependent — a bigger
#: deadline or a healthier farm may settle it — so it is never cached.
SETTLED = (PROVED, REFUTED)


class Verdict(Record):
    """Outcome of a proof attempt."""

    status: str
    counterexample: dict[str, Any] | None = None
    assignments_checked: int = 0

    @property
    def ok(self) -> bool:
        return self.status == PROVED

    @property
    def inconclusive(self) -> bool:
        """Neither proved nor refuted: the obligation timed out, hit a
        state budget, or was cancelled by a drain.  Propagates through
        the engine as an inconclusive proof, never as a refutation."""
        return self.status not in SETTLED

    def __bool__(self) -> bool:
        return self.ok


class ProverConfig(Record):
    """Sampling budget of the bounded prover."""

    exhaustive_bits: int = 4
    random_samples: int = 32
    math_window: int = 9
    max_assignments: int = 250_000

    def fingerprint(self) -> str:
        """Stable identity of this budget, part of every proof-cache
        key: a different sampling budget may flip a bounded verdict, so
        cached verdicts must not survive a budget change."""
        return (
            f"prover-config/1:{self.exhaustive_bits}:"
            f"{self.random_samples}:{self.math_window}:"
            f"{self.max_assignments}"
        )


def _corner_values(t: ty.IntType) -> list[int]:
    corners = {0, 1, t.min_value, t.max_value, t.max_value // 2}
    if t.signed:
        corners |= {-1, t.min_value + 1}
    else:
        corners |= {t.max_value - 1}
    return sorted(corners)


def _pseudo_random(seed: str, t: ty.IntType, count: int) -> list[int]:
    values = []
    for i in range(count):
        digest = hashlib.sha256(f"{seed}:{i}".encode()).digest()
        raw = int.from_bytes(digest[:8], "big")
        values.append(t.wrap(raw))
    return values


def variable_domain(
    name: str, t: ty.Type, config: ProverConfig
) -> list[Any]:
    """The sampled domain of one free variable."""
    if isinstance(t, ty.BoolType):
        return [False, True]
    if isinstance(t, ty.IntType):
        small = list(range(0, min(1 << config.exhaustive_bits,
                                  t.max_value + 1)))
        if t.signed:
            low = max(t.min_value, -(1 << (config.exhaustive_bits - 1)))
            small = list(range(low, 1 << (config.exhaustive_bits - 1)))
        domain = set(small) | set(_corner_values(t))
        domain |= set(_pseudo_random(name, t, config.random_samples))
        return sorted(domain)
    if isinstance(t, ty.MathIntType):
        window = list(range(-config.math_window, config.math_window + 1))
        return window + [10**6, -(10**6), 2**40]
    if isinstance(t, ty.OptionType):
        from repro.machine.values import NONE_OPTION, some

        inner = variable_domain(name, t.element, config) \
            if not isinstance(t.element, ty.VoidType) else [0]
        return [NONE_OPTION] + [some(v) for v in inner[:4]]
    if isinstance(t, ty.SeqType):
        inner = variable_domain(name, t.element, config)[:3]
        return [(), tuple(inner[:1]), tuple(inner[:2])]
    # Pointers, structs, ...: a single opaque token; formulas over these
    # are handled structurally by the strategies, not by sampling.
    return [("$opaque", name)]


class Prover:
    """Bounded validity checker for quantifier-free Armada formulas."""

    def __init__(self, config: ProverConfig | None = None) -> None:
        self.config = config or ProverConfig()

    def fingerprint(self) -> str:
        return self.config.fingerprint()

    def prove_valid(
        self,
        goal: ast.Expr,
        variables: dict[str, ty.Type],
        assumptions: list[ast.Expr] | None = None,
        extra_env: dict[str, Any] | None = None,
    ) -> Verdict:
        """Check ``assumptions ==> goal`` for all sampled assignments.

        UNDEF in an assumption discharges the assignment (the hypothesis
        is not meaningful there); UNDEF in the goal refutes it (a proof
        obligation must be well-defined wherever its hypotheses hold),
        matching Dafny's well-definedness checking.
        """
        if not OBS.enabled:
            return self._prove_valid(goal, variables, assumptions,
                                     extra_env)
        with OBS.span("prove_valid", "phase"):
            verdict = self._prove_valid(goal, variables, assumptions,
                                        extra_env)
            OBS.count("prover.calls")
            OBS.count("prover.assignments_checked",
                      verdict.assignments_checked)
            return verdict

    def _prove_valid(
        self,
        goal: ast.Expr,
        variables: dict[str, ty.Type],
        assumptions: list[ast.Expr] | None = None,
        extra_env: dict[str, Any] | None = None,
    ) -> Verdict:
        assumptions = assumptions or []
        names = sorted(variables)
        domains = [
            variable_domain(n, variables[n], self.config) for n in names
        ]
        total = 1
        for d in domains:
            total *= max(1, len(d))
        if total > self.config.max_assignments:
            domains = self._shrink(domains)
        checked = 0
        for combo in itertools.product(*domains) if names else [()]:
            env: dict[Any, Any] = dict(zip(names, combo))
            if extra_env:
                env.update(extra_env)
            checked += 1
            if checked > self.config.max_assignments:
                break
            skip = False
            for assumption in assumptions:
                value = interpret(assumption, env)
                if is_undef(value) or not value:
                    skip = True
                    break
            if skip:
                continue
            result = interpret(goal, env)
            if is_undef(result) or not result:
                witness = {n: env[n] for n in names}
                return Verdict(REFUTED, witness, checked)
        return Verdict(PROVED, None, checked)

    def equivalent(
        self,
        left: ast.Expr,
        right: ast.Expr,
        variables: dict[str, ty.Type],
    ) -> Verdict:
        """Check that two expressions agree on all sampled assignments
        (including agreement on where they are undefined)."""
        if not OBS.enabled:
            return self._equivalent(left, right, variables)
        with OBS.span("equivalent", "phase"):
            verdict = self._equivalent(left, right, variables)
            OBS.count("prover.calls")
            OBS.count("prover.assignments_checked",
                      verdict.assignments_checked)
            return verdict

    def _equivalent(
        self,
        left: ast.Expr,
        right: ast.Expr,
        variables: dict[str, ty.Type],
    ) -> Verdict:
        names = sorted(variables)
        domains = [
            variable_domain(n, variables[n], self.config) for n in names
        ]
        checked = 0
        for combo in itertools.product(*domains) if names else [()]:
            env = dict(zip(names, combo))
            checked += 1
            if checked > self.config.max_assignments:
                break
            lv = interpret(left, env)
            rv = interpret(right, env)
            if is_undef(lv) and is_undef(rv):
                continue
            if is_undef(lv) or is_undef(rv) or lv != rv:
                return Verdict(REFUTED, dict(zip(names, combo)), checked)
        return Verdict(PROVED, None, checked)

    def _shrink(self, domains: list[list[Any]]) -> list[list[Any]]:
        """Reduce the product size to fit the assignment budget by
        trimming each domain proportionally (corners are kept first)."""
        budget = self.config.max_assignments
        shrunk = [list(d) for d in domains]
        passes = 0
        try:
            while True:
                total = 1
                for d in shrunk:
                    total *= max(1, len(d))
                if total <= budget:
                    return shrunk
                largest = max(
                    range(len(shrunk)), key=lambda i: len(shrunk[i])
                )
                if len(shrunk[largest]) <= 2:
                    return shrunk
                passes += 1
                shrunk[largest] = shrunk[largest][
                    : max(2, len(shrunk[largest]) // 2)
                ]
        finally:
            if passes and OBS.enabled:
                OBS.count("prover.domain_shrink_passes", passes)


#: Module-level default prover shared by strategies.
DEFAULT_PROVER = Prover()
