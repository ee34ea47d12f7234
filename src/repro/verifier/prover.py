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
SMT-backed unbounded proofs (see DESIGN.md).  When the product of the
domains exceeds the assignment budget, the largest domains are halved,
keeping their corner values; an enumeration the budget still cuts short
is UNKNOWN, never PROVED.  The proof artifacts record which verdict
each lemma received.
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Any

from repro.lang import asts as ast
from repro.lang import types as ty
from repro.machine.evaluator import eval_formula
from repro.machine.state import UBSignal
from repro.obs import OBS
from repro.record import Record

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
    ) -> Verdict:
        """Check ``assumptions ==> goal`` for all sampled assignments.

        UB in an assumption discharges the assignment (the hypothesis
        is not meaningful there); UB in the goal refutes it (a proof
        obligation must be well-defined wherever its hypotheses hold),
        matching Dafny's well-definedness checking.
        """
        assumptions = assumptions or []

        def refutes(env: dict[str, Any]) -> bool:
            return (
                all(_holds(a, env) for a in assumptions)
                and not _holds(goal, env)
            )

        return self._search("prove_valid", variables, refutes)

    def equivalent(
        self,
        left: ast.Expr,
        right: ast.Expr,
        variables: dict[str, ty.Type],
    ) -> Verdict:
        """Check that two expressions agree on all sampled assignments
        (including agreement on where they are undefined)."""
        return self._search(
            "equivalent", variables,
            lambda env: _outcome(left, env) != _outcome(right, env),
        )

    def _search(self, span: str, variables: dict[str, ty.Type],
                refutes) -> Verdict:
        if not OBS.enabled:
            return self._enumerate(variables, refutes)
        with OBS.span(span, "phase"):
            verdict = self._enumerate(variables, refutes)
            OBS.count("prover.calls")
            OBS.count("prover.assignments_checked",
                      verdict.assignments_checked)
            return verdict

    def _enumerate(self, variables: dict[str, ty.Type], refutes) -> Verdict:
        """Look for a sampled assignment of *variables* that *refutes*
        the claim: REFUTED with the first one found, PROVED when every
        assignment was checked, and UNKNOWN when the assignment budget
        cut the search short (an unchecked assignment may refute)."""
        names = sorted(variables)
        domains = self._shrink([
            variable_domain(n, variables[n], self.config) for n in names
        ])
        checked = 0
        for combo in itertools.product(*domains):
            if checked == self.config.max_assignments:
                return Verdict(UNKNOWN, None, checked)
            env = dict(zip(names, combo))
            checked += 1
            if refutes(env):
                return Verdict(REFUTED, env, checked)
        return Verdict(PROVED, None, checked)

    def _shrink(self, domains: list[list[Any]]) -> list[list[Any]]:
        """Reduce the product size to fit the assignment budget by
        halving the largest domain, again and again.  A halved domain
        keeps its corner values, its two extremes (a sorted integer
        domain's min and max) and any of 0, 1 and -1, then its first
        other values in order.  Stops when no domain can shrink."""
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
                domain = shrunk[largest]
                last = len(domain) - 1
                corner = [
                    i in (0, last) or (type(v) is int and v in (0, 1, -1))
                    for i, v in enumerate(domain)
                ]
                room = max(2, len(domain) // 2) - sum(corner)
                kept = []
                for v, is_corner in zip(domain, corner):
                    if is_corner:
                        kept.append(v)
                    elif room > 0:
                        kept.append(v)
                        room -= 1
                if len(kept) == len(domain):
                    return shrunk
                passes += 1
                shrunk[largest] = kept
        finally:
            if passes and OBS.enabled:
                OBS.count("prover.domain_shrink_passes", passes)


def _holds(formula: ast.Expr, env: dict[str, Any]) -> bool:
    """Whether *formula* is defined and true under *env*."""
    try:
        return bool(eval_formula(formula, env))
    except UBSignal:
        return False


def _outcome(expr: ast.Expr, env: dict[str, Any]) -> tuple[bool, Any]:
    """(defined, value) of *expr* under *env*: two undefined sides
    agree, and an undefined side never agrees with a defined one."""
    try:
        return True, eval_formula(expr, env)
    except UBSignal:
        return False, None


#: Module-level default prover shared by strategies.
DEFAULT_PROVER = Prover()
