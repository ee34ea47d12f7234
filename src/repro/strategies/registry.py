"""Strategy registry.

"Verification experts can extend the framework with new strategies and
library lemmas.  Developers can leverage these new strategies via
recipes."  Registering a strategy makes its recipe name available; the
framework stays sound because every lemma a strategy emits must still
pass the verifier (§4).
"""

from __future__ import annotations

from repro.errors import StrategyError
from repro.strategies.base import Strategy

_REGISTRY: dict[str, type[Strategy]] = {}


def register(strategy_class: type[Strategy]) -> type[Strategy]:
    """Register a strategy class under its recipe name.  Usable as a
    decorator by extensions."""
    if not strategy_class.name:
        raise ValueError("strategy classes must define a recipe name")
    _REGISTRY[strategy_class.name] = strategy_class
    return strategy_class


def lookup(name: str) -> Strategy:
    _ensure_builtins()
    strategy_class = _REGISTRY.get(name)
    if strategy_class is None:
        known = ", ".join(sorted(_REGISTRY))
        raise StrategyError(
            f"unknown proof strategy {name!r}; available: {known}"
        )
    return strategy_class()


def available_strategies() -> list[str]:
    _ensure_builtins()
    return sorted(_REGISTRY)


_LOADED = False


def _ensure_builtins() -> None:
    """Import the eight built-in strategies on first use."""
    global _LOADED
    if _LOADED:
        return
    from repro.strategies import (  # noqa: F401
        assume_intro,
        combining,
        reduction,
        tso_elim,
        var_intro,
        var_hiding,
        weakening,
    )
    from repro.strategies.assume_intro import AssumeIntroStrategy
    from repro.strategies.combining import CombiningStrategy
    from repro.strategies.reduction import ReductionStrategy
    from repro.strategies.tso_elim import TsoElimStrategy
    from repro.strategies.var_hiding import VarHidingStrategy
    from repro.strategies.var_intro import VarIntroStrategy
    from repro.strategies.weakening import (
        NondetWeakeningStrategy,
        WeakeningStrategy,
    )

    for cls in (
        WeakeningStrategy,
        NondetWeakeningStrategy,
        TsoElimStrategy,
        ReductionStrategy,
        AssumeIntroStrategy,
        CombiningStrategy,
        VarIntroStrategy,
        VarHidingStrategy,
    ):
        register(cls)
    _LOADED = True
