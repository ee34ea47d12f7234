"""Front-end facade: parse, resolve, and type-check Armada programs."""

from __future__ import annotations


from repro.errors import ArmadaError
from repro.lang import asts as ast
from repro.lang.core_check import check_core
from repro.lang.parser import parse_program
from repro.lang.resolver import LevelContext, resolve_level
from repro.lang.typechecker import typecheck_level
from repro.obs import OBS
from repro.record import Fresh, Record


class CheckedProgram(Record):
    """A parsed program with every level resolved and type-checked."""

    program: ast.Program
    contexts: dict[str, LevelContext] = Fresh(dict)

    def context(self, level_name: str | None = None) -> LevelContext:
        """The context of level *level_name*, by default the first
        level; an unknown name raises :class:`ArmadaError` naming the
        program's levels."""
        levels = self.program.levels
        if level_name is None:
            if not levels:
                raise ArmadaError("the program declares no level")
            level_name = levels[0].name
        ctx = self.contexts.get(level_name)
        if ctx is None:
            names = ", ".join(level.name for level in levels)
            raise ArmadaError(
                f"no level named {level_name} (levels: {names})"
            )
        return ctx


def check_program(source: str, filename: str = "<armada>") -> CheckedProgram:
    """Parse and fully check Armada *source*.

    Every level is resolved and type-checked.  Core-Armada restrictions
    are *not* applied here — they apply only to the implementation level
    and are enforced by the compiler (:func:`repro.lang.core_check.check_core`)
    and by :meth:`repro.proofs.engine.ProofEngine`.

    Traced as one ``parse`` phase span and, per level, a ``resolve``
    and a ``typecheck`` span.
    """
    with OBS.span("parse"):
        program = parse_program(source, filename)
    checked = CheckedProgram(program)
    for level in program.levels:
        with OBS.span("resolve", level=level.name):
            ctx = resolve_level(level)
        with OBS.span("typecheck", level=level.name):
            typecheck_level(ctx)
        checked.contexts[level.name] = ctx
    return checked


def check_level(source: str, filename: str = "<armada>") -> LevelContext:
    """Parse and check a source containing exactly one level."""
    checked = check_program(source, filename)
    if len(checked.program.levels) != 1:
        raise ValueError(
            f"expected exactly one level, found {len(checked.program.levels)}"
        )
    return checked.contexts[checked.program.levels[0].name]


def check_core_level(source: str, filename: str = "<armada>") -> LevelContext:
    """Parse, check, and core-check a single implementation level."""
    ctx = check_level(source, filename)
    check_core(ctx)
    return ctx
