"""Per-layer self time of an ``armada`` command, traced from outside.

The tracer never edits ``repro``: it imports every ``repro`` submodule,
then swaps each layer's public entry point for a timing wrapper.  A
function is replaced at *every* module binding that ``is`` the original,
so ``from x import f`` call sites are covered too; a method is replaced
on its class.  Generator functions (``Explorer.reachable_states``,
``ProofRequest.reachable_transitions``) are timed per ``__next__``, so
the work done while a consumer iterates lands in the generator's layer.

Spans stay in memory as running totals.  A layer's self time is its
span's duration minus the time its child spans cover, so the self times
of all layers plus ``trace.unattributed_s`` add up to ``trace.wall_s``.

Run as a script, the module executes CLI commands in-process and prints
one JSON object: ``python trace_layers.py '{"commands": [[...]],
"traced": true}'`` (``traced: false`` runs the same commands with no
wrappers, the baseline for ``trace.overhead_ratio``).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import json
import pkgutil
import sys
import time
from collections import Counter, defaultdict

#: ``(layer, module, attribute)``: each wrapped entry point.  The layer
#: name is ``<subpackage>.<function>``; the metrics derived from it are
#: ``<layer>.calls`` and ``<layer>.self_s``.  Every class in
#: ``repro.strategies`` that defines ``generate`` is added at install
#: time under ``strategies.generate``.
ENTRY_POINTS = (
    ("lang.check_program", "repro.lang.frontend", "check_program"),
    ("machine.translate_level", "repro.machine.translator",
     "translate_level"),
    ("machine.enabled_transitions", "repro.machine.program",
     "StateMachine.enabled_transitions"),
    ("machine.next_state", "repro.machine.program",
     "StateMachine.next_state"),
    ("stepc.compile_stepper", "repro.compiler.stepc", "compile_stepper"),
    ("explore.explore", "repro.explore.explorer", "Explorer.explore"),
    ("explore.reachable_states", "repro.explore.explorer",
     "Explorer.reachable_states"),
    ("explore.walk", "repro.explore.explorer", "Explorer.walk"),
    ("refine.check_refinement", "repro.explore.refinement_check",
     "check_refinement"),
    ("refine.stutter_closure", "repro.explore.refinement_check",
     "_stutter_closure"),
    ("strategies.reachable_transitions", "repro.strategies.base",
     "ProofRequest.reachable_transitions"),
    ("verifier.prove_valid", "repro.verifier.prover", "Prover.prove_valid"),
    ("verifier.equivalent", "repro.verifier.prover", "Prover.equivalent"),
    ("farm.discharge", "repro.farm", "VerificationFarm.discharge"),
    ("farm.cache_get", "repro.farm.cache", "ProofCache.get"),
    ("farm.cache_put", "repro.farm.cache", "ProofCache.put"),
    ("analysis.analyze_level", "repro.analysis", "analyze_level"),
    ("analysis.extract_accesses", "repro.analysis.accesses",
     "extract_accesses"),
    ("proofs.render_machine_definitions", "repro.proofs.render",
     "render_machine_definitions"),
)

#: Layers not in ENTRY_POINTS: every strategy class's ``generate``
#: (found at install time), and the compiled step function of each
#: stepper and each lemma obligation thunk (wrapped as the program
#: creates them).
DYNAMIC_LAYERS = ("stepc.expand", "strategies.lemmas",
                  "strategies.generate")

#: Self times summed into one metric per stage that every workload
#: passes through, whichever stepper or search loop it uses: stepping
#: states, and the breadth-first loops around the stepping.
STAGES = {
    "step.self_s": ("machine.enabled_transitions", "machine.next_state",
                    "stepc.expand"),
    "search.self_s": ("explore.explore", "explore.reachable_states",
                      "explore.walk", "refine.check_refinement",
                      "refine.stutter_closure",
                      "strategies.reachable_transitions"),
}

#: Counts read off the return values of wrapped calls.
RESULT_COUNTS = (
    "stepc.cache_hits", "stepc.fallback_steps",
    "explore.states", "explore.transitions", "explore.por_pruned",
    "refine.product_states", "verifier.assignments_checked",
    "farm.jobs", "farm.executed", "farm.cache_hits", "farm.cache_stores",
)


def import_all_repro() -> None:
    """Import every ``repro`` submodule, so that every binding of an
    entry point exists before the wrappers go in."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)


class Tracer:
    """Installs the layer wrappers and accumulates their spans."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        #: Child time accumulated by each open span, innermost last.
        self._open: list[float] = []
        #: ``(namespace, attribute, original)`` for every replaced binding.
        self._patched: list[tuple[object, str, object]] = []
        self.wall_s = 0.0

    # -- spans ---------------------------------------------------------

    def _timed(self, layer: str, fn):
        """*fn* wrapped in a span of *layer* per call (per ``__next__``
        for a generator function)."""
        open_spans = self._open
        self_s = self.self_s
        calls = self.calls

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                calls[layer] += 1
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        open_spans.append(0.0)
                        started = time.perf_counter()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            duration = time.perf_counter() - started
                            self_s[layer] += duration - open_spans.pop()
                            if open_spans:
                                open_spans[-1] += duration
                        yield item
                finally:
                    inner.close()

            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            open_spans.append(0.0)
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - started
                self_s[layer] += duration - open_spans.pop()
                if open_spans:
                    open_spans[-1] += duration
                calls[layer] += 1

        return wrapper

    def _with_result(self, wrapped, on_result):
        @functools.wraps(wrapped)
        def wrapper(*args, **kwargs):
            result = wrapped(*args, **kwargs)
            on_result(result)
            return result

        return wrapper

    # -- result counters ----------------------------------------------

    def _on_stepper(self, stepper) -> None:
        self.counts["stepc.cache_hits"] += int(stepper.cache_hit)
        self.counts["stepc.fallback_steps"] += stepper.fallback_steps
        self._patch(stepper, "fn", self._timed("stepc.expand", stepper.fn))

    def _on_exploration(self, result) -> None:
        self.counts["explore.states"] += result.states_visited
        self.counts["explore.transitions"] += result.transitions_taken
        if result.por_stats is not None:
            self.counts["explore.por_pruned"] += (
                result.por_stats.transitions_pruned
            )

    def _on_refinement(self, result) -> None:
        self.counts["refine.product_states"] += result.product_states

    def _on_verdict(self, verdict) -> None:
        self.counts["verifier.assignments_checked"] += (
            verdict.assignments_checked
        )

    def _on_discharge(self, jobs) -> None:
        self.counts["farm.jobs"] += len(jobs)
        self.counts["farm.cache_hits"] += sum(j.from_cache for j in jobs)
        self.counts["farm.executed"] += sum(
            not (j.from_cache or j.from_journal) for j in jobs
        )

    def _on_cache_put(self, stored) -> None:
        self.counts["farm.cache_stores"] += int(bool(stored))

    def _on_lemma_jobs(self, jobs) -> None:
        for job in jobs:
            job.thunk = self._timed("strategies.lemmas", job.thunk)

    # -- install / uninstall ------------------------------------------

    def _patch(self, namespace, attribute: str, replacement) -> None:
        self._patched.append(
            (namespace, attribute, getattr(namespace, attribute))
        )
        setattr(namespace, attribute, replacement)

    def _replace_everywhere(self, original, replacement) -> None:
        """Rebind every ``repro`` module attribute that ``is``
        *original* (covers ``from x import f`` bindings)."""
        for name, module in list(sys.modules.items()):
            if not name.startswith("repro") or module is None:
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attribute, replacement)

    def install(self) -> None:
        import_all_repro()
        hooks = {
            "stepc.compile_stepper": self._on_stepper,
            "explore.explore": self._on_exploration,
            "refine.check_refinement": self._on_refinement,
            "verifier.prove_valid": self._on_verdict,
            "verifier.equivalent": self._on_verdict,
            "farm.discharge": self._on_discharge,
            "farm.cache_put": self._on_cache_put,
        }
        for layer, module_name, path in ENTRY_POINTS:
            owner = sys.modules[module_name]
            *class_path, attribute = path.split(".")
            for part in class_path:
                owner = getattr(owner, part)
            original = vars(owner)[attribute]
            replacement = self._timed(layer, original)
            if layer in hooks:
                replacement = self._with_result(replacement, hooks[layer])
            if class_path:
                self._patch(owner, attribute, replacement)
            else:
                self._replace_everywhere(original, replacement)

        from repro.farm.scheduler import lemma_jobs
        from repro.strategies.base import Strategy

        self._replace_everywhere(
            lemma_jobs, self._with_result(lemma_jobs, self._on_lemma_jobs)
        )
        pending = [Strategy]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if "generate" in vars(cls):
                self._patch(cls, "generate", self._timed(
                    "strategies.generate", vars(cls)["generate"]
                ))

    def uninstall(self) -> None:
        """Restore every replaced binding, newest first."""
        while self._patched:
            namespace, attribute, original = self._patched.pop()
            setattr(namespace, attribute, original)

    @property
    def installed(self) -> bool:
        return bool(self._patched)

    # -- results --------------------------------------------------------

    def layers(self) -> list[str]:
        return sorted(
            {layer for layer, _, _ in ENTRY_POINTS} | set(DYNAMIC_LAYERS)
        )

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric of the traced commands by name."""
        out: dict[str, float] = {}
        attributed = 0.0
        for layer in self.layers():
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
            attributed += self.self_s[layer]
        for name in RESULT_COUNTS:
            out[name] = self.counts[name]
        for name, layers in STAGES.items():
            out[name] = sum(self.self_s[layer] for layer in layers)
        out["trace.wall_s"] = self.wall_s
        out["trace.unattributed_s"] = self.wall_s - attributed
        return out


def run_commands(commands, tracer: Tracer | None = None,
                 preimport=()) -> dict:
    """Run each CLI argv in this process (under *tracer* when given)
    and return exit codes, captured stdout and the in-process wall.

    *preimport* names the modules the commands import (as recorded by
    ``-X importtime``); importing them first keeps import work, which
    the ``import.*`` metrics measure separately, out of the wall."""
    from repro.cli import main

    for name in preimport:
        importlib.import_module(name)
    if tracer is None:
        import_all_repro()
    else:
        tracer.install()
    exits, stdouts = [], []
    started = time.perf_counter()
    try:
        for argv in commands:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                exits.append(main(list(argv)))
            stdouts.append(buffer.getvalue())
    finally:
        wall = time.perf_counter() - started
        if tracer is not None:
            tracer.uninstall()
            tracer.wall_s = wall
    return {"exits": exits, "stdouts": stdouts, "wall_s": wall}


def _main(spec: str) -> int:
    request = json.loads(spec)
    tracer = Tracer() if request["traced"] else None
    report = run_commands(request["commands"], tracer,
                          request.get("preimport", ()))
    if tracer is not None:
        report["metrics"] = tracer.metrics()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1]))
