#!/usr/bin/env python3
"""MCS lock from hardware primitives (§6.3).

Verifies the Mellor-Crummey–Scott queue lock built from atomic
exchange, compare-and-swap, and fences, then exercises it under
adversarial schedules and shows the reduced (atomic) critical section
the final level exposes.

Run:  python examples/mcslock_hardware.py
"""

from repro.casestudies import mcslock
from repro.casestudies.common import run_case_study
from repro.lang.frontend import check_level
from repro.machine.translator import translate_level
from repro.proofs.render import describe_step_effect
from repro.runtime.interpreter import run_level


def main() -> None:
    study = mcslock.get()
    print("=== Verifying the MCS lock (sec. 6.3) ===")
    report = run_case_study(study)
    for row in report.rows():
        status = "verified" if row["verified"] else "FAILED"
        print(f"  {row['proof']} [{row['strategy']}]: {status} — "
              f"{row['lemmas']} lemmas, {row['generated_sloc']} SLOC")
    assert report.verified

    print("\n=== Phase discipline in the reduction proof ===")
    reduction = report.outcome.outcomes[-1].script
    for lemma in reduction.lemmas:
        if lemma.name.startswith("PhaseDiscipline"):
            print(f"  {lemma.name}: "
                  f"{lemma.verdict.status if lemma.verdict else '?'}")
            print(f"    {lemma.statement}")

    print("\n=== Racing two threads through the lock ===")
    machine = translate_level(check_level(study.levels[0][1]))
    for seed in (None, 0, 1, 2, 3):
        result = run_level(machine, seed=seed, max_steps=3_000_000)
        label = "round-robin" if seed is None else f"seed {seed}"
        print(f"  {label}: counter={list(result.log)} "
              f"({result.steps_taken} steps)")
        assert result.log == (2,), "mutual exclusion violated!"
    print("  both increments always observed: mutual exclusion holds")

    print("\n=== The atomic critical section at the top level ===")
    top = translate_level(check_level(study.levels[-1][1]))
    atomic_pcs = [
        pc for pc, info in top.pcs.items() if not info.yieldable
    ]
    for pc in sorted(atomic_pcs):
        for step in top.steps_at(pc):
            print(f"  [atomic] {pc}: {describe_step_effect(step)}")


if __name__ == "__main__":
    main()
