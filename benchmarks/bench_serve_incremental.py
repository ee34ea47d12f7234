"""Incremental re-verification through ``armada serve``.

The daemon's pitch is that a resubmission pays only for what changed:
every job discharges its obligations through one shared proof cache,
and an obligation's key covers both machines of its proof, so only the
obligations of the proofs that touch an edited level miss.  This
benchmark measures that on an 8-level lock-based counter chain (7
refinement proofs, each with one obligation, its whole-program
refinement check — the expensive kind):

* **cold** — first submission, empty cache: 7 obligations executed;
* **warm** — byte-identical resubmit: all 7 served from the cache;
* **edited** — the top level's ``done`` write becomes nondet: exactly
  the one obligation of the proof touching the edited level executes,
  the other 6 are served from the cache.

The acceptance bar is edited ≥ 5× faster than cold; with 7 checks of
which 1 re-runs, the expected ratio is ~7×, less the fixed cost of a
job (parse, translate, script generation, cache reads).

Results land in ``benchmarks/results/serve_incremental.{md,json}``.
"""

from __future__ import annotations

import time

from _common import fmt_table, record
from repro.serve.client import ServeClient
from repro.serve.daemon import ArmadaDaemon, DaemonThread

PAIRS = 7
MIN_SPEEDUP = 5.0

LEVEL = """
level L%d {
  var counter: uint32;
  var mutex: uint64;
  var done: uint32;
  void worker() {
    var i: uint32;
    i := 0;
    while (i < 1) {
      lock(&mutex);
      counter := counter + 1;
      unlock(&mutex);
      i := i + 1;
    }
  }
  void main() {
    var t1: uint64;
    var t2: uint64;
    t1 := create_thread worker();
    t2 := create_thread worker();
    join(t1);
    join(t2);
    done := 1;
    print_uint32(counter);
  }
}
"""


def build_chain(edit_top: bool = False) -> str:
    levels = [LEVEL % i for i in range(PAIRS + 1)]
    if edit_top:
        # The one-level edit: the top level's done flag becomes
        # nondet, which is still a valid weakening of done := 1.
        levels[PAIRS] = levels[PAIRS].replace("done := 1;", "done := *;")
    proofs = [
        "proof P%d { refinement L%d L%d %s }" % (
            i, i, i + 1,
            "nondet_weakening" if i == PAIRS - 1 else "weakening",
        )
        for i in range(PAIRS)
    ]
    return "\n".join(levels + proofs)


def _submit_timed(client: ServeClient, source: str) -> tuple[float, dict]:
    started = time.perf_counter()
    job_id = client.submit(source, options={"validate": "always"})
    response = client.result(job_id, wait=True, timeout=600)
    elapsed = time.perf_counter() - started
    assert response["state"] == "done", response
    assert response["result"]["status"] == "verified", response
    return elapsed, response["result"]


def test_serve_incremental(tmp_path):
    daemon = ArmadaDaemon(state_dir=tmp_path / "state", slots=1)
    scenarios = {}
    with DaemonThread(daemon):
        client = ServeClient(socket_path=daemon.socket_path)
        client.wait_until_ready()
        for label, source in [
            ("cold", build_chain()),
            ("warm", build_chain()),
            ("edited", build_chain(edit_top=True)),
        ]:
            elapsed, result = _submit_timed(client, source)
            farm = result["farm"]
            scenarios[label] = {
                "seconds": round(elapsed, 3),
                "obligations": farm["jobs"],
                "executed": farm["executed"],
                "cache_hits": farm["cache_hits"],
            }

    # The shared proof cache re-executes exactly the edited level's
    # proof, one obligation.
    counts = {
        label: (s["executed"], s["cache_hits"])
        for label, s in scenarios.items()
    }
    assert counts == {
        "cold": (PAIRS, 0),
        "warm": (0, PAIRS),
        "edited": (1, PAIRS - 1),
    }, counts

    cold = scenarios["cold"]["seconds"]
    warm = scenarios["warm"]["seconds"]
    edited = scenarios["edited"]["seconds"]
    edited_speedup = cold / edited
    warm_speedup = cold / warm
    assert edited_speedup >= MIN_SPEEDUP, (
        f"one-level edit resubmit only {edited_speedup:.1f}x faster "
        f"than cold (need >= {MIN_SPEEDUP}x): cold={cold}s "
        f"edited={edited}s"
    )
    assert warm > 0 and warm < edited

    rows = [
        [label,
         f"{s['seconds']:.3f}",
         s["executed"],
         s["cache_hits"],
         f"{cold / s['seconds']:.1f}x"]
        for label, s in scenarios.items()
    ]
    record(
        "serve_incremental",
        "armada serve: cold vs warm vs one-level-edited resubmit "
        f"({PAIRS + 1}-level chain, {PAIRS} proofs, validate=always)",
        fmt_table(
            ["scenario", "wall (s)", "obligations executed",
             "from cache", "speedup vs cold"],
            rows,
        ) + [
            "",
            f"One-level edit executes only P{PAIRS - 1}'s obligation "
            f"({edited_speedup:.1f}x faster than cold; acceptance "
            f"bar {MIN_SPEEDUP:.0f}x).",
        ],
        data={
            "pairs": PAIRS,
            "scenarios": scenarios,
            "edited_speedup_vs_cold": round(edited_speedup, 2),
            "warm_speedup_vs_cold": round(warm_speedup, 2),
        },
    )
