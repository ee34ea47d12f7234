"""The Queue case study (§6.4).

A pure port of the liblfds bounded single-producer single-consumer
lock-free queue ("used at AT&T, Red Hat, and Xen"): a power-of-two ring
with separate read/write indices, element writes published by the index
update (ordered by TSO's FIFO store buffer plus a fence, as liblfds's
barriers do).  Like the Armada port, it uses modulo operators instead
of bitmask operators.

Goal, per the paper: "prove that the enqueue and dequeue methods behave
like abstract versions in which enqueue adds to the back of a sequence
and dequeue removes the first entry of that sequence, as long as at
most one thread of each type is active."

The chain uses eight levels / seven proof transformations, mirroring
the paper's eight: introduce the abstract ghost queue (var_intro),
cement the inductive invariant linking it to the ring (assume_intro —
"most of this work involved identifying the inductive invariant"),
re-express the observable log over the abstract queue (weakening — "the
fourth of which does the key weakening"), erase the concrete reads
(nondet_weakening), then hide the implementation variables one at a
time (var_hiding x3 — "the final four levels hide the implementation
variables").

Paper numbers: implementation 70 SLOC; recipes totalling ~120 SLOC;
24,540 generated SLOC; final abstract level 46 SLOC.
"""

from __future__ import annotations


from repro.casestudies.common import CaseStudy
from repro.record import Record


class _Shape(Record):
    """Which concrete/ghost pieces are present at one level."""

    ghost_decl: bool = False
    ghost_updates: bool = False
    assume: bool = False
    abstract_log: bool = False
    nondet_reads: bool = False
    elements: bool = True
    write_index: bool = True
    read_index: bool = True


def _render(name: str, s: _Shape) -> str:
    decls = ["  var got_total: uint32 := 0;"]
    if s.elements:
        decls.append("  var elements: uint64[4];")
    if s.write_index:
        decls.append("  var write_index: uint32 := 0;")
    if s.read_index:
        decls.append("  var read_index: uint32 := 0;")
    if s.ghost_decl:
        decls.append("  ghost var q: seq<uint64> := [];")

    prod_wi = "*" if s.nondet_reads else "write_index"
    prod_ri = "*" if s.nondet_reads else "read_index"
    prod_guard = "*" if s.nondet_reads else "(wi + 1) % 4 != ri"
    cons_ri = "*" if s.nondet_reads else "read_index"
    cons_wi = "*" if s.nondet_reads else "write_index"
    cons_guard = "*" if s.nondet_reads else "ri != wi"
    elem_read = "*" if s.nondet_reads else "elements[ri]"

    producer_body = []
    producer_body.append(f"      wi := {prod_wi};")
    producer_body.append(f"      ri := {prod_ri};")
    producer_body.append(f"      if ({prod_guard}) {{")
    if s.elements:
        producer_body.append("        elements[wi] := v;")
    producer_body.append("        fence();")
    if s.ghost_updates:
        producer_body.append("        q := q + [v];")
    if s.write_index:
        producer_body.append("        write_index := (wi + 1) % 4;")
    producer_body.append("        v := v + 1;")
    producer_body.append("      }")

    consumer_body = []
    consumer_body.append(f"      ri := {cons_ri};")
    consumer_body.append(f"      wi := {cons_wi};")
    consumer_body.append(f"      if ({cons_guard}) {{")
    consumer_body.append(f"        x := {elem_read};")
    if s.assume:
        consumer_body.append(
            "        assume len(q) > 0 && first(q) == x;"
        )
    log_arg = "first(q)" if s.abstract_log else "x"
    consumer_body.append(f"        print_uint64({log_arg});")
    if s.ghost_updates:
        consumer_body.append("        q := drop(q, 1);")
    if s.read_index:
        consumer_body.append("        read_index := (ri + 1) % 4;")
    consumer_body.append("        got := got + 1;")
    consumer_body.append("      }")

    producer = "\n".join(producer_body)
    consumer = "\n".join(consumer_body)
    return f"""
level {name} {{
{chr(10).join(decls)}
  void producer() {{
    var v: uint64 := 1;
    var wi: uint32 := 0;
    var ri: uint32 := 0;
    while v <= 2 {{
{producer}
    }}
  }}
  void main() {{
    var t: uint64 := 0;
    var got: uint32 := 0;
    var ri: uint32 := 0;
    var wi: uint32 := 0;
    var x: uint64 := 0;
    t := create_thread producer();
    while got < 2 {{
{consumer}
    }}
    join t;
    got_total := got;
    print_uint32(got_total);
  }}
}}
"""


LEVELS = [
    ("QueueImpl", _render("QueueImpl", _Shape())),
    (
        "QueueGhost",
        _render("QueueGhost", _Shape(ghost_decl=True, ghost_updates=True)),
    ),
    (
        "QueueAssume",
        _render(
            "QueueAssume",
            _Shape(ghost_decl=True, ghost_updates=True, assume=True),
        ),
    ),
    (
        "QueueAbstractLog",
        _render(
            "QueueAbstractLog",
            _Shape(
                ghost_decl=True, ghost_updates=True, assume=True,
                abstract_log=True,
            ),
        ),
    ),
    (
        "QueueNondet",
        _render(
            "QueueNondet",
            _Shape(
                ghost_decl=True, ghost_updates=True, assume=True,
                abstract_log=True, nondet_reads=True,
            ),
        ),
    ),
    (
        "QueueHideElements",
        _render(
            "QueueHideElements",
            _Shape(
                ghost_decl=True, ghost_updates=True, assume=True,
                abstract_log=True, nondet_reads=True, elements=False,
            ),
        ),
    ),
    (
        "QueueHideWriteIndex",
        _render(
            "QueueHideWriteIndex",
            _Shape(
                ghost_decl=True, ghost_updates=True, assume=True,
                abstract_log=True, nondet_reads=True, elements=False,
                write_index=False,
            ),
        ),
    ),
    (
        "QueueAbstract",
        _render(
            "QueueAbstract",
            _Shape(
                ghost_decl=True, ghost_updates=True, assume=True,
                abstract_log=True, nondet_reads=True, elements=False,
                write_index=False, read_index=False,
            ),
        ),
    ),
]

RECIPES = [
    (
        "QueueIntroducesAbstractQueue",
        "proof QueueIntroducesAbstractQueue {\n"
        "  refinement QueueImpl QueueGhost\n"
        "  var_intro\n"
        "}\n",
    ),
    (
        "QueueCementsInvariant",
        "proof QueueCementsInvariant {\n"
        "  refinement QueueGhost QueueAssume\n"
        "  assume_intro\n"
        '  invariant "len(q) <= 4"\n'
        "}\n",
    ),
    (
        "QueueLogsAbstractly",
        "proof QueueLogsAbstractly {\n"
        "  refinement QueueAssume QueueAbstractLog\n"
        "  weakening\n"
        "}\n",
    ),
    (
        "QueueErasesConcreteReads",
        "proof QueueErasesConcreteReads {\n"
        "  refinement QueueAbstractLog QueueNondet\n"
        "  nondet_weakening\n"
        "}\n",
    ),
    (
        "QueueHidesElements",
        "proof QueueHidesElements {\n"
        "  refinement QueueNondet QueueHideElements\n"
        "  var_hiding\n"
        "}\n",
    ),
    (
        "QueueHidesWriteIndex",
        "proof QueueHidesWriteIndex {\n"
        "  refinement QueueHideElements QueueHideWriteIndex\n"
        "  var_hiding\n"
        "}\n",
    ),
    (
        "QueueHidesReadIndex",
        "proof QueueHidesReadIndex {\n"
        "  refinement QueueHideWriteIndex QueueAbstract\n"
        "  var_hiding\n"
        "}\n",
    ),
]


def get() -> CaseStudy:
    return CaseStudy(
        name="queue",
        description=(
            "liblfds bounded SPSC lock-free queue refined to an abstract "
            "sequence: enqueue appends, dequeue removes the head "
            "(sec. 6.4)"
        ),
        levels=LEVELS,
        recipes=RECIPES,
        paper_numbers={
            "implementation_sloc": 70,
            "transformations": 8,
            "generated_sloc": 24540,
            "final_level_sloc": 46,
        },
        max_states=400_000,
    )
