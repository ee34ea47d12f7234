"""State identity: canonical roots and locations, eager map hashes, and
the threads the compiled stepper interns.

None of it may change what the search decides: ``==`` stays structural
and hashes stay value-based, so a state built by the interpreter equals
its compiled twin and hashes the same.
"""

import copy
import pickle
from functools import reduce
from operator import xor
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.casestudies import load
from repro.compiler.stepc import stepper_for
from repro.explore.explorer import Explorer
from repro.lang.frontend import check_program
from repro.machine.pmap import PMap
from repro.machine.translator import translate_level
from repro.machine.values import Location, Root

from tests.differential_harness import interpreted_stepping

RUNNING_EXAMPLE = (
    Path(__file__).resolve().parents[1] / "examples" / "running_example.arm"
)


def _machine(source, level, memory_model):
    checked = check_program(source, "<test>")
    name = level or checked.program.levels[0].name
    return translate_level(checked.contexts[name],
                           memory_model=memory_model)


# ---------------------------------------------------------------------------
# Canonical roots and locations


ROOTS = [Root("global", "x"), Root("alloc", serial=3),
         Root("local", "v", 7)]


def _copies(value):
    yield type(value)(*value._key(value))
    yield value.replace()
    yield copy.copy(value)
    yield copy.deepcopy(value)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        yield pickle.loads(pickle.dumps(value, protocol))


class TestCanonical:
    @pytest.mark.parametrize("value", ROOTS + [
        Location(ROOTS[0]), Location(ROOTS[1], (2, 0)),
        Location(Root("local", "v", 7), (1,)),
    ], ids=["root-global", "root-alloc", "root-local", "location-global",
            "location-alloc", "location-local"])
    def test_every_way_of_building_gives_the_one_object(self, value):
        for twin in _copies(value):
            assert twin is value
        assert hash(value) == hash(value._key(value))

    def test_a_location_of_an_equal_root_is_the_same_location(self):
        assert Location(Root("global", "y"), (4,)) is Location(
            Root("global", "y"), (4,))
        assert Location(ROOTS[0]).child(1) is Location(ROOTS[0], (1,))

    def test_different_fields_give_different_objects(self):
        assert Root("global", "x") is not Root("global", "x", 1)
        assert Location(ROOTS[0], (1,)) is not Location(ROOTS[0], (2,))
        assert Location(ROOTS[0], (1,)) != Location(ROOTS[0], (2,))

    def test_replace_with_a_change_gives_that_canonical_object(self):
        assert ROOTS[0].replace(name="z") is Root("global", "z")
        assert Location(ROOTS[0]).replace(path=(3,)) is Location(
            ROOTS[0], (3,))


# ---------------------------------------------------------------------------
# Eager map hashes

KEYS = st.one_of(
    st.integers(-3, 3),
    st.sampled_from(["a", "b", "c"]),
    st.builds(Location, st.sampled_from(ROOTS),
              st.tuples(st.integers(0, 2))),
)
VALUES = st.one_of(st.integers(-2, 2), st.booleans(), st.none(),
                   st.tuples(st.integers(0, 3)))
OPS = st.lists(st.one_of(
    st.tuples(st.just("set"), KEYS, VALUES),
    st.tuples(st.just("set_many"),
              st.dictionaries(KEYS, VALUES, max_size=4)),
    st.tuples(st.just("remove"), KEYS),
), max_size=25)


def _apply(pm, op):
    if op[0] == "set":
        return pm.set(op[1], op[2])
    if op[0] == "set_many":
        return pm.set_many(op[1])
    return pm.remove(op[1])


class TestEagerMapHash:
    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(KEYS, VALUES, max_size=6), OPS)
    def test_accumulator_matches_a_fresh_computation(self, start, ops):
        pm = PMap(start)
        model = dict(start)
        for op in ops:
            pm = _apply(pm, op)
            if op[0] == "set":
                model[op[1]] = op[2]
            elif op[0] == "set_many":
                model.update(op[1])
            else:
                model.pop(op[1], None)
            assert pm._items == model
            assert pm._acc == reduce(
                xor, (hash(entry) for entry in model.items()), 0)
        rebuilt = PMap(model)
        assert rebuilt == pm and hash(rebuilt) == hash(pm)


# ---------------------------------------------------------------------------
# Interned threads, and twins built by the interpreter


#: The second worker is created once for each value main read, so
#: states that differ in ``r`` hold equal, separately built workers; and
#: under TSO a drain and a store build equal threads.
WORKERS = """
level Workers {
  var x: uint32;
  void worker() { x := 1; x := 2; }
  void main() {
    var a: uint64;
    var b: uint64;
    var r: uint32;
    a := create_thread worker();
    r := x;
    b := create_thread worker();
  }
}
"""

EXPLORED = [
    pytest.param(lambda: load("queue").source, "QueueNondet", "tso",
                 id="QueueNondet-tso"),
    pytest.param(lambda: WORKERS, None, "sc", id="workers-sc"),
    pytest.param(lambda: WORKERS, None, "tso", id="workers-tso"),
    pytest.param(RUNNING_EXAMPLE.read_text, None, "sc",
                 id="running_example-sc"),
    pytest.param(RUNNING_EXAMPLE.read_text, None, "tso",
                 id="running_example-tso"),
]


class TestInternedThreads:
    @pytest.mark.parametrize("source, level, model", EXPLORED)
    def test_equal_threads_of_admitted_states_are_one_object(
        self, source, level, model
    ):
        machine = _machine(source(), level, model)
        explorer = Explorer(machine)
        assert explorer.successors is stepper_for(machine).fn
        assert stepper_for(machine).fallback_steps == 0
        first = {}
        threads = 0
        for state in explorer.reachable_states():
            for thread in state.threads.values():
                threads += 1
                assert first.setdefault(thread, thread) is thread
        assert threads > len(first) > 1

    @pytest.mark.parametrize("model", ["sc", "tso"])
    def test_an_interpreted_state_equals_its_compiled_twin(self, model):
        source = RUNNING_EXAMPLE.read_text()
        compiled = {
            state: state for state in
            Explorer(_machine(source, None, model)).reachable_states()
        }
        with interpreted_stepping():
            interpreted = list(Explorer(
                _machine(source, None, model)
            ).reachable_states())
        assert len(interpreted) == len(compiled)
        for state in interpreted:
            twin = compiled[state]
            assert twin is not state
            assert twin == state and state == twin
            assert hash(twin) == hash(state)
