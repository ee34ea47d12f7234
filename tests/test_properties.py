"""Property-based tests (hypothesis) on core data structures and
invariants."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang import types as ty
from repro.lang.frontend import check_program
from repro.lang.lexer import tokenize
from repro.lang.parser import parse_expression
from repro.lang.astutil import expr_equal, expr_to_str
from repro.lfds import BoundedSPSCQueue, BoundedSPSCQueueModulo
from repro.machine.pmap import PMap
from repro.machine.values import GhostMap
from repro.machine.evaluator import eval_formula
from repro.machine.state import UBSignal
from repro.verifier import Prover

INT_TYPES = [ty.UINT8, ty.UINT16, ty.UINT32, ty.UINT64,
             ty.INT8, ty.INT16, ty.INT32, ty.INT64]


class TestIntTypeProperties:
    @given(st.integers(), st.sampled_from(INT_TYPES))
    def test_wrap_lands_in_range(self, value, int_type):
        wrapped = int_type.wrap(value)
        assert int_type.contains(wrapped)

    @given(st.integers(), st.sampled_from(INT_TYPES))
    def test_wrap_idempotent(self, value, int_type):
        assert int_type.wrap(int_type.wrap(value)) == int_type.wrap(value)

    @given(st.integers(), st.integers(), st.sampled_from(INT_TYPES))
    def test_wrap_is_ring_homomorphism(self, a, b, int_type):
        # wrap(a + b) == wrap(wrap(a) + wrap(b)) — two's complement.
        assert int_type.wrap(a + b) == int_type.wrap(
            int_type.wrap(a) + int_type.wrap(b)
        )

    @given(st.integers(), st.sampled_from(INT_TYPES))
    def test_wrap_congruent_mod_2n(self, value, int_type):
        assert (int_type.wrap(value) - value) % (1 << int_type.bits) == 0


class TestPMapProperties:
    keys = st.text(string.ascii_lowercase, min_size=1, max_size=3)

    @given(st.dictionaries(keys, st.integers(), max_size=8),
           keys, st.integers())
    def test_set_then_get(self, base, key, value):
        pm = PMap(base).set(key, value)
        assert pm[key] == value

    @given(st.dictionaries(keys, st.integers(), max_size=8), keys)
    def test_remove_then_absent(self, base, key):
        pm = PMap(base).remove(key)
        assert key not in pm

    @given(st.dictionaries(keys, st.integers(), max_size=8))
    def test_hash_consistent_with_eq(self, base):
        a = PMap(base)
        b = PMap(dict(reversed(list(base.items()))))
        assert a == b and hash(a) == hash(b)

    @given(st.dictionaries(keys, st.integers(), max_size=8),
           keys, st.integers())
    def test_original_untouched(self, base, key, value):
        pm = PMap(base)
        pm.set(key, value)
        assert dict(pm.items()) == base

    # ---- the incremental XOR hash accumulator --------------------------
    #
    # PMap.set/set_many/remove derive the child's hash accumulator from
    # the parent's in O(1) *only once the parent's accumulator has been
    # materialised* (first __hash__ call).  These properties drive
    # random operation sequences down the incremental path and require
    # the result to agree, at every step, with a from-scratch rehash of
    # the same entries — the explorer's seen-set correctness rests on
    # exactly this equivalence.

    ops = st.lists(
        st.one_of(
            st.tuples(st.just("set"), keys, st.integers(0, 9)),
            st.tuples(st.just("remove"), keys, st.just(0)),
            st.tuples(st.just("set_many"),
                      st.dictionaries(keys, st.integers(0, 9),
                                      max_size=3),
                      st.just(0)),
        ),
        max_size=12,
    )

    @given(st.dictionaries(keys, st.integers(0, 9), max_size=6), ops)
    def test_incremental_hash_matches_rehash(self, base, operations):
        pm = PMap(base)
        hash(pm)  # materialise the accumulator: all updates below are
        model = dict(base)  # derived incrementally, never recomputed
        for op, arg, value in operations:
            if op == "set":
                pm = pm.set(arg, value)
                model[arg] = value
            elif op == "remove":
                pm = pm.remove(arg)
                model.pop(arg, None)
            else:
                pm = pm.set_many(arg)
                model.update(arg)
            fresh = PMap(model)  # accumulator computed from scratch
            assert pm == fresh
            assert hash(pm) == hash(fresh)

    @given(st.dictionaries(keys, st.integers(0, 9), min_size=1,
                           max_size=6),
           st.randoms(use_true_random=False))
    def test_incremental_hash_is_insertion_order_independent(
            self, entries, rng):
        items = list(entries.items())
        shuffled = list(items)
        rng.shuffle(shuffled)
        a = PMap()
        hash(a)
        for key, value in items:
            a = a.set(key, value)
        b = PMap()
        hash(b)
        for key, value in shuffled:
            b = b.set(key, value)
        assert a == b and hash(a) == hash(b)

    @given(st.dictionaries(keys, st.integers(0, 9), max_size=6),
           keys, st.integers(0, 9))
    def test_set_then_remove_restores_hash(self, base, key, value):
        # XOR is its own inverse: adding and removing an entry must
        # return to the parent's exact hash, incrementally.
        pm = PMap(base)
        hash(pm)
        without = pm.remove(key)
        roundtrip = without.set(key, value).remove(key)
        assert roundtrip == without
        assert hash(roundtrip) == hash(without)


class TestGhostMapProperties:
    @given(st.lists(st.tuples(st.integers(), st.integers()), max_size=10))
    def test_matches_dict_model(self, operations):
        ghost = GhostMap()
        model = {}
        for key, value in operations:
            ghost = ghost.set(key, value)
            model[key] = value
        assert dict(ghost.items()) == model


class TestQueueProperties:
    @given(st.lists(st.one_of(
        st.tuples(st.just("enq"), st.integers(0, 1000)),
        st.tuples(st.just("deq"), st.just(0)),
    ), max_size=60))
    def test_both_variants_match_list_model(self, operations):
        for cls in (BoundedSPSCQueue, BoundedSPSCQueueModulo):
            queue = cls(8)
            model = []
            for op, value in operations:
                if op == "enq":
                    ok = queue.try_enqueue(value)
                    assert ok == (len(model) < queue.capacity)
                    if ok:
                        model.append(value)
                else:
                    ok, got = queue.try_dequeue()
                    assert ok == bool(model)
                    if ok:
                        assert got == model.pop(0)
                assert len(queue) == len(model)


class TestProverSoundRefutation:
    """A counterexample returned by the bounded prover must genuinely
    falsify the goal — refutations are sound by construction."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 255), st.integers(1, 255))
    def test_random_linear_goals(self, c, d):
        source = (
            "level L { var x: uint32; void main() "
            f"{{ assert (x + {c}) % {d} == 0; }} }}"
        )
        goal = (
            check_program(source).program.levels[0].methods[0]
            .body.stmts[0].cond
        )
        verdict = Prover().prove_valid(goal, {"x": ty.UINT32})
        if verdict.ok:
            assert d == 1  # only trivially-true instances are valid
        else:
            env = dict(verdict.counterexample)
            try:
                value = eval_formula(goal, env)
            except UBSignal:
                value = False
            assert value is False


class TestPrinterParserRoundtrip:
    names = st.sampled_from(["a", "b", "c", "x", "y"])

    @st.composite
    def exprs(draw, depth=3):
        if depth == 0 or draw(st.booleans()):
            kind = draw(st.integers(0, 2))
            if kind == 0:
                return str(draw(st.integers(0, 99)))
            if kind == 1:
                return draw(TestPrinterParserRoundtrip.names)
            return draw(st.sampled_from(["true", "false"]))
        op = draw(st.sampled_from(["+", "-", "*", "<", "==", "&&", "||"]))
        left = draw(TestPrinterParserRoundtrip.exprs(depth=depth - 1))
        right = draw(TestPrinterParserRoundtrip.exprs(depth=depth - 1))
        return f"({left} {op} {right})"

    @settings(max_examples=60, deadline=None)
    @given(exprs())
    def test_print_parse_fixpoint(self, text):
        expr = parse_expression(text)
        printed = expr_to_str(expr)
        reparsed = parse_expression(printed)
        assert expr_equal(expr, reparsed), (text, printed)


class TestLexerProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from(
        ["x", "y", "123", "0xFF", ":=", "::=", "==>", "&&", "(", ")",
         "while", "if", "+", "<", "<=", "yield", ";"]
    ), max_size=20))
    def test_token_stream_roundtrip(self, pieces):
        source = " ".join(pieces)
        tokens = tokenize(source)
        assert [t.text for t in tokens[:-1]] == pieces

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**64 - 1))
    def test_integer_literals_roundtrip(self, value):
        tokens = tokenize(str(value))
        assert int(tokens[0].text) == value
        tokens_hex = tokenize(hex(value))
        assert int(tokens_hex[0].text, 0) == value
