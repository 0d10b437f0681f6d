"""Domain type and constraint checker tests."""

from __future__ import annotations

import copy
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopcache.core import (
    EMPTY_SLOT,
    NOOP,
    BsAction,
    CacheState,
    FeasibilityError,
    JointAction,
    RequestSlot,
    StructuralError,
    apply,
    check_transition,
    feasible_actions,
    hit_rate,
    request_slot,
    slot_from_row,
)

from conftest import (
    assert_same_slot,
    random_scenario,
    reference_request_slot,
    scenarios,
    synthetic_graph,
)


def brute_force_hit_rate(rows, coverage, pairs) -> float:
    """Independent oracle: direct double loop with list membership."""
    if not pairs:
        return 0.0
    hits = 0
    for u, f in pairs:
        served = False
        for b in coverage[u]:
            if f in list(rows[b - 1]):
                served = True
        if served:
            hits += 1
    return hits / len(pairs)


def test_hit_rate_neighborhood_example():
    # u0 -> BS1 wants 3 (cached at BS1), u1 -> both wants 7 (cached at BS2),
    # u2 -> BS2 wants 9 (uncached anywhere): two of three requests served.
    graph = synthetic_graph(((1,), (1, 2), (2,)), 2)
    cache = CacheState(((3, 0, 0), (7, 0, 0)))
    requests = request_slot(((0, 3), (1, 7), (2, 9)), graph)
    assert hit_rate(cache, requests, graph) == pytest.approx(2 / 3)


def test_hit_rate_empty_cache_and_full_coverage():
    graph = synthetic_graph(((1,), (2,)), 2)
    requests = request_slot(((0, 1), (1, 2)), graph)
    assert hit_rate(CacheState.empty((2, 2)), requests, graph) == 0.0
    everything = CacheState(((1, 2), (1, 2)))
    assert hit_rate(everything, requests, graph) == 1.0


def test_hit_rate_empty_requests_is_zero():
    graph = synthetic_graph(((1,),), 1)
    requests = request_slot((), graph)
    assert hit_rate(CacheState(((1, 2),)), requests, graph) == 0.0


def test_hit_rate_dimension_mismatch():
    """A BS count that differs in any one of cache, requests and graph raises."""
    one, two = synthetic_graph(((1,),), 1), synthetic_graph(((1, 2),), 2)
    cache_1, cache_2 = CacheState(((1,),)), CacheState(((1,), (2,)))
    requests_1, requests_2 = request_slot(((0, 1),), one), request_slot(((0, 1),), two)
    for cache, requests, graph in (
        (cache_2, requests_1, one),
        (cache_1, requests_2, one),
        (cache_1, requests_1, two),
    ):
        with pytest.raises(StructuralError, match="BS counts differ"):
            hit_rate(cache, requests, graph)


@settings(max_examples=200)
@given(scenarios(holes=True, uncovered=True))
def test_hit_rate_matches_brute_force(scenario):
    """Exact equality, also with empty slots, absent and uncovered users and
    partly empty caches."""
    cache, graph, requests, peek = scenario
    for slot in (requests, *peek):
        expected = brute_force_hit_rate(cache.slots, graph.coverage, slot.pairs)
        assert hit_rate(cache, slot, graph) == expected


def test_hit_rate_monotone_under_enlargement():
    rng = random.Random(21)
    for _ in range(200):
        cache, graph, requests = random_scenario(rng)
        b = rng.randint(1, cache.bs_count)
        # enlarge BS b by one extra slot holding a new file
        extra = rng.randint(1, 12)
        if extra in cache.files_at(b):
            continue
        rows = list(cache.slots)
        rows[b - 1] = rows[b - 1] + (extra,)
        bigger = CacheState(tuple(rows))
        assert hit_rate(bigger, requests, graph) >= hit_rate(cache, requests, graph)


def _single_bs_requests(files, graph=None):
    graph = graph or synthetic_graph(tuple((1,) for _ in files), 1)
    return graph, request_slot(tuple((u, f) for u, f in enumerate(files)), graph)


def test_apply_single_swap():
    graph, requests = _single_bs_requests((5,))
    cache = CacheState(((4, 7, 9),))
    action = JointAction.valid([BsAction(2, 5, 7)])
    assert apply(cache, action, requests).slots == ((4, 5, 9),)


def test_apply_all_noop_is_identity():
    graph, requests = _single_bs_requests((5,))
    cache = CacheState(((4, 7, 9),))
    assert apply(cache, JointAction.valid([NOOP]), requests) == cache


def test_apply_consistency_violation():
    graph, requests = _single_bs_requests((5,))
    cache = CacheState(((4, 7, 9),))
    with pytest.raises(FeasibilityError) as err:
        apply(cache, JointAction.valid([BsAction(2, 5, 8)]), requests)
    assert err.value.rule == "consistency"
    assert err.value.bs == 1


def test_apply_admissibility_and_duplication():
    graph, requests = _single_bs_requests((5,))
    cache = CacheState(((4, 5, 9),))
    with pytest.raises(FeasibilityError) as err:
        apply(cache, JointAction.valid([BsAction(1, 6, 4)]), requests)
    assert err.value.rule == "admissibility"
    with pytest.raises(FeasibilityError) as err:
        apply(cache, JointAction.valid([BsAction(1, 5, 4)]), requests)
    assert err.value.rule == "duplication"


def test_apply_rejects_invalid_joint_action():
    graph, requests = _single_bs_requests((5,))
    with pytest.raises(StructuralError):
        apply(CacheState(((4,),)), JointAction.invalid("syntax"), requests)


def test_apply_leaves_noop_rows_untouched():
    graph = synthetic_graph(((1,), (2,)), 2)
    requests = request_slot(((0, 6), (1, 6)), graph)
    cache = CacheState(((4, 7), (1, 2)))
    out = apply(cache, JointAction.valid([NOOP, BsAction(1, 6, 1)]), requests)
    assert out.slots[0] == (4, 7)
    assert out.slots[1] == (6, 2)


def test_feasible_actions_counts():
    # 10 slots, 4 requested files none cached: 41 actions
    graph = synthetic_graph(tuple((1,) for _ in range(4)), 1)
    requests = request_slot(((0, 11), (1, 12), (2, 13), (3, 14)), graph)
    cache = CacheState((tuple(range(1, 11)),))
    actions = feasible_actions(cache, 1, requests)
    assert len(actions) == 41
    assert actions[0] == NOOP


def test_feasible_actions_all_requested_cached():
    graph = synthetic_graph(((1,), (1,)), 1)
    requests = request_slot(((0, 1), (1, 2)), graph)
    cache = CacheState(((1, 2, 3),))
    assert feasible_actions(cache, 1, requests) == [NOOP]


def test_feasible_actions_enumeration_order():
    graph = synthetic_graph(((1,), (1,)), 1)
    requests = request_slot(((0, 2), (1, 3)), graph)
    cache = CacheState(((1, 2),))
    actions = feasible_actions(cache, 1, requests)
    assert actions == [NOOP, BsAction(1, 3, 1), BsAction(2, 3, 2)]


def test_feasible_actions_not_full_is_noop_only():
    graph = synthetic_graph(((1,),), 1)
    requests = request_slot(((0, 5),), graph)
    cache = CacheState(((1, EMPTY_SLOT),))
    assert feasible_actions(cache, 1, requests) == [NOOP]


def test_feasible_actions_closure():
    """Enumerated actions always apply cleanly and obey the swap budget."""
    rng = random.Random(99)
    for _ in range(150):
        cache, graph, requests = random_scenario(rng)
        for b in range(1, cache.bs_count + 1):
            for act in feasible_actions(cache, b, requests):
                joint = [NOOP] * cache.bs_count
                joint[b - 1] = act
                after = apply(cache, JointAction.valid(joint), requests)
                assert check_transition(cache, after)


def _any_swaps(cache, b, requests):
    """No-op plus every swap ``apply`` accepts at BS ``b``: also into a row with holes."""
    pool = sorted(requests.counts[b - 1].keys() - cache.files_at(b))
    return [NOOP] + [
        BsAction(z, f_in, f_out)
        for z, f_out in enumerate(cache.slots[b - 1], start=1) if f_out != EMPTY_SLOT
        for f_in in pool
    ]


@settings(max_examples=200)
@given(scenarios(peek_max=0, holes=True), st.data())
def test_trusted_step_matches_the_validating_constructor(scenario, data):
    """``apply`` rebuilds just the swapped rows: the result equals the state the
    checking constructor builds from its rows, the untouched rows and sets are
    the input's own objects, and the audit passes."""
    cache, _graph, requests, _ = scenario
    joint = [data.draw(st.sampled_from(_any_swaps(cache, b, requests)), label=f"BS {b}")
             for b in range(1, cache.bs_count + 1)]
    after = apply(cache, JointAction.valid(joint), requests)
    checked = CacheState(after.slots)
    for b, act in enumerate(joint, start=1):
        assert after.files_at(b) == checked.files_at(b)
        if act.is_noop:
            assert after.slots[b - 1] is cache.slots[b - 1]
            assert after.files_at(b) is cache.files_at(b)
        else:
            row = list(cache.slots[b - 1])
            row[act.slot - 1] = act.file_in
            assert after.slots[b - 1] == tuple(row)
    assert check_transition(cache, after)
    assert (after is cache) == all(act.is_noop for act in joint)


def test_check_transition_cases():
    prev = CacheState(((1, 2), (3, 4)))
    assert check_transition(prev, prev)
    one_swap = CacheState(((1, 5), (3, 4)))
    assert check_transition(prev, one_swap)
    two_swaps = CacheState(((5, 6), (3, 4)))
    assert not check_transition(prev, two_swaps)
    shared_first_row = CacheState((prev.slots[0], (5, 6)))
    assert not check_transition(prev, shared_first_row)
    with pytest.raises(StructuralError):
        check_transition(prev, CacheState(((1, 2),)))


def test_cache_state_validation():
    with pytest.raises(StructuralError):
        CacheState(((1, 1),))
    with pytest.raises(StructuralError):
        CacheState(((-3, 1),))
    cache = CacheState(((1, EMPTY_SLOT),))
    assert cache.files_at(1) == frozenset({1})
    assert not cache.is_full(1)


def test_insert_fills_or_swaps_one_slot_and_refuses_the_rest():
    cache = CacheState(((4, EMPTY_SLOT), (7, 9)))
    filled = cache.insert(1, 2, 5)
    swapped = filled.insert(2, 1, 5, 7)
    assert swapped.slots == ((4, 5), (5, 9))
    assert [swapped.files_at(b) for b in (1, 2)] == [{4, 5}, {5, 9}]
    assert swapped.slots[0] is filled.slots[0] and swapped.files_at(1) is filled.files_at(1)
    assert not cache.is_full(1)  # the input is left as it was
    for b, z, file_in, file_out in (
        (1, 2, 4, EMPTY_SLOT),  # a file already cached there
        (2, 1, 4, 9),  # a wrong occupant
        (2, 1, 4, EMPTY_SLOT),  # a fill of a held slot
        (1, 1, 5, EMPTY_SLOT),  # an occupied slot taken for empty
        (1, 3, 5, EMPTY_SLOT),  # a slot past the row
        (1, 0, 5, EMPTY_SLOT),  # slot 0, which indexes from the end
        (1, 2, EMPTY_SLOT, EMPTY_SLOT),  # no file
    ):
        with pytest.raises(StructuralError, match=f"^BS {b}: cannot insert"):
            cache.insert(b, z, file_in, file_out)


def test_bs_action_validation():
    with pytest.raises(StructuralError):
        BsAction(1, 5, 5)
    with pytest.raises(StructuralError):
        BsAction(0, 5, 0)
    with pytest.raises(StructuralError):
        BsAction(1, 0, 5)
    assert BsAction().is_noop


def _rebuilds(value):
    """Every way to copy ``value``, each a call: pickle at each protocol, copy and deepcopy."""
    pickles = [lambda p=p: pickle.loads(pickle.dumps(value, p))
               for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    return [*pickles, lambda: copy.copy(value), lambda: copy.deepcopy(value)]


@pytest.mark.parametrize("fields", [(1, 5, 5), (0, 5, 0), (1, 0, 5)])
def test_no_way_of_building_an_action_skips_its_checks(fields):
    """An action forged around ``__new__`` cannot be pickled or copied back
    into a value: each rebuild runs the constructor's checks."""
    with pytest.raises(StructuralError):
        BsAction(*fields)
    forged = tuple.__new__(BsAction, fields)
    joint = JointAction.valid([forged])
    for rebuild in _rebuilds(forged) + [
        lambda: pickle.loads(pickle.dumps(joint)),
        lambda: copy.deepcopy(joint),
    ]:
        with pytest.raises(StructuralError):
            rebuild()


def test_action_values_survive_pickle_and_copy():
    for value in (NOOP, BsAction(3, 42, 17), JointAction.valid([NOOP, BsAction(3, 42, 17)]),
                  JointAction.invalid("syntax")):
        for rebuild in _rebuilds(value):
            rebuilt = rebuild()
            assert type(rebuilt) is type(value)
            assert rebuilt == value
            assert repr(rebuilt) == repr(value)


def test_an_invalid_value_is_shared_per_reason_and_rebuilds_as_before():
    shared = JointAction.invalid("syntax")
    assert JointAction.invalid("syntax") is shared
    assert JointAction.invalid("count") is not shared
    fresh = JointAction(None, "syntax")  # built around the shared table
    assert fresh == shared and hash(fresh) == hash(shared) and fresh is not shared
    assert shared != JointAction.invalid("count") and shared != JointAction.valid([NOOP])
    for rebuild in _rebuilds(shared):
        rebuilt = rebuild()
        assert type(rebuilt) is JointAction
        assert rebuilt == shared and hash(rebuilt) == hash(shared)
        assert repr(rebuilt) == "JointAction(actions=None, reason='syntax')"
        assert (rebuilt.actions, rebuilt.reason, rebuilt.is_valid) == (None, "syntax", False)
    assert JointAction.invalid("syntax") is shared  # rebuilding changed nothing shared


def test_action_reprs_name_their_fields():
    assert repr(BsAction(3, 42, 17)) == "BsAction(slot=3, file_in=42, file_out=17)"
    assert repr(JointAction.valid([NOOP])) == (
        "JointAction(actions=(BsAction(slot=0, file_in=0, file_out=0),), reason=None)"
    )
    assert repr(JointAction.invalid("order")) == "JointAction(actions=None, reason='order')"


def test_action_fields_read_back():
    act = BsAction(3, 42, 17)
    assert (act.slot, act.file_in, act.file_out, act.is_noop) == (3, 42, 17, False)
    valid = JointAction.valid([NOOP, act])
    assert (valid.actions, valid.reason, valid.is_valid) == ((NOOP, act), None, True)
    assert not valid.is_all_noop and JointAction.valid([NOOP]).is_all_noop
    invalid = JointAction.invalid("count")
    assert (invalid.actions, invalid.reason, invalid.is_valid) == (None, "count", False)
    assert not invalid.is_all_noop
    with pytest.raises(AttributeError):
        act.slot = 4


def test_request_slot_invariants():
    graph = synthetic_graph(((1,), (1, 2)), 2)
    requests = request_slot(((1, 7), (0, 7)), graph)
    assert requests.pairs == ((0, 7), (1, 7))
    assert requests.counts[0] == {7: 2}
    assert requests.counts[1] == {7: 1}
    # every file of the pool has n > 0
    for b in range(2):
        assert all(n > 0 for n in requests.counts[b].values())
    with pytest.raises(StructuralError):
        request_slot(((0, 1), (0, 2)), graph)


@settings(max_examples=100)
@given(scenarios(peek_max=3, uncovered=True))
def test_request_slot_lists_the_requests_each_bs_covers(scenario):
    """``covered[b-1]`` has one entry per user in ``graph.columns[b-1]``: the
    user's file, or 0 exactly where the user made no request."""
    _cache, graph, requests, peek = scenario
    for slot in (requests, *peek):
        files = dict(slot.pairs)
        for b in range(1, graph.bs_count + 1):
            users = graph.columns[b - 1][0]
            assert len(slot.covered[b - 1]) == len(users)
            assert list(slot.covered[b - 1]) == [files.get(u, 0) for u in users]


@settings(max_examples=100)
@given(scenarios(peek_max=3, uncovered=True))
def test_a_request_slot_row_lines_up_with_the_column_masks(scenario):
    """``covered_row`` is ``covered`` concatenated in BS order, one entry per
    entry of ``graph.column_masks``; building it changes no equality."""
    _cache, graph, requests, peek = scenario
    bs_of = graph.column_masks[0].tolist()
    for slot in (requests, *peek):
        row = slot.covered_row
        assert row.dtype == np.int64
        assert row.tolist() == [f for files in slot.covered for f in files]
        assert [b for b, files in enumerate(slot.covered) for _ in files] == bs_of
        assert slot == request_slot(slot.pairs, graph)


def test_a_request_slot_pickles_and_copies_equal():
    graph = synthetic_graph(((1,), (1, 2), (2,)), 2)
    slot = request_slot(((2, 4), (0, 7)), graph)
    for rebuild in _rebuilds(slot):
        rebuilt = rebuild()
        assert type(rebuilt) is RequestSlot and rebuilt == slot
        assert [list(d.items()) for d in rebuilt.counts] == [list(d.items()) for d in slot.counts]
        assert rebuilt.covered == slot.covered == ((7, 0), (0, 4))


@settings(max_examples=200)
@given(scenarios(holes=True, uncovered=True))
def test_request_slot_matches_the_per_pair_reference(scenario):
    """Users absent from a slot, users no BS covers and pairs out of order."""
    _cache, graph, requests, peek = scenario
    for slot in (requests, *peek):
        pairs = slot.pairs[::-1]
        assert_same_slot(request_slot(pairs, graph), reference_request_slot(pairs, graph))


@settings(max_examples=200)
@given(scenarios(peek_max=0, uncovered=True), st.data())
def test_a_slot_stores_the_row_its_pairs_fill(scenario, data):
    """``row`` holds each user's file, 0 for an absent one; ``pairs`` and
    ``size`` derived from it give back the pairs the slot was built from."""
    _cache, graph, _, _ = scenario
    files = data.draw(st.lists(st.integers(0, 9), min_size=graph.user_count,
                               max_size=graph.user_count), label="files")
    pairs = [(u, f) for u, f in enumerate(files) if f]
    slot = request_slot(data.draw(st.permutations(pairs), label="order"), graph)
    assert slot.row == tuple(files)
    assert slot.pairs == tuple(pairs)
    assert slot.size == len(pairs)


# BS 2 covers nobody, BS 3 covers user 1 alone and no BS covers user 2.
_SPARSE_GRAPH = synthetic_graph(((1,), (1, 3), (), (1,)), 3)


@settings(max_examples=100)
@given(st.lists(st.integers(0, 5), min_size=4, max_size=4))
def test_a_file_row_builds_the_reference_slot(row):
    """``row[u]`` is user u's file, 0 for no request."""
    pairs = [(u, f) for u, f in enumerate(row) if f]
    reference = reference_request_slot(pairs, _SPARSE_GRAPH)
    assert_same_slot(slot_from_row(row, _SPARSE_GRAPH), reference)
    assert_same_slot(request_slot(pairs, _SPARSE_GRAPH), reference)
    assert reference.counts[1] == {} and reference.covered[1] == ()


_REFUSALS = [
    (((0, 1), (0, 2)), "one request per user per slot"),
    (((1, 0),), "file ids must be >= 1"),
    (((3, 1),), "user 3 is not in the association graph"),
    (((-1, 1),), "user -1 is not in the association graph"),
    # the first pair in user order that breaks a rule decides
    (((3, 0), (0, 1), (0, 2)), "one request per user per slot"),
    (((3, 1), (1, 0)), "file ids must be >= 1"),
    (((0, 4), (1, 1), (1, 0)), "file ids must be >= 1"),
    (((2, 5), (5, 1), (2, 6)), "one request per user per slot"),
    # and within one pair: the file before the user
    (((3, 0),), "file ids must be >= 1"),
    (((-2, -1),), "file ids must be >= 1"),
]


@pytest.mark.parametrize("pairs, message", _REFUSALS)
def test_request_slot_refuses_as_the_reference_does(pairs, message):
    graph = synthetic_graph(((1,), (1, 2), (2,)), 2)
    for build in (request_slot, reference_request_slot):
        with pytest.raises(StructuralError) as exc:
            build(pairs, graph)
        assert str(exc.value) == message


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_random_transitions_stay_binary_and_capped(seed):
    """Reachable states keep per-BS occupancy within capacity, no duplicates."""
    rng = random.Random(seed)
    cache, graph, requests = random_scenario(rng)
    for b in range(1, cache.bs_count + 1):
        options = feasible_actions(cache, b, requests)
        act = rng.choice(options)
        joint = [NOOP] * cache.bs_count
        joint[b - 1] = act
        cache = apply(cache, JointAction.valid(joint), requests)
        files = cache.files_at(b)
        assert len(files) <= len(cache.slots[b - 1])
        row = [f for f in cache.slots[b - 1] if f != EMPTY_SLOT]
        assert len(set(row)) == len(row)
