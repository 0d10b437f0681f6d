"""Heuristic, oracle and extern adapter tests."""

from __future__ import annotations

import gc
import io
import json
import logging
import random
import re
import shlex
import subprocess
import sys
import time
import warnings
from collections import Counter
from itertools import islice
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopcache import core, traffic
from coopcache.core import (
    EMPTY_SLOT,
    NOOP,
    ORACLE_BATCH_MIN,
    ORACLE_MASK_BSS,
    BsAction,
    CacheState,
    JointAction,
    StructuralError,
    apply,
    feasible_actions,
    hottest_uncached,
    oracle_batched,
    oracle_best_action,
    oracle_joint_action,
    request_slot,
)
from coopcache.episode import Episode, expert_walk
from coopcache.harness import rollout
from coopcache.interface import SlotObservation, decode_prompt, parse, serialize
from coopcache.frames import FRAME_LIMIT, HEADER_LIMIT, frame_length, read_frame, write_frame
from coopcache.policies import (
    AdapterError,
    ExternPolicy,
    FifoPolicy,
    LfuPolicy,
    LruPolicy,
    OraclePolicy,
    _eviction_actions,
    _first_missed_candidate,
    make_policy,
)
from coopcache.reward import RewardConfig, lookahead_value, lookahead_values
from coopcache.traffic import (
    FrequencyTracker,
    InstanceConfig,
    WarmState,
    build_instance,
    warm_start,
)

from conftest import observation, random_scenario, scenarios, small_config, synthetic_graph


def _warm(cache, trace=(), seen=0):
    """A warm state whose tracker has seen ``seen`` slots and that records no insertion."""
    return WarmState(cache, FrequencyTracker((1,), trace, seen), tuple({} for _ in cache.slots))


def _decide(policy, obs, book=None):
    """One decision of a book policy whose book at BS 1 starts as ``book``."""
    policy.reset(None, _warm(obs.cache))
    policy.book[0].update(book or {})
    return policy.decide(obs)


def test_lru_unique_victim():
    graph = synthetic_graph(((1,),), 1)
    cache = CacheState(((1, 2),))
    requests = request_slot(((0, 3),), graph)
    obs = observation(cache, requests)
    assert serialize(_decide(LruPolicy(), obs, {1: 45, 2: 49})) == "BS 1: SWAP slot=1 out=1 in=3"


def test_lru_noop_when_all_cached():
    graph = synthetic_graph(((1,),), 1)
    cache = CacheState(((1, 2),))
    requests = request_slot(((0, 2),), graph)
    assert serialize(_decide(LruPolicy(), observation(cache, requests), {1: 45, 2: 49})) == (
        "BS 1: NOOP"
    )


def test_lru_tie_breaks_to_lower_file_id():
    graph = synthetic_graph(((1,),), 1)
    cache = CacheState(((7, 2),))
    requests = request_slot(((0, 3),), graph)
    assert serialize(_decide(LruPolicy(), observation(cache, requests), {7: 40, 2: 40})) == (
        "BS 1: SWAP slot=2 out=2 in=3"
    )


def test_lfu_victim_by_count_and_tie():
    graph = synthetic_graph(((1,),), 1)
    cache = CacheState(((1, 2),))
    requests = request_slot(((0, 3),), graph)
    obs = observation(cache, requests)
    assert serialize(_decide(LfuPolicy(), obs, {1: 9, 2: 4})) == "BS 1: SWAP slot=2 out=2 in=3"
    assert serialize(_decide(LfuPolicy(), obs, {1: 4, 2: 4})) == "BS 1: SWAP slot=1 out=1 in=3"


def test_fifo_victim_by_insertion_and_arrival_insert():
    graph = synthetic_graph(((1,), (1,)), 1)
    cache = CacheState(((1, 2),))
    # user 0 asks for 9 first, user 1 asks for 3: queue inserts 9
    requests = request_slot(((0, 9), (1, 3)), graph)
    policy = FifoPolicy()
    assert serialize(_decide(policy, observation(cache, requests), {1: 30, 2: 10})) == (
        "BS 1: SWAP slot=2 out=2 in=9"
    )
    assert policy.book == [{1: 30, 9: 1}]  # the swap moves the book on


# The ``min(..., key=...)`` forms the one-pass picks replaced, kept as the
# references they must agree with, ties included.
def _reference_hottest(cache, b, requests):
    pool = requests.counts[b - 1].keys() - cache.files_at(b)
    if not pool:
        return None
    counts = requests.counts[b - 1]
    return min(pool, key=lambda f: (-counts[f], f))


def _reference_eviction_actions(obs, book, candidate_fn):
    actions = []
    for b in range(1, obs.bs_count + 1):
        f_in = candidate_fn(obs.cache, b, obs.requests)
        if f_in is None or not obs.cache.is_full(b):
            actions.append(NOOP)
            continue
        score = book[b - 1]
        victim = min(obs.cache.files_at(b), key=lambda f: (score.get(f, 0), f))
        z = obs.cache.slots[b - 1].index(victim) + 1
        actions.append(BsAction(z, f_in, victim))
    return actions


def _draw_book(data, cache):
    """Per BS, a score in -1..2 for some cached files, so scores tie and some default to 0."""
    scores = st.one_of(st.none(), st.integers(-1, 2))
    book = []
    for row in cache.slots:
        drawn = {f: data.draw(scores) for f in row if f != EMPTY_SLOT}
        book.append({f: v for f, v in drawn.items() if v is not None})
    return book


def _assert_picks_match_the_references(obs, book):
    for b in range(1, obs.bs_count + 1):
        assert hottest_uncached(obs.cache, b, obs.requests) == (
            _reference_hottest(obs.cache, b, obs.requests)
        )
    assert _eviction_actions(obs, book, hottest_uncached) == (
        _reference_eviction_actions(obs, book, _reference_hottest)
    )
    assert _eviction_actions(obs, book, _first_missed_candidate) == (
        _reference_eviction_actions(obs, book, _first_missed_candidate)
    )


@settings(max_examples=300)
@given(scenarios(peek_max=0, holes=True), st.data())
def test_picks_match_the_min_forms_on_scenarios(scenario, data):
    cache, _graph, requests, _peek = scenario
    _assert_picks_match_the_references(observation(cache, requests),
                                       _draw_book(data, cache))


@settings(max_examples=200)
@given(st.data())
def test_picks_match_the_min_forms_on_decoded_prompts(data):
    """A decoded prompt's counts are the text's, so they may be 0 or negative."""
    lines = ["SLOT 1"]
    for b in range(1, data.draw(st.integers(1, 3)) + 1):
        row = data.draw(st.lists(st.integers(1, 7), min_size=1, max_size=4, unique=True))
        holes = data.draw(st.sets(st.integers(0, len(row) - 1)))
        cells = " ".join("-" if z in holes else str(f) for z, f in enumerate(row))
        counts = data.draw(st.dictionaries(st.integers(1, 8), st.integers(-2, 2), max_size=6))
        lines.append(f"BS {b} CACHE: {cells}")
        lines.append(f"BS {b} REQUESTS:" + "".join(f" {f}:{c}" for f, c in counts.items()))
    obs = decode_prompt("\n".join(lines))
    _assert_picks_match_the_references(obs, _draw_book(data, obs.cache))


@pytest.mark.parametrize("spec", ["lru", "lfu", "fifo"])
def test_a_book_policy_without_a_warm_state_names_itself(spec):
    with pytest.raises(StructuralError, match=rf"^{spec}: reset needs the warm state"):
        make_policy(spec).reset(None)


def test_an_oracle_deciding_before_reset_names_itself(small_instance):
    obs = observation(CacheState.empty(small_instance.config.cache_size),
                      small_instance.request_slot(1))
    with pytest.raises(StructuralError, match=r"^oracle:2: decide needs reset"):
        OraclePolicy(2).decide(obs, small_instance.peek(1, 2))


@pytest.mark.parametrize("horizon", [2.5, True, "2"])
def test_oracle_policy_refuses_a_horizon_that_is_not_an_integer(horizon):
    with pytest.raises(StructuralError,
                       match=f"^{re.escape(f'horizon must be an integer >= 1, not {horizon!r}')}$"):
        OraclePolicy(horizon)
    oracle = OraclePolicy(np.int64(2))
    assert oracle.name == "oracle:2" and type(oracle.horizon) is int


_BAD_GAMMAS = [(True, "gamma must be a finite number, not True"),
               ("0.5", "gamma must be a finite number, not '0.5'"),
               (float("nan"), "gamma must be a finite number, not nan"),
               (float("inf"), "gamma must be a finite number, not inf"),
               (0.0, "gamma must be in (0, 1]"), (-0.5, "gamma must be in (0, 1]"),
               (1.5, "gamma must be in (0, 1]")]


@pytest.mark.parametrize("asker", ["reward-config", "oracle-policy", "warm-start"])
@pytest.mark.parametrize("gamma, text", _BAD_GAMMAS)
def test_every_gamma_asker_refuses_a_bad_discount_in_the_same_words(small_instance, asker,
                                                                    gamma, text):
    ask = {"reward-config": lambda: RewardConfig(gamma=gamma),
           "oracle-policy": lambda: OraclePolicy(2, gamma),
           "warm-start": lambda: warm_start(small_instance, 2, gamma)}[asker]
    with pytest.raises(StructuralError, match=f"^{re.escape(text)}$"):
        ask()


def test_a_valid_gamma_is_taken_as_the_same_float_everywhere(small_instance):
    assert [OraclePolicy(2, g).gamma for g in (1, np.float64(0.5))] == [1.0, 0.5]
    assert type(OraclePolicy(2, np.float64(0.5)).gamma) is float
    warm = warm_start(small_instance, 2, 1.0)
    for gamma in (1, np.float64(1.0)):
        assert warm_start(small_instance, 2, gamma) == warm


def test_heuristics_emit_parseable_text():
    rng = random.Random(3)
    for _ in range(100):
        cache, graph, requests = random_scenario(rng)
        obs = observation(cache, requests)
        for policy in (LruPolicy(), LfuPolicy(), FifoPolicy()):
            action = _decide(policy, obs)
            assert parse(serialize(action), obs) == action
            assert action.is_valid
            apply(cache, action, requests)


def test_oracle_inserts_upcoming_file():
    graph = synthetic_graph(((1,),), 1)
    cache = CacheState(((1, 2),))
    now = request_slot(((0, 5),), graph)
    nxt = request_slot(((0, 5),), graph)
    act = oracle_best_action(cache, 1, now, (nxt,), graph, 1, 0.9)
    assert not act.is_noop
    assert act.file_in == 5


def test_oracle_noop_when_future_cached():
    graph = synthetic_graph(((1,),), 1)
    cache = CacheState(((1, 2),))
    now = request_slot(((0, 5),), graph)
    nxt = request_slot(((0, 1),), graph)
    assert oracle_best_action(cache, 1, now, (nxt,), graph, 1, 0.9) == NOOP


def test_oracle_requires_full_peek():
    graph = synthetic_graph(((1,),), 1)
    cache = CacheState(((1, 2),))
    now = request_slot(((0, 5),), graph)
    with pytest.raises(StructuralError):
        oracle_best_action(cache, 1, now, (), graph, 1, 0.9)


def test_oracle_attains_brute_force_maximum():
    """Tally-based search matches full enumeration through the slow scorer."""
    rng = random.Random(17)
    cfg = RewardConfig(horizon=3, gamma=0.8)
    checked = 0
    while checked < 40:
        cache, graph, requests = random_scenario(rng)
        peek = tuple(
            request_slot(
                tuple((u, rng.randint(1, 10)) for u in range(graph.user_count)), graph
            )
            for _ in range(cfg.horizon)
        )
        for b in range(1, cache.bs_count + 1):
            chosen = oracle_best_action(
                cache, b, requests, peek, graph, cfg.horizon, cfg.gamma
            )
            best = None
            for act in feasible_actions(cache, b, requests):
                joint = [NOOP] * cache.bs_count
                joint[b - 1] = act
                after = apply(cache, JointAction.valid(joint), requests)
                value = lookahead_value(after, peek, graph, cfg.horizon, cfg.gamma)
                best = value if best is None else max(best, value)
            joint = [NOOP] * cache.bs_count
            joint[b - 1] = chosen
            achieved = lookahead_value(
                apply(cache, JointAction.valid(joint), requests),
                peek, graph, cfg.horizon, cfg.gamma,
            )
            assert achieved == pytest.approx(best, abs=1e-12)
            checked += 1


def reference_oracle_best_action(cache, b, requests, peek, graph, horizon, gamma) -> BsAction:
    """The full per-request scan the pruned oracle replaced, kept verbatim.

    Every peek request recounts its holders among all covering BSs.
    """
    if horizon < 1:
        raise StructuralError("horizon must be >= 1")
    if len(peek) < horizon:
        raise StructuralError(f"peek holds {len(peek)} slots, horizon needs {horizon}")
    if not cache.is_full(b):
        return NOOP
    cached_here = cache.files_at(b)
    candidates = sorted(requests.counts[b - 1].keys() - cached_here)
    if not candidates:
        return NOOP
    gain: dict = {}
    loss: dict = {}
    weight = 1.0
    for k in range(horizon):
        slot_requests = peek[k]
        if slot_requests.pairs:
            scale = weight / len(slot_requests.pairs)
            for u, f in slot_requests.pairs:
                covered_here = False
                holders = 0
                for bb in graph.coverage[u]:
                    if bb == b:
                        covered_here = True
                    if f in cache.files_at(bb):
                        holders += 1
                if not covered_here:
                    continue
                if holders == 0:
                    gain[f] = gain.get(f, 0.0) + scale
                elif holders == 1 and f in cached_here:
                    loss[f] = loss.get(f, 0.0) + scale
        weight *= gamma
    winners = [f for f in candidates if gain.get(f, 0.0) > 0.0]
    if not winners:
        return NOOP
    best = NOOP
    best_score = 0.0
    for z, f_out in enumerate(cache.slots[b - 1], start=1):
        lose = loss.get(f_out, 0.0)
        for f_in in winners:
            score = gain[f_in] - lose
            if score > best_score:
                best, best_score = BsAction(z, f_in, f_out), score
    assert best_score >= 0.0  # the no-op floor: never worse than keeping the cache
    return best


@settings(max_examples=120)
@given(scenarios(), st.data())
def test_oracle_matches_reference_scan_and_exhaustive_search(scenario, data):
    """The pruned scan picks the reference scan's action, bit for bit, and
    swaps exactly when some feasible swap raises the look-ahead value."""
    cache, graph, requests, peek = scenario
    b = data.draw(st.integers(1, cache.bs_count), label="b")
    horizon = data.draw(st.integers(1, len(peek)), label="horizon")
    gamma = data.draw(st.sampled_from((0.5, 0.8, 0.9, 1.0)), label="gamma")
    chosen = oracle_best_action(cache, b, requests, peek, graph, horizon, gamma)
    assert chosen == reference_oracle_best_action(
        cache, b, requests, peek, graph, horizon, gamma
    )

    def delta(act):
        joint = [NOOP] * cache.bs_count
        joint[b - 1] = act
        values = lookahead_values([cache, apply(cache, JointAction.valid(joint), requests)],
                                  peek, graph, horizon, gamma)
        return values[1] - values[0]

    best = max(delta(act) for act in feasible_actions(cache, b, requests))
    assert chosen.is_noop == (best <= 1e-12)
    assert delta(chosen) == pytest.approx(best, abs=1e-12)


def test_oracle_decoupled_across_bs():
    """Joint output equals per-BS searches run in isolation."""
    rng = random.Random(31)
    for _ in range(30):
        cache, graph, requests = random_scenario(rng, max_bs=3)
        peek = tuple(
            request_slot(
                tuple((u, rng.randint(1, 10)) for u in range(graph.user_count)), graph
            )
            for _ in range(2)
        )
        obs = observation(cache, requests)
        oracle = OraclePolicy(2, 0.9)
        oracle.reset(SimpleNamespace(graph=graph))
        joint = oracle.decide(obs, peek)
        assert parse(serialize(joint), obs) == joint
        assert joint.is_valid
        for b, act in enumerate(joint.actions, start=1):
            solo = oracle_best_action(cache, b, requests, peek, graph, 2, 0.9)
            assert act == solo


def _per_bs(cache, requests, peek, graph, horizon, gamma) -> JointAction:
    """The joint oracle's small-size path: one oracle_best_action per BS."""
    return JointAction.valid([oracle_best_action(cache, b, requests, peek, graph, horizon, gamma)
                              for b in range(1, cache.bs_count + 1)])


def _widened(scenario, bs_count):
    """The scenario with its BSs moved to the top of ``bs_count`` BSs. The BSs
    below cover no user and each hold file 1, so file 1's holder mask spans
    every bit up to the scenario's own."""
    cache, graph, requests, peek = scenario
    shift = bs_count - cache.bs_count
    wide = synthetic_graph([[b + shift for b in cov] for cov in graph.coverage], bs_count)

    def moved(slot):
        return request_slot(slot.pairs, wide)

    return CacheState(((1,),) * shift + cache.slots), wide, moved(requests), tuple(map(moved, peek))


@settings(max_examples=200)
@given(scenarios(holes=True, uncovered=True), st.data())
def test_the_batched_oracle_equals_the_per_bs_loop(scenario, data):
    """Called directly, whatever the size: every horizon the peek allows, on
    the scenario's own 1-4 BSs and moved to the top of ORACLE_MASK_BSS BSs."""
    if data.draw(st.booleans(), label="widened"):
        scenario = _widened(scenario, ORACLE_MASK_BSS)
    cache, graph, requests, peek = scenario
    horizon = data.draw(st.integers(1, len(peek)), label="horizon")
    gamma = data.draw(st.sampled_from((0.5, 0.8, 0.9, 1.0)), label="gamma")
    assert oracle_batched(cache, requests, peek, graph, horizon, gamma) == _per_bs(
        cache, requests, peek, graph, horizon, gamma)


@settings(max_examples=200)
@given(scenarios(holes=True, uncovered=True), st.data())
def test_both_oracles_on_partial_slots_equal_the_pair_scan(scenario, data):
    """Peek slots with absent and uncovered users, divided by their request
    count, score as the per-request scan over their pairs scores them."""
    cache, graph, requests, peek = scenario
    horizon = data.draw(st.integers(1, len(peek)), label="horizon")
    gamma = data.draw(st.sampled_from((0.5, 0.8, 0.9, 1.0)), label="gamma")
    expected = [reference_oracle_best_action(cache, b, requests, peek, graph, horizon, gamma)
                for b in range(1, cache.bs_count + 1)]
    assert _per_bs(cache, requests, peek, graph, horizon, gamma) == JointAction.valid(expected)
    assert oracle_batched(cache, requests, peek, graph, horizon, gamma) == \
        JointAction.valid(expected)


@settings(max_examples=200)
@given(scenarios(peek_max=1, holes=True, uncovered=True))
def test_the_fifo_candidate_on_partial_slots_is_the_first_missed_pair(scenario):
    cache, graph, requests, peek = scenario
    for slot in (requests, *peek):
        for b in range(1, cache.bs_count + 1):
            pool, cached = slot.counts[b - 1], cache.files_at(b)
            expected = next((f for _u, f in slot.pairs if f in pool and f not in cached), None)
            assert _first_missed_candidate(cache, b, slot) == expected


def test_the_batched_oracle_refuses_what_the_loop_refuses():
    graph = synthetic_graph(((1,), (1, 2)), 2)
    cache = CacheState(((1, 2), (3, 4)))
    now = request_slot(((0, 5), (1, 6)), graph)
    for peek, horizon, message in (((), 1, "peek holds 0 slots, horizon needs 1"),
                                   ((now,), 0, "horizon must be >= 1")):
        with pytest.raises(StructuralError, match=message):
            oracle_batched(cache, now, peek, graph, horizon, 0.9)
    cache, graph, now, peek = _widened((cache, graph, now, (now,)), ORACLE_MASK_BSS + 1)
    with pytest.raises(StructuralError, match=f"at most {ORACLE_MASK_BSS} BSs"):
        oracle_batched(cache, now, peek, graph, 1, 0.9)


def test_both_joint_oracle_bodies_refuse_mismatched_bs_counts_alike():
    """A 2-BS cache on the 5-BS, 40-user seed-1 graph at slot 101: the per-BS
    loop (H=1) and the batched pass (H=10) refuse it with one error."""
    instance = build_instance(InstanceConfig(bs_count=5, users=40), 1)
    cache = CacheState(warm_start(instance).cache.slots[:2])
    for horizon in (1, 10):
        with pytest.raises(StructuralError, match="^cache/requests/graph BS counts differ$"):
            oracle_joint_action(cache, instance.request_slot(101), instance.peek(101, horizon),
                                instance.graph, horizon, 0.9)


def test_the_golden_export_walk_agrees_with_the_per_bs_loop():
    """Every state of the 5-BS export walk the goldens pin (seed 2), each
    answered by the batched path, is the loop's answer."""
    instance = build_instance(InstanceConfig(bs_count=5, users=40), 2)
    states = 0
    for obs, expert, peek in expert_walk(instance, 10, 0.9):
        assert expert == _per_bs(obs.cache, obs.requests, peek, instance.graph, 10, 0.9)
        states += 1
    assert states == instance.config.rollout_slots


def _count_paths(monkeypatch) -> Counter:
    """Count the joint oracle's batched calls, its per-BS calls and the warm-up's."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(core, "oracle_batched", counted("batched", core.oracle_batched))
    monkeypatch.setattr(core, "oracle_best_action", counted("loop", core.oracle_best_action))
    monkeypatch.setattr(traffic, "oracle_best_action",
                        counted("warm-up", traffic.oracle_best_action))
    return calls


def test_each_oracle_caller_takes_its_path(monkeypatch):
    """The export walk at H=10 on 5 BSs (seed 2: 84 entries a peek slot, so
    840) takes the batched path; ``oracle:1`` there (84), ``oracle:10`` on 2
    BSs and the warm-up take the per-BS loop, and so does a graph past the mask."""
    calls = _count_paths(monkeypatch)
    five = build_instance(InstanceConfig(bs_count=5, users=40), 2)
    entries = len(five.graph.column_masks[0])
    assert entries == 84 and 10 * entries >= ORACLE_BATCH_MIN > entries
    warm = warm_start(five)
    assert calls.pop("warm-up") > 0 and not calls
    assert len(list(islice(expert_walk(five, 10, 0.9), 3))) == 3
    assert calls.pop("batched") >= 3 and calls.pop("warm-up") > 0 and not calls
    rollout(five, make_policy("oracle:1"), 4, warm)
    assert calls == {"loop": 4 * 5}
    calls.clear()
    two = build_instance(InstanceConfig(), 1)
    rollout(two, make_policy("oracle:10"), 4, warm_start(two))
    assert calls.pop("loop") == 4 * 2 and calls.pop("warm-up") > 0 and not calls
    graph = synthetic_graph(((1,), (1, 2)), 2)
    cache, graph, requests, _ = _widened(
        (CacheState(((1, 2), (3, 4))), graph, request_slot(((0, 5), (1, 6)), graph), ()),
        ORACLE_MASK_BSS + 1)
    peek = (requests,) * ORACLE_BATCH_MIN
    assert oracle_joint_action(cache, requests, peek, graph, len(peek), 0.9) == _per_bs(
        cache, requests, peek, graph, len(peek), 0.9)
    assert calls == {"loop": ORACLE_MASK_BSS + 1}


def test_oracle_next_slot_weak_dominance(small_instance):
    """At H=1, the chosen action never loses next-slot hits to standing pat."""
    from coopcache.core import hit_rate

    inst = small_instance
    warm = warm_start(inst, 1, 0.9)
    cache = warm.cache
    graph = inst.graph
    for t in range(inst.config.warm_slots + 1, inst.config.warm_slots + 21):
        requests = inst.request_slot(t)
        peek = inst.peek(t, 1)
        actions = [
            oracle_best_action(cache, b, requests, peek, graph, 1, 0.9)
            for b in range(1, inst.config.bs_count + 1)
        ]
        after = apply(cache, JointAction.valid(actions), requests)
        assert hit_rate(after, peek[0], graph) >= hit_rate(cache, peek[0], graph)
        cache = after


def _brute_force_books(trace, graph):
    """Per BS: the last slot in which each file was requested by a covered
    user, and the number of such requests, recounted from the raw pairs."""
    last = [{} for _ in range(graph.bs_count)]
    totals = [{} for _ in range(graph.bs_count)]
    for t, requests in enumerate(trace, start=1):
        for u, f in requests.pairs:
            for b in graph.coverage[u]:
                last[b - 1][f] = t
                totals[b - 1][f] = totals[b - 1].get(f, 0) + 1
    return last, totals


def test_frequency_book_matches_trace(small_instance):
    inst = small_instance
    warm = warm_start(inst, 4, 0.9)
    last, totals = _brute_force_books(inst.trace[: inst.config.warm_slots], inst.graph)
    for policy, expected in ((LruPolicy(), last), (LfuPolicy(), totals)):
        policy.reset(inst, warm)
        assert policy.book == expected


@settings(max_examples=60)
@given(scenario=scenarios(), seen=st.integers(0, 33), steps=st.integers(0, 33))
def test_request_books_follow_the_trace(scenario, seen, steps):
    """After reset plus k decides, LRU and LFU books equal a recount of slots 1..t."""
    cache, graph, requests, peek = scenario
    trace = ((requests,) + peek) * 3  # repeats, so files come back after a gap
    seen = min(seen, len(trace))
    t = min(seen + steps, len(trace))
    warm = _warm(cache, trace, seen)
    last, totals = _brute_force_books(trace[:t], graph)
    for policy, expected in ((LruPolicy(), last), (LfuPolicy(), totals)):
        policy.reset(None, warm)
        for slot in range(seen + 1, t + 1):
            policy.decide(SlotObservation(slot, cache, trace[slot - 1], warm.tracker))
        assert policy.book == expected


def _round_trip_checked(policy):
    """``policy``, whose every answer is checked to be a valid ``JointAction``
    that its own text parses back to: the round trip the rollout skips."""
    decide = policy.decide

    def checked(obs, peek=None):
        action = decide(obs, peek)
        assert type(action) is JointAction and action.is_valid
        assert parse(serialize(action), obs) == action
        policy.checked += 1
        return action

    policy.decide, policy.checked = checked, 0
    return policy


@settings(max_examples=12)
@given(bs_count=st.sampled_from((2, 5)), users=st.integers(3, 10), library=st.integers(6, 14),
       cache_size=st.integers(1, 4), groups=st.integers(1, 3), alpha=st.floats(0.5, 1.6),
       seed=st.integers(0, 99))
def test_built_in_actions_survive_the_text_round_trip_in_rollouts(bs_count, users, library,
                                                                  cache_size, groups, alpha,
                                                                  seed):
    instance = build_instance(small_config(bs_count=bs_count, users=users, library=library,
                                           cache_size=cache_size, groups=groups, alpha=alpha,
                                           rollout_slots=12), seed)
    warm = warm_start(instance, 4, 0.9)
    for spec in ("noop", "lru", "lfu", "fifo", "oracle:1", "oracle:4"):
        policy = _round_trip_checked(make_policy(spec))
        report = rollout(instance, policy, None, warm)
        assert policy.checked == report.slots and report.invalid_actions == 0


@settings(max_examples=100)
@given(scenarios(peek_max=4, holes=True, uncovered=True), st.data())
def test_built_in_actions_survive_the_text_round_trip_on_scenarios(scenario, data):
    """One decision per built-in on caches with holes, uncovered users and
    empty slots, with the book policies' books drawn and the oracle looking
    one slot or the whole peek ahead."""
    cache, graph, requests, peek = scenario
    obs = observation(cache, requests)
    for spec in ("noop", "lru", "lfu", "fifo", "oracle:1", f"oracle:{len(peek)}"):
        policy = make_policy(spec)
        policy.reset(SimpleNamespace(graph=graph), _warm(cache))
        if spec in ("lru", "lfu", "fifo"):
            policy.book = _draw_book(data, cache)
        _round_trip_checked(policy).decide(obs, peek[:policy.peek_len])
        assert policy.checked == 1


def test_make_policy_specs():
    assert make_policy("lru").name == "lru"
    assert make_policy("oracle:5").horizon == 5
    assert make_policy("noop").name == "noop"
    with pytest.raises(StructuralError):
        make_policy("magic")
    with pytest.raises(StructuralError):
        make_policy("oracle:x")


def test_extern_roundtrip_noop(small_instance):
    warm = warm_start(small_instance, 4, 0.9)
    policy = ExternPolicy(f"{sys.executable} -m coopcache.extern_stub", timeout=20)
    policy.reset(small_instance, warm)
    try:
        obs = Episode(small_instance, warm).advance()
        text = policy.decide(obs)
        action = parse(text, obs)
        assert action.is_valid and action.is_all_noop
    finally:
        policy.close()


def test_extern_garbage_parses_invalid(small_instance, golden_obs):
    body = (
        "import sys\n"
        "from coopcache.frames import read_frame, write_frame\n"
        "while True:\n"
        "    p = read_frame(sys.stdin.buffer)\n"
        "    if p is None: break\n"
        "    write_frame(sys.stdout.buffer, 'gibberish !!')\n"
    )
    policy = ExternPolicy(f'{sys.executable} -c "{body}"', timeout=20)
    policy.reset(small_instance, None)
    try:
        text = policy.decide(golden_obs)
        assert parse(text, golden_obs).reason == "syntax"
    finally:
        policy.close()


def test_extern_timeout_yields_empty(small_instance, golden_obs):
    body = "import time\ntime.sleep(60)\n"
    policy = ExternPolicy(f'{sys.executable} -c "{body}"', timeout=0.5)
    policy.reset(small_instance, None)
    try:
        text = policy.decide(golden_obs)
        assert text == ""
        assert not parse(text, golden_obs).is_valid
    finally:
        policy.close()


def test_extern_timeout_warning_prints_the_timeout_as_given(small_instance, golden_obs, caplog):
    policy = ExternPolicy(f'{sys.executable} -c "import time; time.sleep(60)"', timeout=0.05)
    policy.reset(small_instance, None)
    try:
        with caplog.at_level(logging.WARNING, logger="coopcache.policies"):
            assert policy.decide(golden_obs) == ""
    finally:
        policy.close()
    messages = [r.getMessage() for r in caplog.records]
    assert messages[0] == f"adapter timed out after 0.05s at slot {golden_obs.slot}", messages


def test_extern_matches_each_reply_to_its_own_prompt(small_instance, golden_obs, tmp_path):
    """An adapter that answers prompt 1 only once prompt 2 has arrived: slot 1
    times out, and slot 2 gets the reply to its own prompt, not to slot 1's."""
    script = tmp_path / "late_adapter.py"
    script.write_text(
        "import sys\n"
        "src, out = sys.stdin.buffer, sys.stdout.buffer\n"
        "def prompt():\n"
        "    return src.read(int(src.readline()[4:]))\n"
        "for held in [prompt(), prompt()]:\n"
        "    reply = b'reply to ' + held.splitlines()[0]\n"
        "    out.write(b'LEN %d\\n' % len(reply) + reply)\n"
        "out.flush()\n"
        "src.read()\n"
    )
    command = f"{shlex.quote(sys.executable)} {shlex.quote(str(script))}"
    policy = ExternPolicy(command, timeout=1.0)
    policy.reset(small_instance, None)
    try:
        assert policy.decide(golden_obs) == ""
        assert policy.decide(golden_obs._replace(slot=102)) == "reply to SLOT 102"
    finally:
        policy.close()


def test_dead_adapter_is_reported_once(small_instance, caplog):
    policy = ExternPolicy(f"{sys.executable} -c pass", timeout=20)
    with caplog.at_level(logging.WARNING, logger="coopcache.policies"):
        report = rollout(small_instance, policy, 20, warm_start(small_instance))
    assert report.invalid_actions == 20
    messages = [r.getMessage() for r in caplog.records]
    assert len(messages) == 2, messages
    assert messages[0].startswith("adapter is gone")
    assert messages[1].startswith("adapter was gone for 20 slot(s)")


def test_extern_closes_its_pipes(monkeypatch):
    """Neither a respawn after the adapter exits nor ``close`` leaves a pipe
    for the garbage collector to find open."""
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    policy = ExternPolicy(f"{sys.executable} -c pass", timeout=20)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        policy.reset(None, None)
        policy._proc.wait(timeout=20)
        policy.reset(None, None)  # the child has exited, so this respawns it
        policy.close()
        gc.collect()
    assert [u.exc_value for u in unraisable] == []


_HOSTILE_PROLOGUE = (
    "import sys, time\n"
    "from coopcache.frames import read_frame, write_frame\n"
    "src, out = sys.stdin.buffer, sys.stdout.buffer\n"
    "def send(raw):\n"
    "    out.write(raw)\n"
    "    out.flush()\n"
    "def drain():\n"
    "    while src.read(1 << 16):\n"
    "        pass\n"
)


@pytest.mark.parametrize("body, answered, cause, bound_s", [
    pytest.param("time.sleep(600)\n",
                 0, "prompt not written by the deadline", 20, id="deaf"),
    pytest.param("read_frame(src)\nsend(b'LEN 100\\nBS 1')\ndrain()\n",
                 0, "partial frame at the deadline", 10, id="stalled-mid-frame"),
    pytest.param("while read_frame(src) is not None:\n    send(b'LEN 4\\nnope' * 2)\n",
                 0, "extra frame", 10, id="double-reply"),
    pytest.param(f"read_frame(src)\nsend(b'LEN {FRAME_LIMIT + 1}\\n')\ndrain()\n",
                 0, "bad frame header", 10, id="oversized-header"),
    pytest.param("read_frame(src)\nsend(b'HELLO THERE\\n')\ndrain()\n",
                 0, "bad frame header", 10, id="garbage-header"),
    pytest.param("for _ in range(10):\n"
                 "    read_frame(src)\n"
                 "    write_frame(out, 'BS 1: NOOP\\nBS 2: NOOP')\n",
                 10, "end of output|pipe closed|process exited", 10, id="exit-mid-run"),
])
def test_a_hostile_adapter_ends_early_and_is_reported_once(tmp_path, body, answered, cause,
                                                           bound_s):
    """A full ``run`` against each hostile adapter, at a 0.05 s timeout, in a
    child process that a hang fails by its own timeout. Every slot scores
    invalid except the replies the adapter sent in time: a timed-out reply is
    dropped as late, so each timeout costs one of them."""
    script = tmp_path / "adapter.py"
    script.write_text(_HOSTILE_PROLOGUE + body)
    out = tmp_path / "out"
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-m", "coopcache.cli", "run", "--bs", "2", "--seeds", "1",
         "--policy", f"extern:{shlex.quote(sys.executable)} {shlex.quote(str(script))}",
         "--extern-timeout", "0.05", "--out", str(out)],
        capture_output=True, text=True, timeout=60)
    elapsed = time.monotonic() - started
    assert done.returncode == 0, done.stderr
    report = json.loads((out / "report_extern_seed1.json").read_text())
    timeouts = done.stderr.count("adapter timed out")
    assert report["invalid_actions"] == report["slots"] - max(answered - timeouts, 0)
    gone = [line for line in done.stderr.splitlines() if "adapter is gone" in line]
    assert len(gone) == 1, done.stderr
    assert re.search(cause, gone[0]), gone[0]
    assert done.stderr.count("adapter was gone for") == 1, done.stderr
    assert elapsed < bound_s


def test_extern_spawn_failure(tmp_path):
    """A command that cannot start is refused when the policy is built; one
    that the system then fails to run is refused at ``reset``."""
    for command, message in (
            ("/nonexistent/binary/path", "no executable '/nonexistent/binary/path'"),
            ('python "unterminated', "No closing quotation"),
            ("   ", "empty adapter command")):
        with pytest.raises(AdapterError, match=message):
            ExternPolicy(command)
    garbage = tmp_path / "adapter"  # executable, but in no format the system runs
    garbage.write_bytes(b"\x00\x01 not a program\n")
    garbage.chmod(0o755)
    policy = ExternPolicy(str(garbage))
    with pytest.raises(AdapterError, match="cannot start adapter"):
        policy.reset(None, None)


def test_read_frame_bounds_the_header_line():
    stream = io.BytesIO(b"L" * 5_000_000)
    assert read_frame(stream) is None
    assert stream.tell() <= HEADER_LIMIT


def test_read_frame_round_trip_and_bad_headers():
    stream = io.BytesIO()
    write_frame(stream, "BS 1: NOOP")
    write_frame(stream, "")
    stream.seek(0)
    assert read_frame(stream) == "BS 1: NOOP"
    assert read_frame(stream) == ""
    assert read_frame(stream) is None  # EOF
    for raw in (b"LEN x\n", b"LEN -1\n", b"SIZE 3\nabc", b"LEN 3\nab", b"LEN 3"):
        assert read_frame(io.BytesIO(raw)) is None


def test_frame_length_accepts_frame_limit_and_refuses_one_byte_more():
    assert FRAME_LIMIT == 16 * 1024 * 1024  # README's wire limit
    assert frame_length(b"LEN %d\n" % FRAME_LIMIT) == FRAME_LIMIT
    assert frame_length(b"LEN %d\n" % (FRAME_LIMIT + 1)) is None


@pytest.mark.parametrize("header", [
    b"LEN 1_0\n", b"LEN +5\n", b"LEN  5\n", b"LEN 5 \n", b"LEN 5\r\n",
], ids=repr)
def test_frame_length_refuses_a_length_that_is_not_ascii_digits(header):
    assert frame_length(header) is None


def test_importing_the_package_loads_no_adapter_machinery():
    """Loading every module the package exports from loads no ``subprocess``,
    ``selectors``, ``shlex`` or ``logging``: they load only when an extern
    policy is built or used."""
    modules = ("subprocess", "selectors", "shlex", "logging")
    probe = f"import sys\nfrom coopcache import *\nprint([m for m in {modules!r} if m in sys.modules])"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True, timeout=60)  # conftest puts src on PYTHONPATH
    assert done.stdout == "[]\n"
