"""Shaped reward, advantage and shaping-audit tests."""

from __future__ import annotations

import dataclasses
import random
import re
from collections import Counter
from functools import lru_cache
from itertools import islice
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopcache import reward
from coopcache.core import (
    EMPTY_SLOT,
    NOOP,
    BsAction,
    CacheState,
    JointAction,
    StructuralError,
    feasible_actions,
    hit_rate,
    request_slot,
)
from coopcache.episode import expert_walk
from coopcache.interface import serialize
from coopcache.reward import (
    RewardConfig,
    group_advantage,
    joint_space_size,
    lookahead_value,
    lookahead_values,
    score_completion,
    score_group,
    verify_pbrs,
)
from coopcache.traffic import InstanceConfig, build_instance

from conftest import observation, random_scenario, scenarios, small_config, synthetic_graph
from test_core import brute_force_hit_rate


def _rate_slot(graph, hit_users, total_users, cached_file, other_file):
    """A request slot where exactly hit_users/total_users ask for the cached file."""
    pairs = tuple(
        (u, cached_file if u < hit_users else other_file) for u in range(total_users)
    )
    return request_slot(pairs, graph)


def test_lookahead_value_unweighted_mean():
    graph = synthetic_graph(tuple((1,) for _ in range(10)), 1)
    cache = CacheState(((1, 0, 0),))
    peek = (
        _rate_slot(graph, 5, 10, 1, 99),  # hit rate 0.5
        _rate_slot(graph, 7, 10, 1, 99),  # hit rate 0.7
    )
    assert lookahead_value(cache, peek, graph, 2, 1.0) == pytest.approx(0.6)


def test_lookahead_value_discounted():
    graph = synthetic_graph(tuple((1,) for _ in range(4)), 1)
    cache = CacheState(((1, 0),))
    peek = (
        _rate_slot(graph, 4, 4, 1, 99),  # 1.0
        _rate_slot(graph, 0, 4, 1, 99),  # 0.0
        _rate_slot(graph, 0, 4, 1, 99),  # 0.0
    )
    value = lookahead_value(cache, peek, graph, 3, 0.5)
    assert value == pytest.approx(1 / 1.75)
    assert value == pytest.approx(0.5714, abs=1e-4)


def test_lookahead_value_single_step_is_hit_rate():
    from coopcache.core import hit_rate

    rng = random.Random(13)
    for _ in range(30):
        cache, graph, requests = random_scenario(rng)
        assert lookahead_value(cache, (requests,), graph, 1, 0.3) == hit_rate(
            cache, requests, graph
        )


def test_lookahead_value_bounds_and_short_peek():
    rng = random.Random(19)
    for _ in range(50):
        cache, graph, requests = random_scenario(rng)
        value = lookahead_value(cache, (requests, requests), graph, 2, 0.7)
        assert 0.0 <= value <= 1.0
    graph = synthetic_graph(((1,),), 1)
    with pytest.raises(StructuralError):
        lookahead_value(CacheState(((1,),)), (), graph, 1, 0.9)


@st.composite
def _batches(draw):
    """A scenario's graph and peek, a horizon and gamma, and 1-7 caches of
    the scenario's shape: its own cache and others drawn alike, holes included."""
    cache, graph, _, peek = draw(scenarios(holes=True, uncovered=True))
    library = max([len(row) + 1 for row in cache.slots] + [f for s in peek for _, f in s.pairs])
    caches = [cache]
    for _ in range(draw(st.integers(0, 6))):
        rows = []
        for row in cache.slots:
            files = draw(st.lists(st.integers(1, library), min_size=len(row), max_size=len(row),
                                  unique=True))
            empty = draw(st.lists(st.booleans(), min_size=len(row), max_size=len(row)))
            rows.append(tuple(EMPTY_SLOT if e else f for f, e in zip(files, empty)))
        caches.append(CacheState(tuple(rows)))
    horizon = draw(st.integers(1, len(peek)))
    gamma = draw(st.floats(0.0, 1.0, exclude_min=True))
    return caches, peek, graph, horizon, gamma


@settings(max_examples=200)
@given(_batches())
def test_lookahead_values_equal_lookahead_value_bit_for_bit(batch):
    caches, peek, graph, horizon, gamma = batch
    values = lookahead_values(caches, peek, graph, horizon, gamma)
    assert all(type(v) is float for v in values)
    assert values == [lookahead_value(c, peek, graph, horizon, gamma) for c in caches]


def reference_lookahead_value(cache, peek, graph, horizon, gamma, rate=hit_rate) -> float:
    """The per-slot ``hit_rate`` loop ``lookahead_value`` ran before it became
    the one-cache case of ``lookahead_values``, kept as a reference; ``rate``
    scores one slot."""
    num = den = 0.0
    weight = 1.0
    for k in range(horizon):
        num += weight * rate(cache, peek[k], graph)
        den += weight
        weight *= gamma
    return num / den


@settings(max_examples=200)
@given(_batches())
def test_lookahead_values_equal_the_hit_rate_loop_bit_for_bit(batch):
    caches, peek, graph, horizon, gamma = batch
    assert lookahead_values(caches, peek, graph, horizon, gamma) == [
        reference_lookahead_value(c, peek, graph, horizon, gamma) for c in caches]


def _pair_hit_rate(cache, requests, graph) -> float:
    return brute_force_hit_rate(cache.slots, graph.coverage, requests.pairs)


@settings(max_examples=200)
@given(_batches())
def test_lookahead_values_equal_the_pair_hit_rate_sum_bit_for_bit(batch):
    """The dense file matrix, absent users' 0 included, counts the hits the
    scan over each slot's request pairs counts."""
    caches, peek, graph, horizon, gamma = batch
    assert lookahead_values(caches, peek, graph, horizon, gamma) == [
        reference_lookahead_value(c, peek, graph, horizon, gamma, _pair_hit_rate)
        for c in caches]


def test_lookahead_values_cover_the_edge_shapes():
    """Uncovered users, empty slots and files no slot asks for score as one by one."""
    graph = synthetic_graph(((1,), (), (1, 2)), 2)
    peek = (request_slot(((0, 3), (1, 3), (2, 4)), graph), request_slot((), graph),
            request_slot(((1, 9),), graph), request_slot(((2, 1),), graph))
    caches = [CacheState(((3, 0), (4,))), CacheState(((0, 0), (0,))),
              CacheState(((50, 1), (3,))), CacheState(((4, 3), (9,)))]
    for horizon in range(1, 5):
        expected = [lookahead_value(c, peek, graph, horizon, 0.7) for c in caches]
        assert lookahead_values(caches, peek, graph, horizon, 0.7) == expected
    assert lookahead_values([], peek, graph, 2, 0.7) == []
    assert lookahead_values(caches, peek[1:3], graph, 1, 0.7) == [0.0] * 4


def _error(fn, *args):
    with pytest.raises(StructuralError) as info:
        fn(*args)
    return str(info.value)


def test_lookahead_values_raise_as_lookahead_value_does():
    graph = synthetic_graph(((1,), (1, 2)), 2)
    peek = (request_slot(((0, 1), (1, 2)), graph),) * 2
    cache = CacheState(((1,), (2,)))
    other = synthetic_graph(((1,), (1,)), 1)
    cases = [
        (cache, peek, graph, 3, 0.9),  # a short peek
        (cache, peek, graph, 0, 0.9),  # horizon < 1
        (CacheState(((1,),)), peek, graph, 2, 0.9),  # the cache's BS count
        (cache, (request_slot(((0, 1),), other),), graph, 1, 0.9),  # the slot's
        (cache, peek, other, 1, 0.9),  # the graph's
    ]
    for one, *rest in cases:
        assert _error(lookahead_values, [cache, one], *rest) == _error(lookahead_value, one, *rest)


def test_score_group_noop_gain_is_exactly_zero():
    rng = random.Random(23)
    cfg = RewardConfig(horizon=2, gamma=0.9)
    for _ in range(30):
        cache, graph, requests = random_scenario(rng)
        noop = JointAction.valid([NOOP] * cache.bs_count)
        out, = score_group([serialize(noop)], observation(cache, requests),
                           (requests, requests), noop, cfg, graph)
        assert out.gain == 0.0


def test_score_group_insert_everyones_file():
    graph = synthetic_graph(tuple((1,) for _ in range(5)), 1)
    cache = CacheState(((1, 2),))
    cfg = RewardConfig(horizon=2, gamma=1.0)
    peek = (
        _rate_slot(graph, 5, 5, 9, 9),
        _rate_slot(graph, 5, 5, 9, 9),
    )
    after = CacheState(((9, 2),))
    before_value = lookahead_value(cache, peek, graph, 2, 1.0)
    swap = JointAction.valid([BsAction(1, 9, 1)])
    out, = score_group([serialize(swap)], observation(cache, peek[0]), peek, swap, cfg, graph)
    assert out.gain == lookahead_value(after, peek, graph, 2, 1.0) - before_value
    assert out.gain == pytest.approx(1.0 - before_value)
    assert out.gain > 0


def test_score_group_evicting_only_hit_is_negative():
    graph = synthetic_graph(tuple((1,) for _ in range(5)), 1)
    cache = CacheState(((9, 2),))
    cfg = RewardConfig(horizon=2, gamma=1.0)
    peek = (
        _rate_slot(graph, 5, 5, 9, 9),
        _rate_slot(graph, 5, 5, 9, 9),
    )
    requests = _rate_slot(graph, 5, 5, 7, 7)  # everyone asks for 7 now, for 9 next
    swap = JointAction.valid([BsAction(1, 7, 9)])
    out, = score_group([serialize(swap)], observation(cache, requests), peek, swap, cfg, graph)
    assert out.action == swap
    assert out.gain < 0


def test_score_group_rejects_illegal_transition(monkeypatch):
    graph = synthetic_graph(((1,),), 1)
    cfg = RewardConfig(horizon=1)
    requests = request_slot(((0, 3),), graph)
    swap = JointAction.valid([BsAction(1, 3, 1)])
    monkeypatch.setattr(reward, "apply", lambda *args: CacheState(((3, 4),)))  # two swaps
    with pytest.raises(StructuralError):
        score_group([serialize(swap)], observation(CacheState(((1, 2),)), requests),
                    (requests,), swap, cfg, graph)


@lru_cache(maxsize=None)
def _walk_states(bs_count: int):
    """The graph, reward config and first expert-walk states of a 2-BS or a 5-BS instance."""
    config = small_config(rollout_slots=16) if bs_count == 2 else InstanceConfig(
        bs_count=5, users=40, library=60, warm_slots=20, rollout_slots=8, horizon_reserve=4)
    instance = build_instance(config, 3)
    cfg = RewardConfig(horizon=3)
    return instance.graph, cfg, tuple(islice(expert_walk(instance, cfg.horizon, cfg.gamma), 6))


@st.composite
def _groups(draw):
    """A group of completions of one expert-walk state: the expert, the no-op,
    random feasible joint swaps and malformed text, drawn with repeats."""
    graph, cfg, states = _walk_states(draw(st.sampled_from((2, 5))))
    obs, expert, peek = draw(st.sampled_from(states))
    noop = JointAction.valid([NOOP] * obs.bs_count)
    swaps = [JointAction.valid([draw(st.sampled_from(feasible_actions(obs.cache, b, obs.requests)))
                                for b in range(1, obs.bs_count + 1)])
             for _ in range(draw(st.integers(0, 4)))]
    malformed = ["", "!!nonsense!!", serialize(expert)[:-1], draw(st.text(max_size=12))]
    pool = [serialize(joint) for joint in (expert, noop, *swaps)] + malformed
    texts = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=10))
    witness = draw(st.sampled_from((expert, noop)))
    return texts, obs, peek, witness, cfg, graph


def _bits(rows):
    """Each breakdown with its floats as hex, so 0.0 and -0.0 differ."""
    return [(r.gain.hex(), r.penalty.hex(), r.total.hex(), r.classification, r.expert_acted,
             r.action) for r in rows]


@settings(max_examples=100, deadline=None)
@given(_groups())
def test_score_group_equals_score_completion_per_text_bit_for_bit(group):
    """One ``lookahead_values`` call scores the whole group, and each row is the
    breakdown ``score_completion`` gives its text alone."""
    texts, *state = group
    calls = []
    real = reward.lookahead_values
    with mock.patch.object(reward, "lookahead_values",
                           lambda *args: calls.append(args) or real(*args)):
        rows = score_group(texts, *state)
    assert len(calls) == 1
    assert _bits(rows) == _bits([score_completion(text, *state) for text in texts])


def _score_fixture():
    graph = synthetic_graph(((1,), (1,)), 1)
    cache = CacheState(((1, 2),))
    requests = request_slot(((0, 5), (1, 5)), graph)
    obs = observation(cache, requests)
    peek = (request_slot(((0, 5), (1, 5)), graph),)
    expert = JointAction.valid([BsAction(1, 5, 1)])
    cfg = RewardConfig(horizon=1, gamma=0.9)
    return graph, obs, peek, expert, cfg


def test_score_garbage_saturates_format_penalty():
    graph, obs, peek, expert, cfg = _score_fixture()
    out = score_completion("!!nonsense!!", obs, peek, expert, cfg, graph)
    assert out.classification == "invalid"
    assert out.gain == 0.0
    assert out.total == -1.0


def test_score_passive_noop_pays_opportunity_penalty():
    graph, obs, peek, expert, cfg = _score_fixture()
    out = score_completion("BS 1: NOOP", obs, peek, expert, cfg, graph)
    assert out.classification == "valid-noop"
    assert out.expert_acted
    assert out.total == pytest.approx(-0.2)


def test_score_noop_unpenalized_when_expert_agrees():
    graph, obs, peek, expert, cfg = _score_fixture()
    lazy_expert = JointAction.valid([NOOP])
    out = score_completion("BS 1: NOOP", obs, peek, lazy_expert, cfg, graph)
    assert out.penalty == 0.0
    assert out.total == 0.0


def test_score_valid_write_no_penalty():
    graph, obs, peek, expert, cfg = _score_fixture()
    out = score_completion("BS 1: SWAP slot=1 out=1 in=5", obs, peek, expert, cfg, graph)
    assert out.classification == "valid-write"
    assert out.penalty == 0.0
    assert out.total == pytest.approx(out.gain)
    assert out.gain > 0


def test_reward_config_validation():
    with pytest.raises(StructuralError):
        RewardConfig(horizon=0)
    with pytest.raises(StructuralError):
        RewardConfig(gamma=0.0)
    with pytest.raises(StructuralError):
        RewardConfig(lambda_opp=0.1)
    with pytest.raises(StructuralError):
        RewardConfig(epsilon=0.0)
    # zero penalties are representable so the audit can flag them
    RewardConfig(lambda_opp=0.0)


@pytest.mark.parametrize("name", ["gamma", "lambda_fmt", "lambda_opp", "epsilon"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_reward_config_rejects_non_finite_floats(name, bad):
    with pytest.raises(StructuralError, match=f"{name} must be a finite number"):
        RewardConfig(**{name: bad})


_INTEGER, _FINITE = "an integer >= 1", "a finite number"


@pytest.mark.parametrize("name, bad, kind", [
    ("horizon", 2.5, _INTEGER), ("horizon", True, _INTEGER), ("horizon", "3", _INTEGER),
    ("gamma", "0.9", _FINITE), ("gamma", True, _FINITE), ("lambda_fmt", False, _FINITE),
    ("lambda_opp", "-0.2", _FINITE), ("epsilon", True, _FINITE), ("epsilon", "1e-4", _FINITE),
])
def test_reward_config_refuses_a_bool_text_or_fractional_value(name, bad, kind):
    with pytest.raises(StructuralError, match=f"^{re.escape(f'{name} must be {kind}, not {bad!r}')}$"):
        RewardConfig(**{name: bad})


def test_reward_config_stores_numpy_numbers_as_python_numbers():
    cfg = RewardConfig(horizon=np.int64(3), gamma=np.float64(0.5), lambda_opp=np.float32(-0.25))
    assert cfg == RewardConfig(horizon=3, gamma=0.5, lambda_opp=-0.25)
    assert [type(getattr(cfg, f.name)) for f in dataclasses.fields(cfg)] == [int] + [float] * 4


@pytest.mark.parametrize("epsilon", [0.0, -0.1, float("nan"), float("inf"), True, "1e-4"])
def test_group_advantage_refuses_the_floors_reward_config_refuses(epsilon):
    """One epsilon rule, one message: a zero floor would divide by zero, and a
    negative one would flip the ranking of a group."""
    refused = _error(lambda e: RewardConfig(epsilon=e), epsilon)
    assert _error(group_advantage, [0.1, 0.0], epsilon) == refused


def test_group_advantage_examples():
    assert group_advantage([0.5, 0.5, 0.5], 1e-4) == [0.0, 0.0, 0.0]
    adv = group_advantage([1.0, -1.0], 1e-4)
    assert adv == pytest.approx([0.99990001, -0.99990001])
    assert group_advantage([0.3], 1e-4) == [0.0]
    with pytest.raises(StructuralError):
        group_advantage([], 1e-4)


def test_group_advantage_moments():
    rng = random.Random(37)
    for _ in range(50):
        n = rng.randint(2, 12)
        rewards = [rng.uniform(-1, 1) for _ in range(n)]
        eps = 1e-4
        adv = group_advantage(rewards, eps)
        assert sum(adv) / n == pytest.approx(0.0, abs=1e-9)
        mean = sum(rewards) / n
        std = (sum((r - mean) ** 2 for r in rewards) / n) ** 0.5
        var = sum(a * a for a in adv) / n
        # the floor shrinks the variance by exactly (std/(std+eps))^2
        assert var == pytest.approx((std / (std + eps)) ** 2, rel=1e-9)
        if std > 0.1:
            assert var == pytest.approx(1.0, abs=2e-3)


def test_joint_space_exact_product():
    # five BSs, 10 slots each, 4 requested-and-uncached files: 41^5
    graph = synthetic_graph(
        tuple((b,) for b in range(1, 6) for _ in range(4)), 5
    )
    pairs = []
    u = 0
    for b in range(5):
        for f in (90, 91, 92, 93):
            pairs.append((u, f))
            u += 1
    requests = request_slot(tuple(pairs), graph)
    cache = CacheState(tuple(tuple(range(b * 10 + 1, b * 10 + 11)) for b in range(5)))
    obs = observation(cache, requests)
    size = joint_space_size(obs)
    assert size.factors == (41,) * 5
    assert size.product == 115_856_201
    assert size.exponential_bound_applies and size.exponential_bound_holds


def test_joint_space_lower_bound_tightness():
    graph = synthetic_graph(((1,), (2,), (3,)), 3)
    requests = request_slot(((0, 9), (1, 9), (2, 9)), graph)
    cache = CacheState(((1,), (2,), (3,)))
    size = joint_space_size(observation(cache, requests))
    assert size.factors == (2, 2, 2)
    assert size.product == 8 == 2 ** 3


def test_joint_space_bound_skipped_when_noop_only():
    graph = synthetic_graph(((1,), (2,)), 2)
    requests = request_slot(((0, 1), (1, 9)), graph)
    cache = CacheState(((1,), (2,)))  # BS1's only request already cached
    size = joint_space_size(observation(cache, requests))
    assert size.factors[0] == 1
    assert not size.exponential_bound_applies


def test_verify_pbrs_clean_on_random_instance():
    cfg = small_config(rollout_slots=24)
    report = verify_pbrs(build_instance(cfg, 9), 10, RewardConfig(horizon=3))
    assert report.slots_checked == 10
    assert report.actions_checked > 0
    assert report.ok
    assert not report.flags


def test_verify_pbrs_lists_each_audited_bs_once(monkeypatch):
    """Each audited slot's joint space counts the actions audited at each BS,
    from one ``feasible_actions`` call per BS, and equals ``joint_space_size``."""
    instance = build_instance(small_config(rollout_slots=24), 9)
    cfg = RewardConfig(horizon=3)
    expected = [joint_space_size(obs)
                for obs, _, _ in islice(expert_walk(instance, cfg.horizon, cfg.gamma), 6)]
    calls = []
    real = reward.feasible_actions
    monkeypatch.setattr(reward, "feasible_actions",
                        lambda *args: calls.append(args[1]) or real(*args))
    report = verify_pbrs(instance, 6, cfg)
    bs_count = instance.config.bs_count
    assert report.slots_checked == 6 and list(report.spaces) == expected
    assert calls == list(range(1, bs_count + 1)) * 6
    assert report.actions_checked == sum(sum(space.factors) for space in expected)
    assert report.actions_checked > 6 * bs_count  # some swaps were audited


def test_verify_pbrs_flags_zero_opportunity_penalty():
    cfg = small_config(rollout_slots=12)
    report = verify_pbrs(
        build_instance(cfg, 9), 3, RewardConfig(horizon=3, lambda_opp=0.0)
    )
    assert any("lambda_opp" in f for f in report.flags)


def test_verify_pbrs_rows_equal_score_completion(monkeypatch):
    """Each audit row is bit-for-bit the breakdown score_completion gives."""
    _check_rows_equal_score_completion(monkeypatch, small_config(rollout_slots=16))


def test_verify_pbrs_rows_equal_score_completion_on_5_bss(monkeypatch):
    config = InstanceConfig(bs_count=5, users=40, library=60, warm_slots=20, rollout_slots=8,
                            horizon_reserve=4)
    _check_rows_equal_score_completion(monkeypatch, config)


def _check_rows_equal_score_completion(monkeypatch, config):
    instance = build_instance(config, 3)
    cfg = RewardConfig(horizon=3)
    rows = []
    shape = reward._breakdown

    def record(*args):
        rows.append(shape(*args))
        return rows[-1]

    monkeypatch.setattr(reward, "_breakdown", record)
    report = verify_pbrs(instance, 6, cfg)
    monkeypatch.undo()
    bs_count = instance.config.bs_count
    expected = [
        score_completion(serialize(JointAction.valid(
            [act if bb == b else NOOP for bb in range(1, bs_count + 1)]
        )), obs, peek, expert, cfg, instance.graph)
        for obs, expert, peek in islice(expert_walk(instance, cfg.horizon, cfg.gamma), 6)
        for b in range(1, bs_count + 1)
        for act in feasible_actions(obs.cache, b, obs.requests)
    ]
    assert len(rows) == len(expected) == report.actions_checked
    assert any(r.gain != 0.0 for r in rows) and any(r.penalty != 0.0 for r in rows)
    assert [(r.gain, r.penalty, r.total, r.classification, r.action) for r in rows] == [
        (r.gain, r.penalty, r.total, r.classification, r.action) for r in expected
    ]


def _reference_ranking_faults(writes):
    """The pairwise loop ``verify_pbrs`` counted ranking faults with: one per
    ordered pair of (gain, unclipped score) whose gains differ by more than
    the tolerance and whose scores do not rank them alike."""
    faults = 0
    for i, (g_i, u_i) in enumerate(writes):
        for g_j, u_j in writes[i + 1 :]:
            if g_i > g_j + reward._ARGMAX_TOL and not u_i > u_j:
                faults += 1
            if g_j > g_i + reward._ARGMAX_TOL and not u_j > u_i:
                faults += 1
    return faults


def test_verify_pbrs_counts_ranking_faults_as_the_pairwise_loop(monkeypatch):
    """A planted penalty on BS 1's positive-gain swaps reverses some rankings
    and not others; each BS gets as many ranking entries as the loop counts."""
    shape = reward._breakdown
    groups = []  # per audited BS: (gain, unclipped) of each swap

    def planted(action, gain, expert_acted, cfg):
        out = shape(action, gain, expert_acted, cfg)
        if action.is_all_noop:  # each BS's actions open with its no-op
            groups.append([])
        elif out.classification == reward.CLASS_VALID_WRITE:
            if not action.actions[0].is_noop and gain > 0.0:
                out = dataclasses.replace(out, penalty=-2.5 * gain)
            groups[-1].append((gain, out.unclipped))
        return out

    monkeypatch.setattr(reward, "_breakdown", planted)
    instance = build_instance(InstanceConfig(), 2)
    cfg = RewardConfig()
    report = verify_pbrs(instance, 8, cfg)
    monkeypatch.undo()
    bs_range = range(1, instance.config.bs_count + 1)
    where = [f"seed 2 slot {obs.slot} BS {b}"
             for obs, _, _ in islice(expert_walk(instance, cfg.horizon, cfg.gamma), 8)
             for b in bs_range]
    expected = [_reference_ranking_faults(writes) for writes in groups]
    assert len(expected) == len(where)
    assert sum(expected) > 0 and expected[1::2] == [0] * 8  # BS 2's rankings hold
    faults = Counter(entry.split(":")[0] for entry in report.order_violations)
    assert [faults[w] for w in where] == expected
    assert sum(faults.values()) == len(report.order_violations)


def test_verify_pbrs_scores_each_candidate_cache_once(monkeypatch):
    """One value per slot cache and per swap's cache, through either entry point."""
    scored = []
    one, many = reward.lookahead_value, reward.lookahead_values

    def counted_one(cache, *rest):
        scored.append(cache)
        return one(cache, *rest)

    def counted_many(caches, *rest):
        scored.extend(caches)
        return many(caches, *rest)

    monkeypatch.setattr(reward, "lookahead_value", counted_one)
    monkeypatch.setattr(reward, "lookahead_values", counted_many)
    instance = build_instance(small_config(rollout_slots=16), 3)
    report = verify_pbrs(instance, 6, RewardConfig(horizon=3))
    swaps = report.actions_checked - report.slots_checked * instance.config.bs_count
    assert report.slots_checked == 6 and swaps > 0
    assert len(scored) == report.slots_checked + swaps


def test_noop_optimal_state_stays_unpenalized():
    """When nothing beats keeping the cache, the no-op is argmax and unpunished."""
    graph = synthetic_graph(((1,), (1,)), 1)
    cache = CacheState(((5, 6),))
    requests = request_slot(((0, 7), (1, 7)), graph)
    obs = observation(cache, requests)
    peek = (request_slot(((0, 5), (1, 6)), graph),)
    cfg = RewardConfig(horizon=1)
    expert = JointAction.valid([NOOP])
    noop_score = score_completion(serialize(expert), obs, peek, expert, cfg, graph)
    assert noop_score.penalty == 0.0 and noop_score.total == 0.0
    for act in (BsAction(1, 7, 5), BsAction(2, 7, 6)):
        swap = JointAction.valid([act])
        out = score_completion(serialize(swap), obs, peek, expert, cfg, graph)
        assert out.total <= noop_score.total
