"""Episode stepper and expert walk tests."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopcache import episode as episode_module
from coopcache.core import (
    EMPTY_SLOT,
    NOOP,
    BsAction,
    FeasibilityError,
    JointAction,
    feasible_actions,
)
from coopcache.dataset import generate_grpo_states, generate_sft
from coopcache.episode import Episode, expert_walk
from coopcache.reward import RewardConfig, verify_pbrs
from coopcache.traffic import (
    FrequencyTracker,
    Instance,
    WarmState,
    advance_tracker,
    build_instance,
    observe,
    warm_start,
)

from conftest import scenarios, small_config


@pytest.fixture(scope="module")
def warm(small_instance):
    return warm_start(small_instance, 4, 0.9)


def test_episode_continues_after_the_warm_prefix(small_instance, warm):
    episode = Episode(small_instance, warm)
    t = small_instance.config.warm_slots + 1
    obs = episode.advance()
    requests = small_instance.request_slot(t)
    assert obs == observe(t, warm.cache, requests, advance_tracker(warm.tracker, requests))
    assert episode.slot == t and episode.tracker.slots_seen == t


def test_invalid_action_changes_nothing(small_instance, warm):
    episode = Episode(small_instance, warm)
    episode.advance()
    assert not episode.step(JointAction.invalid("syntax"))
    assert episode.cache == warm.cache
    assert episode.step(JointAction.valid([NOOP] * small_instance.config.bs_count))
    assert episode.cache == warm.cache


@settings(max_examples=100)
@given(scenarios(peek_max=0), st.data())
def test_an_infeasible_action_leaves_the_cache_unchanged(scenario, data):
    """A joint action with one infeasible swap raises and changes nothing;
    the same joint with that swap made a no-op is executed and passes the audit."""
    cache, graph, requests, _ = scenario
    instance = Instance(None, 0, graph, None, (requests,))
    warm = WarmState(cache, FrequencyTracker((1,), (requests,)), ())
    episode = Episode(instance, warm)
    episode.advance()
    joint = [data.draw(st.sampled_from(feasible_actions(cache, b, requests)))
             for b in range(1, cache.bs_count + 1)]
    b = data.draw(st.integers(1, cache.bs_count), label="b")
    row = cache.slots[b - 1]
    f_out = row[0]
    unseen = max(requests.counts[b - 1].keys() | cache.files_at(b)) + 1
    pool = sorted(requests.counts[b - 1].keys() - cache.files_at(b))
    bad = data.draw(st.sampled_from(
        [BsAction(1, unseen, f_out)]  # not requested here
        + [BsAction(1, f, f_out) for f in row[1:]]  # already cached
        + [BsAction(1, f, unseen) for f in pool]  # slot 1 holds another file
        + [BsAction(len(row) + 1, f, f_out) for f in pool]  # no such slot
    ), label="bad")
    with pytest.raises(FeasibilityError):
        episode.step(JointAction.valid(joint[: b - 1] + [bad] + joint[b:]))
    assert episode.cache is cache
    assert episode.step(JointAction.valid(joint[: b - 1] + [NOOP] + joint[b:]))


def test_executed_transition_is_audited(small_instance, warm, monkeypatch):
    episode = Episode(small_instance, warm)
    obs = episode.advance()
    b = next(b for b in range(1, obs.bs_count + 1)
             if obs.requests.counts[b - 1].keys() - obs.cache.files_at(b))
    f_in = min(obs.requests.counts[b - 1].keys() - obs.cache.files_at(b))
    actions = [NOOP] * obs.bs_count
    actions[b - 1] = BsAction(1, f_in, obs.cache.slots[b - 1][0])
    monkeypatch.setattr(episode_module, "check_transition", lambda prev, nxt: False)
    with pytest.raises(RuntimeError, match="single-swap budget"):
        episode.step(JointAction.valid(actions))
    assert episode.cache == warm.cache


def test_expert_walk_yields_full_cache_slots_in_order(small_instance):
    slots = [obs.slot for obs, _, _ in expert_walk(small_instance, 3, 0.9)]
    assert slots == sorted(set(slots))
    assert slots[-1] + 3 <= small_instance.trace_len


@pytest.mark.parametrize("cache_size", [(1, 3), (3, 1)])
def test_expert_walk_skips_a_slot_where_any_bs_has_an_empty_slot(cache_size, monkeypatch):
    """One warm-up slot fills only the 1-slot BS; a swap never names an empty
    slot, so no slot of the walk has every cache full. The walk checks that
    once, from the warm state, and ends without asking the oracle anything."""
    instance = build_instance(small_config(cache_size=cache_size, warm_slots=1), 1)
    assert [row.count(EMPTY_SLOT) for row in warm_start(instance, 3, 0.9).cache.slots] == [
        0 if size == 1 else 2 for size in cache_size]
    calls = []
    real = episode_module.oracle_joint_action
    monkeypatch.setattr(episode_module, "oracle_joint_action",
                        lambda *args: calls.append(args) or real(*args))
    assert list(expert_walk(instance, 3, 0.9)) == []
    assert calls == []


@pytest.mark.parametrize("generate", [generate_sft, generate_grpo_states])
def test_export_walk_stops_at_its_last_record(small_instance, monkeypatch, generate):
    # the warm-up calls the per-BS oracle in traffic, so only walk slots are counted
    slot_of = {id(r): t for t, r in enumerate(small_instance.trace, start=1)}
    walked = set()
    real = episode_module.oracle_joint_action

    def counted(cache, requests, *rest):
        walked.add(slot_of[id(requests)])
        return real(cache, requests, *rest)

    monkeypatch.setattr(episode_module, "oracle_joint_action", counted)
    export = generate(small_instance, 5, horizon=3)
    assert len(export.records) == 5
    assert max(walked) == export.records[-1].slot


def test_zero_records_and_zero_samples_walk_nothing(small_instance, monkeypatch):
    calls = []
    monkeypatch.setattr(episode_module, "oracle_joint_action",
                        lambda *args: calls.append(args) or JointAction.valid([NOOP, NOOP]))
    assert generate_sft(small_instance, 0, horizon=3).records == ()
    assert verify_pbrs(small_instance, 0, RewardConfig(horizon=3)).slots_checked == 0
    assert calls == []
