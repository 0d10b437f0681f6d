"""Encoder, grammar parser and serializer tests."""

from __future__ import annotations

import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopcache.core import (
    NOOP,
    BsAction,
    CacheState,
    JointAction,
    StructuralError,
    apply,
    feasible_actions,
    request_slot,
)
from coopcache.interface import (
    PARSE_REASONS,
    SlotObservation,
    decode_prompt,
    encode,
    parse,
    parse_bytes,
    serialize,
)

from conftest import golden_observation, observation, random_scenario, synthetic_graph

GOLDEN = Path(__file__).parent / "data" / "golden_prompt.txt"


def swap_observation():
    """Two BSs; BS2 slot 3 holds 17, file 42 requested there and uncached."""
    graph = synthetic_graph(((1,), (2,), (2,)), 2)
    cache = CacheState(((4, 7, 9), (2, 5, 17)))
    requests = request_slot(((0, 4), (1, 42), (2, 9)), graph)
    return observation(cache, requests)


def test_golden_prompt_bytes(golden_obs):
    assert encode(golden_obs) == GOLDEN.read_text()


def test_encode_deterministic(golden_obs):
    assert encode(golden_obs) == encode(golden_obs)


def test_encode_slot_index_changes_header_only(golden_obs):
    other = SlotObservation(
        golden_obs.slot + 41, golden_obs.cache, golden_obs.requests, golden_obs.tracker
    )
    a = encode(golden_obs).splitlines()
    b = encode(other).splitlines()
    assert a[0] != b[0]
    assert a[1:] == b[1:]


def test_parse_valid_mixed_lines():
    obs = swap_observation()
    text = "BS 1: NOOP\nBS 2: SWAP slot=3 out=17 in=42"
    action = parse(text, obs)
    assert action.is_valid
    assert action.actions == (NOOP, BsAction(3, 42, 17))


def test_parse_missing_line_is_count():
    obs = swap_observation()
    assert parse("BS 1: NOOP", obs).reason == "count"


def test_parse_consistency_mismatch():
    obs = swap_observation()
    text = "BS 1: NOOP\nBS 2: SWAP slot=3 out=99 in=42"
    assert parse(text, obs).reason == "consistency"


def test_parse_reason_taxonomy():
    obs = swap_observation()
    cases = {
        "free text": "syntax",
        "BS 1: NOOP\nBS 2: NOOP\nhello": "syntax",
        "BS 2: NOOP\nBS 1: NOOP": "order",
        "BS 1: NOOP\nBS 1: NOOP": "count",
        "BS 1: NOOP\nBS 2: NOOP\nBS 3: NOOP": "count",
        "BS 1: NOOP\nBS 2: SWAP slot=1 out=2 in=33": "admissibility",
        "BS 1: SWAP slot=2 out=7 in=4\nBS 2: NOOP": "duplication",
        "BS 1: NOOP\nBS 2: SWAP slot=9 out=17 in=42": "consistency",
        "BS 1: SWAP slot=1 out=4 in=4\nBS 2: NOOP": "duplication",
    }
    for text, reason in cases.items():
        action = parse(text, obs)
        assert not action.is_valid, text
        assert action.reason == reason, text
        assert reason in PARSE_REASONS


def test_parse_tolerates_surrounding_whitespace():
    obs = swap_observation()
    text = "  BS 1: NOOP  \r\n\n\t BS 2: SWAP slot=3 out=17 in=42 \n\n"
    assert parse(text, obs).is_valid


def test_parse_rejects_leading_zero_and_signed_ints():
    obs = swap_observation()
    for text in (
        "BS 01: NOOP\nBS 2: NOOP",
        "BS 1: NOOP\nBS 2: SWAP slot=03 out=17 in=42",
        "BS 1: NOOP\nBS 2: SWAP slot=3 out=17 in=+42",
    ):
        assert parse(text, obs).reason == "syntax"


def test_serialize_all_noop():
    action = JointAction.valid([NOOP, NOOP, NOOP])
    assert serialize(action) == "BS 1: NOOP\nBS 2: NOOP\nBS 3: NOOP"


def test_serialize_rejects_invalid():
    with pytest.raises(StructuralError):
        serialize(JointAction.invalid("syntax"))


def test_round_trip_random_feasible_actions():
    rng = random.Random(5)
    done = 0
    while done < 1000:
        cache, graph, requests = random_scenario(rng)
        obs = observation(cache, requests)
        joint = JointAction.valid(
            [
                rng.choice(feasible_actions(cache, b, requests))
                for b in range(1, cache.bs_count + 1)
            ]
        )
        text = serialize(joint)
        assert parse(text, obs) == joint
        done += 1


def test_serialization_injective_on_feasible_actions():
    rng = random.Random(11)
    cache, graph, requests = random_scenario(rng)
    obs = observation(cache, requests)
    seen = {}
    for b in range(1, cache.bs_count + 1):
        for act in feasible_actions(cache, b, requests):
            joint = [NOOP] * cache.bs_count
            joint[b - 1] = act
            text = serialize(JointAction.valid(joint))
            assert text not in seen or seen[text] == tuple(joint)
            seen[text] = tuple(joint)


def test_decode_prompt_round_trip(golden_obs):
    decoded = decode_prompt(encode(golden_obs))
    assert decoded.slot == golden_obs.slot
    assert decoded.cache == golden_obs.cache
    assert decoded.requests.counts == golden_obs.requests.counts
    assert decoded.requests.admissible == golden_obs.requests.admissible
    assert decoded.tracker is None


def test_decode_prompt_rejects_garbage(golden_obs):
    with pytest.raises(StructuralError):
        decode_prompt("not a prompt")
    with pytest.raises(StructuralError):
        decode_prompt("SLOT 3\nBS 1 CACHE: x y")
    # FREQ lines are checked although the decoded observation drops them
    lines = encode(golden_obs).splitlines()
    at = lines.index("BS 1 FREQ w=10: 4:0.000 5:0.100 7:0.800 9:0.300")
    for bad in ("BS 1 FREQ w=10: 5:x", "BS 1 FREQ w=ten: 5:0.100"):
        with pytest.raises(StructuralError):
            decode_prompt("\n".join(lines[:at] + [bad] + lines[at + 1:]))


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=4096))
def test_parse_total_on_random_bytes(data):
    obs = golden_observation()
    action = parse_bytes(data, obs)
    if action.is_valid:
        apply(obs.cache, action, obs.requests)


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=2048))
def test_parse_total_on_random_text(text):
    obs = golden_observation()
    action = parse(text, obs)
    if action.is_valid:
        apply(obs.cache, action, obs.requests)


def test_parse_total_on_megabyte_input(golden_obs):
    big = ("BS 1: NOOP\n" * 50000) + ("x" * (1 << 20))
    assert not parse(big, golden_obs).is_valid
    digits = "BS 1: SWAP slot=1 out=" + "9" * (1 << 20) + " in=5"
    assert parse(digits, golden_obs).reason == "syntax"
