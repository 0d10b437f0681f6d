"""Encoder, grammar parser and serializer tests."""

from __future__ import annotations

import functools
import pickle
import random
import re
from itertools import islice
from pathlib import Path

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
    feasible_actions,
    request_slot,
)
from coopcache import interface, verification
from coopcache.interface import (
    PARSE_REASONS,
    SlotObservation,
    decode_prompt,
    encode,
    parse,
    serialize,
)

from coopcache.episode import expert_walk
from coopcache.traffic import FrequencyTracker, InstanceConfig, build_instance
from coopcache.verification import NEAR_MISS_LINES, _mutate, first_decision_observation

from conftest import (
    golden_observation,
    observation,
    random_scenario,
    scenarios,
    small_config,
    synthetic_graph,
)

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


def test_an_observation_pickles(golden_obs):
    copy = pickle.loads(pickle.dumps(golden_obs))
    assert copy == golden_obs
    assert encode(copy) == encode(golden_obs)


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


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_parse_and_apply_judge_every_swap_alike(data):
    """A swap at one BS, NOOP elsewhere: ``parse`` either returns the action and
    ``apply`` takes it, or gives the rule of the FeasibilityError ``apply`` raises.
    Slots past the row, empty slots and unrequested files are all drawn."""
    cache, _, requests, _ = data.draw(scenarios(peek_max=0, holes=True), label="scenario")
    bs_count = len(cache.slots)
    b = data.draw(st.integers(1, bs_count), label="b")
    row, pool = cache.slots[b - 1], sorted(requests.counts[b - 1].keys())
    files = st.integers(1, max(map(max, cache.slots)) + 2)
    z = data.draw(st.integers(1, len(row) + 2), label="z")
    f_in = data.draw(st.sampled_from(pool) | files if pool else files, label="f_in")
    held = [f for f in row if f not in (EMPTY_SLOT, f_in)]
    others = files.filter(lambda f: f != f_in)
    f_out = data.draw(st.sampled_from(held) | others if held else others, label="f_out")
    joint = JointAction.valid([BsAction(z, f_in, f_out) if bb == b else NOOP
                               for bb in range(1, bs_count + 1)])
    action = parse(serialize(joint), observation(cache, requests))
    try:
        after = apply(cache, joint, requests)
    except FeasibilityError as exc:
        assert exc.bs == b
        assert action == JointAction.invalid(exc.rule)
    else:
        assert action == joint
        assert apply(cache, action, requests) == after


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
    assert decoded.requests.pairs == () and decoded.requests.covered == ()
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


def _freq_tokens(prompt: str, b: int, w: int) -> list[tuple[str, str]]:
    line = next(x for x in prompt.splitlines() if x.startswith(f"BS {b} FREQ w={w}:"))
    body = line.split(":", 1)[1]
    return [tuple(tok.split(":")) for tok in body.split(" ")[1:]]


@settings(max_examples=150)
@given(scenarios(peek_max=11, holes=True),
       st.lists(st.integers(1, 8), min_size=1, max_size=3, unique=True))
def test_encode_freq_tokens_are_the_tracker_rates(case, windows):
    """At views t = 0, t < w, t == w and t > w every FREQ token is the share
    of the last min(w, t) trace slots whose pool held the file, formatted
    :.3f, and decoding keeps cache and counts."""
    cache, _, requests, peek = case
    trace = (requests, *peek)
    tracker = FrequencyTracker(tuple(sorted(windows)), trace)
    for t in range(len(trace) + 1):
        view = FrequencyTracker(tracker.windows, trace, t, tracker.index)
        obs = SlotObservation(t + 1, cache, trace[max(t - 1, 0)], view)
        prompt = encode(obs)
        for b in range(1, cache.bs_count + 1):
            files = sorted(cache.files_at(b) | obs.requests.counts[b - 1].keys())
            for w in tracker.windows:
                tokens = _freq_tokens(prompt, b, w)
                assert [int(f) for f, _ in tokens] == files
                for f, text in tokens:
                    f = int(f)
                    held = sum(f in trace[tau - 1].counts[b - 1].keys()
                               for tau in range(max(1, t - w + 1), t + 1))
                    assert text == (f"{held / min(w, t):.3f}" if t else "0.000")
        decoded = decode_prompt(prompt)
        assert decoded.cache == cache
        assert decoded.requests.counts == obs.requests.counts


def test_encode_keeps_no_rate_table_for_a_short_view(monkeypatch):
    """Views that have not passed a window format their rates directly: only
    a configured window that some view has passed gets a table."""
    tables, build = {}, interface._rate_texts.__wrapped__

    def rate_texts(w):
        tables[w] = build(w)
        return tables[w]

    monkeypatch.setattr(interface, "_rate_texts", rate_texts)
    graph = synthetic_graph(((1,), (1,)), 1)
    trace = tuple(request_slot(((0, 1 + t % 3), (1, 2)), graph) for t in range(30))
    tracker = FrequencyTracker((3, 50), trace)
    cache = CacheState(((1, 2),))
    for t in range(len(trace) + 1):
        view = FrequencyTracker(tracker.windows, trace, t, tracker.index)
        encode(SlotObservation(t + 1, cache, trace[max(t - 1, 0)], view))
    assert set(tables) == {3}
    assert len(tables[3]) == 4


_FREQ_AT = "BS 1 FREQ w=10: 4:0.000 5:0.100 7:0.800 9:0.300"


@pytest.mark.parametrize("line", [
    "BS 1 FREQ w=10: 1:1e-3",
    "BS 1 FREQ w=10: 1:.5",
    "BS 1 FREQ w=10: 1:+0.5",
    "BS 1 FREQ w=10: 1:nan",
    "BS 1 FREQ w=10: 4:0.000 5:0.100 ",
    "BS 1 FREQ w=10:4:0.000",
    "BS 1 FREQ w=10: 4:0.000\t",
    "BS 1 FREQ w=10: \u0664:0.000",
    "BS 1 FREQ w=10:",
], ids=["exponent", "no-int-part", "plus-sign", "nan", "trailing-space", "no-space",
        "trailing-tab", "arabic-indic-digit", "empty"])
def test_decode_prompt_accepts_non_canonical_freq_tokens(golden_obs, line):
    lines = encode(golden_obs).splitlines()
    at = lines.index(_FREQ_AT)
    decoded = decode_prompt("\n".join(lines[:at] + [line] + lines[at + 1:]))
    assert decoded.cache == golden_obs.cache


@pytest.mark.parametrize("line", [
    "BS 1 FREQ w=10: 1:0.1:2",
    "BS 1 FREQ w=10: 1:",
    "BS 1 FREQ w=10: :0.1",
    "BS 1 FREQ w=10: x:0.1",
    "BS 1 FREQ w=10: 4:0.000  5:0.100",
    "BS 1 FREQ w=10: 4:0.000,5:0.100",
    "BS 1 FREQ w=10: 4:0.1.0",
], ids=["three-fields", "no-value", "no-file", "text-file", "double-space", "comma",
        "two-points"])
def test_decode_prompt_rejects_malformed_freq_tokens(golden_obs, line):
    lines = encode(golden_obs).splitlines()
    at = lines.index(_FREQ_AT)
    with pytest.raises(StructuralError, match="malformed prompt field"):
        decode_prompt("\n".join(lines[:at] + [line] + lines[at + 1:]))


def test_decode_prompt_names_an_unrecognized_line_once():
    with pytest.raises(StructuralError) as info:
        decode_prompt("SLOT 1\nfoo")
    assert str(info.value) == "unrecognized prompt line: 'foo'"
    with pytest.raises(StructuralError) as info:
        decode_prompt("SLOT 1\nBS 1 REQUESTS: 1:x")
    assert str(info.value) == "malformed prompt field: invalid literal for int() with base 10: 'x'"


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=4096))
def test_parse_total_on_random_bytes(data):
    obs = golden_observation()
    action = parse(data.decode("utf-8", errors="replace"), obs)
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


# The two-pattern parser that ``parse`` replaced, kept as the reference it
# must agree with on every text: the same joint action and the same reason.
_REF_INT = r"[1-9][0-9]{0,8}"
_REF_NOOP_LINE = re.compile(rf"BS ({_REF_INT}): NOOP")
_REF_SWAP_LINE = re.compile(rf"BS ({_REF_INT}): SWAP slot=({_REF_INT}) out=({_REF_INT}) in=({_REF_INT})")


def _reference_parse(text, obs):
    entries = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        m = _REF_NOOP_LINE.fullmatch(line)
        if m:
            entries.append((int(m.group(1)), None))
            continue
        m = _REF_SWAP_LINE.fullmatch(line)
        if m:
            b, z, f_out, f_in = (int(g) for g in m.groups())
            entries.append((b, (z, f_in, f_out)))
            continue
        return JointAction.invalid("syntax")
    ids = [b for b, _ in entries]
    if sorted(ids) != list(range(1, obs.bs_count + 1)):
        return JointAction.invalid("count")
    if ids != sorted(ids):
        return JointAction.invalid("order")
    actions = []
    for b, swap in entries:
        if swap is None:
            actions.append(NOOP)
            continue
        z, f_in, f_out = swap
        if f_in not in obs.requests.counts[b - 1].keys():
            return JointAction.invalid("admissibility")
        if f_in in obs.cache.files_at(b):
            return JointAction.invalid("duplication")
        row = obs.cache.slots[b - 1]
        if z > len(row) or row[z - 1] != f_out:
            return JointAction.invalid("consistency")
        actions.append(BsAction(z, f_in, f_out))
    return JointAction.valid(actions)


def _differential_observations():
    first = first_decision_observation(build_instance(small_config(), 1))
    return (swap_observation(), golden_observation(), first)


def _completions(obs, rng):
    """Real completions: every feasible single swap, swaps that break each rule,
    and the same lines reordered or cut short."""
    noop = ["BS %d: NOOP" % b for b in range(1, obs.bs_count + 1)]
    texts = ["\n".join(noop)]
    for b in range(1, obs.bs_count + 1):
        for act in feasible_actions(obs.cache, b, obs.requests)[1:]:
            actions = [NOOP] * obs.bs_count
            actions[b - 1] = act
            texts.append(serialize(JointAction.valid(actions)))
        for _ in range(4):
            lines = list(noop)
            z, f_out, f_in = (rng.randint(1, 12) for _ in range(3))
            lines[b - 1] = f"BS {b}: SWAP slot={z} out={f_out} in={f_in}"
            texts.append("\n".join(lines))
    texts += ["\n".join(reversed(text.splitlines())) for text in texts[:3]]
    texts += ["\n".join(text.splitlines()[1:]) for text in texts[:3]]
    return texts


def test_parse_matches_the_two_pattern_parser_on_real_and_mutated_completions():
    rng = random.Random(13)
    outcomes = set()
    for obs in _differential_observations():
        real = _completions(obs, rng)
        cases = list(real)
        for line in NEAR_MISS_LINES:
            cases += [line, "BS 1: NOOP\n" + line, line + "\nBS 2: NOOP"]
        for _ in range(3000):
            data = rng.choice(real).encode("utf-8")
            for _ in range(rng.randint(1, 3)):
                data = _mutate(data, rng.getrandbits)  # the draws rng.randrange makes
            cases.append(data.decode("utf-8", errors="replace"))
        for text in cases:
            expected = _reference_parse(text, obs)
            assert parse(text, obs) == expected, text
            outcomes.add(expected.reason)
    assert outcomes == {None, *PARSE_REASONS}  # every outcome is exercised


def _one_bs_per_user_observation(bs_count):
    """``bs_count`` BSs; BS b caches files b and 100 + b, and its two users request 50 + b and b."""
    ids = range(1, bs_count + 1)
    graph = synthetic_graph([(b,) for b in ids for _ in range(2)], bs_count)
    cache = CacheState(tuple((b, 100 + b) for b in ids))
    pairs = [pair for b in ids for pair in ((2 * b - 2, 50 + b), (2 * b - 1, b))]
    return observation(cache, request_slot(pairs, graph))


@pytest.mark.parametrize("bs_count", [1, 2, 12])
def test_parse_matches_the_two_pattern_parser_on_bs_ids(bs_count):
    """Two-digit ids, text order unlike number order, a repeated BS 1 and an
    id above B give the same joint action and reason as the reference."""
    obs = _one_bs_per_user_observation(bs_count)
    ids = range(1, bs_count + 1)
    noop = [f"BS {b}: NOOP" for b in ids]
    swap = [f"BS {b}: SWAP slot=1 out={b} in={50 + b}" for b in ids]
    above = f"BS {bs_count + 1}: NOOP"
    cases = [noop, swap, sorted(swap), swap[::-1], noop[1:] + noop[:1],
             noop + ["BS 1: NOOP"], ["BS 1: NOOP"] + noop, noop[:-1] + ["BS 1: NOOP"],
             noop + [above], noop[:-1] + [above], [above] + noop[1:], [],
             swap[:-1] + [f"BS {bs_count}: SWAP slot=2 out={100 + bs_count} in={bs_count}"],
             swap[:-1] + [f"BS {bs_count}: SWAP slot=2 out={bs_count} in={50 + bs_count}"],
             swap[:-1] + [f"BS {bs_count}: SWAP slot=1 out={bs_count} in=7"]]
    outcomes = set()
    for lines in cases:
        text = "\n".join(lines)
        expected = _reference_parse(text, obs)
        assert parse(text, obs) == expected, text
        outcomes.add(expected.reason)
    unreachable = {"syntax", "order"} if bs_count == 1 else {"syntax"}
    assert outcomes == {None, *PARSE_REASONS} - unreachable


@settings(max_examples=300)
@given(st.text(alphabet="BS :NOPWAlotuin=0123456789+-\n\t\r x", max_size=160))
def test_parse_matches_the_two_pattern_parser_on_random_text(text):
    for obs in (swap_observation(), golden_observation()):
        assert parse(text, obs) == _reference_parse(text, obs)


# Every character ``str.splitlines`` breaks at, and its one two-character break.
_LINE_BREAKS = ("\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
                "\u2029", "\r\n")
# Whitespace that ``strip`` removes but that breaks no line.
_NON_BREAKING_SPACE = ("\t", " ", "\x1f", "\u3000")


def test_parse_matches_the_two_pattern_parser_on_fuzz_texts():
    """The fuzz corpus's random bytes, prompt mutants and completion mutants."""
    outcomes = set()
    for obs in _differential_observations():
        for text in islice(verification._fuzz_texts(obs), 6000):
            expected = _reference_parse(text, obs)
            assert parse(text, obs) == expected, text
            outcomes.add(expected.reason)
    # one byte changed rarely reorders lines or names a cached file
    assert outcomes == {None, *PARSE_REASONS} - {"order", "duplication"}


def test_parse_matches_the_two_pattern_parser_around_the_first_line():
    """Blank lines, line breaks and other whitespace before, after and inside
    the first non-blank line, and texts with no non-blank line at all."""
    every_break = {chr(c) for c in range(0x110000) if (chr(c) + "a").splitlines() == ["", "a"]}
    assert every_break == set(_LINE_BREAKS[:-1])
    rng = random.Random(29)
    breaks = _LINE_BREAKS + ("\r\r\n", " \n\x1f")
    spaces = _NON_BREAKING_SPACE + ("\t\x1f\u3000",)
    blank = ["", *breaks, *spaces, *(b + s for b in breaks for s in spaces)]
    outcomes = set()
    for obs in _differential_observations():
        picked = {}  # one real completion per outcome
        for text in _completions(obs, rng):
            picked.setdefault(_reference_parse(text, obs).reason, text)
        lines = [text.splitlines() for text in picked.values()]
        lines += [["SLOT 101", *lines[0]], ["BS 1: NOPE", *lines[0][1:]], ["xBS 1: NOOP"],
                  [lines[0][0] + "\x1f" + lines[0][1]], [lines[0][0].replace(" ", "\x1f", 1)]]
        for first, *rest in lines:
            for lead in blank:
                for end in breaks + spaces:
                    sep = rng.choice(breaks)
                    for text in (lead + first + end + sep.join(rest),
                                 lead + rng.choice(spaces) + first + end + sep + sep.join(rest)):
                        expected = _reference_parse(text, obs)
                        assert parse(text, obs) == expected, repr(text)
                        outcomes.add(expected.reason)
        for text in blank:
            assert parse(text, obs) == _reference_parse(text, obs) == JointAction.invalid("count")
    assert outcomes == {None, *PARSE_REASONS}


def test_encode_refuses_a_decoded_observation(golden_obs):
    decoded = decode_prompt(encode(golden_obs))
    with pytest.raises(StructuralError, match="no tracker, so it cannot be rendered"):
        encode(decoded)


# The encoder and prompt decoder before the export fast paths (one sort with a
# (-count, file) key, the "<f>:" prefix formatted per token, the FREQ body
# checked after the CACHE and REQUESTS patterns failed), kept as the references
# ``encode`` and ``decode_prompt`` must agree with byte for byte and error for
# error. Table rates are written k / w directly, which is what the table holds.
def _reference_encode(obs):
    lines = [f"SLOT {obs.slot}"]
    t = obs.tracker.slots_seen
    span = max(t, 1)
    for b in range(1, obs.bs_count + 1):
        row = obs.cache.slots[b - 1]
        cells = " ".join("-" if f == EMPTY_SLOT else str(f) for f in row)
        lines.append(f"BS {b} CACHE: {cells}")
        counts = obs.requests.counts[b - 1]
        ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        body = " ".join(f"{f}:{c}" for f, c in ordered)
        lines.append(f"BS {b} REQUESTS: {body}" if body else f"BS {b} REQUESTS:")
        files = sorted(obs.cache.files_at(b) | obs.requests.counts[b - 1].keys())
        for w, held in zip(obs.tracker.windows, obs.tracker.window_counts(b, files)):
            if w <= t:
                body = " ".join([f"{f}:{k / w:.3f}" for f, k in zip(files, held)])
            else:
                body = " ".join([f"{f}:{k / span:.3f}" for f, k in zip(files, held)])
            lines.append(f"BS {b} FREQ w={w}: {body}" if body else f"BS {b} FREQ w={w}:")
    lines.append(interface.INSTRUCTION_BLOCK)
    return "\n".join(lines)


_REF_PROMPT_SLOT = re.compile(r"SLOT ([0-9]+)")
_REF_PROMPT_CACHE = re.compile(r"BS ([0-9]+) CACHE: (.*)")
_REF_PROMPT_REQ = re.compile(r"BS ([0-9]+) REQUESTS:(.*)")
_REF_PROMPT_FREQ = re.compile(r"BS [0-9]+ FREQ w=[0-9]+:(.*)")
_REF_FREQ_BODY = re.compile(r"(?: [0-9]+:[0-9]+\.[0-9]+)*")


def _reference_file_values(body, cast):
    body = body.strip()
    pairs = (tok.split(":") for tok in body.split(" ")) if body else ()
    return {int(f): cast(v) for f, v in pairs}


def _reference_decode_prompt(text):
    lines = text.splitlines()
    if not lines:
        raise StructuralError("empty prompt")
    m = _REF_PROMPT_SLOT.fullmatch(lines[0])
    if not m:
        raise StructuralError("prompt must open with a SLOT header")
    slot = int(m.group(1))
    rows, counts = {}, {}
    try:
        for line in lines[1:]:
            if line == "INSTRUCTIONS:":
                break
            if m := _REF_PROMPT_CACHE.fullmatch(line):
                cells = m.group(2).split(" ")
                rows[int(m.group(1))] = tuple(EMPTY_SLOT if c == "-" else int(c) for c in cells)
            elif m := _REF_PROMPT_REQ.fullmatch(line):
                counts[int(m.group(1))] = _reference_file_values(m.group(2), int)
            elif m := _REF_PROMPT_FREQ.fullmatch(line):
                if not _REF_FREQ_BODY.fullmatch(m.group(1)):
                    _reference_file_values(m.group(1), float)
            else:
                raise StructuralError(f"unrecognized prompt line: {line!r}")
    except StructuralError:  # an unrecognized line: its message stands alone
        raise
    except ValueError as exc:
        raise StructuralError(f"malformed prompt field: {exc}") from exc
    b_count = len(rows)
    if sorted(rows) != list(range(1, b_count + 1)) or sorted(counts) != sorted(rows):
        raise StructuralError("prompt must describe BS 1..B exactly once")
    cache = CacheState(tuple(rows[b] for b in range(1, b_count + 1)))
    requests = RequestSlot((), tuple(counts[b] for b in range(1, b_count + 1)))
    return SlotObservation(slot, cache, requests, None)


def _decoded(decode, text):
    """What ``decode`` makes of ``text``: every field of the observation, or
    the exception's type and message."""
    try:
        obs = decode(text)
    except Exception as exc:
        return type(exc), str(exc)
    req = obs.requests
    return (obs.slot, obs.cache.slots, req.pairs, req.counts, req.covered,
            obs.tracker)


@functools.lru_cache(maxsize=None)
def _walk_observations():
    """Every observation of the 5-BS export walk for seeds 1-4 and of a 2-BS
    walk (H=10): full caches, tabled windows and a window past the view."""
    configs = [(InstanceConfig(bs_count=5, users=40), seed) for seed in (1, 2, 3, 4)]
    configs.append((InstanceConfig(), 1))
    return tuple(obs for config, seed in configs
                 for obs, _, _ in expert_walk(build_instance(config, seed), 10, 0.9))


def test_encode_matches_the_reference_on_every_walk_observation():
    observations = _walk_observations()
    assert {obs.bs_count for obs in observations} == {2, 5}
    assert len(observations) > 1000
    for obs in observations:
        assert encode(obs) == _reference_encode(obs)


@settings(max_examples=150)
@given(scenarios(peek_max=11, holes=True),
       st.lists(st.integers(1, 8), min_size=1, max_size=3, unique=True))
def test_encode_matches_the_reference_on_short_views_and_empty_slots(case, windows):
    cache, _, requests, peek = case
    trace = (requests, *peek)
    tracker = FrequencyTracker(tuple(sorted(windows)), trace)
    for t in range(len(trace) + 1):
        view = FrequencyTracker(tracker.windows, trace, t, tracker.index)
        obs = SlotObservation(t + 1, cache, trace[max(t - 1, 0)], view)
        assert encode(obs) == _reference_encode(obs)


# FREQ lines that Python's int and float take but the encoder never writes,
# and lines that are malformed, for splicing over a real FREQ line.
_ODD_FREQ_LINES = (
    "BS 1 FREQ w=10: 1:1e-3", "BS 1 FREQ w=10: 1:.5", "BS 1 FREQ w=10: 1:nan",
    "BS 1 FREQ w=10: 1:+0.5", "BS 1 FREQ w=10: 1:inf", "BS 1 FREQ w=10: 4:0.000 5:0.100 ",
    "BS 1 FREQ w=10:4:0.000", "BS 1 FREQ w=10: \u0664:0.000", "BS 1 FREQ w=10:",
    "BS 1 FREQ w=10: 1:0.1:2", "BS 1 FREQ w=10: 1:", "BS 1 FREQ w=10: :0.1",
    "BS 1 FREQ w=10: x:0.1", "BS 1 FREQ w=10: 4:0.000  5:0.100", "BS 1 FREQ w=10: 4:0.1.0",
    "BS 1 FREQ w=ten: 5:0.100", "BS 1 FREQ w=10: 5:0.100 x", "BS x FREQ w=10: 5:0.100",
    "BS 1 FREQ w=10: 5:0.1e", "BS 1 FREQ w=10: 5:1.", "BS 1  FREQ w=10: 5:0.100",
)


@functools.lru_cache(maxsize=None)
def _real_prompts():
    walk = _walk_observations()
    return (encode(golden_observation()), *(encode(obs) for obs in walk[::97]))


def test_decode_prompt_matches_the_reference_on_real_and_odd_prompts():
    outcomes = set()
    for prompt in _real_prompts():
        lines = prompt.splitlines()
        cases = [prompt]
        freq_at = [i for i, line in enumerate(lines) if " FREQ w=" in line]
        for i, odd in enumerate(_ODD_FREQ_LINES):
            at = freq_at[i % len(freq_at)]
            cases.append("\n".join(lines[:at] + [odd] + lines[at + 1:]))
        for text in cases:
            expected = _decoded(_reference_decode_prompt, text)
            assert _decoded(decode_prompt, text) == expected, text
            outcomes.add(expected[0] if isinstance(expected[0], type) else "ok")
    assert outcomes == {"ok", StructuralError}


_SPLICE_HEADS = ("", "SLOT ", "BS 1 CACHE: ", "BS 2 REQUESTS:", "BS 1 FREQ w=10:",
                 "BS 3 FREQ w=1000: ", "INSTRUCTIONS:")


@settings(max_examples=300)
@given(st.data())
def test_decode_prompt_matches_the_reference_on_spliced_lines(data):
    """Random lines put in or over the checked lines of a real prompt: near
    misses of each line kind, real lines cut short or with one character
    changed, and lines of another prompt."""
    prompts = _real_prompts()
    lines = data.draw(st.sampled_from(prompts)).splitlines()
    end = lines.index("INSTRUCTIONS:")
    tail = st.text(alphabet=" :.-+0123456789eainfxSBw=\t", max_size=24)
    for _ in range(data.draw(st.integers(1, 3))):
        donor = data.draw(st.sampled_from(data.draw(st.sampled_from(prompts)).splitlines()))
        cut = st.integers(0, len(donor))
        line = data.draw(st.one_of(
            st.tuples(st.sampled_from(_SPLICE_HEADS), tail).map("".join),
            st.tuples(cut, tail).map(lambda c: donor[:c[0]] + c[1]),
            st.tuples(cut, tail).map(lambda c: donor[:c[0]] + c[1][:1] + donor[c[0] + 1:]),
            st.just(donor),
        ))
        at = data.draw(st.integers(1, end))
        lines[at:at + data.draw(st.integers(0, 1))] = [line]
    text = "\n".join(lines)
    assert _decoded(decode_prompt, text) == _decoded(_reference_decode_prompt, text)
