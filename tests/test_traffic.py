"""Instance generation, demand model, tracker and warm-start tests."""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import pickle
import random
import re
import subprocess
import sys
from bisect import bisect_right
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopcache import traffic
from coopcache.core import (
    EMPTY_SLOT,
    CacheState,
    StructuralError,
    canonical_json,
    hottest_uncached,
    oracle_best_action,
    request_slot,
)
from coopcache.dataset import generate_sft
from coopcache.episode import Episode
from coopcache.interface import encode
from coopcache.traffic import (
    ConfigurationError,
    FrequencyTracker,
    InstanceConfig,
    WarmState,
    advance_tracker,
    build_instance,
    instance_from_payload,
    load_instance,
    save_instance,
    slot_json,
    slots_json,
    sweep_config,
    warm_start,
    zipf_pmf,
)

from conftest import (
    assert_same_slot,
    assert_slot_shares_the_row_ints,
    reference_request_slot,
    scenarios,
    small_config,
    synthetic_graph,
)


def test_zipf_single_file():
    assert zipf_pmf(1, 0.7).tolist() == [1.0]


def test_zipf_three_files():
    pmf = zipf_pmf(3, 1.2)
    # independent check: normalize (1, 2^-1.2, 3^-1.2) directly
    raw = [1.0, 2.0 ** -1.2, 3.0 ** -1.2]
    expected = [x / sum(raw) for x in raw]
    assert np.allclose(pmf, expected, atol=1e-12)
    assert np.allclose(pmf, [0.5872, 0.2556, 0.1571], atol=1e-4)


def test_zipf_uniform_limit():
    pmf = zipf_pmf(4, 1e-9)
    assert np.allclose(pmf, [0.25] * 4, atol=1e-6)


def test_zipf_validation():
    with pytest.raises(StructuralError):
        zipf_pmf(0, 1.0)
    with pytest.raises(StructuralError):
        zipf_pmf(5, 0.0)


#: The instance files the golden ``run`` cases write, by golden-table name.
_GOLDEN_INSTANCES = {f"{case}/instance_seed{seed}.json": (InstanceConfig(**kw), seed)
                     for case, kw in (("run-2bs", {"bs_count": 2}),
                                      ("run-5bs", {"bs_count": 5, "users": 40}))
                     for seed in (1, 2, 3)}


def golden_instance_digests() -> dict[str, str]:
    return {name: hashlib.sha256(build_instance(config, seed).to_canonical_json().encode())
            .hexdigest() for name, (config, seed) in _GOLDEN_INSTANCES.items()}


def grid_cdfs() -> list[str]:
    """The demand CDF ``build_instance`` searches, as hex bytes, over a grid of
    library sizes and Zipf exponents."""
    return [np.cumsum(zipf_pmf(library, alpha)).tobytes().hex()
            for library in range(5, 1182, 24)
            for alpha in (0.3, 0.55, 0.8, 0.95, 1.05, 1.2, 1.4, 1.7, 2.0, 2.6)]


def _without_simd_dispatch(function):
    """``function()`` run in a child process in which numpy dispatches to none
    of the SIMD extensions it would pick on this CPU, with the extensions the
    child still reports enabled: ``(enabled, result)``."""
    from numpy._core import _multiarray_umath as umath

    features = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
    if not features:
        pytest.skip("numpy dispatches to no SIMD extension on this CPU")
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); import test_traffic; "
            "from numpy._core import _multiarray_umath as umath; "
            "print(json.dumps([[f for f in umath.__cpu_dispatch__ if umath.__cpu_features__[f]], "
            f"test_traffic.{function.__name__}()]))")
    child = subprocess.run([sys.executable, "-c", code, str(Path(__file__).parent)],
                           env={**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(features)},
                           capture_output=True, text=True, check=True)
    return json.loads(child.stdout)


def test_golden_instances_do_not_depend_on_numpy_simd_dispatch():
    enabled, digests = _without_simd_dispatch(golden_instance_digests)
    assert enabled == []
    golden = json.loads((Path(__file__).parent / "data" / "golden_hashes.json").read_text())
    assert digests == golden_instance_digests() == {name: golden[name] for name in digests}


def test_demand_cdfs_do_not_depend_on_numpy_simd_dispatch():
    enabled, cdfs = _without_simd_dispatch(grid_cdfs)
    assert enabled == []
    assert cdfs == grid_cdfs()


def test_zipf_empirical_frequencies():
    """1e5 draws through the sampling path stay within L-inf 0.01 of the pmf."""
    library, alpha = 40, 1.2
    pmf = zipf_pmf(library, alpha)
    cdf = np.cumsum(pmf)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(123, 3)))
    draws = np.searchsorted(cdf, rng.random(100_000), side="right")
    np.clip(draws, 0, library - 1, out=draws)
    freq = np.bincount(draws, minlength=library) / len(draws)
    assert np.max(np.abs(freq - pmf)) <= 0.01


def test_build_instance_deterministic():
    cfg = small_config()
    a = build_instance(cfg, 3)
    b = build_instance(cfg, 3)
    assert a == b
    assert a.to_canonical_json() == b.to_canonical_json()
    assert a.sha256() == b.sha256()
    assert build_instance(cfg, 4).sha256() != a.sha256()


def test_instance_dimensions_and_coverage():
    for bs_count, users in ((2, 20), (5, 40)):
        cfg = InstanceConfig(bs_count=bs_count, users=users)
        inst = build_instance(cfg, 1)
        assert inst.trace_len == cfg.warm_slots + cfg.rollout_slots + cfg.horizon_reserve
        assert all(len(cov) >= 1 for cov in inst.graph.coverage)
        assert any(len(cov) >= 2 for cov in inst.graph.coverage)
        for slot in inst.trace[:5]:
            assert len(slot.pairs) == users
            assert all(1 <= f <= cfg.library for _, f in slot.pairs)


def test_unsatisfiable_coverage_is_configuration_error():
    cfg = InstanceConfig(
        bs_count=2, users=4, library=20, cache_size=2,
        bs_xy=((0.5, 0.5), (0.5, 0.5)), radius=1e-9,
        warm_slots=2, rollout_slots=2, horizon_reserve=1,
    )
    with pytest.raises(ConfigurationError):
        build_instance(cfg, 1)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        InstanceConfig(bs_count=3)  # no default layout
    with pytest.raises(ConfigurationError):
        InstanceConfig(library=10, cache_size=10)
    with pytest.raises(ConfigurationError):
        InstanceConfig(alpha=0.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ConfigurationError, match="alpha must be a finite number"):
            InstanceConfig(alpha=bad)
        with pytest.raises(ConfigurationError, match="radius must be a finite number"):
            InstanceConfig(radius=bad)
    for bad in (0.0, -0.4):
        with pytest.raises(ConfigurationError, match="radius must be > 0"):
            InstanceConfig(radius=bad)
    cfg = InstanceConfig(cache_size=7, windows=(100, 10))
    assert cfg.cache_size == (7, 7)
    assert cfg.windows == (10, 100)


@pytest.mark.parametrize("overrides, message", [
    ({"bs_count": 0}, "bs_count must be an integer >= 1, not 0"),
    ({"users": 0}, "users must be an integer >= 1, not 0"),
    ({"groups": 0}, "groups must be an integer >= 1, not 0"),
    ({"windows": ()}, "need at least one window"),
    ({"windows": (0, 10)}, "windows must be an integer >= 1, not 0"),
    ({"warm_slots": -1}, "warm_slots must be an integer >= 0, not -1"),
    ({"rollout_slots": -1}, "rollout_slots must be an integer >= 0, not -1"),
    ({"horizon_reserve": -1}, "horizon_reserve must be an integer >= 0, not -1"),
    ({"bs_xy": ((0.5, 0.5),)}, "bs_xy needs one coordinate pair per BS"),
    ({"alpha": True}, "alpha must be a finite number, not True"),
    ({"alpha": "1.2"}, "alpha must be a finite number, not '1.2'"),
    ({"radius": True}, "radius must be a finite number, not True"),
    ({"radius": "0.4"}, "radius must be a finite number, not '0.4'"),
    ({"bs_xy": ((True, 0.5), (0.65, 0.5))}, "bs_xy must be a finite number, not True"),
    ({"bs_xy": ((0.35, "0.5"), (0.65, 0.5))}, "bs_xy must be a finite number, not '0.5'"),
])
def test_config_refusals_name_their_rule(overrides, message):
    with pytest.raises(ConfigurationError) as exc:
        InstanceConfig(**overrides)
    assert str(exc.value) == message


@pytest.mark.parametrize("overrides, message", [
    ({"cache_size": (3.7, 4.2)}, "cache_size must be an integer >= 1, not 3.7"),
    ({"cache_size": 3.7}, "cache_size must be an integer >= 1, not 3.7"),
    ({"cache_size": True}, "cache_size must be an integer >= 1, not True"),
    ({"cache_size": "10"}, "cache_size must be an integer >= 1, not '10'"),
    ({"windows": (5.5, 10)}, "windows must be an integer >= 1, not 5.5"),
    ({"windows": (10, False)}, "windows must be an integer >= 1, not False"),
    ({"warm_slots": 2.5}, "warm_slots must be an integer >= 0, not 2.5"),
    ({"rollout_slots": "300"}, "rollout_slots must be an integer >= 0, not '300'"),
    ({"horizon_reserve": True}, "horizon_reserve must be an integer >= 0, not True"),
    ({"users": 20.0}, "users must be an integer >= 1, not 20.0"),
], ids=["cache-tuple", "cache-float", "cache-bool", "cache-text", "windows-float",
        "windows-bool", "warm-float", "rollout-text", "reserve-bool", "users-float"])
def test_a_config_refuses_a_count_that_is_not_an_integer(overrides, message):
    """A float, a bool or text is refused naming its field, where a float was
    once cut to an int or failed late in ``build_instance``."""
    with pytest.raises(ConfigurationError) as exc:
        InstanceConfig(**overrides)
    assert str(exc.value) == message


def test_a_config_takes_numpy_integers_as_ints():
    cfg = InstanceConfig(users=np.int64(20), cache_size=np.int32(4), windows=np.array([100, 10]),
                         warm_slots=np.int16(100))
    assert cfg == InstanceConfig(users=20, cache_size=4, windows=(10, 100), warm_slots=100)
    assert all(type(v) is int for v in (cfg.users, *cfg.cache_size, *cfg.windows, cfg.warm_slots))


def test_a_config_takes_numpy_floats_as_reals():
    layout = ((0.35, 0.5), (0.65, 0.5))
    cfg = InstanceConfig(alpha=np.float64(1.5), radius=np.float32(0.5),
                         bs_xy=(np.array([0.35, 0.5]), layout[1]))
    assert cfg == InstanceConfig(alpha=1.5, radius=0.5, bs_xy=layout)
    assert all(type(v) is float for v in (cfg.alpha, cfg.radius, *chain(*cfg.bs_xy)))


def test_an_integer_alpha_writes_the_float_alphas_instance():
    whole = build_instance(small_config(alpha=2), 1)
    real = build_instance(small_config(alpha=2.0), 1)
    assert type(whole.config.alpha) is float
    assert '"alpha":2.0,' in whole.to_canonical_json()
    assert whole.to_canonical_json() == real.to_canonical_json()
    assert whole.sha256() == real.sha256()


def test_a_group_without_members_leaves_each_user_its_own_ranking():
    """Three users cannot fill four groups, so one group's trace draw is
    skipped; the build stays byte-identical, and each user's files are its own
    group's ranking at the Zipf ranks of its own column of uniforms."""
    config = small_config(users=3, groups=4)
    instance = build_instance(config, 1)
    assert instance.to_canonical_json() == build_instance(config, 1).to_canonical_json()
    groups = instance.demand.user_group
    assert len(set(groups)) < config.groups
    cdf = np.cumsum(zipf_pmf(config.library, config.alpha))
    uniforms = traffic._stream(1, traffic._STREAM_TRACE).random((config.trace_slots, config.users))
    for u, g in enumerate(groups):
        ranking = instance.demand.rank_to_file[g]
        expected = [ranking[min(bisect_right(cdf, x), config.library - 1)] for x in uniforms[:, u]]
        assert [slot.row[u] for slot in instance.trace] == expected


def test_instance_refuses_slots_outside_its_trace(small_instance):
    end = small_instance.trace_len
    assert small_instance.request_slot(end) is small_instance.trace[-1]
    for t in (0, end + 1):
        with pytest.raises(StructuralError) as exc:
            small_instance.request_slot(t)
        assert str(exc.value) == f"slot {t} outside trace of length {end}"
    assert small_instance.peek(end - 3, 3) == small_instance.trace[-3:]
    with pytest.raises(StructuralError) as exc:
        small_instance.peek(end - 2, 3)
    assert str(exc.value) == f"peek past trace end: slot {end - 2} + horizon 3 > {end}"


def test_instance_round_trip(tmp_path, small_instance):
    path = tmp_path / "instance.json"
    save_instance(small_instance, path)
    loaded = load_instance(path)
    assert loaded == small_instance
    again = tmp_path / "again.json"
    save_instance(loaded, again)
    assert path.read_bytes() == again.read_bytes()


def test_a_trace_with_its_pairs_reversed_loads_as_the_original(tmp_path, small_instance):
    """A trace slot's pairs may come in any order: reversed, they load equal to
    the original, slot by slot, and saving again writes the canonical bytes."""
    payload = json.loads(small_instance.to_canonical_json())
    for pairs in payload["trace"]:
        pairs.reverse()
    path = tmp_path / "reversed.json"
    path.write_text(json.dumps(payload))
    loaded = load_instance(path)
    assert loaded == small_instance
    for slot, original in zip(loaded.trace, small_instance.trace, strict=True):
        assert_same_slot(slot, original)
    save_instance(loaded, path)
    assert path.read_text() == small_instance.to_canonical_json()


def assert_columns_follow_coverage(graph) -> None:
    """``columns[b-1]`` lists each user BS b covers once, ascending, with the
    user's other covering BSs."""
    assert len(graph.columns) == graph.bs_count
    for b, (users, others) in enumerate(graph.columns, start=1):
        assert list(users) == [u for u, cov in enumerate(graph.coverage) if b in cov]
        assert others == tuple(tuple(bb for bb in graph.coverage[u] if bb != b) for u in users)
    # column_masks: one entry per (BS, covered user) in the same order, by bits
    bs_of, bits, other_bits = graph.column_masks
    entries = [(b, others) for b, (_, column) in enumerate(graph.columns) for others in column]
    assert bs_of.tolist() == [b for b, _ in entries]
    assert [m.bit_length() - 1 for m in bits.tolist()] == bs_of.tolist()
    assert [{i + 1 for i in range(m.bit_length()) if m >> i & 1} for m in other_bits.tolist()] \
        == [set(others) for _, others in entries]


@settings(max_examples=100)
@given(scenarios(peek_max=0, uncovered=True))
def test_columns_follow_coverage(scenario):
    assert_columns_follow_coverage(scenario[1])


_TRACE_CONFIGS = {
    "2bs-default": InstanceConfig(),
    "5bs-F100": InstanceConfig(bs_count=5, users=40, library=100),
    "5bs-F1100": InstanceConfig(bs_count=5, users=40, library=1100),
    # the third BS sits off the unit square, so it covers no user
    "3bs-idle": InstanceConfig(bs_count=3, bs_xy=((0.35, 0.5), (0.65, 0.5), (5.0, 5.0)),
                               radius=0.4),
}


@pytest.mark.parametrize("config", _TRACE_CONFIGS.values(), ids=_TRACE_CONFIGS.keys())
def test_build_instance_slots_equal_the_per_pair_reference(config):
    """Every user requests in every slot, so no BS's covered files hold a 0."""
    instance = build_instance(config, 4)
    graph = instance.graph
    assert_columns_follow_coverage(graph)
    if config.bs_count == 3:
        assert graph.columns[2] == ((), ())
    for slot in instance.trace:
        assert [u for u, _ in slot.pairs] == list(range(config.users))
        assert_same_slot(slot, reference_request_slot(slot.pairs, graph))
        assert 0 not in [f for files in slot.covered for f in files]


def test_a_trace_stores_one_row_per_slot_and_one_int_per_file_id(tmp_path):
    """Each slot stores its row, counts and covered files, plus cached views,
    and no request pairs; the trace holds one int object per file id."""
    instance = build_instance(InstanceConfig(bs_count=5, users=40, library=1100), 4)
    assert max(f for slot in instance.trace for f in slot.row) > 256  # past the small-int cache
    save_instance(instance, tmp_path / "instance.json")
    loaded = load_instance(tmp_path / "instance.json")
    assert loaded == instance
    for trace in (instance.trace, loaded.trace):
        for slot in trace:
            stored = set(vars(slot))
            assert {"row", "counts", "covered"} <= stored <= {"row", "counts", "covered",
                                                              "size", "covered_row"}
            assert type(slot.row) is tuple and all(type(f) is int for f in slot.row)
        ids = [f for slot in trace
               for f in chain(slot.row, *slot.covered, *(d.keys() for d in slot.counts))]
        assert len({id(f) for f in ids}) == len(set(ids))


@settings(max_examples=200)
@given(scenarios(holes=True, uncovered=True))
def test_slot_json_on_partial_slots_is_the_canonical_json_of_the_pairs(scenario):
    _cache, _graph, requests, peek = scenario
    for slot in (requests, *peek):
        assert slot_json(slot) == canonical_json([list(p) for p in slot.pairs])


def test_instance_pickles():
    """Also with the graph's cached column getters, which pickle and still read."""
    instance = build_instance(small_config(), 2)
    assert "column_getters" in vars(instance.graph)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(instance, protocol))
        assert copy == instance and copy.sha256() == instance.sha256()
        assert [s.counts for s in copy.trace] == [s.counts for s in instance.trace]
        assert [s.covered for s in copy.trace] == [s.covered for s in instance.trace]
        assert [tuple(get(s.row) for get in copy.graph.column_getters) for s in copy.trace] \
            == [s.covered for s in instance.trace]


# BS 1 covers every user and BS 2, off the unit square, none; at seed 1 BS 3
# covers one user. Ids run past the small-int cache.
_EDGE_CONFIG = InstanceConfig(bs_count=3, users=5, library=1100, cache_size=2, windows=(2,),
                              bs_xy=((0.5, 0.5), (5.0, 5.0), (1.5, 0.5)), radius=0.75,
                              warm_slots=4, rollout_slots=4, horizon_reserve=2)


def test_edge_columns_of_a_built_and_a_loaded_instance_match_the_reference(tmp_path):
    instance = build_instance(_EDGE_CONFIG, 1)
    assert [len(users) for users, _ in instance.graph.columns] == [5, 0, 1]
    assert max(f for slot in instance.trace for f in slot.row) > 256
    save_instance(instance, tmp_path / "edge.json")
    loaded = load_instance(tmp_path / "edge.json")
    assert loaded == instance
    for built in (instance, loaded):
        for slot in built.trace:
            assert_same_slot(slot, reference_request_slot(slot.pairs, built.graph))
            assert_slot_shares_the_row_ints(slot, built.graph)
        # one int object per file id across the whole trace, not just per slot
        first = {}
        assert all(first.setdefault(f, f) is f for slot in built.trace for f in slot.row)


def test_instance_schema_guard(small_instance):
    import json

    payload = json.loads(small_instance.to_canonical_json())
    payload["schema"] = "something-else"
    with pytest.raises(StructuralError):
        instance_from_payload(payload)


def rates(tracker, b, f) -> dict:
    """Window -> the rate of file ``f`` at BS ``b``: its count over min(w, t)."""
    t = tracker.slots_seen
    counts = tracker.window_counts(b, (f,))
    return {w: k / min(w, t) if t else 0.0 for w, (k,) in zip(tracker.windows, counts)}


def test_tracker_first_slot():
    graph = synthetic_graph(((1,),), 1)
    trace = (request_slot(((0, 3),), graph),)
    tracker = advance_tracker(FrequencyTracker((10,), trace), trace[0])
    assert rates(tracker, 1, 3) == {10: 1.0}
    assert rates(tracker, 1, 4) == {10: 0.0}


def test_tracker_three_of_last_ten():
    graph = synthetic_graph(((1,),), 1)
    # file 3 requested in 3 of the last 10 slots once 12 slots have passed
    trace = tuple(
        request_slot(((0, 3 if t in (3, 6, 11) else 5),), graph) for t in range(1, 13)
    )
    tracker = FrequencyTracker((10,), trace)
    for requests in trace:
        tracker = advance_tracker(tracker, requests)
    assert rates(tracker, 1, 3) == pytest.approx({10: 0.3})


def test_tracker_matches_trace_recomputation(small_instance):
    """Rates read along a walk agree with direct recomputation from the trace."""
    inst = small_instance
    windows = inst.config.windows
    tracker = FrequencyTracker(windows, inst.trace)
    rng = random.Random(2)
    for t in range(1, inst.trace_len + 1):
        tracker = advance_tracker(tracker, inst.request_slot(t))
        if rng.random() < 0.2:
            b = rng.randint(1, inst.config.bs_count)
            f = rng.randint(1, inst.config.library)
            for w in windows:
                lo = max(1, t - w + 1)
                member = sum(
                    1
                    for tau in range(lo, t + 1)
                    if f in inst.request_slot(tau).counts[b - 1].keys()
                )
                assert rates(tracker, b, f)[w] == pytest.approx(member / min(w, t))


@st.composite
def small_traces(draw):
    """A random trace: 1-4 BSs, users covered by 1-3 BSs, empty slots allowed."""
    bs_count = draw(st.integers(1, 4))
    bs = st.integers(1, bs_count)
    coverage = draw(st.lists(st.lists(bs, min_size=1, max_size=3, unique=True),
                             min_size=1, max_size=5))
    graph = synthetic_graph(coverage, bs_count)
    library = draw(st.integers(1, 6))
    user = st.integers(0, len(coverage) - 1)
    slots = draw(st.lists(st.dictionaries(user, st.integers(1, library)),
                          min_size=1, max_size=12))
    trace = tuple(request_slot(d.items(), graph) for d in slots)
    # windows both shorter and longer than the trace
    windows = draw(st.lists(st.integers(1, 16), min_size=1, max_size=3, unique=True))
    return trace, library, windows


@settings(max_examples=100)
@given(small_traces())
def test_tracker_rate_counts_the_trace_up_to_its_slot(case):
    trace, library, windows = case
    tracker = FrequencyTracker(tuple(sorted(windows)), trace)
    for t in range(len(trace) + 1):
        if t:
            tracker = advance_tracker(tracker, trace[t - 1])
        assert tracker.slots_seen == t
        for b in range(1, len(trace[0].counts) + 1):
            for f in range(1, library + 1):
                for w in windows:
                    held = sum(
                        f in trace[tau - 1].counts[b - 1].keys()
                        for tau in range(max(1, t - w + 1), t + 1)
                    )
                    expected = held / min(w, t) if t else 0.0
                    assert rates(tracker, b, f)[w] == expected


def _brute_counts(trace, windows, t, b, files) -> list:
    """Per window, per file, the slots among the last min(w, t) whose pool at BS b held it."""
    return [[sum(f in trace[tau - 1].counts[b - 1] for tau in range(max(1, t - w + 1), t + 1))
             for f in files] for w in windows]


def _check_counts(view, library) -> None:
    files = tuple(range(1, library + 2))  # the last one no pool holds
    for b in range(1, len(view.trace[0].counts) + 1):
        assert view.window_counts(b, files) == _brute_counts(
            view.trace, view.windows, view.slots_seen, b, files)


@settings(max_examples=100)
@given(small_traces(), st.data())
def test_running_counts_equal_the_brute_force_share_in_any_read_order(case, data):
    """Views of one cell read at forward steps, backward jumps and repeats,
    two views read alternately and pickled views all count as the trace
    does, with windows shorter and longer than the trace."""
    trace, library, windows = case
    windows = tuple(sorted(windows))
    cell = [None]
    slots = st.integers(0, len(trace))
    for t in data.draw(st.lists(slots, min_size=1, max_size=12)):
        before = cell[0]
        view = FrequencyTracker(windows, trace, t, cell)
        _check_counts(view, library)
        if before is not None and before[0] <= t:  # a read ahead keeps counting, not restarts
            assert cell[0] is before
    first, second = (FrequencyTracker(windows, trace, data.draw(slots), cell) for _ in range(2))
    for _ in range(3):
        _check_counts(first, library)
        _check_counts(second, library)
    copy = pickle.loads(pickle.dumps(first))
    assert copy.index is not cell and copy.index == cell
    while True:
        _check_counts(copy, library)
        if copy.slots_seen == len(trace):
            break
        copy = advance_tracker(copy, trace[copy.slots_seen])
    _check_counts(first, library)


def test_advance_tracker_follows_the_trace_order():
    graph = synthetic_graph(((1,),), 1)
    trace = tuple(request_slot(((0, f),), graph) for f in (3, 4))
    tracker = FrequencyTracker((10,), trace)
    with pytest.raises(StructuralError, match="not trace slot 1"):
        advance_tracker(tracker, trace[1])
    tracker = advance_tracker(advance_tracker(tracker, trace[0]), trace[1])
    with pytest.raises(StructuralError, match="exhausted"):
        advance_tracker(tracker, trace[1])


def test_tracker_views_are_equal_exactly_when_windows_and_slots_seen_are():
    graph = synthetic_graph(((1,),), 1)
    trace = tuple(request_slot(((0, f),), graph) for f in (3, 4))
    other_trace = tuple(request_slot(((0, f),), graph) for f in (5, 6))
    view = advance_tracker(FrequencyTracker((1, 5), trace), trace[0])
    cases = [
        (FrequencyTracker((1, 5), trace, 1), True),
        (FrequencyTracker((1, 5), other_trace, 1, [{}]), True),  # trace and index do not count
        (FrequencyTracker((1, 5), trace, 2), False),
        (FrequencyTracker((1,), trace, 1), False),
        (advance_tracker(view, trace[1]), False),
    ]
    for other, equal in cases:
        assert (other == view) is equal
        assert (hash(other) == hash(view)) is equal


def test_a_view_shares_its_trackers_index_and_a_new_tracker_gets_its_own():
    graph = synthetic_graph(((1,),), 1)
    trace = tuple(request_slot(((0, f),), graph) for f in (3, 4))
    first, second = FrequencyTracker((1,), trace), FrequencyTracker((1,), trace)
    assert first.index is not second.index
    view = advance_tracker(first, trace[0])
    assert view.index is first.index
    assert view.window_counts(1, (3,)) == [[1]]
    assert first.index != [None] and second.index == [None]


def test_a_tracker_view_pickles():
    graph = synthetic_graph(((1,),), 1)
    trace = tuple(request_slot(((0, f),), graph) for f in (3, 4, 3))
    view = advance_tracker(FrequencyTracker((2,), trace), trace[0])
    for t in range(2):
        copy = pickle.loads(pickle.dumps(view))
        assert copy == view and copy.trace == trace
        assert copy.window_counts(1, (3, 4)) == view.window_counts(1, (3, 4))
        view = advance_tracker(view, trace[t + 1])


def test_prompt_freq_lines_read_the_tracker(small_instance):
    inst = small_instance
    episode = Episode(inst, warm_start(inst, 4, 0.9))
    obs = episode.advance()
    lines = encode(obs).splitlines()
    positive = 0
    for b in range(1, inst.config.bs_count + 1):
        relevant = sorted(obs.cache.files_at(b) | obs.requests.counts[b - 1].keys())
        freq = [line for line in lines if line.startswith(f"BS {b} FREQ ")]
        assert len(freq) == len(inst.config.windows)
        for w, line in zip(inst.config.windows, freq):
            head, body = line.split(": ", 1)
            assert head == f"BS {b} FREQ w={w}"
            tokens = [tok.split(":") for tok in body.split(" ")]
            assert [int(f) for f, _ in tokens] == relevant
            t = episode.tracker.slots_seen
            for f, r in tokens:
                member = sum(
                    int(f) in inst.request_slot(tau).counts[b - 1].keys()
                    for tau in range(max(1, t - w + 1), t + 1)
                )
                assert r == f"{member / min(w, t):.3f}"
                positive += float(r) > 0
    assert positive


def test_warm_start_fills_default_caches():
    inst = build_instance(InstanceConfig(bs_count=2, users=20), 1)
    warm = warm_start(inst)
    for b in range(1, 3):
        assert warm.cache.is_full(b)
    assert warm.tracker.slots_seen == inst.config.warm_slots


def test_warm_start_zero_slots():
    inst = build_instance(small_config(warm_slots=0), 2)
    warm = warm_start(inst, 4, 0.9)
    assert warm.cache.slots == tuple(
        (EMPTY_SLOT,) * c for c in inst.config.cache_size
    )
    assert warm.tracker.slots_seen == 0


@pytest.mark.parametrize("horizon", [2.5, True, "2"])
def test_the_warm_up_and_the_expert_walk_refuse_a_horizon_that_is_not_an_integer(horizon):
    """``InstanceConfig.check_warmup_fits`` refuses it in ``RewardConfig``'s
    words, so neither ``warm_start`` nor the walk under ``generate_sft`` runs
    it as another horizon or dies on a bare TypeError."""
    inst = build_instance(small_config(), 1)
    text = f"^{re.escape(f'horizon must be an integer >= 1, not {horizon!r}')}$"
    for ask in (lambda: inst.config.check_warmup_fits(horizon),
                lambda: warm_start(inst, horizon, 0.9),
                lambda: generate_sft(inst, 5, horizon, 0.9)):
        with pytest.raises(ConfigurationError, match=text):
            ask()


def test_warm_start_deterministic():
    cfg = small_config()
    a = warm_start(build_instance(cfg, 5), 4, 0.9)
    b = warm_start(build_instance(cfg, 5), 4, 0.9)
    assert a.cache == b.cache
    assert a.tracker == b.tracker
    assert a.inserted_at == b.inserted_at


def test_warm_start_books_cover_history():
    inst = build_instance(small_config(), 1)
    warm = warm_start(inst, 4, 0.9)
    # exactly the cached files have an insertion record, from a warm-up slot
    for b in range(1, inst.config.bs_count + 1):
        assert set(warm.inserted_at[b - 1]) == warm.cache.files_at(b)
        assert all(1 <= t <= inst.config.warm_slots for t in warm.inserted_at[b - 1].values())


# The instances the warm-up and the trace formatter are checked on: the
# README sweep's 18 points, the default 2-BS config and perfbench's 5-BS
# export config, each on seeds 1-3.
_SWEEP_BASE = InstanceConfig(bs_count=5, users=40)
CHECKED_CONFIGS = (
    *(sweep_config(_SWEEP_BASE, "library_size", f) for f in (100, 300, 500, 700, 900, 1100)),
    InstanceConfig(),
    InstanceConfig(bs_count=5, users=40, rollout_slots=520),
)
CHECKED = [(config, seed) for config in CHECKED_CONFIGS for seed in (1, 2, 3)]
CHECKED_IDS = [f"{c.bs_count}bs-F{c.library}-T{c.trace_slots}-seed{seed}" for c, seed in CHECKED]


@functools.cache
def checked_instance(config, seed):
    return build_instance(config, seed)


def _reference_trace_json(slots) -> str:
    return canonical_json([[list(p) for p in slot.pairs] for slot in slots])


def _reference_instance_json(instance) -> str:
    """The instance file as ``json.dumps`` writes the whole payload."""
    return json.dumps({
        "schema": "coopcache.instance.v1",
        "seed": instance.seed,
        "config": dataclasses.asdict(instance.config),
        "user_xy": [list(p) for p in instance.graph.user_xy],
        "user_group": list(instance.demand.user_group),
        "rank_to_file": [list(row) for row in instance.demand.rank_to_file],
        "trace": [[list(p) for p in slot.pairs] for slot in instance.trace],
    }, sort_keys=True, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("config, seed", [CHECKED[i] for i in (0, 17, 18, 21)],
                         ids=[CHECKED_IDS[i] for i in (0, 17, 18, 21)])
def test_trace_json_is_the_canonical_json_of_the_pairs(tmp_path, config, seed):
    instance = checked_instance(config, seed)
    save_instance(instance, tmp_path / "instance.json")
    loaded = load_instance(tmp_path / "instance.json")
    for inst in (instance, loaded):
        assert slots_json(inst.trace) == _reference_trace_json(inst.trace)
        assert inst.to_canonical_json() == _reference_instance_json(inst)
        for t, horizon in ((0, 1), (100, 10), (inst.trace_len - 10, 10), (5, 0)):
            peek = inst.peek(t, horizon)
            assert slots_json(peek) == _reference_trace_json(peek)


@settings(max_examples=100)
@given(st.lists(st.dictionaries(st.integers(0, 7), st.integers(1, 2**70), max_size=8),
                max_size=6))
def test_trace_json_matches_json_on_any_pairs(slots):
    graph = synthetic_graph([(1,)] * 8, bs_count=1)
    trace = [request_slot(sorted(requests.items()), graph) for requests in slots]
    assert slots_json(trace) == _reference_trace_json(trace)


def _with_slot(cache, b, z, file_id):
    """The checking copy-on-write update the warm-up used before ``CacheState.insert``."""
    rows = [list(row) for row in cache.slots]
    rows[b - 1][z - 1] = file_id
    return CacheState(tuple(map(tuple, rows)))


def _reference_warm_start(instance, horizon=10, gamma=0.9):
    """``warm_start`` with every insert rebuilt and checked by the CacheState constructor."""
    config = instance.config
    cache = CacheState.empty(config.cache_size)
    tracker = FrequencyTracker(config.windows, instance.trace)
    inserted_at = tuple({} for _ in range(config.bs_count))
    for t in range(1, config.warm_slots + 1):
        requests = instance.request_slot(t)
        tracker = advance_tracker(tracker, requests)
        for b in range(1, config.bs_count + 1):
            if not cache.is_full(b):
                file_in = hottest_uncached(cache, b, requests)
                if file_in is None:
                    continue
                cache = _with_slot(cache, b, cache.slots[b - 1].index(EMPTY_SLOT) + 1, file_in)
            else:
                act = oracle_best_action(cache, b, requests, instance.peek(t, horizon),
                                         instance.graph, horizon, gamma)
                if act.is_noop:
                    continue
                cache = _with_slot(cache, b, act.slot, act.file_in)
                file_in = act.file_in
                inserted_at[b - 1].pop(act.file_out, None)
            inserted_at[b - 1][file_in] = t
    return WarmState(cache, tracker, inserted_at)


@pytest.mark.parametrize("config, seed", CHECKED, ids=CHECKED_IDS)
def test_warm_start_matches_the_checked_reference(config, seed):
    instance = checked_instance(config, seed)
    warm, reference = warm_start(instance), _reference_warm_start(instance)
    assert warm.cache.slots == reference.cache.slots
    assert [warm.cache.files_at(b) for b in range(1, config.bs_count + 1)] == \
        [reference.cache.files_at(b) for b in range(1, config.bs_count + 1)]
    assert warm.tracker == reference.tracker
    assert warm.inserted_at == reference.inserted_at
