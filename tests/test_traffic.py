"""Instance generation, demand model, tracker and warm-start tests."""

from __future__ import annotations

import random

import numpy as np
import pytest

from coopcache.core import EMPTY_SLOT, StructuralError, request_slot
from coopcache.episode import Episode
from coopcache.interface import encode
from coopcache.traffic import (
    AssociationGraph,
    ConfigurationError,
    FrequencyTracker,
    InstanceConfig,
    advance_tracker,
    build_instance,
    instance_from_payload,
    load_instance,
    save_instance,
    warm_start,
    zipf_pmf,
)

from conftest import small_config


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
            assert slot.user_count == users
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
    cfg = InstanceConfig(cache_size=7, windows=(100, 10))
    assert cfg.cache_size == (7, 7)
    assert cfg.windows == (10, 100)


def test_instance_round_trip(tmp_path, small_instance):
    path = tmp_path / "instance.json"
    save_instance(small_instance, path)
    loaded = load_instance(path)
    assert loaded == small_instance
    again = tmp_path / "again.json"
    save_instance(loaded, again)
    assert path.read_bytes() == again.read_bytes()


def test_instance_schema_guard(small_instance):
    import json

    payload = json.loads(small_instance.to_canonical_json())
    payload["schema"] = "something-else"
    with pytest.raises(StructuralError):
        instance_from_payload(payload)


def test_tracker_first_slot():
    graph = AssociationGraph.synthetic(((1,),), 1)
    tracker = FrequencyTracker.fresh((10,), 1)
    tracker = advance_tracker(tracker, request_slot(((0, 3),), graph))
    assert tracker.rate(1, 3, 10) == 1.0
    assert tracker.rate(1, 4, 10) == 0.0


def test_tracker_three_of_last_ten():
    graph = AssociationGraph.synthetic(((1,),), 1)
    tracker = FrequencyTracker.fresh((10,), 1)
    # file 3 requested in 3 of the last 10 slots once 12 slots have passed
    for t in range(1, 13):
        f = 3 if t in (3, 6, 11) else 5
        tracker = advance_tracker(tracker, request_slot(((0, f),), graph))
    assert tracker.rate(1, 3, 10) == pytest.approx(0.3)


def test_tracker_matches_trace_recomputation(small_instance):
    """Incremental counters agree with direct recomputation from the trace."""
    inst = small_instance
    windows = inst.config.windows
    tracker = FrequencyTracker.fresh(windows, inst.config.bs_count)
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
                    if f in inst.request_slot(tau).admissible[b - 1]
                )
                assert tracker.rate(b, f, w) == pytest.approx(member / min(w, t))


def test_prompt_freq_lines_read_the_tracker(small_instance):
    inst = small_instance
    episode = Episode(inst, warm_start(inst, 4, 0.9))
    obs = episode.advance()
    lines = encode(obs).splitlines()
    positive = 0
    for b in range(1, inst.config.bs_count + 1):
        relevant = sorted(obs.cache.files_at(b) | obs.requests.admissible[b - 1])
        freq = [line for line in lines if line.startswith(f"BS {b} FREQ ")]
        assert len(freq) == len(inst.config.windows)
        for w, line in zip(inst.config.windows, freq):
            head, body = line.split(": ", 1)
            assert head == f"BS {b} FREQ w={w}"
            tokens = [tok.split(":") for tok in body.split(" ")]
            assert [int(f) for f, _ in tokens] == relevant
            for f, r in tokens:
                assert r == f"{episode.tracker.rate(b, int(f), w):.3f}"
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


def test_warm_start_deterministic():
    cfg = small_config()
    a = warm_start(build_instance(cfg, 5), 4, 0.9)
    b = warm_start(build_instance(cfg, 5), 4, 0.9)
    assert a.cache == b.cache
    assert a.tracker == b.tracker
    assert a.books.inserted_at == b.books.inserted_at


def test_warm_start_books_cover_history():
    inst = build_instance(small_config(), 1)
    warm = warm_start(inst, 4, 0.9)
    totals = [dict() for _ in range(inst.config.bs_count)]
    for t in range(1, inst.config.warm_slots + 1):
        for b in range(inst.config.bs_count):
            for f, c in inst.request_slot(t).counts[b].items():
                totals[b][f] = totals[b].get(f, 0) + c
    assert warm.books.request_totals == totals
    # every cached file has an insertion record
    for b in range(1, inst.config.bs_count + 1):
        for f in warm.cache.files_at(b):
            assert f in warm.books.inserted_at[b - 1]
