"""Shared fixtures and scenario builders."""

from __future__ import annotations

import os
import random
from pathlib import Path

import pytest

from coopcache.core import CacheState, request_slot
from coopcache.interface import SlotObservation
from coopcache.traffic import (
    AssociationGraph,
    FrequencyTracker,
    InstanceConfig,
    build_instance,
)

# Adapter children of the extern tests import coopcache from this checkout
# too, also when pytest alone put src/ on the path (pyproject's pythonpath).
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


def small_config(**overrides) -> InstanceConfig:
    """A tiny two-BS setup that keeps unit tests fast."""
    base = dict(
        bs_count=2,
        users=6,
        library=12,
        cache_size=3,
        groups=2,
        alpha=1.2,
        windows=(5, 10),
        warm_slots=12,
        rollout_slots=30,
        horizon_reserve=4,
    )
    base.update(overrides)
    return InstanceConfig(**base)


def random_scenario(rng: random.Random, max_bs=3, max_files=10, max_users=8):
    """A random (cache, graph, requests) triple for oracle-style checks.

    Caches are full so the swap interface is live.
    """
    bs_count = rng.randint(1, max_bs)
    library = rng.randint(4, max_files)
    users = rng.randint(1, max_users)
    capacity = rng.randint(1, max(1, library // 2))
    coverage = []
    for _ in range(users):
        k = rng.randint(1, bs_count)
        coverage.append(tuple(sorted(rng.sample(range(1, bs_count + 1), k))))
    graph = AssociationGraph.synthetic(coverage, bs_count)
    rows = tuple(
        tuple(rng.sample(range(1, library + 1), capacity)) for _ in range(bs_count)
    )
    cache = CacheState(rows)
    pairs = tuple((u, rng.randint(1, library)) for u in range(users))
    requests = request_slot(pairs, graph)
    return cache, graph, requests


def observation(cache, requests) -> SlotObservation:
    """A slot-1 observation whose tracker has seen no slot; every rate is 0."""
    return SlotObservation(1, cache, requests, FrequencyTracker.fresh((1,), cache.bs_count))


def golden_observation() -> SlotObservation:
    """The fixed two-BS observation behind the golden prompt file.

    The tracker has seen 100 slots, so each window's rate is its count over
    the window length: 8 of the last 10 slots give 0.8, 35 of 100 give 0.35.
    """
    cache = CacheState(((4, 7, 9), (2, 5, 0)))
    graph = AssociationGraph.synthetic(
        ((1,), (1, 2), (1,), (2,)), bs_count=2
    )
    requests = request_slot(((0, 5), (1, 5), (2, 7), (3, 9)), graph)
    counts = (
        ({5: 1, 7: 8, 9: 3}, {2: 2, 5: 1, 9: 4}),  # w=10
        ({5: 2, 7: 35, 9: 12}, {2: 5, 5: 1, 9: 20}),  # w=100
    )
    tracker = FrequencyTracker((10, 100), 100, (), counts)
    return SlotObservation(101, cache, requests, tracker)


@pytest.fixture(scope="session")
def small_instance():
    return build_instance(small_config(), 1)


@pytest.fixture(scope="session")
def golden_obs():
    return golden_observation()
