"""Acceptance suite.

One test per acceptance criterion, each printing a PASS line on success
(run with ``pytest tests/test_acceptance.py -v -s``). Numbers quoted in
comments are the reference bands; orderings and thresholds are asserted,
band deviations only warn.
"""

from __future__ import annotations

import random
import statistics
import sys
import warnings

import pytest

from coopcache.core import NOOP, JointAction, apply, feasible_actions, hit_rate
from coopcache.dataset import audit_dataset, generate_sft, write_sft_jsonl
from coopcache.harness import RunConfig, rollout, run, sweep
from coopcache.interface import parse, serialize
from coopcache.policies import make_policy
from coopcache.reward import RewardConfig, joint_space_size, verify_pbrs
from coopcache.traffic import InstanceConfig, build_instance, warm_start
from coopcache.verification import first_decision_observation, fuzz_parser

from conftest import observation, random_scenario, synthetic_graph
from test_core import brute_force_hit_rate
from coopcache.core import CacheState, request_slot

SEEDS = (1, 2, 3)

TWO_BS = InstanceConfig(bs_count=2, users=20)
FIVE_BS = InstanceConfig(bs_count=5, users=40)

# Reference cells (band targets only; deviations beyond 0.10 warn, not fail)
REFERENCE_MEANS = {
    2: {"oracle:1": 0.536, "lru": 0.502, "lfu": 0.497, "fifo": 0.313},
    5: {"oracle:1": 0.617, "lru": 0.574, "lfu": 0.586, "fifo": 0.370},
}


@pytest.fixture(scope="module")
def two_bs_instances():
    return {seed: build_instance(TWO_BS, seed) for seed in SEEDS}


@pytest.fixture(scope="module")
def shaping_reports(two_bs_instances):
    cfg = RewardConfig()
    return [
        verify_pbrs(two_bs_instances[seed], 20, cfg) for seed in SEEDS
    ]


def test_c1_determinism(tmp_path):
    """Criterion 1: byte-identical instance files, datasets and reports."""
    def one(out):
        cfg = RunConfig(
            instance_config=TWO_BS,
            policies=("lru", "oracle:1"),
            seeds=(1,),
            out_dir=str(out),
        )
        run(cfg)
        export = generate_sft(build_instance(TWO_BS, 1), 50)
        write_sft_jsonl(export, out / "sft.jsonl")

    one(tmp_path / "a")
    one(tmp_path / "b")
    names = (
        "instance_seed1.json",
        "report_lru_seed1.json",
        "report_oracle-1_seed1.json",
        "results.csv",
        "series.csv",
        "sft.jsonl",
    )
    for name in names:
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
    header = (tmp_path / "a" / "results.csv").read_text().splitlines()[0]
    assert header == (
        "policy,seed,slot_50,slot_100,slot_150,slot_200,slot_250,slot_300,mean"
    )
    print("ACCEPTANCE 1 determinism: PASS")


def test_c2_feasibility_suite(two_bs_instances):
    """Criterion 2: 1e5 fuzz cases clean; 1e3 round-trips are identities."""
    obs = first_decision_observation(two_bs_instances[1])
    report = fuzz_parser(obs, 100_000)
    assert report.cases >= 100_000
    assert report.crashes == (), report.crashes[:3]
    assert report.infeasible_accepts == (), report.infeasible_accepts[:3]

    rng = random.Random(424242)
    done = 0
    while done < 1000:
        cache, graph, requests = random_scenario(rng)
        small_obs = observation(cache, requests)
        joint = JointAction.valid(
            [
                rng.choice(feasible_actions(cache, b, requests))
                for b in range(1, cache.bs_count + 1)
            ]
        )
        assert parse(serialize(joint), small_obs) == joint
        done += 1
    print(f"ACCEPTANCE 2 feasibility suite: PASS ({report.cases} fuzz cases)")


def test_c3_hit_rate_oracle_equivalence():
    """Criterion 3: hit_rate equals brute-force enumeration on 200 instances."""
    rng = random.Random(1337)
    for _ in range(200):
        cache, graph, requests = random_scenario(rng, max_bs=3, max_files=10, max_users=8)
        assert hit_rate(cache, requests, graph) == brute_force_hit_rate(
            cache.slots, graph.coverage, requests.pairs
        )
    print("ACCEPTANCE 3 hit-rate oracle equivalence: PASS (200 instances)")


def test_c4_pbrs_suite(shaping_reports):
    """Criterion 4: zero shaping violations on 3 seeds x 20 full-cache slots."""
    for report in shaping_reports:
        assert report.slots_checked == 20
        assert report.argmax_mismatches == ()
        assert report.order_violations == ()
        assert report.demotion_violations == ()
    total = sum(r.actions_checked for r in shaping_reports)
    print(f"ACCEPTANCE 4 shaping suite: PASS ({total} actions across 3 seeds)")


def test_c5_joint_space(shaping_reports):
    """Criterion 5: product >= 2^B whenever all factors >= 2; 41^5 exact."""
    bound_slots = 0
    for report in shaping_reports:
        for size in report.spaces:
            if size.exponential_bound_applies:
                bound_slots += 1
                assert size.product >= 2 ** len(size.factors)
    # B=5, C=10, four requested-and-uncached files per BS
    graph = synthetic_graph(
        tuple((b,) for b in range(1, 6) for _ in range(4)), 5
    )
    pairs, u = [], 0
    for _b in range(5):
        for f in (90, 91, 92, 93):
            pairs.append((u, f))
            u += 1
    requests = request_slot(tuple(pairs), graph)
    cache = CacheState(tuple(tuple(range(b * 10 + 1, b * 10 + 11)) for b in range(5)))
    size = joint_space_size(observation(cache, requests))
    assert size.product == 41 ** 5 == 115_856_201
    print(f"ACCEPTANCE 5 joint-space growth: PASS ({bound_slots} bounded slots)")


def _mean_of_means(instances, spec):
    means = []
    for instance in instances.values():
        warm = warm_start(instance)
        means.append(rollout(instance, make_policy(spec), None, warm).table_mean)
    return statistics.mean(means)


@pytest.fixture(scope="module")
def baseline_means(two_bs_instances):
    five = {seed: build_instance(FIVE_BS, seed) for seed in SEEDS}
    out = {2: {}, 5: {}}
    for scale, instances in ((2, two_bs_instances), (5, five)):
        warms = {s: warm_start(i) for s, i in instances.items()}
        for spec in ("oracle:1", "lru", "lfu", "fifo"):
            vals = [
                rollout(instances[s], make_policy(spec), None, warms[s]).table_mean
                for s in SEEDS
            ]
            out[scale][spec] = statistics.mean(vals)
    return out


def test_c6_baseline_ordering(baseline_means):
    """Criterion 6: reference orderings and the 0.45 separator, both scales."""
    for scale in (2, 5):
        means = baseline_means[scale]
        assert means["oracle:1"] > means["lru"], (scale, means)
        assert means["oracle:1"] > means["lfu"], (scale, means)
        assert means["lfu"] > means["fifo"], (scale, means)
        assert means["lru"] > means["fifo"], (scale, means)
        assert means["fifo"] < 0.45, (scale, means)
        assert means["oracle:1"] > 0.45, (scale, means)
        for spec, value in means.items():
            drift = abs(value - REFERENCE_MEANS[scale][spec])
            if drift > 0.10:
                warnings.warn(
                    f"B={scale} {spec} mean {value:.3f} deviates "
                    f"{drift:.3f} from the reference cell"
                )
        line = " ".join(f"{k}={v:.3f}" for k, v in means.items())
        print(f"ACCEPTANCE 6 baseline ordering B={scale}: PASS ({line})")


def _assert_trend(values, direction, slack=0.005, max_inversions=1):
    """Monotone up/down with at most one adjacent inversion within slack."""
    inversions = 0
    for prev, nxt in zip(values, values[1:]):
        step = nxt - prev if direction == "up" else prev - nxt
        if step < 0:
            inversions += 1
            assert -step <= slack, f"inversion {-step:.4f} exceeds slack in {values}"
    assert inversions <= max_inversions, f"{inversions} inversions in {values}"


def _sweep_means(base, axis, values):
    cfg = RunConfig(
        instance_config=base,
        policies=("oracle:1", "lru", "lfu"),
        seeds=SEEDS,
        out_dir=None,
    )
    rows = sweep(cfg, axis, values)
    table: dict = {}
    for row in rows:
        table.setdefault((row["policy"], row["value"]), []).append(row["table_mean"])
    return {key: statistics.mean(vals) for key, vals in table.items()}


def test_c7_sweep_trends():
    """Criterion 7: hit rate rises with capacity and skew, falls with library."""
    cases = (
        ("cache_capacity", TWO_BS, [10, 15, 20, 25, 30], "up"),
        ("library_size", FIVE_BS, [100, 300, 500, 700, 900, 1100], "down"),
        ("zipf_alpha", FIVE_BS, [0.6, 0.8, 1.0, 1.2, 1.4, 1.6], "up"),
    )
    for axis, base, values, direction in cases:
        means = _sweep_means(base, axis, values)
        for spec in ("oracle:1", "lru", "lfu"):
            series = [means[(spec, v)] for v in values]
            _assert_trend(series, direction)
        print(f"ACCEPTANCE 7 sweep trend {axis}: PASS")


def test_c8_dataset_audit(tmp_path):
    """Criterion 8: 500 records, zero invalid, full-cache gate, bit-identical."""
    config = InstanceConfig(bs_count=2, users=20, rollout_slots=520)
    instance = build_instance(config, 1)
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_sft_jsonl(generate_sft(instance, 500), a)
    write_sft_jsonl(generate_sft(instance, 500), b)
    assert a.read_bytes() == b.read_bytes()
    audit = audit_dataset(a)
    assert audit.records == 500
    assert audit.invalid_indices == ()
    assert audit.gate_violations == ()
    assert not audit.truncated
    print(f"ACCEPTANCE 8 dataset audit: PASS (noop fraction {audit.noop_fraction:.3f})")


def test_c9_extern_stub_rollout(two_bs_instances):
    """Criterion 9: the echo adapter finishes 300 slots with zero invalids."""
    instance = two_bs_instances[1]
    warm = warm_start(instance)
    policy = make_policy(
        f"extern:{sys.executable} -m coopcache.extern_stub", extern_timeout=60.0
    )
    report = rollout(instance, policy, None, warm)
    assert report.slots == 300
    assert report.invalid_actions == 0
    noop = rollout(instance, make_policy("noop"), None, warm)
    assert report.p_hit == noop.p_hit  # all-no-op adapter mirrors the noop policy
    print("ACCEPTANCE 9 extern stub end-to-end: PASS")
