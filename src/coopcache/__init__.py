"""Deterministic multi-BS cooperative edge-caching benchmark.

A frozen-trajectory environment with a strict text-to-action control
interface, classical and look-ahead reference policies, shaped-reward
machinery, a demonstration exporter, and an evaluation harness.
"""

from .core import (
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
    oracle_best_action,
    request_slot,
)
from .dataset import audit_dataset, generate_grpo_states, generate_sft
from .harness import EvalReport, RunConfig, rollout, run, sweep
from .interface import SlotObservation, decode_prompt, encode, parse, serialize
from .policies import ExternPolicy, Policy, make_policy
from .reward import (
    RewardConfig,
    group_advantage,
    joint_space_size,
    lookahead_value,
    lookahead_values,
    score_completion,
    score_group,
    verify_pbrs,
)
from .traffic import (
    AssociationGraph,
    FrequencyTracker,
    Instance,
    InstanceConfig,
    advance_tracker,
    build_instance,
    load_instance,
    observe,
    save_instance,
    warm_start,
    zipf_pmf,
)

__version__ = "0.1.0"
