"""Deterministic multi-BS cooperative edge-caching benchmark.

A frozen-trajectory environment with a strict text-to-action control
interface, classical and look-ahead reference policies, shaped-reward
machinery, a demonstration exporter, and an evaluation harness.

The names below load their module on first use, so ``import coopcache``
(and ``python -m coopcache.<module>``) imports no module it is not asked
for; the extern adapter's frame module needs only the standard library.
"""

from importlib import import_module

__version__ = "0.1.0"

#: Each exported name's defining module, grouped by module.
_EXPORTS = {
    "core": ("EMPTY_SLOT", "NOOP", "BsAction", "CacheState", "FeasibilityError",
             "JointAction", "RequestSlot", "StructuralError", "apply", "check_transition",
             "feasible_actions", "hit_rate", "oracle_best_action", "request_slot"),
    "dataset": ("audit_dataset", "generate_grpo_states", "generate_sft"),
    "harness": ("EvalReport", "RunConfig", "rollout", "run", "sweep"),
    "interface": ("SlotObservation", "decode_prompt", "encode", "parse", "serialize"),
    "policies": ("ExternPolicy", "Policy", "make_policy"),
    "reward": ("RewardConfig", "group_advantage", "joint_space_size", "lookahead_value",
               "lookahead_values", "score_completion", "score_group", "verify_pbrs"),
    "traffic": ("AssociationGraph", "FrequencyTracker", "Instance", "InstanceConfig",
                "advance_tracker", "build_instance", "load_instance", "observe",
                "save_instance", "warm_start", "zipf_pmf"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """Import an exported name's module on first use (PEP 562). The name is
    looked up there on every access, so it is always the module's own object."""
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)
