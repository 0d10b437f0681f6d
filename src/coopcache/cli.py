"""Command line entry points.

Subcommands: gen-instance, run, sweep, export-sft, verify, report. Every
flag of ``run``/``sweep`` can also come from a versioned JSON config file
(--config); explicit flags win. The only environment variable honored is
COOPCACHE_OUT_DIR, which overrides the output directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .dataset import audit_dataset, generate_grpo_states, generate_sft, write_grpo_jsonl, write_sft_jsonl
from .harness import (
    RUNCONFIG_SCHEMA,
    RunConfig,
    load_reports,
    run,
    sweep,
    write_latency,
    write_reports,
)
from .reward import RewardConfig
from .traffic import InstanceConfig, build_instance, load_instance, save_instance
from .verification import run_verification

_ENV_OUT = "COOPCACHE_OUT_DIR"

# Every key a --config file may hold: the ones _run_config reads.
_CONFIG_KEYS = frozenset({
    "schema", "bs", "users", "library", "cache", "groups", "alpha", "windows",
    "radius", "warm_slots", "rollout_slots", "horizon_reserve", "horizon", "gamma",
    "lambda_fmt", "lambda_opp", "epsilon", "instance", "policies", "seeds", "slots",
    "out", "extern_timeout",
})


def _add_instance_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bs", type=int, default=None, help="number of base stations")
    p.add_argument("--users", type=int, default=None)
    p.add_argument("--library", type=int, default=None, help="content library size")
    p.add_argument("--cache", default=None, help="cache size: one int or comma list per BS")
    p.add_argument("--groups", type=int, default=None, help="user preference groups")
    p.add_argument("--alpha", type=float, default=None, help="popularity skew exponent")
    p.add_argument("--windows", default=None, help="history windows, comma separated")
    p.add_argument("--radius", type=float, default=None, help="coverage radius")
    p.add_argument("--warm-slots", type=int, default=None)
    p.add_argument("--rollout-slots", type=int, default=None)
    p.add_argument("--horizon-reserve", type=int, default=None)


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in str(text).split(",") if x != "")


def _merge(args: argparse.Namespace, key: str, file_cfg: dict, default):
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in file_cfg:
        return file_cfg[key]
    return default


def _instance_config(args, file_cfg: dict) -> InstanceConfig:
    cache = _merge(args, "cache", file_cfg, 10)
    if isinstance(cache, str):
        parsed = _ints(cache)
        cache = parsed[0] if len(parsed) == 1 else parsed
    elif isinstance(cache, list):
        cache = tuple(cache)
    windows = _merge(args, "windows", file_cfg, (10, 100, 1000))
    if isinstance(windows, str):
        windows = _ints(windows)
    elif isinstance(windows, list):
        windows = tuple(windows)
    return InstanceConfig(
        bs_count=int(_merge(args, "bs", file_cfg, 2)),
        users=int(_merge(args, "users", file_cfg, 20)),
        library=int(_merge(args, "library", file_cfg, 100)),
        cache_size=cache,
        groups=int(_merge(args, "groups", file_cfg, 3)),
        alpha=float(_merge(args, "alpha", file_cfg, 1.2)),
        windows=windows,
        radius=_merge(args, "radius", file_cfg, None),
        warm_slots=int(_merge(args, "warm_slots", file_cfg, 100)),
        rollout_slots=int(_merge(args, "rollout_slots", file_cfg, 300)),
        horizon_reserve=int(_merge(args, "horizon_reserve", file_cfg, 10)),
    )


def _reward_config(args, file_cfg: dict) -> RewardConfig:
    return RewardConfig(
        horizon=int(_merge(args, "horizon", file_cfg, 10)),
        gamma=float(_merge(args, "gamma", file_cfg, 0.9)),
        lambda_fmt=float(_merge(args, "lambda_fmt", file_cfg, -1.0)),
        lambda_opp=float(_merge(args, "lambda_opp", file_cfg, -0.2)),
        epsilon=float(_merge(args, "epsilon", file_cfg, 1e-4)),
    )


def _load_file_cfg(path: str | None) -> dict:
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict) or cfg.get("schema") != RUNCONFIG_SCHEMA:
        raise SystemExit(f"config file must declare schema {RUNCONFIG_SCHEMA!r}")
    unknown = sorted(set(cfg) - _CONFIG_KEYS)
    if unknown:
        raise SystemExit(f"unknown key(s) in config file {path}: {', '.join(unknown)}")
    return cfg


def _out_dir(args, file_cfg: dict, default="results"):
    return os.environ.get(_ENV_OUT) or _merge(args, "out", file_cfg, default)


def _run_config(args, file_cfg: dict, need_out=True) -> RunConfig:
    instance_path = _merge(args, "instance", file_cfg, None)
    policies = getattr(args, "policy", None) or file_cfg.get("policies") or ["lru"]
    seeds = _merge(args, "seeds", file_cfg, (1, 2, 3))
    if isinstance(seeds, str):
        seeds = _ints(seeds)
    elif isinstance(seeds, list):
        seeds = tuple(seeds)
    return RunConfig(
        instance_config=None if instance_path else _instance_config(args, file_cfg),
        instance_path=instance_path,
        policies=tuple(policies),
        seeds=tuple(seeds),
        slots=_merge(args, "slots", file_cfg, None),
        reward=_reward_config(args, file_cfg),
        out_dir=_out_dir(args, file_cfg) if need_out else None,
        extern_timeout=float(_merge(args, "extern_timeout", file_cfg, 30.0)),
    )


def _cmd_gen_instance(args) -> int:
    config = _instance_config(args, {})
    instance = build_instance(config, args.seed)
    save_instance(instance, args.out)
    print(f"wrote {args.out} (sha256 {instance.sha256()})")
    return 0


def _cmd_run(args) -> int:
    cfg = _run_config(args, _load_file_cfg(args.config))
    reports = run(cfg)
    for r in sorted(reports, key=lambda r: (r.policy, r.seed)):
        print(
            f"{r.policy} seed={r.seed} mean={r.table_mean:.4f} "
            f"overall={r.overall_mean:.4f} invalid={r.invalid_actions}"
        )
    print(f"wrote {cfg.out_dir}/results.csv")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _run_config(args, _load_file_cfg(args.config))
    values = [float(v) if args.axis == "zipf_alpha" else int(v) for v in args.values.split(",")]
    rows = sweep(cfg, args.axis, values)
    for row in rows:
        print(
            f"{row['axis']}={row['value']} {row['policy']} seed={row['seed']} "
            f"mean={row['table_mean']:.4f}"
        )
    print(f"wrote {cfg.out_dir}/sweep_{args.axis}.csv")
    return 0


def _cmd_export_sft(args) -> int:
    if args.instance:
        instance = load_instance(args.instance)
    else:
        instance = build_instance(_instance_config(args, {}), args.seed)
    export = generate_sft(
        instance, args.records, args.horizon, args.gamma,
        warm_slots=args.warm_slots_override,
    )
    write_sft_jsonl(export, args.out)
    status = "truncated" if export.truncated else "complete"
    print(f"wrote {args.out}: {len(export.records)} records ({status})")
    if args.grpo_out:
        grpo = generate_grpo_states(
            instance, args.records, args.horizon, args.gamma,
            warm_slots=args.warm_slots_override,
        )
        write_grpo_jsonl(grpo, args.grpo_out)
        print(f"wrote {args.grpo_out}: {len(grpo.records)} states")
    audit = audit_dataset(args.out)
    print(f"audit: {audit.records} records, {len(audit.invalid_indices)} invalid")
    return 0 if audit.ok else 1


def _cmd_verify(args) -> int:
    report = run_verification(
        seeds=_ints(args.seeds), pbrs_slots=args.pbrs_slots, fuzz_cases=args.fuzz_cases
    )
    out_dir = os.environ.get(_ENV_OUT) or args.out
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "verify_report.json")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")
    fuzz = report["fuzz"]
    print(f"{'PASS' if fuzz['ok'] else 'FAIL'} parser fuzz ({fuzz['cases']} cases)")
    for shaping in report["shaping"]:
        print(
            f"{'PASS' if shaping['ok'] else 'FAIL'} shaping audit seed {shaping['seed']} "
            f"({shaping['actions_checked']} actions)"
        )
        for flag in shaping["flags"]:
            print(f"  flag: {flag}")
    space = report["joint_space"]
    print(f"{'PASS' if space['ok'] else 'FAIL'} joint-space bound ({space['slots_with_bound']} slots)")
    print(f"wrote {path}")
    return 0 if report["ok"] else 1


def _cmd_report(args) -> int:
    reports = load_reports(args.reports)
    if not reports:
        raise SystemExit(f"no report_*.json files under {args.reports}")
    out_dir = os.environ.get(_ENV_OUT) or args.out
    os.makedirs(out_dir, exist_ok=True)
    results, series = write_reports(reports, out_dir)
    write_latency(reports, out_dir)
    print(f"wrote {results} and {series}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="coopcache",
        description="Deterministic multi-BS cooperative edge-caching benchmark",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-instance", help="generate and save a frozen instance")
    _add_instance_args(p)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_gen_instance)

    p = sub.add_parser("run", help="evaluate policies on frozen instances")
    _add_instance_args(p)
    p.add_argument("--config", default=None, help="JSON run configuration file")
    p.add_argument("--instance", default=None, help="evaluate a saved instance file")
    p.add_argument("--policy", action="append", default=None,
                   help="lru | lfu | fifo | noop | oracle:<H> | extern:<command>")
    p.add_argument("--seeds", default=None, help="comma separated seed list")
    p.add_argument("--slots", type=int, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--lambda-fmt", dest="lambda_fmt", type=float, default=None)
    p.add_argument("--lambda-opp", dest="lambda_opp", type=float, default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--extern-timeout", dest="extern_timeout", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("sweep", help="zero-shot parameter sweep")
    _add_instance_args(p)
    p.add_argument("--config", default=None)
    p.add_argument("--axis", required=True,
                   choices=("cache_capacity", "library_size", "zipf_alpha", "users"))
    p.add_argument("--values", required=True, help="comma separated axis values")
    p.add_argument("--policy", action="append", default=None)
    p.add_argument("--seeds", default=None)
    p.add_argument("--slots", type=int, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("export-sft", help="export expert demonstration pairs")
    _add_instance_args(p)
    p.add_argument("--instance", default=None)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--records", type=int, required=True)
    p.add_argument("--horizon", type=int, default=10)
    p.add_argument("--gamma", type=float, default=0.9)
    p.add_argument("--warm-slots-override", type=int, default=None,
                   help="override the instance's warm-up length")
    p.add_argument("--out", required=True)
    p.add_argument("--grpo-out", default=None,
                   help="also export reward-stage states with expert witnesses")
    p.set_defaults(fn=_cmd_export_sft)

    p = sub.add_parser("verify", help="parser fuzz + shaping audit + space bound")
    p.add_argument("--seeds", default="1,2,3")
    p.add_argument("--pbrs-slots", type=int, default=20)
    p.add_argument("--fuzz-cases", type=int, default=100_000)
    p.add_argument("--out", default="results")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("report", help="re-emit tables from saved reports")
    p.add_argument("--reports", required=True, help="directory holding report_*.json")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_report)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
