"""Command line entry points.

Subcommands: gen-instance, run, sweep, export-sft, verify, report. The
settings of ``run``/``sweep`` are declared once in :data:`SETTINGS`, which
generates their flags, the keys a versioned JSON config file (--config)
may hold, and the instance and reward flags of ``gen-instance`` and
``export-sft``; explicit flags win over file values. The only environment
variable honored is COOPCACHE_OUT_DIR, which overrides the output directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, NamedTuple

from .dataset import audit_dataset, generate_sft, write_grpo_jsonl, write_sft_jsonl
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
from .traffic import SWEEP_AXES, InstanceConfig, build_instance, load_instance, save_instance
from .verification import run_verification

_ENV_OUT = "COOPCACHE_OUT_DIR"
# Where run, sweep and verify write without --out. RunConfig has no such
# default: its out_dir=None means that an API caller's run writes nothing.
_DEFAULT_OUT = "results"


def _whole(value) -> int:
    """A JSON integer: an int, but not a bool or a float."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, not {value!r}")
    return value


def _int(value) -> int:
    """Decimal text, or a JSON integer."""
    return int(value) if isinstance(value, str) else _whole(value)


def _ints(value) -> tuple[int, ...]:
    """Comma separated decimal text, or a JSON list of integers."""
    if isinstance(value, str):
        return tuple(int(x) for x in value.split(",") if x != "")
    return tuple(_whole(x) for x in value)


def _specs(value) -> tuple[str, ...]:
    """A list of policy specs; a bare string is not split into letters."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise TypeError("expected a list of policy specs")
    return tuple(value)


def _cache(value):
    """One int for every BS, or a per-BS tuple; a one-entry string is one int."""
    if isinstance(value, str):
        parsed = _ints(value)
        return parsed[0] if len(parsed) == 1 else parsed
    return _ints(value) if isinstance(value, (list, tuple)) else _whole(value)


class Setting(NamedTuple):
    """One run setting: its ``--config`` key, flag, target field and parser.

    ``parse`` takes a flag string or a config-file value and returns what
    the field holds; parsing its own output changes nothing.
    """

    key: str
    config: str  # the dataclass it sets: "instance", "reward" or "run"
    field: str
    parse: Callable
    help: str
    flag: str = ""

    @property
    def option(self) -> str:
        return self.flag or "--" + self.key.replace("_", "-")


# Every setting once. Defaults are the dataclasses' own: a setting neither
# a flag nor the config file supplies is not passed to its dataclass.
SETTINGS = (
    Setting("bs", "instance", "bs_count", _int, "number of base stations"),
    Setting("users", "instance", "users", _int, "number of users"),
    Setting("library", "instance", "library", _int, "content library size"),
    Setting("cache", "instance", "cache_size", _cache, "cache size: one int or comma list per BS"),
    Setting("groups", "instance", "groups", _int, "user preference groups"),
    Setting("alpha", "instance", "alpha", float, "popularity skew exponent"),
    Setting("windows", "instance", "windows", _ints, "history windows, comma separated"),
    Setting("radius", "instance", "radius", float, "coverage radius"),
    Setting("warm_slots", "instance", "warm_slots", _int, "warm-up slots"),
    Setting("rollout_slots", "instance", "rollout_slots", _int, "rollout slots in the trace"),
    Setting("horizon_reserve", "instance", "horizon_reserve", _int, "trace slots past the rollout"),
    Setting("horizon", "reward", "horizon", _int, "expert and reward look-ahead horizon"),
    Setting("gamma", "reward", "gamma", float, "look-ahead discount"),
    Setting("lambda_fmt", "reward", "lambda_fmt", float, "penalty for malformed output"),
    Setting("lambda_opp", "reward", "lambda_opp", float, "penalty for a missed swap"),
    Setting("epsilon", "reward", "epsilon", float, "group-advantage stability floor"),
    Setting("instance", "run", "instance_path", str, "saved instance file to read"),
    Setting("policies", "run", "policies", _specs,
            "lru | lfu | fifo | noop | oracle:<H> | extern:<command>; repeatable",
            flag="--policy"),
    Setting("seeds", "run", "seeds", _ints, "comma separated seed list"),
    Setting("slots", "run", "slots", _int, "rollout slots to run (default: the instance's)"),
    Setting("extern_timeout", "run", "extern_timeout", float, "adapter reply timeout in seconds"),
    Setting("out", "run", "out_dir", str, f"output directory (default: {_DEFAULT_OUT})"),
)

_CONFIG_KEYS = frozenset({"schema"} | {s.key for s in SETTINGS})
_INSTANCE_KEYS = tuple(s.key for s in SETTINGS if s.config == "instance")


def _add_settings(p: argparse.ArgumentParser, keys) -> None:
    for s in SETTINGS:
        if s.key in keys:
            if s.key == "policies":
                p.add_argument(s.option, dest=s.key, action="append", metavar="POLICY",
                               help=s.help)
            else:
                p.add_argument(s.option, dest=s.key, type=s.parse, help=s.help)


def _supplied(config: str, args, file_cfg: dict) -> dict:
    """Field values of one config that a flag or the file set; flags win.

    Flag values arrive parsed by argparse; parsing them again is a no-op,
    so a value that fails to parse came from the file.
    """
    values = {}
    for s in SETTINGS:
        if s.config != config:
            continue
        value = getattr(args, s.key, None)
        if value is None:
            if s.key not in file_cfg:
                continue
            value = file_cfg[s.key]
        try:
            values[s.field] = None if value is None else s.parse(value)
        except (TypeError, ValueError) as exc:
            raise SystemExit(f"config key {s.key!r} has a bad value {value!r}: {exc}") from exc
    return values


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


def _run_config(args, file_cfg: dict) -> RunConfig:
    run_kw = _supplied("run", args, file_cfg)
    if not run_kw.get("policies"):
        run_kw.pop("policies", None)  # a missing or empty list runs the default
    run_kw["out_dir"] = os.environ.get(_ENV_OUT) or run_kw.get("out_dir", _DEFAULT_OUT)
    if not run_kw.get("instance_path"):
        run_kw["instance_config"] = InstanceConfig(**_supplied("instance", args, file_cfg))
    return RunConfig(reward=RewardConfig(**_supplied("reward", args, file_cfg)), **run_kw)


def _cmd_gen_instance(args) -> int:
    config = InstanceConfig(**_supplied("instance", args, {}))
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
    parse = SWEEP_AXES[args.axis][1]
    values = [parse(v) for v in args.values.split(",")]
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
        config = InstanceConfig(**_supplied("instance", args, {}))
        instance = build_instance(config, args.seed)
    reward = RewardConfig(**_supplied("reward", args, {}))
    export = generate_sft(instance, args.records, reward.horizon, reward.gamma)
    write_sft_jsonl(export, args.out)
    status = "truncated" if export.truncated else "complete"
    print(f"wrote {args.out}: {len(export.records)} records ({status})")
    if args.grpo_out:
        write_grpo_jsonl(export, args.grpo_out)
        print(f"wrote {args.grpo_out}: {len(export.records)} states")
    audit = audit_dataset(args.out)
    print(f"audit: {audit.records} records, {len(audit.invalid_indices)} invalid")
    return 0 if audit.ok else 1


def _cmd_verify(args) -> int:
    given = {k: getattr(args, k) for k in ("seeds", "pbrs_slots", "fuzz_cases")}
    report = run_verification(**{k: v for k, v in given.items() if v is not None})
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coopcache",
        description="Deterministic multi-BS cooperative edge-caching benchmark",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-instance", help="generate and save a frozen instance")
    _add_settings(p, _INSTANCE_KEYS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_gen_instance)

    run_p = sub.add_parser("run", help="evaluate policies on frozen instances")
    sweep_p = sub.add_parser("sweep", help="zero-shot parameter sweep")
    for p, fn in ((run_p, _cmd_run), (sweep_p, _cmd_sweep)):
        _add_settings(p, _CONFIG_KEYS)  # every key a --config file may hold
        p.add_argument("--config", default=None, help="JSON run configuration file")
        p.set_defaults(fn=fn)
    sweep_p.add_argument("--axis", required=True, choices=tuple(SWEEP_AXES))
    sweep_p.add_argument("--values", required=True, help="comma separated axis values")

    p = sub.add_parser("export-sft", help="export expert demonstration pairs")
    _add_settings(p, _INSTANCE_KEYS + ("instance", "horizon", "gamma"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--records", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--grpo-out", default=None,
                   help="also write the reward-stage states of the same expert walk")
    p.set_defaults(fn=_cmd_export_sft)

    p = sub.add_parser("verify", help="parser fuzz + shaping audit + space bound")
    # Without a flag, run_verification's own default applies.
    p.add_argument("--seeds", type=_ints, help="comma separated seed list")
    p.add_argument("--pbrs-slots", type=int, help="shaping-audit slots per seed")
    p.add_argument("--fuzz-cases", type=int, help="parser fuzz cases")
    p.add_argument("--out", default=_DEFAULT_OUT)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("report", help="re-emit tables from saved reports")
    p.add_argument("--reports", required=True, help="directory holding report_*.json")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
