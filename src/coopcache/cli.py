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

from .core import (
    StructuralError,
    atomic_write,
    check_count,
    check_out_dir,
    check_out_file,
    make_out_dir,
    read_json,
    real,
    whole,
)
from .dataset import audit_dataset, check_export_paths, generate_sft, write_export
from .harness import (
    RUNCONFIG_SCHEMA,
    RunConfig,
    load_reports,
    run,
    sweep,
    write_reports,
)
from .policies import AdapterError
from .reward import RewardConfig
from .traffic import SWEEP_AXES, InstanceConfig, build_instance, load_seeded_instance, save_instance
from .verification import run_verification

_ENV_OUT = "COOPCACHE_OUT_DIR"
# Where run, sweep and verify write without --out. RunConfig has no such
# default: its out_dir=None means that an API caller's run writes nothing.
_DEFAULT_OUT = "results"


def _int(value) -> int:
    """Decimal text, or a JSON integer."""
    return int(value) if isinstance(value, str) else whole(value)


def _ints(value) -> tuple[int, ...]:
    """Comma separated decimal text, or a JSON list of integers."""
    if isinstance(value, str):
        return tuple(int(x) for x in value.split(",") if x != "")
    return tuple(whole(x) for x in value)


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
    return _ints(value) if isinstance(value, (list, tuple)) else whole(value)


class Setting(NamedTuple):
    """One run setting: its ``--config`` key, flag, target field and parser.

    ``parse`` takes a flag string or a config-file value and returns what
    the field holds; parsing its own output changes nothing.
    """

    key: str
    config: str  # the dataclass it sets: "instance", "reward" or "run"; "source": the instance file
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
    Setting("alpha", "instance", "alpha", real, "popularity skew exponent"),
    Setting("windows", "instance", "windows", _ints, "history windows, comma separated"),
    Setting("radius", "instance", "radius", real, "coverage radius"),
    Setting("warm_slots", "instance", "warm_slots", _int, "warm-up slots"),
    Setting("rollout_slots", "instance", "rollout_slots", _int, "rollout slots in the trace"),
    Setting("horizon_reserve", "instance", "horizon_reserve", _int, "trace slots past the rollout"),
    Setting("horizon", "reward", "horizon", _int, "expert and reward look-ahead horizon"),
    Setting("gamma", "reward", "gamma", real, "look-ahead discount"),
    Setting("lambda_fmt", "reward", "lambda_fmt", real, "penalty for malformed output"),
    Setting("lambda_opp", "reward", "lambda_opp", real, "penalty for a missed swap"),
    Setting("epsilon", "reward", "epsilon", real, "group-advantage stability floor"),
    Setting("instance", "source", "instance_path", str, "saved instance file to read"),
    Setting("policies", "run", "policies", _specs,
            "lru | lfu | fifo | noop | oracle:<H> | extern:<command>; repeatable",
            flag="--policy"),
    Setting("seeds", "run", "seeds", _ints, "comma separated seed list"),
    Setting("slots", "run", "slots", _int, "rollout slots to run (default: the instance's)"),
    Setting("extern_timeout", "run", "extern_timeout", real, "adapter reply timeout in seconds"),
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
    cfg = read_json(path, lambda payload: payload)
    if not isinstance(cfg, dict) or cfg.get("schema") != RUNCONFIG_SCHEMA:
        raise SystemExit(f"config file must declare schema {RUNCONFIG_SCHEMA!r}")
    unknown = sorted(set(cfg) - _CONFIG_KEYS)
    if unknown:
        raise SystemExit(f"unknown key(s) in config file {path}: {', '.join(unknown)}")
    return cfg


def _instance_source(args, file_cfg: dict) -> str | InstanceConfig:
    """``instance``, the file a flag or config key names, else the InstanceConfig
    of the instance settings; a setting beside the file, which fixes them all, is refused."""
    settings = _supplied("instance", args, file_cfg)
    path = _supplied("source", args, file_cfg).get("instance_path")
    if path is not None and settings:
        given = ", ".join(s.key for s in SETTINGS if s.config == "instance" and s.field in settings)
        raise SystemExit(f"instance settings given beside an instance file: {given}")
    return InstanceConfig(**settings) if path is None else path


def _run_config(args, file_cfg: dict) -> RunConfig:
    run_kw = _supplied("run", args, file_cfg)
    if not run_kw.get("policies"):
        run_kw.pop("policies", None)  # a missing or empty list runs the default
    run_kw["out_dir"] = os.environ.get(_ENV_OUT) or run_kw.get("out_dir", _DEFAULT_OUT)
    source = _instance_source(args, file_cfg)
    run_kw["instance_path" if isinstance(source, str) else "instance_config"] = source
    return RunConfig(reward=RewardConfig(**_supplied("reward", args, file_cfg)), **run_kw)


def _cmd_gen_instance(args) -> int:
    check_out_file(args.out)
    instance = build_instance(_instance_source(args, {}), args.seed)
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
    values = []
    for text in args.values.split(","):
        try:
            values.append(parse(text))
        except ValueError:
            raise SystemExit(f"--values: {text!r} is not a {args.axis} value") from None
    rows = sweep(cfg, args.axis, values)
    for row in rows:
        print(
            f"{row['axis']}={row['value']} {row['policy']} seed={row['seed']} "
            f"mean={row['table_mean']:.4f}"
        )
    print(f"wrote {cfg.out_dir}/sweep_{args.axis}.csv")
    return 0


def _cmd_export_sft(args) -> int:
    check_count("--records", args.records)
    check_export_paths(args.out, args.grpo_out)
    source = _instance_source(args, {})
    reward = RewardConfig(**_supplied("reward", args, {}))
    if isinstance(source, InstanceConfig):
        source.check_warmup_fits(reward.horizon)
        instance = build_instance(source, 1 if args.seed is None else args.seed)
    else:
        instance = load_seeded_instance(source, args.seed, "export-sft")
        instance.config.check_warmup_fits(reward.horizon)
    export = generate_sft(instance, args.records, reward.horizon, reward.gamma)
    write_export(export, args.out, args.grpo_out)
    status = "truncated" if export.truncated else "complete"
    print(f"wrote {args.out}: {len(export.records)} records ({status})")
    if args.grpo_out:
        print(f"wrote {args.grpo_out}: {len(export.records)} states")
    audit = audit_dataset(args.out)
    print(f"audit: {audit.records} records, {len(audit.invalid_indices)} invalid")
    return 0 if audit.ok else 1


def _cmd_verify(args) -> int:
    for flag, count in (("--pbrs-slots", args.pbrs_slots), ("--fuzz-cases", args.fuzz_cases)):
        if count is not None:
            check_count(flag, count)
    out_dir = os.environ.get(_ENV_OUT) or args.out
    check_out_dir(out_dir)
    given = {k: getattr(args, k) for k in ("seeds", "pbrs_slots", "fuzz_cases")}
    report = run_verification(**{k: v for k, v in given.items() if v is not None})
    make_out_dir(out_dir)
    path = os.path.join(out_dir, "verify_report.json")
    with atomic_write(path) as fh:
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
    # saved reports carry no latency, so the measured latency.csv is left as it is
    results, series = write_reports(reports, out_dir)
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
    p.add_argument("--seed", type=int, help="default: the --instance file's seed, else 1")
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
    try:
        return args.fn(args)
    except (StructuralError, AdapterError) as exc:
        raise SystemExit(str(exc)) from exc


if __name__ == "__main__":
    sys.exit(main())
