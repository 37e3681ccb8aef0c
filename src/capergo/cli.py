"""Command line driver: `capergo run|list|check-capacity|core|lyapunov`.

Exit codes: 0 all checks passed, 1 a check failed, 2 configuration or
budget error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time

from . import scenarios, serialize, setfun
from .intervaldyn import BudgetError
from .numeric import encode
from .scenarios import ConfigError


def _parse_override(text: str):
    if "=" not in text:
        raise ConfigError("override must look like key=value: %r" % text)
    key, raw = text.split("=", 1)
    for cast in (int, float):
        try:
            return key, cast(raw)
        except ValueError:
            pass
    return key, raw


def _write_report(out_root, name, report, csv_tables):
    directory = os.path.join(out_root, name)
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "report.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for check_name, rows in csv_tables.items():
        with open(os.path.join(directory, check_name + ".csv"), "w",
                  newline="") as fh:
            csv.writer(fh).writerows(rows)
    return path


def _load_scenario_file(path: str):
    obj = serialize.load_json(path)
    if not isinstance(obj, dict):
        raise ConfigError("scenario file must hold a JSON object")
    name, config = obj.get("name"), obj.get("config", {})
    if not isinstance(name, str) or name not in scenarios.BY_NAME:
        raise ConfigError("scenario file references unknown scenario %r"
                          % (name,))
    if not isinstance(config, dict):
        raise ConfigError("scenario file's 'config' must be a JSON object")
    return name, config


def _is_scenario_file(name: str) -> bool:
    return os.path.sep in name or name.endswith(".json")


def _resolve_scenario(args) -> argparse.Namespace:
    """args with `scenario` the scenario's name and `config` its
    overrides: a scenario file's name and config, under the --set
    overrides.  Every scenario command gets its args through it, so a
    scenario file is read once."""
    overrides = dict(_parse_override(s) for s in args.set or [])
    name = args.scenario
    if _is_scenario_file(name):
        name, file_config = _load_scenario_file(name)
        overrides = {**file_config, **overrides}
    return argparse.Namespace(**dict(vars(args), scenario=name,
                                     config=overrides))


def cmd_run(args) -> int:
    name = args.scenario
    started = time.monotonic()
    report, csv_tables = scenarios.run_scenario(name, args.config, args.seed)
    elapsed = time.monotonic() - started
    out_root = args.out or os.environ.get("CAPERGO_OUT", "capergo-out")
    path = _write_report(out_root, name, report, csv_tables)
    # wall time goes to the console only, so report.json stays
    # byte-identical across repeated runs
    print("%s: %s (%.2fs) -> %s" % (
        name, "pass" if report["overall"] else "FAIL", elapsed, path))
    return 0 if report["overall"] else 1


def cmd_list(args) -> int:
    for name, _, _, desc in scenarios.REGISTRY:
        print("%-32s %s" % (name, desc))
    return 0


def cmd_check_capacity(args) -> int:
    mu = serialize.capacity_from_json(serialize.load_json(args.file))
    flags = setfun.classify_capacity(mu)
    out = {k: flags[k] for k in ("additive", "subadditive", "concave")}
    out["witnesses"] = {k: [format(m, "b") for m in v]
                        for k, v in flags["witnesses"].items()}
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def cmd_core(args) -> int:
    mu = serialize.capacity_from_json(serialize.load_json(args.file))
    verts = setfun.core_vertices(mu)
    print(json.dumps([[encode(x) for x in v] for v in verts], indent=2))
    return 0


def cmd_lyapunov(args) -> int:
    if args.scenario not in scenarios.COCYCLE:
        raise ConfigError("not a cocycle scenario: %r" % args.scenario)
    return cmd_run(args)


def _add_scenario_command(sub, name, help_text, fn):
    """A subcommand taking a scenario and --seed, --out and --set; fn
    gets the args as `_resolve_scenario` resolves them."""
    p = sub.add_parser(name, help=help_text)
    p.add_argument("scenario")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--set", action="append", metavar="key=value")
    p.set_defaults(fn=lambda args: fn(_resolve_scenario(args)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="capergo",
        description="ergodic-theory checks for capacities and upper "
                    "probabilities")
    sub = parser.add_subparsers(dest="command", required=True)

    _add_scenario_command(sub, "run", "run a scenario by name or file",
                          cmd_run)

    list_p = sub.add_parser("list", help="list built-in scenarios")
    list_p.set_defaults(fn=cmd_list)

    cap_p = sub.add_parser("check-capacity",
                           help="classify a capacity JSON file")
    cap_p.add_argument("file")
    cap_p.set_defaults(fn=cmd_check_capacity)

    core_p = sub.add_parser("core", help="core vertices of a capacity file")
    core_p.add_argument("file")
    core_p.set_defaults(fn=cmd_core)

    _add_scenario_command(sub, "lyapunov", "run a cocycle scenario",
                          cmd_lyapunov)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, BudgetError, OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
