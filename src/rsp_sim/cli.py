"""Command-line front end.

    rsp-sim run <config> [--out PATH] [--format csv|json] [--shots N --seed S]
    rsp-sim preset <name> [--out PATH] [--format csv|json] [--shots N --seed S]
    rsp-sim list-presets

Exit codes: 0 success, 2 schema violation or unknown preset, 3 scenario with
zero-probability conditioning, 4 I/O failure. Failures print a JSON error
object to stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

from .config import FORMATS, ScenarioConfig, SchemaError, load_config
from .measurement import ImpossibleHeraldError, ZeroProbabilityError
from .presets import PRESETS, list_presets
from .scenarios import run_scenario


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        # JSON refuses NaN and inf too (allow_nan=False)
        if not math.isfinite(value):
            raise ValueError(f"non-finite value {value!r} in the record")
        return format(value, ".12g")
    return str(value)


def render_csv(record: dict) -> str:
    """Scenario, summary and timestamp as comment lines, then one row per
    point; the header is the first point's keys, which every point shares."""
    buf = io.StringIO()
    buf.write(f"# rsp-sim {record['tool_version']}\n")
    for key, value in sorted(record["scenario"].items()):
        if isinstance(value, dict):
            for sub in sorted(value):
                buf.write(f"# {key}.{sub} = {_format_value(value[sub])}\n")
        else:
            buf.write(f"# {key} = {_format_value(value)}\n")
    for key, value in sorted(record["summary"].items()):
        buf.write(f"# summary.{key} = {_format_value(value)}\n")
    buf.write(f"# timestamp = {_format_value(record['timestamp'])}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(record["points"][0])
    for point in record["points"]:
        writer.writerow([_format_value(value) for value in point.values()])
    return buf.getvalue()


def render_json(record: dict) -> str:
    return json.dumps(record, sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_record(record: dict, out: str | None, fmt: str) -> None:
    text = render_csv(record) if fmt == "csv" else render_json(record)
    if out is None:
        sys.stdout.write(text)
        return
    Path(out).write_text(text, encoding="utf-8")


def _apply_overrides(config: ScenarioConfig, args) -> ScenarioConfig:
    updates = {}
    if args.format is not None:
        updates["format"] = args.format
    if args.shots is not None:
        updates["shots"] = args.shots
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.out is not None:
        updates["output"] = args.out
    return replace(config, **updates)


def _fail(code: int, kind: str, message: str) -> int:
    payload = {"error": {"code": code, "kind": kind, "message": message}}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    return code


def _execute(config: ScenarioConfig) -> int:
    record = run_scenario(config)
    write_record(record, config.output, config.format)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rsp-sim",
        description="Simulate heralded remote preparation of multi-photon "
        "entangled states and its figures of merit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io_flags(p):
        p.add_argument("--out", help="output file (default: scenario output, else stdout)")
        p.add_argument("--format", choices=FORMATS, help="output format override")
        p.add_argument("--shots", type=int, help="sample counting statistics")
        p.add_argument("--seed", type=int, help="random seed for sampling")

    run_p = sub.add_parser("run", help="run a scenario config file")
    run_p.add_argument("config", help="path to a JSON or key=value scenario file")
    add_io_flags(run_p)

    preset_p = sub.add_parser("preset", help="run a bundled scenario")
    preset_p.add_argument("name", help="preset name (see list-presets)")
    add_io_flags(preset_p)

    sub.add_parser("list-presets", help="print available preset names")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list-presets":
            for name in list_presets():
                print(name)
            return 0
        if args.command == "run":
            try:
                config = load_config(args.config)
            except OSError as exc:
                return _fail(2, "schema", f"cannot read config: {exc}")
        else:
            if args.name not in PRESETS:
                raise SchemaError(
                    f"unknown preset {args.name!r}; available: {', '.join(list_presets())}"
                )
            config = PRESETS[args.name]
            if args.out is None:
                args.out = f"{args.name}.{args.format or config.format}"
        config = _apply_overrides(config, args)
        return _execute(config)
    except SchemaError as exc:
        return _fail(2, "schema", str(exc))
    except (ZeroProbabilityError, ImpossibleHeraldError) as exc:
        return _fail(3, "zero_probability", str(exc))
    except OSError as exc:
        return _fail(4, "io", str(exc))
    except ValueError as exc:
        return _fail(2, "schema", str(exc))


if __name__ == "__main__":
    sys.exit(main())
