"""One benchmark process. ``run.py`` starts it; it is not run by hand.

Modes:

    inproc   set up (import, input generation, one untimed warm-up block),
             then run blocks of operations in this process as a closed loop
    setup    the same set-up only, to sample set-up time again
    cold     import, then run one operation from a config file, timed from
             config in to record rendered

Every mode writes one JSON result to ``--result``. ``ready`` is the
``time.monotonic()`` reading when set-up finished; the parent subtracts the
reading it took just before starting this process.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from rsp_sim import cli  # noqa: E402  (the import is part of set-up)

import workloads  # noqa: E402


def call(op: dict, tracer=None, op_id: int = -1) -> tuple[int, str, float]:
    """Run one operation; return its exit code, stderr and wall seconds."""
    if op["config"] is not None:
        Path(op["path"]).write_text(op["config"], encoding="utf-8")
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        if tracer is not None:
            tracer.begin_op(op_id)
        start = time.perf_counter()
        try:
            rc = cli.main(op["argv"])
        except Exception:  # a crash is a failed operation, not a dead run
            rc = -1
            traceback.print_exc()
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.end_op(seconds)
    return rc, err.getvalue(), seconds


def run_phase(source, checker, seconds: float, tracer=None) -> list:
    """Closed loop over whole blocks until ``seconds`` of operation time.

    Returns one list of ``[cell, seconds, failure]`` per block; ``failure``
    is None for an operation whose output passed its check.
    """
    blocks: list = []
    spent, ops = 0.0, 0
    while spent < seconds or ops <= workloads.TAIL_BEYOND:
        block = []
        for op in source.next_block():
            rc, stderr, took = call(op, tracer, ops)
            spent += took
            ops += 1
            block.append([op["cell"], took, checker.check(op, rc, stderr)])
            workloads.cleanup(op)
        blocks.append(block)
    return blocks


def fingerprint(tmp: Path) -> dict[str, str]:
    """sha256 of every preset's JSON and CSV output at fixed overrides."""
    digests = {}
    for name in sorted(workloads.PRESET_EXPECT):
        for fmt in ("json", "csv"):
            out = tmp / f"fingerprint-{name}.{fmt}"
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                rc = cli.main(["preset", name, "--format", fmt, "--out", str(out)])
            data = out.read_bytes() if rc == 0 else f"exit {rc}".encode()
            digests[f"{name}.{fmt}"] = hashlib.sha256(data).hexdigest()
            out.unlink(missing_ok=True)
    return digests


def _inproc(args, result: dict) -> None:
    tmp = Path(args.tmp)
    source = workloads.BlockSource(args.workload, args.seed, tmp)
    for op in source.next_block():  # warm-up, untimed and unchecked
        call(op)
        workloads.cleanup(op)
    result["ready"] = time.monotonic()
    if args.mode == "setup":
        return

    import checks

    checker = checks.Checker(ROOT / "docs" / "result-schema.json")
    if args.trace:
        from tracer import Tracer

        half = args.seconds / 2
        result["blocks"] = run_phase(source, checker, half)
        with Tracer() as tracer:
            result["traced_blocks"] = run_phase(source, checker, half, tracer)
        result["totals"] = tracer.totals()
        result["spans"] = tracer.span_rows()
    else:
        result["blocks"] = run_phase(source, checker, args.seconds)
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if args.workload == "presets":
        result["fingerprint"] = fingerprint(tmp)


def _cold(args, result: dict) -> None:
    result["ready"] = time.monotonic()
    op = json.loads(Path(args.op).read_text(encoding="utf-8"))
    if args.trace:
        from tracer import Tracer

        with Tracer() as tracer:
            rc, stderr, seconds = call(op, tracer, 0)
        result["totals"] = tracer.totals()
        result["spans"] = tracer.span_rows()
    else:
        rc, stderr, seconds = call(op)
    result.update(rc=rc, stderr=stderr, seconds=seconds,
                  rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("inproc", "setup", "cold"))
    parser.add_argument("--result", required=True)
    parser.add_argument("--tmp")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--op", help="cold mode: JSON file holding the operation")
    args = parser.parse_args()
    result: dict = {}
    if args.mode == "cold":
        _cold(args, result)
    else:
        _inproc(args, result)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
