"""rsp-sim benchmark: one workload, one seed, one closed loop.

    python3 rspbench/run.py --workload {presets,sweeps,large_n} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout that holds ``src/rsp_sim``. One client runs
operations back to back; the next starts only after the previous returns.
Every operation's output is checked after its timer stops (``checks.py``).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics are
the end-to-end ones; with ``--trace 1`` the run spends half its time
untraced and half traced, and the metrics are the per-layer ones from the
traced half plus ``trace.overhead_ratio``. Lines before it, each starting
with ``#``, give the environment stamp, the tail percentile and its sample
count, per-cell latencies, failures and, on ``presets``, the sha256 of every
preset's JSON and CSV output.

``presets`` and ``sweeps`` run in one worker process after an untimed
warm-up block; ``large_n`` runs each operation in a freshly started worker.
Set-up time is sampled several times per run and reported as a median.
Temporary files go under ``.rspbench_tmp/`` and spans under
``.rspbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from workloads import TAIL_BEYOND

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5          # set-ups measured per in-process run
RUN_DEADLINE_S = 170.0     # the whole run ends before this or fails


def tail_percentile(samples, beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(percentile, value)``: the value is the sample of rank
    ``n - beyond`` in ascending order (nearest rank), and the percentile is
    that rank as a share of ``n``.
    """
    ordered = sorted(samples)
    rank = len(ordered) - beyond
    if rank < 1:
        raise ValueError(f"need more than {beyond} samples, got {len(ordered)}")
    return 100.0 * rank / len(ordered), ordered[rank - 1]


def _git_commit(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _tree_sha256(top: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(top.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(top).as_posix().encode() + b"\0")
            digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def environment(root: Path) -> dict:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {
        "python": platform.python_version(),
        "numpy": numpy,
        "cpus": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(root),
        "src_sha256": _tree_sha256(root / "src"),
    }


class Runner:
    """Starts worker processes, one at a time, and waits for each."""

    def __init__(self, tmp: Path, deadline: float):
        self.tmp = tmp
        self.deadline = deadline
        self.count = 0

    def worker(self, *args: str) -> tuple[dict, float]:
        """Run ``worker.py`` with ``args``; return its result and the
        ``time.monotonic()`` reading taken just before it started."""
        self.count += 1
        result_path = self.tmp / f"result{self.count}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), *args, "--result", str(result_path)]
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True)
        try:
            _, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError("a worker did not finish before the run's deadline")
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result_path.unlink()
        return result, spawned


def run_inproc(runner: Runner, args) -> dict:
    common = ["--tmp", str(runner.tmp), "--workload", args.workload,
              "--seed", str(args.seed), "--seconds", str(args.seconds),
              "--trace", str(args.trace)]
    setups = []

    def probe() -> None:
        res, spawned = runner.worker("setup", *common)
        setups.append(res["ready"] - spawned)

    # set-up samples on both sides of the timed run, so that their median
    # spans the same stretch of the host's time as the run itself
    for _ in range(SETUP_SAMPLES // 2):
        probe()
    result, spawned = runner.worker("inproc", *common)
    setups.append(result["ready"] - spawned)
    while len(setups) < SETUP_SAMPLES:
        probe()
    result["setups"] = setups
    return result


def run_cold(runner: Runner, args) -> dict:
    """Each operation in a freshly started worker; checks run here."""
    from checks import Checker
    from tracer import merge_totals

    checker = Checker(ROOT / "docs" / "result-schema.json")
    source = workloads.BlockSource(args.workload, args.seed, runner.tmp)
    setups, rss, totals, spans = [], [], [], []
    op_file = runner.tmp / "op.json"

    def phase(seconds: float, trace: int) -> list:
        blocks, spent, ops = [], 0.0, 0
        while spent < seconds or ops <= TAIL_BEYOND:
            block = []
            for op in source.next_block():
                op_file.write_text(json.dumps(op), encoding="utf-8")
                res, spawned = runner.worker("cold", "--op", str(op_file),
                                             "--trace", str(trace))
                setups.append(res["ready"] - spawned)
                rss.append(res["rss_kb"])
                spent += res["seconds"]
                ops += 1
                block.append([op["cell"], res["seconds"],
                              checker.check(op, res["rc"], res["stderr"])])
                if trace:
                    # renumber the worker's operation and parent span indices
                    base, op_id = len(spans), len(totals)
                    totals.append(res["totals"])
                    spans.extend([op_id, parent + base if parent >= 0 else -1, *rest]
                                 for _, parent, *rest in res["spans"])
                workloads.cleanup(op)
            blocks.append(block)
        return blocks

    result = {}
    if args.trace:
        result["blocks"] = phase(args.seconds / 2, 0)
        result["traced_blocks"] = phase(args.seconds / 2, 1)
        result["totals"] = merge_totals(totals)
        result["spans"] = spans
    else:
        result["blocks"] = phase(args.seconds, 0)
    result["setups"] = setups
    result["rss_kb"] = max(rss)
    return result


def _flat(blocks) -> list:
    return [record for block in blocks for record in block]


def _throughput(blocks) -> float:
    records = _flat(blocks)
    passed = sum(1 for _, _, failure in records if failure is None)
    return passed / sum(seconds for _, seconds, _ in records)


def end_to_end(result: dict) -> dict:
    blocks = result["blocks"]
    latencies = [seconds for _, seconds, _ in _flat(blocks)]
    pct, tail = tail_percentile(latencies)
    print(f"# latency_tail: p{pct:.1f} of {len(latencies)} operations, "
          f"{TAIL_BEYOND} beyond it")
    # Every block holds each cell once, so each block's median is the same
    # statistic; averaging it over the blocks follows the machine's speed
    # smoothly, where one pooled median jumps between the fast and slow
    # states of a shared host.
    p50 = statistics.fmean(statistics.median(s for _, s, _ in block) for block in blocks)
    print(f"# latency_p50: mean over {len(blocks)} blocks of the block median; "
          f"pooled median {1000 * statistics.median(latencies):.3f} ms")
    passed = sum(1 for _, _, failure in _flat(blocks) if failure is None)
    return {
        "scenarios_per_s": (_throughput(blocks), "1/s"),
        "latency_p50_ms": (1000.0 * p50, "ms"),
        "latency_tail_ms": (1000.0 * tail, "ms"),
        "success_ratio": (passed / len(latencies), "1"),
        "setup_s": (statistics.median(result["setups"]), "s"),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": (result["rss_kb"] / 1024.0, "MB"),
    }


def per_layer(result: dict, workload: str) -> dict:
    from tracer import layer_metrics

    metrics = layer_metrics(result["totals"])
    metrics["trace.overhead_ratio"] = (
        _throughput(result["blocks"]) / _throughput(result["traced_blocks"]), "1")
    out = ROOT / ".rspbench_out"
    out.mkdir(exist_ok=True)
    with open(out / f"spans-{workload}.jsonl", "w", encoding="utf-8") as fh:
        for row in result["spans"]:
            fh.write(json.dumps(row) + "\n")
    return metrics


def report_cells(records, known: dict) -> list[str]:
    """Print per-cell latency and failures; return failures outside ``known``."""
    cells: dict[str, list] = {}
    for cell, seconds, reason in records:
        cells.setdefault(cell, []).append((seconds, reason))
    unexpected = []
    for cell in sorted(cells, key=lambda c: statistics.median(s for s, _ in cells[c])):
        runs = cells[cell]
        failed = [reason for _, reason in runs if reason is not None]
        line = (f"# cell {cell}: n={len(runs)} "
                f"median_ms={1000 * statistics.median(s for s, _ in runs):.3f} "
                f"failed={len(failed)}")
        if failed:
            line += f" ({'known defect: ' + known[cell] if cell in known else failed[0]})"
            if cell not in known:
                unexpected.append(cell)
        print(line)
    return unexpected


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; pick one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "rsp_sim" / "__init__.py").is_file():
        print(f"no rsp_sim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not math.isfinite(args.seconds) or args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2

    tmp = ROOT / ".rspbench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    runner = Runner(tmp, time.monotonic() + RUN_DEADLINE_S)
    try:
        print("# env " + json.dumps(environment(ROOT), sort_keys=True))
        if workloads.WORKLOADS[args.workload]["cold"]:
            result = run_cold(runner, args)
        else:
            result = run_inproc(runner, args)
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    records = _flat(result["blocks"] + result.get("traced_blocks", []))
    known = workloads.KNOWN_DEFECTS.get(args.workload, {})
    unexpected = report_cells(records, known)
    if "fingerprint" in result:
        print("# fingerprint " + json.dumps(result["fingerprint"], sort_keys=True))
    metrics = per_layer(result, args.workload) if args.trace else end_to_end(result)
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(records),
        "failed": sum(1 for _, _, reason in records if reason is not None),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
