"""Output checks, run on every operation after its timer stops.

A record must validate against ``docs/result-schema.json`` (a CSV record is
rebuilt into the same shape first), echo the scenario it was asked for, and
carry a figure of merit equal to a closed form that only the benchmark holds:

    chsh              S = p * 2 * sqrt(2)
    fringes           visibility = p
    mixed_state       purity = (1 + p^2) / 2, fidelity = (1 + p) / 2
    general_n         deviations from the closed forms at machine precision
    populations       the all-H and all-V components are exactly 0
    malformed config  exit code 2 and a JSON error object on stderr

``check`` returns None when the operation passed, else the reason it failed.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

FIGURE_TOL = 1e-9     # closed-form figures of merit (CSV carries 12 digits)
MACHINE_TOL = 1e-10   # general_n deviations, which are ~1e-16 when correct

_INT = re.compile(r"-?\d+\Z")


def _scalar(text: str):
    """Type a CSV field the way the JSON record would carry it."""
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    if _INT.match(text):
        return int(text)
    try:
        return float(text)
    except ValueError:
        return text


def csv_record(text: str) -> dict:
    """Rebuild the JSON record's shape from CSV output.

    The CSV carries the scenario, summary and timestamp as ``# key = value``
    comment lines, then a header row and one row per point.
    """
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# rsp-sim "):
        raise ValueError("CSV output lacks the '# rsp-sim <version>' line")
    record = {"scenario": {}, "summary": {}, "tool_version": lines[0][len("# rsp-sim "):]}
    body = 1
    while body < len(lines) and lines[body].startswith("# "):
        key, sep, value = lines[body][2:].partition(" = ")
        if not sep:
            raise ValueError(f"malformed comment line {lines[body]!r}")
        value = _scalar(value)
        if key == "timestamp":
            record["timestamp"] = value
        elif key.startswith("summary."):
            record["summary"][key[len("summary."):]] = value
        elif key.startswith("grid."):
            record["scenario"].setdefault("grid", {})[key[len("grid."):]] = value
        else:
            record["scenario"][key] = value
        body += 1
    rows = list(csv.reader(lines[body:]))
    if not rows:
        raise ValueError("CSV output has no header row")
    header = rows[0]
    record["points"] = [dict(zip(header, map(_scalar, row))) for row in rows[1:]]
    if any(len(row) != len(header) for row in rows[1:]):
        raise ValueError("CSV row length differs from the header")
    return record


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _close(value, target: float, tol: float = FIGURE_TOL) -> bool:
    # written so that NaN compares as not close
    return _number(value) and abs(value - target) <= tol


def grid_values(start: float, stop: float, points: int) -> list[float]:
    step = (stop - start) / (points - 1)
    return [start + i * step for i in range(points)]


class Checker:
    """Validates operation outputs against the schema and the closed forms."""

    def __init__(self, schema_path: Path):
        import jsonschema  # the checker's own dependency, loaded outside set-up

        schema = json.loads(Path(schema_path).read_text(encoding="utf-8"))
        self.validator = jsonschema.Draft202012Validator(schema)

    def check(self, op: dict, rc: int, stderr: str) -> str | None:
        expect = op["expect"]
        out = Path(op["out"])
        if expect["kind"] == "reject":
            return _check_reject(rc, stderr, out)
        if rc != 0:
            last = stderr.strip().splitlines()[-1:] or [""]
            return f"exit {rc}: {last[0][:200]}"
        if not out.is_file():
            return "no output file"
        text = out.read_text(encoding="utf-8")
        try:
            record = csv_record(text) if op["fmt"] == "csv" else json.loads(text)
        except ValueError as exc:
            return f"unreadable {op['fmt']} output: {exc}"
        error = next(iter(self.validator.iter_errors(record)), None)
        if error is not None:
            return f"schema: {error.message[:200]}"
        scenario = record["scenario"]
        if scenario["experiment"] != expect["kind"]:
            return f"experiment echo {scenario['experiment']!r}"
        if "n" in expect and scenario["n_pairs"] != expect["n"]:
            return f"n_pairs echo {scenario['n_pairs']!r}"
        return _FIGURES[expect["kind"]](expect, record["summary"], record["points"])


def _check_reject(rc: int, stderr: str, out: Path) -> str | None:
    if rc != 2:
        return f"malformed config exited {rc}, expected 2"
    lines = stderr.strip().splitlines()
    try:
        payload = json.loads(lines[-1]) if lines else None
    except ValueError:
        payload = None
    error = payload.get("error") if isinstance(payload, dict) else None
    if not (isinstance(error, dict) and error.get("code") == 2
            and error.get("kind") == "schema" and isinstance(error.get("message"), str)):
        return "stderr lacks the JSON error object"
    if out.exists():
        return "a rejected config wrote an output file"
    return None


def _chsh(expect, summary, points):
    target = expect["p"] * 2 * math.sqrt(2)
    if len(points) != 4:
        return f"{len(points)} correlation settings, expected 4"
    if not _close(summary.get("chsh"), target):
        return f"chsh {summary.get('chsh')!r} != p*2*sqrt(2) = {target!r}"
    shots = expect.get("shots")
    if shots is not None and ("sampled_chsh" not in summary or any(
            sum(p.get(k, -1) for k in ("c_pp", "c_pm", "c_mp", "c_mm")) != shots
            for p in points)):
        return "sampled counts do not add up to the shots"
    return None


def _fringe(expect, summary, points):
    if len(points) != expect["points"]:
        return f"{len(points)} grid points, expected {expect['points']}"
    if not _close(summary.get("visibility"), expect["p"]):
        return f"visibility {summary.get('visibility')!r} != p = {expect['p']!r}"
    shots = expect.get("shots")
    if shots is not None and not all(
            _number(p.get("counts")) and 0 <= p["counts"] <= shots for p in points):
        return "sampled counts outside [0, shots]"
    return None


def _mixed_state(expect, summary, points):
    grid = grid_values(*expect["grid"])
    if len(points) != len(grid):
        return f"{len(points)} grid points, expected {len(grid)}"
    for p, point in zip(grid, points):
        if not _close(point.get("p"), p):
            return f"grid value {point.get('p')!r}, expected {p!r}"
        if not _close(point.get("purity"), (1 + p * p) / 2):
            return f"purity {point.get('purity')!r} at p={p} != (1+p^2)/2"
        if not _close(point.get("fidelity"), (1 + p) / 2):
            return f"fidelity {point.get('fidelity')!r} at p={p} != (1+p)/2"
    return None


def _populations(expect, summary, points):
    photons = 2 * expect["n"] - 1
    if len(points) != photons + 1:
        return f"{len(points)} components, expected {photons + 1}"
    ends = (points[0], points[-1])
    labels = (f"{photons}H,0V", f"0H,{photons}V")
    if tuple(p.get("component") for p in ends) != labels:
        return f"extreme components are {[p.get('component') for p in ends]}"
    if not all(p.get("population") == 0 for p in ends):
        return f"all-H / all-V populations {[p.get('population') for p in ends]} are not 0"
    if not _close(summary.get("population_sum"), 1.0):
        return f"populations sum to {summary.get('population_sum')!r}"
    return None


def _general_n(expect, summary, points):
    if len(points) != expect["points"]:
        return f"{len(points)} trials, expected {expect['points']}"
    for point in points:
        for key in ("pure_overlap_error", "mixed_entry_error"):
            if not _close(point.get(key), 0.0, MACHINE_TOL):
                return f"{key} {point.get(key)!r} at n={point.get('n')}"
    return None


_FIGURES = {
    "chsh": _chsh,
    "phase_fringe": _fringe,
    "amplitude_fringe": _fringe,
    "mixed_state": _mixed_state,
    "populations": _populations,
    "general_n": _general_n,
}
