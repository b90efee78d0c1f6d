"""Declarative scenario configuration.

A scenario file is either a JSON object or flat ``key = value`` text
(blank lines and ``#`` comments ignored). Angles accept arithmetic
expressions over numbers and ``pi`` ("pi/8", "3*pi/16"). All fields are
validated before any computation runs.
"""

from __future__ import annotations

import ast
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any

EXPERIMENTS = (
    "chsh",
    "phase_fringe",
    "amplitude_fringe",
    "mixed_state",
    "populations",
    "general_n",
    "distinguishability_demo",
)

FORMATS = ("csv", "json")

_GRID_EXPERIMENTS = ("phase_fringe", "amplitude_fringe", "mixed_state", "general_n")

# largest source size: the splitter normalizes each ket by sqrt(n! * n!),
# and 99! * 99! (about 8.7e311) no longer converts to a float
MAX_N_PAIRS = 98
# sampling costs the same at any shot count; 2**53 keeps each count exact as
# a float. Points and trials fit the 5 s preset budget: a mixed_state point
# costs about 0.14 ms at n = 2, a general_n trial about 0.5 ms at n = 4
# (marginal cost, best of 5, one core of a 2-vCPU Xeon).
MAX_SHOTS = 2**53
MAX_GRID_POINTS = 5000
MAX_TRIALS = 1000
# longest angle expression: "3*pi/16" needs 7 characters, and a bound on the
# length bounds the nesting depth the recursive evaluator can meet
MAX_ANGLE_CHARS = 256


class SchemaError(ValueError):
    """Configuration violates the scenario schema."""


def parse_angle(value: Any) -> float:
    """Evaluate a numeric literal or a tiny arithmetic expression over pi.

    Allowed syntax: numbers, ``pi``, unary minus, + - * /, parentheses.
    Anything else (names, ``True`` and ``False``, calls, powers) is
    rejected, and so is an expression longer than ``MAX_ANGLE_CHARS`` or a
    result that is not finite (NaN, or a value that overflows).
    """
    if isinstance(value, bool):
        raise SchemaError(f"not a number: {value!r}")
    try:
        if isinstance(value, (int, float)):
            angle = float(value)
        elif isinstance(value, str):
            angle = _evaluate_angle(value)
        else:
            raise SchemaError(f"not a number or expression: {value!r}")
    except OverflowError as exc:
        raise SchemaError(f"angle {value!r} overflows a float") from exc
    if not math.isfinite(angle):
        raise SchemaError(f"angle {value!r} is not a finite number")
    return angle


def _evaluate_angle(value: str) -> float:
    text = value.strip()
    if len(text) > MAX_ANGLE_CHARS:
        raise SchemaError(
            f"angle expression of {len(text)} characters exceeds {MAX_ANGLE_CHARS}"
        )

    def evaluate(node: ast.AST) -> float:
        if isinstance(node, ast.Expression):
            return evaluate(node.body)
        if (isinstance(node, ast.Constant) and isinstance(node.value, (int, float))
                and not isinstance(node.value, bool)):
            return float(node.value)
        if isinstance(node, ast.Name) and node.id == "pi":
            return math.pi
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            operand = evaluate(node.operand)
            return -operand if isinstance(node.op, ast.USub) else operand
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div)
        ):
            left, right = evaluate(node.left), evaluate(node.right)
            if isinstance(node.op, ast.Add):
                return left + right
            if isinstance(node.op, ast.Sub):
                return left - right
            if isinstance(node.op, ast.Mult):
                return left * right
            if right == 0:
                raise SchemaError(f"division by zero in {value!r}")
            return left / right
        raise SchemaError(f"unsupported syntax in angle expression {value!r}")

    try:
        return evaluate(ast.parse(text, mode="eval"))
    except SyntaxError as exc:
        raise SchemaError(f"cannot parse angle expression {value!r}") from exc
    except (RecursionError, MemoryError) as exc:
        raise SchemaError(f"angle expression {value!r} is nested too deeply") from exc


@dataclass(frozen=True)
class GridSpec:
    start: float
    stop: float
    points: int

    def values(self) -> list[float]:
        if self.points == 1:
            return [float(self.start)]
        step = (self.stop - self.start) / (self.points - 1)
        return [self.start + i * step for i in range(self.points)]


@dataclass(frozen=True)
class ScenarioConfig:
    """One scenario; building it, or ``replace``-ing a field, raises
    ``SchemaError`` for any value outside the schema."""

    experiment: str
    n_pairs: int = 2
    gamma: float = math.pi / 8
    theta: float = 0.0
    p_strength: float = 1.0
    distinguishability: float = 1.0
    grid: GridSpec | None = None
    shots: int | None = None
    seed: int | None = None
    trials: int = 12          # random settings per n in the general_n scan
    output: str | None = None
    format: str = "json"

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise SchemaError(
                f"unknown experiment {self.experiment!r}; pick one of {EXPERIMENTS}"
            )
        if not 1 <= self.n_pairs <= MAX_N_PAIRS:
            raise SchemaError(f"n_pairs must be in [1, {MAX_N_PAIRS}], got {self.n_pairs}")
        if not 0.0 <= self.p_strength <= 1.0:
            raise SchemaError(f"p_strength {self.p_strength} outside [0, 1]")
        if not 0.0 <= self.distinguishability <= 1.0:
            raise SchemaError(
                f"distinguishability {self.distinguishability} outside [0, 1]"
            )
        if self.format not in FORMATS:
            raise SchemaError(f"format must be one of {FORMATS}, got {self.format!r}")
        if self.shots is not None and not 1 <= self.shots <= MAX_SHOTS:
            raise SchemaError(f"shots must be in [1, {MAX_SHOTS}], got {self.shots}")
        if self.seed is not None and self.seed < 0:
            raise SchemaError(f"seed must be >= 0, got {self.seed}")
        if not 1 <= self.trials <= MAX_TRIALS:
            raise SchemaError(f"trials must be in [1, {MAX_TRIALS}], got {self.trials}")
        if self.output is not None and not isinstance(self.output, str):
            raise SchemaError(f"output must be a file path string, got {self.output!r}")
        if self.grid is not None and self.experiment not in _GRID_EXPERIMENTS:
            raise SchemaError(f"experiment {self.experiment!r} takes no grid")
        if self.grid is not None and self.grid.points > MAX_GRID_POINTS:
            raise SchemaError(f"grid points must be <= {MAX_GRID_POINTS}, got {self.grid.points}")
        if self.experiment in _GRID_EXPERIMENTS:
            if self.grid is None:
                raise SchemaError(f"experiment {self.experiment!r} needs a grid")
            if self.grid.points < 2:
                raise SchemaError(f"grid needs at least 2 points, got {self.grid.points}")
            values = self.grid.values()
            if self.experiment == "mixed_state" and not all(0.0 <= v <= 1.0 for v in values):
                raise SchemaError("mixed_state grid values p must stay in [0, 1]")
            if self.experiment == "general_n":
                if any(abs(v - round(v)) > 1e-9 for v in values):
                    raise SchemaError("general_n grid must enumerate integers")
                if not 1 <= round(min(values)) <= round(max(values)) <= MAX_N_PAIRS:
                    raise SchemaError(f"general_n grid must stay in [1, {MAX_N_PAIRS}]")
        if self.shots is not None and self.seed is None:
            raise SchemaError("sampling (shots) requires a seed for reproducibility")


_ANGLE_KEYS = {"gamma", "theta", "grid_start", "grid_stop"}
_INT_KEYS = {"n_pairs", "grid_points", "shots", "seed", "trials"}
_FLOAT_KEYS = {"p_strength", "distinguishability"}
_STR_KEYS = {"experiment", "output", "format"}
_ALL_KEYS = _ANGLE_KEYS | _INT_KEYS | _FLOAT_KEYS | _STR_KEYS


def _integer(key: str, value: Any) -> int:
    """An integer, an integral float or an integer string; a bool or a
    fractional or non-finite float is rejected, not truncated."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise SchemaError(f"{key} must be an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{key} must be an integer, got {value!r}") from exc


def _number(key: str, value: Any) -> float:
    """A number or a numeric string; a bool is rejected, not read as 1 or 0."""
    if isinstance(value, bool):
        raise SchemaError(f"{key} must be a number, got {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{key} must be a number, got {value!r}") from exc


def config_from_mapping(raw: dict[str, Any]) -> ScenarioConfig:
    """Build and validate a ScenarioConfig from loosely typed key/values."""
    unknown = set(raw) - _ALL_KEYS
    if unknown:
        raise SchemaError(f"unknown configuration keys: {sorted(unknown)}")
    if "experiment" not in raw:
        raise SchemaError("missing required key 'experiment'")

    kwargs: dict[str, Any] = {"experiment": str(raw["experiment"])}
    for key in ("gamma", "theta"):
        if key in raw:
            kwargs[key] = parse_angle(raw[key])
    for key in ("p_strength", "distinguishability"):
        if key in raw:
            kwargs[key] = _number(key, raw[key])
    for key in ("n_pairs", "shots", "seed", "trials"):
        if key in raw and raw[key] is not None:
            kwargs[key] = _integer(key, raw[key])
    if "output" in raw and raw["output"] is not None:
        kwargs["output"] = raw["output"]
    if "format" in raw:
        kwargs["format"] = str(raw["format"])

    grid_keys = {"grid_start", "grid_stop", "grid_points"} & set(raw)
    if grid_keys:
        if grid_keys != {"grid_start", "grid_stop", "grid_points"}:
            raise SchemaError("grid needs all of grid_start, grid_stop, grid_points")
        kwargs["grid"] = GridSpec(
            start=parse_angle(raw["grid_start"]),
            stop=parse_angle(raw["grid_stop"]),
            points=_integer("grid_points", raw["grid_points"]),
        )

    return ScenarioConfig(**kwargs)


def load_config(path: str | Path) -> ScenarioConfig:
    """Read a scenario from a JSON or flat key=value file."""
    text = Path(path).read_text(encoding="utf-8")
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON in {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise SchemaError("JSON scenario must be a single object")
        flat: dict[str, Any] = {}
        for key, value in raw.items():
            if key == "grid" and isinstance(value, dict):
                for sub in ("start", "stop", "points"):
                    if sub in value:
                        flat[f"grid_{sub}"] = value[sub]
            else:
                flat[key] = value
        return config_from_mapping(flat)
    return config_from_mapping(_parse_flat(text))


def _parse_flat(text: str) -> dict[str, Any]:
    raw: dict[str, Any] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise SchemaError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in raw:
            raise SchemaError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value
    return raw
