"""Workload definitions: fixed cells per block, seeded inputs per operation.

A block holds a fixed set of cells; a cell is one experiment at one source
size and one grid size. The seed varies only angles, the noise weight p, the
shot count and shot seed, the config and output formats, and the order of
the cells within a block. It never changes which cells a block holds, so the
order statistics of a run land on the same cells whatever the seed.

An operation is a plain dict, so it can be written to a worker as JSON:

    cell    the cell name
    argv    arguments for ``rsp_sim.cli.main``
    config  text of the scenario file to write before the call, or None
    path    where to write ``config``
    out     the file the record is expected in (or must not appear in)
    fmt     ``json`` or ``csv``
    expect  what the output is checked against (see ``checks.py``)
"""

from __future__ import annotations

import json
import math
import os
import random
from pathlib import Path

PI = math.pi

# A run holds more operations than this, so that its tail percentile has
# this many samples beyond it.
TAIL_BEYOND = 10

# Published targets of the bundled presets (the README's preset table).
# The benchmark holds its own copy, so a preset that drifts fails its check.
PRESET_EXPECT: dict[str, dict] = {
    "table1_chsh": {"kind": "chsh", "p": 0.958, "n": 2},
    "fig2a": {"kind": "phase_fringe", "p": 0.938, "n": 2, "points": 24},
    "fig2b": {"kind": "phase_fringe", "p": 0.978, "n": 2, "points": 24},
    "fig2c": {"kind": "phase_fringe", "p": 0.974, "n": 2, "points": 24},
    "fig2d": {"kind": "amplitude_fringe", "p": 0.908, "n": 2, "points": 25},
    "fig2e": {"kind": "amplitude_fringe", "p": 0.957, "n": 2, "points": 25},
    "fig2f": {"kind": "amplitude_fringe", "p": 0.927, "n": 2, "points": 25},
    "fig3_populations": {"kind": "populations", "n": 2},
    "eq7_mixed_sweep": {"kind": "mixed_state", "grid": [0.0, 1.0, 11]},
    "eq10_general_n": {"kind": "general_n", "points": 4 * 12},
}

# sweeps cells: name -> (experiment, n_pairs, grid points)
SWEEP_CELLS: dict[str, tuple[str, int, int]] = {
    "mixed_state-n2": ("mixed_state", 2, 41),
    "mixed_state-n4": ("mixed_state", 4, 41),
    "mixed_state-n6": ("mixed_state", 6, 21),
    "phase_fringe-n3": ("phase_fringe", 3, 48),
    "amplitude_fringe-n4": ("amplitude_fringe", 4, 96),
    "general_n-n1to6": ("general_n", 0, 6),
    # Malformed configs: both must exit 2. The NaN config is the n = 2
    # mixed_state cell with gamma = NaN, so that while it is accepted it costs
    # what its twin costs and the median of a block stays between the twins.
    "reject-unknown_key": ("reject", 3, 48),
    "reject-nan": ("reject", 2, 41),
}
GENERAL_N_TRIALS = 6

# large_n cells: one per source size, the experiment fixed per size.
LARGE_N_CELLS: dict[str, tuple[str, int]] = {
    f"{kind}-n{n}": (kind, n)
    for n, kind in zip(range(12, 29, 2), ["populations", "chsh", "phase_fringe"] * 3)
}
LARGE_N_FRINGE_POINTS = 8

# Cells whose failure is a known defect of the program (ROADMAP, "large-n and
# odd input cases"). They stay in their workloads and count as failed
# operations; a failure in any other cell makes the run incorrect.
KNOWN_DEFECTS = {
    "sweeps": {"reject-nan": "NaN angle is accepted and exits 0 instead of 2"},
    "large_n": {
        "phase_fringe-n28": "herald probability 7.8e-16 is below PROB_FLOOR; exits 3"
    },
}

WORKLOADS = {
    "presets": {"cold": False, "cells": tuple(sorted(PRESET_EXPECT))},
    "sweeps": {"cold": False, "cells": tuple(SWEEP_CELLS)},
    "large_n": {"cold": True, "cells": tuple(LARGE_N_CELLS)},
}


class BlockSource:
    """Seeded stream of blocks for one workload.

    ``next_block()`` returns the next block's operations; file paths are
    unique per operation under ``tmp``.
    """

    def __init__(self, workload: str, seed: int, tmp: Path):
        if workload not in WORKLOADS:
            raise KeyError(workload)
        self.workload = workload
        self.cells = WORKLOADS[workload]["cells"]
        self.rng = random.Random(f"{workload}:{seed}")
        self.tmp = Path(tmp)
        self.count = 0

    def next_block(self) -> list[dict]:
        cells = list(self.cells)
        self.rng.shuffle(cells)
        if self.workload == "presets":
            return [self._preset_op(cell) for cell in cells]
        if self.workload == "sweeps":
            # exactly half the config files are JSON; the NaN config is
            # always JSON because NaN is a JSON token, not a key = value one
            others = [c for c in cells if c != "reject-nan"]
            json_cells = set(self.rng.sample(others, len(cells) // 2 - 1))
            json_cells.add("reject-nan")
            return [self._sweep_op(cell, cell in json_cells) for cell in cells]
        return [self._large_n_op(cell, self.rng.random() < 0.5) for cell in cells]

    def _paths(self, fmt: str, cfg_ext: str | None = None) -> tuple[str, str | None]:
        self.count += 1
        stem = self.tmp / f"op{self.count}"
        out = f"{stem}.out.{fmt}"
        cfg = None if cfg_ext is None else f"{stem}.cfg.{cfg_ext}"
        return out, cfg

    def _fmt(self) -> str:
        return self.rng.choice(("json", "csv"))

    # presets -------------------------------------------------------------

    def _preset_op(self, name: str) -> dict:
        fmt = self._fmt()
        out, _ = self._paths(fmt)
        argv = ["preset", name, "--out", out, "--format", fmt]
        expect = dict(PRESET_EXPECT[name])
        if self.rng.random() < 0.5:
            shots = self.rng.choice((200, 1000, 5000))
            argv += ["--shots", str(shots), "--seed", str(self.rng.randrange(1, 10**6))]
            if expect["kind"] in ("chsh", "phase_fringe", "amplitude_fringe"):
                expect["shots"] = shots
        return {"cell": name, "argv": argv, "config": None, "path": None,
                "out": out, "fmt": fmt, "expect": expect}

    # config-file workloads ----------------------------------------------

    def _angle(self, lo: int, hi: int) -> tuple[float, str]:
        """An angle k*pi/32, as the float a config parser must produce and
        the expression text a key = value file carries."""
        k = self.rng.randint(lo, hi)
        return k * PI / 32, f"{k}*pi/32"

    def _p(self) -> float:
        return round(self.rng.uniform(0.85, 1.0), 3)

    def _config_op(self, cell: str, entries: dict, as_json: bool, expect: dict) -> dict:
        """Write ``entries`` (key -> (json value, key = value text)) as a config."""
        fmt = self._fmt()
        out, cfg = self._paths(fmt, "json" if as_json else "txt")
        entries = dict(entries, output=(out, out), format=(fmt, fmt))
        if as_json:
            raw = {k: v for k, (v, _) in entries.items() if not k.startswith("grid_")}
            if "grid_points" in entries:
                raw["grid"] = {sub: entries[f"grid_{sub}"][0]
                               for sub in ("start", "stop", "points")}
            text = json.dumps(raw, allow_nan=True)
        else:
            text = "".join(f"{k} = {t}\n" for k, (_, t) in entries.items())
        return {"cell": cell, "argv": ["run", cfg], "config": text, "path": cfg,
                "out": out, "fmt": fmt, "expect": expect}

    def _seed_entry(self) -> tuple[int, str]:
        seed = self.rng.randrange(1, 10**6)
        return seed, str(seed)

    def _sweep_op(self, cell: str, as_json: bool) -> dict:
        kind, n, points = SWEEP_CELLS[cell]
        entries: dict = {"n_pairs": (n, str(n))}
        expect: dict = {"kind": kind, "n": n}
        if kind == "mixed_state" or cell == "reject-nan":
            gamma, gamma_text = self._angle(2, 6)
            theta, theta_text = self._angle(0, 63)
            start = self.rng.choice((0.0, 0.05, 0.1))
            stop = self.rng.choice((0.9, 0.95, 1.0))
            entries.update(
                experiment=("mixed_state", "mixed_state"),
                gamma=(gamma, gamma_text), theta=(theta, theta_text),
                grid_start=(start, repr(start)), grid_stop=(stop, repr(stop)),
                grid_points=(points, str(points)),
            )
            expect["grid"] = [start, stop, points]
        elif kind in ("phase_fringe", "amplitude_fringe"):
            p = self._p()
            shots = self.rng.choice((500, 1000, 5000))
            if kind == "phase_fringe":
                # visibility is p only on the balanced plate, gamma = pi/8
                gamma, gamma_text = PI / 8, "pi/8"
                theta, theta_text = self._angle(0, 63)
                stop, stop_text = 2 * PI, "2*pi"
            else:
                # with theta = 0 the analyzer-angle visibility is p at any gamma
                gamma, gamma_text = self._angle(1, 7)
                theta, theta_text = 0.0, "0"
                stop, stop_text = PI / 2, "pi/2"
            entries.update(
                experiment=(kind, kind), gamma=(gamma, gamma_text),
                theta=(theta, theta_text), p_strength=(p, repr(p)),
                grid_start=(0.0, "0"), grid_stop=(stop, stop_text),
                grid_points=(points, str(points)), shots=(shots, str(shots)),
            )
            expect.update(p=p, points=points, shots=shots)
        elif kind == "general_n":
            del entries["n_pairs"], expect["n"]
            entries.update(
                experiment=("general_n", "general_n"),
                grid_start=(1, "1"), grid_stop=(points, str(points)),
                grid_points=(points, str(points)),
                trials=(GENERAL_N_TRIALS, str(GENERAL_N_TRIALS)),
            )
            expect["points"] = points * GENERAL_N_TRIALS
        if cell == "reject-unknown_key":
            entries.update(experiment=("phase_fringe", "phase_fringe"),
                           gama=(0.3, "0.3"), grid_start=(0.0, "0"),
                           grid_stop=(2 * PI, "2*pi"), grid_points=(points, str(points)))
        if cell == "reject-nan":
            entries["gamma"] = (math.nan, "nan")
        if kind == "reject":
            expect = {"kind": "reject"}
        entries["seed"] = self._seed_entry()
        return self._config_op(cell, entries, as_json, expect)

    def _large_n_op(self, cell: str, as_json: bool) -> dict:
        kind, n = LARGE_N_CELLS[cell]
        p = self._p()
        entries: dict = {
            "experiment": (kind, kind), "n_pairs": (n, str(n)),
            "p_strength": (p, repr(p)),
        }
        expect: dict = {"kind": kind, "n": n, "p": p}
        if kind == "phase_fringe":
            theta, theta_text = self._angle(0, 63)
            entries.update(
                gamma=(PI / 8, "pi/8"), theta=(theta, theta_text),
                grid_start=(0.0, "0"), grid_stop=(2 * PI, "2*pi"),
                grid_points=(LARGE_N_FRINGE_POINTS, str(LARGE_N_FRINGE_POINTS)),
            )
            expect["points"] = LARGE_N_FRINGE_POINTS
        else:
            gamma, gamma_text = self._angle(2, 6)
            theta, theta_text = self._angle(0, 63)
            entries.update(gamma=(gamma, gamma_text), theta=(theta, theta_text))
        entries["seed"] = self._seed_entry()
        return self._config_op(cell, entries, as_json, expect)


def cleanup(op: dict) -> None:
    """Remove the files an operation wrote or had written for it."""
    for path in (op["out"], op["path"]):
        if path is not None and os.path.exists(path):
            os.remove(path)
