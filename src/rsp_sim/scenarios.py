"""Turn a validated ScenarioConfig into a result dict.

Each experiment's runner returns a list of per-point dicts (one per grid
value, correlation setting, or state component) and a summary dict. Every
point of a run has the same keys in the same order, and that order is the
CSV column order. The heralded shared state depends only on the source size
n, so ``_shared_state(n)`` memoizes ``protocol.shared_state(n)`` for the life
of the process: the first run at an n computes it, and every later run at
that n, in any experiment, reuses the same herald probability and ket.
``protocol.shared_state`` itself still computes on every call. A runner
builds Alice's projector once for each (gamma, theta).
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict
from datetime import datetime, timezone

import numpy as np

from . import __version__, analysis, protocol
from .config import ScenarioConfig
from .fock import FockState, inner_product, occupation_label, operator_distance, to_density


@functools.cache
def _shared_state(n: int) -> tuple[float, FockState]:
    """``protocol.shared_state(n)``, computed once per source size n.

    Keys are validated ``n_pairs`` and ``general_n`` sizes, so the memo holds
    at most ``MAX_N_PAIRS`` entries. The ket is shared by every later run and
    is never mutated; only its measurement splits are cached on it.
    """
    return protocol.shared_state(n)


def _scenario_echo(config: ScenarioConfig) -> dict:
    """Every config field but the output destination and format."""
    echo = asdict(config)
    del echo["output"], echo["format"]
    return echo


def run_scenario(config: ScenarioConfig) -> dict:
    points, summary = _RUNNERS[config.experiment](config)
    # a seeded scenario is a reproducibility contract: no volatile fields
    timestamp = (
        None
        if config.seed is not None
        else datetime.now(timezone.utc).isoformat()
    )
    return {
        "scenario": _scenario_echo(config),
        "points": points,
        "summary": summary,
        "tool_version": __version__,
        "timestamp": timestamp,
    }


def _run_chsh(config: ScenarioConfig):
    _, shared = _shared_state(config.n_pairs)
    state = analysis.white_noise_shared_state(shared, config.p_strength)
    rng = np.random.default_rng(config.seed) if config.shots else None
    kets = analysis.outcome_kets(config.n_pairs)
    points = []
    for s_kind, t_kind in analysis.CHSH_SETTINGS:
        value, table = analysis.correlation(state, s_kind, t_kind, kets)
        point = {
            "s_obs": s_kind,
            "t_obs": t_kind,
            "correlation": value,
            "n_pp": table.n_pp,
            "n_pm": table.n_pm,
            "n_mp": table.n_mp,
            "n_mm": table.n_mm,
        }
        if config.shots:
            sampled = analysis.sample_count_table(table, config.shots, rng)
            point.update(
                sampled_correlation=sampled.correlation(),
                c_pp=sampled.n_pp,
                c_pm=sampled.n_pm,
                c_mp=sampled.n_mp,
                c_mm=sampled.n_mm,
            )
        points.append(point)
    summary = {"chsh": analysis.chsh_value([p["correlation"] for p in points])}
    if config.shots:
        summary["sampled_chsh"] = analysis.chsh_value([p["sampled_correlation"] for p in points])
    return points, summary


def _run_fringe(config: ScenarioConfig, axis: str, knob: str):
    _, shared = _shared_state(config.n_pairs)
    phi = protocol.alice_projector(config.gamma, config.theta)
    _, rho = protocol.rsp_mixed(shared, phi, config.p_strength)
    scan = analysis.fringe_scan(rho, axis, config.grid.values())
    sampled = None
    if config.shots:
        sampled = analysis.sample_fringe_scan(
            scan, config.shots, np.random.default_rng(config.seed)
        )
    points = []
    for i, x in enumerate(scan.grid):
        point = {knob: x, "probability": scan.probabilities[i]}
        if sampled:
            point["counts"] = sampled.counts[i]
            point["estimated_probability"] = sampled.estimated[i]
        points.append(point)
    period = 2 * math.pi / scan.frequency
    peak = None if scan.fitted_offset is None else (
        (scan.fitted_offset / scan.frequency) % period
    )
    summary = {
        "visibility": scan.fitted_visibility,
        "offset": scan.fitted_offset,
        "peak_location": peak,
        "degenerate_fit": scan.fitted_offset is None,
    }
    if sampled:
        summary["sampled_visibility"] = sampled.fitted_visibility
        summary["sampled_offset"] = sampled.fitted_offset
    return points, summary


def _run_mixed_state(config: ScenarioConfig):
    n, gamma, theta = config.n_pairs, config.gamma, config.theta
    target = protocol.closed_form_bob_ket(n, gamma, theta)
    shared = to_density(_shared_state(n)[1])
    phi = protocol.alice_projector(gamma, theta)
    points = []
    for p in config.grid.values():
        _, rho = protocol.rsp_mixed(shared, phi, p)
        purity, fidelity = analysis.purity_and_fidelity(rho, target)
        entry_error = operator_distance(rho, protocol.closed_form_bob_density(target, p))
        points.append(
            {"p": p, "purity": purity, "fidelity": fidelity, "entry_error": entry_error}
        )
    summary = {
        "max_entry_error": max(pt["entry_error"] for pt in points),
        "max_purity_error": max(
            abs(pt["purity"] - (1.0 + pt["p"] * pt["p"]) / 2.0) for pt in points
        ),
        "max_fidelity_error": max(
            abs(pt["fidelity"] - (1.0 + pt["p"]) / 2.0) for pt in points
        ),
    }
    return points, summary


def _run_populations(config: ScenarioConfig):
    _, shared = _shared_state(config.n_pairs)
    phi = protocol.alice_projector(config.gamma, config.theta)
    _, rho = protocol.rsp_mixed(shared, phi, config.p_strength)
    populations = analysis.component_populations(rho)
    total_photons = 2 * protocol.heralded_n(rho) - 1
    modes = rho.modes
    points = []
    for h in range(total_photons, -1, -1):
        occ = (h, total_photons - h)
        points.append(
            {"component": occupation_label(modes, occ), "population": populations.get(occ, 0.0)}
        )
    extremes = max(points[0]["population"], points[-1]["population"])
    summary = {
        "population_sum": sum(p["population"] for p in points),
        "extreme_population": extremes,
    }
    return points, summary


def _run_general_n(config: ScenarioConfig):
    rng = np.random.default_rng(config.seed)
    sizes = [int(round(value)) for value in config.grid.values()]
    density = {n: to_density(_shared_state(n)[1]) for n in set(sizes)}
    points = []
    for n in sizes:
        _, shared = _shared_state(n)
        for trial in range(config.trials):
            gamma = float(rng.uniform(0.0, math.pi / 4))
            theta = float(rng.uniform(0.0, 2 * math.pi))
            p = float(rng.uniform(0.0, 1.0))
            phi = protocol.alice_projector(gamma, theta)
            _, bob = protocol.rsp_pure(shared, phi)
            _, rho = protocol.rsp_mixed(density[n], phi, p)
            target = protocol.closed_form_bob_ket(n, gamma, theta)
            points.append(
                {
                    "n": n,
                    "trial": trial,
                    "gamma": gamma,
                    "theta": theta,
                    "p": p,
                    "pure_overlap_error": abs(1.0 - abs(inner_product(target, bob))),
                    "mixed_entry_error": operator_distance(
                        rho, protocol.closed_form_bob_density(target, p)
                    ),
                }
            )
    summary = {
        "max_pure_overlap_error": max(pt["pure_overlap_error"] for pt in points),
        "max_mixed_entry_error": max(pt["mixed_entry_error"] for pt in points),
    }
    return points, summary


def _run_distinguishability(config: ScenarioConfig):
    _, shared = _shared_state(config.n_pairs)
    _, bob = protocol.rsp_pure(shared, protocol.alice_projector(config.gamma, config.theta))
    mixed = protocol.distinguishability_demo(bob, config.distinguishability)
    populations = analysis.component_populations(mixed)
    aux_pos = next(i for i, m in enumerate(mixed.modes) if m.tag > 0)
    points = [
        {
            "component": occupation_label(mixed.modes, occ),
            "population": populations[occ],
            "tagged": occ[aux_pos] > 0,
        }
        for occ in sorted(populations)
    ]
    summary = {
        "tagged_population": sum(pt["population"] for pt in points if pt["tagged"]),
        "distinguishability": config.distinguishability,
    }
    return points, summary


_RUNNERS = {
    "chsh": _run_chsh,
    "phase_fringe": lambda config: _run_fringe(config, "phase_phi", "phi"),
    "amplitude_fringe": lambda config: _run_fringe(config, "angle_delta", "delta"),
    "mixed_state": _run_mixed_state,
    "populations": _run_populations,
    "general_n": _run_general_n,
    "distinguishability_demo": _run_distinguishability,
}
