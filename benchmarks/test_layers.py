"""Per-layer timings of the pipeline on fixed inputs, with pytest-benchmark.

Run with ``python -m pytest benchmarks`` from the repository root; the
Tier-1 suite does not collect this directory. Each case first checks its
output against an independent route (the permanent oracle, a closed form
kept in the tests, or a pinned preset digest), then times the call. Every
input is built outside the timed call.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from rsp_sim import (
    alice_projector,
    closed_form_bob_density,
    closed_form_bob_ket,
    condition_on_povm,
    expectation,
    fit_fringe,
    herald,
    partial_polarizer_povm,
    project,
    shared_state,
    to_density,
)
from rsp_sim import cli, elements, operator_distance, protocol, scenarios
from rsp_sim.fock import ALICE_H, ALICE_V, BOB_H, BOB_V, extend_modes, inner_product
from rsp_sim.measurement import HeraldPattern
from rsp_sim.presets import PRESETS
from oracles import splitter_herald_amplitudes
from test_dispatch import PRESET_DIGESTS

GAMMA, THETA, P = 0.3, 1.1, 0.9


def _split_input(n):
    source = protocol.build_source(n)
    return protocol.splitting_unitary(), extend_modes(source, (ALICE_H, ALICE_V, BOB_H, BOB_V))


@pytest.mark.parametrize("n", [2, 4, 10])
def test_apply_splitter(benchmark, n):
    u, source = _split_input(n)
    out = elements.apply(u, source)
    assert abs(out.norm() - 1.0) < 1e-12
    if n <= 4:
        for occ, amp in splitter_herald_amplitudes(n).items():
            assert abs(out.amps[occ] - amp) < 1e-12
    benchmark(elements.apply, u, source)


def test_herald(benchmark):
    split = elements.apply(*_split_input(2))
    pattern = HeraldPattern([((ALICE_H, ALICE_V), 1), ((BOB_H, BOB_V), 3)])
    probability, _ = herald(split, pattern)
    oracle = sum(abs(a) ** 2 for a in splitter_herald_amplitudes(2).values())
    assert abs(probability - oracle) < 1e-12
    benchmark(herald, split, pattern)


def test_project(benchmark):
    shared = shared_state(2)[1]
    phi = alice_projector(GAMMA, THETA)
    _, bob = project(shared, phi)
    assert abs(abs(inner_product(closed_form_bob_ket(2, GAMMA, THETA), bob)) - 1.0) < 1e-12
    benchmark(project, shared, phi)


def _povm_case():
    shared = shared_state(2)[1]
    element = partial_polarizer_povm(alice_projector(GAMMA, THETA), P)
    target = closed_form_bob_density(closed_form_bob_ket(2, GAMMA, THETA), P)
    return shared, element, target


def test_condition_on_povm_fresh_density(benchmark):
    # a new density every call, as a caller that promotes the shared ket per
    # run passes: each call splits it again
    shared, element, target = _povm_case()
    assert operator_distance(condition_on_povm(to_density(shared), element)[1], target) < 1e-12
    benchmark.pedantic(
        condition_on_povm, setup=lambda: ((to_density(shared), element), {}),
        rounds=3000, warmup_rounds=10,
    )


def test_condition_on_povm_memoized_density(benchmark):
    # one density for every call, as the per-n memo holds it: split once
    shared, element, target = _povm_case()
    density = to_density(shared)
    assert operator_distance(condition_on_povm(density, element)[1], target) < 1e-12
    benchmark(condition_on_povm, density, element)


def test_expectation(benchmark):
    shared, element, target = _povm_case()
    _, rho = condition_on_povm(to_density(shared), element)
    ket = closed_form_bob_ket(2, GAMMA, THETA)
    assert abs(expectation(rho, ket) - (1.0 + P) / 2.0) < 1e-12
    benchmark(expectation, rho, ket)


def test_fit_fringe_24_points(benchmark):
    grid = np.linspace(0.0, 2 * math.pi, 24)
    values = 0.5 + 0.4 * np.cos(grid - 1.1)
    mean, amplitude, offset = fit_fringe(grid, values, 1.0)
    assert max(abs(mean - 0.5), abs(amplitude - 0.4), abs(offset - 1.1)) < 1e-12
    benchmark(fit_fringe, grid, values, 1.0)


@pytest.fixture(scope="module")
def fringe_record():
    return scenarios.run_scenario(PRESETS["fig2a"])


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_render_json(benchmark, fringe_record):
    text = cli.render_json(fringe_record)
    assert _digest(text) == PRESET_DIGESTS["fig2a.json"]
    assert json.loads(text) == fringe_record
    benchmark(cli.render_json, fringe_record)


def test_render_csv(benchmark, fringe_record):
    assert _digest(cli.render_csv(fringe_record)) == PRESET_DIGESTS["fig2a.csv"]
    benchmark(cli.render_csv, fringe_record)


@pytest.mark.parametrize("name", ["eq7_mixed_sweep", "fig2a"])
def test_warm_run_scenario(benchmark, name):
    record = scenarios.run_scenario(PRESETS[name])
    assert _digest(cli.render_json(record)) == PRESET_DIGESTS[f"{name}.json"]
    benchmark(scenarios.run_scenario, PRESETS[name])
