"""The prepared state does not depend on the source size n.

In exact arithmetic the herald leaves the same two-branch amplitudes i/sqrt(2)
at every n; only the labels and the herald rate n / 2^(2n-1) change. So every
figure a record reports must agree across n to a few ulp. This compares the
pipeline against itself and reads no closed form.
"""

import math
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from rsp_sim import GridSpec, ScenarioConfig, scenarios

EPS = sys.float_info.epsilon
# The largest spread seen over 900 random settings at n = 1..6 was 3.7 eps
# (in S, relative to |S|); c is about twice that.
C = 8.0

_SIZES = st.integers(1, 6)
_ANGLES = st.floats(-2 * math.pi, 2 * math.pi)
_PEAK_PERIODS = {"phase_fringe": 2 * math.pi, "amplitude_fringe": math.pi / 2}


def _records(n, gamma, theta, p, start, periods, points):
    """One record per experiment at source size n, with the grid scaled to
    each axis's period; populations keep only the components they fill."""
    common = dict(n_pairs=n, gamma=gamma, theta=theta, p_strength=p, seed=1)
    records = {
        "chsh": ScenarioConfig(experiment="chsh", n_pairs=n, p_strength=p, seed=1),
        "phase_fringe": ScenarioConfig(
            experiment="phase_fringe",
            grid=GridSpec(start, start + periods * 2 * math.pi, points), **common
        ),
        "amplitude_fringe": ScenarioConfig(
            experiment="amplitude_fringe",
            grid=GridSpec(start, start + periods * math.pi / 2, points), **common
        ),
        "mixed_state": ScenarioConfig(
            experiment="mixed_state", n_pairs=n, gamma=gamma, theta=theta,
            grid=GridSpec(0.0, p, points), seed=1,
        ),
        "populations": ScenarioConfig(experiment="populations", **common),
    }
    records = {name: scenarios.run_scenario(config) for name, config in records.items()}
    populations = records["populations"]
    populations["points"] = [pt for pt in populations["points"] if pt["population"]]
    # the extreme components are the two branches themselves only at n = 1
    del populations["summary"]["extreme_population"]
    return records


def _figures(record, path=()):
    """(path, value) of every number in a record but the scenario echo."""
    if isinstance(record, dict):
        for key, value in record.items():
            if key not in ("scenario", "component"):
                yield from _figures(value, path + (key,))
    elif isinstance(record, list):
        for i, value in enumerate(record):
            yield from _figures(value, path + (i,))
    elif isinstance(record, float):
        yield path, record


def _angle_gap(a, b, period=2 * math.pi):
    gap = (a - b) % period
    return min(gap, period - gap)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    n=_SIZES,
    other=_SIZES,
    gamma=st.floats(0.0, math.pi / 4),
    theta=st.floats(0.0, 2 * math.pi),
    p=st.floats(0.0, 1.0),
    start=_ANGLES,
    periods=st.floats(1.0, 2.0),
    points=st.integers(8, 24),
    alpha=_ANGLES,
)
def test_every_figure_is_the_same_at_every_n(
    n, other, gamma, theta, p, start, periods, points, alpha
):
    grid = (start, periods, points)
    ours = _records(n, gamma, theta, p, *grid)
    theirs = _records(other, gamma, theta, p, *grid)
    for name, record in ours.items():
        summary = record["summary"]
        figures = dict(_figures(theirs[name]))
        assert figures.keys() == dict(_figures(record)).keys()
        for path, value in _figures(record):
            if path[-1] in ("offset", "peak_location"):
                # a fitted phase is as sharp as the fringe is deep
                period = _PEAK_PERIODS[name] if path[-1] == "peak_location" else 2 * math.pi
                tolerance = C * EPS / summary["visibility"]
                assert _angle_gap(value, figures[path], period) <= tolerance, (name, path)
            else:
                assert abs(value - figures[path]) <= C * EPS * max(1.0, abs(value)), (name, path)
        if name in ("phase_fringe", "amplitude_fringe"):
            assert (summary["offset"] is None) == (theirs[name]["summary"]["offset"] is None)

    # the herald rate is n / 2^(2n-1), within the input's (1 + delta)^(4n)
    for size in (n, other):
        probability = scenarios._shared_state(size)[0]
        assert abs(math.ldexp(probability, 2 * size - 1) / size - 1.0) <= 4 * size * EPS

    # Alice's phase theta is the phase fringe's offset, at any n
    shifted = scenarios.run_scenario(
        ScenarioConfig(
            experiment="phase_fringe", n_pairs=other, gamma=gamma, theta=theta + alpha,
            p_strength=p, grid=GridSpec(start, start + periods * 2 * math.pi, points),
        )
    )["summary"]
    base = ours["phase_fringe"]["summary"]
    if base["offset"] is None:
        assert shifted["offset"] is None
    else:
        tolerance = C * EPS * max(1.0, abs(theta + alpha)) / base["visibility"]
        assert _angle_gap(shifted["offset"] - alpha, base["offset"]) <= tolerance
