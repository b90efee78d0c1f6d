"""Tests of the benchmark's own arithmetic and checks.

    python3 -m pytest rspbench -q
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import workloads  # noqa: E402
from run import tail_percentile  # noqa: E402
from tracer import Tracer, merge_totals, self_times  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def test_self_time_subtracts_direct_children_only():
    spans = [
        (-1, 0.0, 10.0),   # root
        (0, 1.0, 4.0),     # child
        (1, 2.0, 3.0),     # grandchild: charged to the child, not the root
        (0, 5.0, 9.0),     # second child
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        (-1, 0.0, 10.0),
        (0, 1.0, 5.0),
        (0, 3.0, 7.0),     # overlaps the first child by 2
        (0, 9.0, 12.0),    # runs past the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = list(range(1, 28))          # 27 samples
    pct, value = tail_percentile(samples)
    assert value == 17
    assert sum(1 for s in samples if s > value) == 10
    assert pct == pytest.approx(100 * 17 / 27)
    pct, value = tail_percentile(list(range(1000, 0, -1)))
    assert (value, pct) == (990, 99.0)


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        tail_percentile(range(10))
    assert tail_percentile(range(11)) == (100 / 11, 0)


def test_tracer_patches_every_binding_and_restores_them():
    sys.path.insert(0, str(ROOT / "src"))
    from rsp_sim import analysis, elements, fock, protocol

    original_apply, original_init = elements.apply, fock.FockState.__init__
    with Tracer() as tracer:
        assert protocol.apply is elements.apply is not original_apply
        assert analysis.expectation is fock.expectation
        tracer.begin_op(0)
        protocol.shared_state(2)
        tracer.end_op(1.0)
        totals = tracer.totals()
    assert protocol.apply is elements.apply is original_apply
    assert fock.FockState.__init__ is original_init
    assert totals["calls"]["protocol.shared_state"] == 1
    assert totals["calls"]["elements.apply"] == 1
    # the split of |2,2> has 9 kets, of which the herald keeps 2
    assert totals["counts"]["measurement.herald.kets_in"] == 9
    assert totals["counts"]["measurement.herald.kets_kept"] == 2
    merged = merge_totals([totals, totals])
    assert merged["ops"] == 2 and merged["calls"]["elements.apply"] == 2


def test_blocks_hold_fixed_cells_whatever_the_seed(tmp_path):
    for name, spec in workloads.WORKLOADS.items():
        for seed in (1, 2):
            source = workloads.BlockSource(name, seed, tmp_path)
            for _ in range(3):
                cells = sorted(op["cell"] for op in source.next_block())
                assert cells == sorted(spec["cells"])


def test_sweeps_write_half_their_configs_as_json(tmp_path):
    source = workloads.BlockSource("sweeps", 5, tmp_path)
    for _ in range(5):
        block = source.next_block()
        as_json = [op for op in block if op["path"].endswith(".json")]
        assert len(as_json) == len(block) // 2
        assert any(op["cell"] == "reject-nan" for op in as_json)


def test_csv_record_matches_the_json_shape():
    text = (
        "# rsp-sim 0.1.0\n# experiment = chsh\n# grid = \n# n_pairs = 2\n"
        "# summary.chsh = 2.70\n# timestamp = \n"
        "s_obs,t_obs,correlation\nmu_s,mu_t,-0.5\n"
    )
    record = checks.csv_record(text)
    assert record["tool_version"] == "0.1.0"
    assert record["scenario"] == {"experiment": "chsh", "grid": None, "n_pairs": 2}
    assert record["summary"] == {"chsh": 2.70}
    assert record["timestamp"] is None
    assert record["points"] == [{"s_obs": "mu_s", "t_obs": "mu_t", "correlation": -0.5}]


def test_closed_form_checks_reject_nan_and_drift():
    expect = {"kind": "chsh", "p": 0.5, "n": 2}
    points = [{}] * 4
    assert checks._chsh(expect, {"chsh": math.sqrt(2)}, points) is None
    assert checks._chsh(expect, {"chsh": math.nan}, points) is not None
    assert checks._chsh(expect, {"chsh": math.sqrt(2) + 1e-6}, points) is not None
