"""The calibration script's parts, on the 3x3 network with a tiny control."""

import importlib.util
import math
from pathlib import Path

import pytest

from bipergm import SamplerControl

_PATH = Path(__file__).resolve().parents[1] / "tools" / "calibrate.py"
_SPEC = importlib.util.spec_from_file_location("calibrate", _PATH)
calibrate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(calibrate)

TINY = SamplerControl(burn_in=256, interval=4, sample_size=200, seed=1)
RATIO_KEYS = {"n", "mean", "spread", "median_sd", "ratio"}


@pytest.fixture(scope="module")
def net_attrs():
    return calibrate.moderate_3x3()


def _check_ratio(row, n):
    assert RATIO_KEYS <= set(row) and row["n"] == n
    assert row["spread"] > 0.0 and row["median_sd"] > 0.0
    assert row["ratio"] == pytest.approx(row["spread"] / row["median_sd"], rel=1e-12)


def _check_proposals(counts):
    assert set(counts) == {"anchors", "bridge"}
    assert all(isinstance(n, int) and n > 0 for n in counts.values())


def test_fixed_theta_and_fits_report_a_ratio_per_exponent_kind(net_attrs):
    fixed = calibrate.fixed_theta(*net_attrs, TINY, 1, range(3))
    fits = calibrate.fits(*net_attrs, TINY, range(3))
    for which in ("alpha", "beta"):
        _check_ratio(fixed[which], 3)
        assert len(fixed[which]["theta"]) == 2
        _check_proposals(fixed[which]["proposals"])
        _check_ratio(fits[which], 3)
        # one theta-hat ratio per coefficient, and one count per fit
        ratios = fits[which]["theta_ratio"]
        assert list(ratios) == ["edges", "b1nodematch.group"]
        assert all(math.isfinite(r) and r > 0.0 for r in ratios.values())
        assert len(fits[which]["proposals"]) == 3
        for counts in fits[which]["proposals"]:
            _check_proposals(counts)


def test_exact_z_reports_the_bridge_against_the_exact_loglik(net_attrs):
    z = calibrate.exact_z(*net_attrs, TINY, range(4))
    for which in ("alpha", "beta"):
        assert set(z[which]) == {"n", "mean", "sd"} and z[which]["n"] == 4
        assert math.isfinite(z[which]["mean"]) and z[which]["sd"] > 0.0


def test_grids_count_their_rows(net_attrs):
    out = calibrate.grids(*net_attrs, TINY, range(2), [0.5, 1.0])
    assert out["points"] == 8
    assert out["failed"] == sum(len(s["failed"]) for s in out["per_seed"])
    assert out["floored"] == sum(len(s["floored"]) for s in out["per_seed"])
    assert out["hull_misses"] == sum(sum(s["hull_misses"].values()) for s in out["per_seed"])
    assert out["low_weight_ess"] == sum(len(s["low_weight_ess"]) for s in out["per_seed"])
    assert [s["seed"] for s in out["per_seed"]] == [0, 1]
    for s in out["per_seed"]:
        assert {"max_jump_sd", "max_jump_at", "linear_end_gap", "linear_end_gap_sd"} <= set(s)
        _check_proposals(s["proposals"])
        # only rows that missed are listed, under their grid point
        assert all(n > 0 and row.split("=")[0] in ("alpha", "beta") for row, n in s["hull_misses"].items())
    assert out["max_jump_sd"] == max(s["max_jump_sd"] for s in out["per_seed"])
    assert math.isfinite(out["max_jump_sd"])
