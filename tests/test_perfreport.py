"""Perf-report schema 7: the sparse mode, per-mode peak RSS, refusals.

One real smoke-preset generation (six timed modes, one rep) pins the
report shape end to end; the exactness refusals are covered next to the
dtype knob in ``tests/test_sparse_underlay.py``.
"""

from __future__ import annotations

import json

import pytest

from repro.harness.perfreport import (
    DEFAULT_GROUPS,
    GROUP_RUNNERS,
    _MODE_FIELDS,
    _rss_field,
    generate_perf_report,
)
from repro.harness.presets import PRESETS
from repro.util import artifacts


class TestSchema:
    def test_mode_field_map_covers_sparse(self):
        assert _MODE_FIELDS["sparse"] == "sparse_s"
        assert _rss_field("sparse") == "sparse_rss_mb"
        assert _rss_field("warm") == "serial_rss_mb"
        assert _rss_field("cold") == "serial_cold_rss_mb"
        assert "lazy" not in _MODE_FIELDS

    def test_ch7_group_registered_but_not_default(self):
        assert "ch7_scale" in GROUP_RUNNERS
        assert "ch7_scale" not in DEFAULT_GROUPS


class TestGeneratedReport:
    @pytest.fixture(scope="class")
    def report(self, tmp_path_factory):
        import os

        tmp = tmp_path_factory.mktemp("perfreport")
        saved = os.environ.get(artifacts.CACHE_DIR_ENV)
        os.environ[artifacts.CACHE_DIR_ENV] = str(tmp / "cache")
        try:
            path = tmp / "report.json"
            generate_perf_report(
                PRESETS["smoke"],
                jobs=2,
                groups=["ch3_churn"],
                path=path,
                reps=1,
            )
            return json.loads(path.read_text())
        finally:
            if saved is None:
                os.environ.pop(artifacts.CACHE_DIR_ENV, None)
            else:
                os.environ[artifacts.CACHE_DIR_ENV] = saved

    def test_schema_version(self, report):
        assert report["schema"] == "repro-perf-report/7"
        assert isinstance(report["rss_resettable"], bool)

    def test_all_six_timing_fields(self, report):
        entry = report["groups"]["ch3_churn"]
        for field in _MODE_FIELDS.values():
            assert entry[field] > 0
        assert entry["outputs_identical"] is True
        assert entry["speedup_sparse_vs_warm"] > 0

    def test_rss_field_per_mode(self, report):
        entry = report["groups"]["ch3_churn"]
        for mode in _MODE_FIELDS:
            # any real python process is tens of MiB resident
            assert entry[_rss_field(mode)] > 10.0

    def test_cv_covers_every_mode(self, report):
        cv = report["groups"]["ch3_churn"]["cv"]
        assert set(cv) == set(_MODE_FIELDS.values())
        # single-rep snapshot: no spread information, recorded as null
        assert all(v is None for v in cv.values())
