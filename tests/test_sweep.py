"""Tests for the per-metric summaries."""

import pytest

from repro.analysis.sweep import summarise


class TestSummarise:
    def test_basic_stats(self):
        s = summarise("m", [1.0, 2.0, 3.0])
        assert s.mean == 2.0
        assert s.minimum == 1.0
        assert s.maximum == 3.0
        assert s.count == 3

    def test_single_value_stdev_zero(self):
        assert summarise("m", [5]).stdev == 0.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            summarise("m", [])

    def test_as_tuple(self):
        assert summarise("m", [2, 4]).as_tuple() == (3.0, 2.0, 4.0)
