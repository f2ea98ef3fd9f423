"""Tests for the adversarial attack search."""

import pytest

from repro.harness.attack import search_worst_run
from repro.protocols.base import get_spec


class TestInsideRegions:
    """Inside a protocol's claimed region the search must come up empty --
    these double as high-intensity falsification tests for the protocols."""

    def test_protocol_a_mp_cr(self):
        result = search_worst_run(
            get_spec("protocol-a@mp-cr"), 6, 3, 3, attempts=80, seed=0
        )
        assert result.violations_found == 0, result.summary()
        assert result.best_distinct <= 3

    def test_protocol_b_mp_cr(self):
        result = search_worst_run(
            get_spec("protocol-b@mp-cr"), 9, 4, 3, attempts=80, seed=1
        )
        assert result.violations_found == 0, result.summary()

    def test_protocol_c_mp_byz(self):
        result = search_worst_run(
            get_spec("protocol-c@mp-byz"), 9, 4, 2, attempts=40, seed=2
        )
        assert result.violations_found == 0, result.summary()

    def test_protocol_d_mp_byz(self):
        result = search_worst_run(
            get_spec("protocol-d@mp-byz"), 7, 3, 2, attempts=40, seed=3
        )
        assert result.violations_found == 0, result.summary()

    def test_protocol_e_sm_byz(self):
        result = search_worst_run(
            get_spec("protocol-e@sm-byz"), 6, 2, 2, attempts=60, seed=4
        )
        assert result.violations_found == 0, result.summary()

    def test_protocol_f_sm_cr(self):
        result = search_worst_run(
            get_spec("protocol-f@sm-cr"), 7, 5, 3, attempts=60, seed=5
        )
        assert result.violations_found == 0, result.summary()


class TestOutsideRegions:
    def test_protocol_b_breaks_past_lemma_3_6(self):
        # t >= kn/(2k+1): n=9, k=2 -> t >= 4
        result = search_worst_run(
            get_spec("protocol-b@mp-cr"), 9, 2, 4,
            attempts=300, seed=1, stop_on_violation=True,
        )
        assert result.violations_found > 0
        assert result.first_violation is not None

    def test_protocol_a_breaks_past_lemma_3_3(self):
        # n=6, k=2: t=3 is the paper's isolated OPEN point (k | n); the
        # provable impossibility starts at t >= (n+1)/2 = 4 (Lemma 3.3).
        result = search_worst_run(
            get_spec("protocol-a@mp-cr"), 6, 2, 4,
            attempts=600, seed=7, stop_on_violation=True,
        )
        assert result.broke_agreement or result.violations_found > 0


class TestResultShape:
    def test_summary_text(self):
        result = search_worst_run(
            get_spec("chaudhuri@mp-cr"), 5, 3, 2, attempts=10, seed=0
        )
        text = result.summary()
        assert "chaudhuri@mp-cr" in text
        assert "10 attempts" in text

    def test_negative_attempts_rejected(self):
        with pytest.raises(ValueError, match="attempts"):
            search_worst_run(get_spec("chaudhuri@mp-cr"), 5, 3, 2, attempts=-4)

    def test_best_report_retained(self):
        result = search_worst_run(
            get_spec("chaudhuri@mp-cr"), 5, 3, 2, attempts=10, seed=0
        )
        assert result.best_report is not None
        assert result.best_distinct >= 1
