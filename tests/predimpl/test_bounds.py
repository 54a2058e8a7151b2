"""Unit tests for the analytic bounds of Theorems 3, 5, 6, 7 and Corollary 4."""

from __future__ import annotations

import pytest

from repro.predimpl import bounds


PHI = 1.0
DELTA = 2.0


class TestAlgorithm2Bounds:
    def test_theorem3_formula(self):
        # n=4, phi=1, delta=2: (x+1)(2*2 + 6 + 1)*1 + 2 + 1 = 11(x+1) + 3
        assert bounds.theorem3_good_period_length(1, 4, PHI, DELTA) == pytest.approx(25.0)
        assert bounds.theorem3_good_period_length(2, 4, PHI, DELTA) == pytest.approx(36.0)

    def test_theorem5_formula(self):
        # x * (2*2 + 6 + 1) * 1 = 11x
        assert bounds.theorem5_initial_good_period_length(1, 4, PHI, DELTA) == pytest.approx(11.0)
        assert bounds.theorem5_initial_good_period_length(2, 4, PHI, DELTA) == pytest.approx(22.0)

    def test_corollary4_matches_theorem3(self):
        """Corollary 4 'follows directly from Theorem 3 with x=1 and x=2'."""
        for n in (4, 7, 10):
            assert bounds.corollary4_p2otr_length(n, PHI, DELTA) == pytest.approx(
                bounds.theorem3_good_period_length(2, n, PHI, DELTA)
            )
            assert bounds.corollary4_p11otr_length(n, PHI, DELTA) == pytest.approx(
                bounds.theorem3_good_period_length(1, n, PHI, DELTA)
            )

    def test_corollary4_appendix_variant_is_smaller(self):
        assert bounds.corollary4_p2otr_length(4, PHI, DELTA, main_text=False) < (
            bounds.corollary4_p2otr_length(4, PHI, DELTA, main_text=True)
        )

    def test_ratio_is_about_three_halves_for_x2(self):
        """The paper: 'a factor of approximately 3/2 between the two cases for x = 2'."""
        for n in (4, 7, 13):
            for delta in (1.0, 2.0, 5.0):
                ratio = bounds.noninitial_to_initial_ratio(2, n, PHI, delta)
                assert 1.5 <= ratio <= 1.7

    def test_ratio_converges_to_three_halves_for_large_n(self):
        """The extra (delta + phi) term vanishes relative to the round length as n grows."""
        ratio = bounds.noninitial_to_initial_ratio(2, 10_000, PHI, DELTA)
        assert ratio == pytest.approx(1.5, rel=1e-3)
        assert bounds.noninitial_to_initial_ratio(2, 4, PHI, DELTA) > ratio

    def test_monotone_in_every_parameter(self):
        base = bounds.theorem3_good_period_length(2, 4, 1.0, 2.0)
        assert bounds.theorem3_good_period_length(3, 4, 1.0, 2.0) > base
        assert bounds.theorem3_good_period_length(2, 5, 1.0, 2.0) > base
        assert bounds.theorem3_good_period_length(2, 4, 1.5, 2.0) > base
        assert bounds.theorem3_good_period_length(2, 4, 1.0, 3.0) > base

    def test_validation(self):
        with pytest.raises(ValueError):
            bounds.theorem3_good_period_length(0, 4, PHI, DELTA)
        with pytest.raises(ValueError):
            bounds.theorem5_initial_good_period_length(2, 0, PHI, DELTA)
        with pytest.raises(ValueError):
            bounds.theorem3_good_period_length(2, 4, 0.5, DELTA)
        with pytest.raises(ValueError):
            bounds.theorem3_good_period_length(2, 4, PHI, -1.0)


class TestAlgorithm3Bounds:
    def test_timeout(self):
        # tau_0 = 2*2 + (2*4+1)*1 = 13
        assert bounds.algorithm3_timeout(4, PHI, DELTA) == pytest.approx(13.0)

    def test_theorem6_formula(self):
        # round length = 13 + 2 + 4 + 2 = 21; (x+2)*21 + 13
        assert bounds.theorem6_good_period_length(1, 4, PHI, DELTA) == pytest.approx(76.0)
        assert bounds.theorem6_good_period_length(2, 4, PHI, DELTA) == pytest.approx(97.0)

    def test_theorem7_formula(self):
        # (x-1)*21 + 13 + 1
        assert bounds.theorem7_initial_good_period_length(1, 4, PHI, DELTA) == pytest.approx(14.0)
        assert bounds.theorem7_initial_good_period_length(2, 4, PHI, DELTA) == pytest.approx(35.0)

    def test_theorem6_larger_than_theorem7(self):
        """Non-initial good periods cost more than initial ones, for every x."""
        for x in (1, 2, 3, 5):
            assert bounds.theorem6_good_period_length(x, 5, PHI, DELTA) > (
                bounds.theorem7_initial_good_period_length(x, 5, PHI, DELTA)
            )

    def test_arbitrary_p2otr_uses_2f_plus_3_rounds(self):
        assert bounds.arbitrary_p2otr_rounds(1) == 5
        assert bounds.arbitrary_p2otr_rounds(3) == 9
        assert bounds.arbitrary_p2otr_length(1, 4, PHI, DELTA) == pytest.approx(
            bounds.theorem6_good_period_length(5, 4, PHI, DELTA)
        )

    def test_arbitrary_p2otr_requires_f_less_than_half(self):
        with pytest.raises(ValueError):
            bounds.arbitrary_p2otr_length(2, 4, PHI, DELTA)

    def test_validation(self):
        with pytest.raises(ValueError):
            bounds.theorem6_good_period_length(0, 4, PHI, DELTA)
        with pytest.raises(ValueError):
            bounds.arbitrary_p2otr_rounds(-1)

