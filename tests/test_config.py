"""Tests for configuration objects."""

import dataclasses

import pytest

from repro.core.config import FrameworkConfig, SeparatorParams


class TestSeparatorParams:
    def test_paper_preset_matches_paper_constants(self):
        p = SeparatorParams.paper()
        assert p.size_threshold_factor == 200.0
        assert abs(p.balance_fraction - 14399.0 / 14400.0) < 1e-12
        assert p.num_sampled_pairs == 95
        assert p.split_lower_divisor == 12
        assert p.split_upper_divisor == 4
        p.validate()

    def test_practical_preset_valid(self):
        p = SeparatorParams.practical()
        p.validate()
        assert p.balance_fraction < SeparatorParams.paper().balance_fraction
        assert p.size_threshold_factor < SeparatorParams.paper().size_threshold_factor

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"balance_fraction": 0.3},
            {"balance_fraction": 1.0},
            {"size_threshold_factor": 0},
            {"num_sampled_pairs": 0},
            {"split_lower_divisor": 2, "split_upper_divisor": 4},
        ],
    )
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            dataclasses.replace(SeparatorParams.practical(), **kwargs).validate()


class TestFrameworkConfig:
    def test_defaults_validate(self):
        FrameworkConfig().validate()

    def test_seeded_rng_is_deterministic(self):
        a = FrameworkConfig(seed=3).rng().random()
        b = FrameworkConfig(seed=3).rng().random()
        assert a == b

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            FrameworkConfig(initial_width_guess=0).validate()
        with pytest.raises(ValueError):
            FrameworkConfig(leaf_size=0).validate()
