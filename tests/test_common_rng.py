"""Tests for seed derivation."""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigurationError
from repro.common.rng import derive_seed


class TestDeriveSeed:
    def test_same_inputs_same_seed(self):
        assert derive_seed(42, "loads") == derive_seed(42, "loads")

    def test_different_labels_differ(self):
        assert derive_seed(42, "loads") != derive_seed(42, "stores")

    def test_different_parents_differ(self):
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_result_is_non_negative(self):
        assert derive_seed(123456789, "anything") >= 0

    def test_rejects_non_int_seed(self):
        with pytest.raises(ConfigurationError):
            derive_seed("nope", "label")  # type: ignore[arg-type]

