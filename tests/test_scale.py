"""Runs at the edge of the desk-scale grid, marked slow: run them with

    python -m pytest -m slow tests/test_scale.py
"""

import pytest

import dimerlab as dl


@pytest.mark.slow
def test_fan_5_5_verifies():
    out = dl.verify_boundary_algebra(dl.fan_triangulation(5, 1), 5)
    assert out.passed and not out.inconclusive
    assert out.matched and out.generator_count == 60
    assert len(out.presentation.classes) == len(dl.build_gamma(5, 5).arrows) == 60
