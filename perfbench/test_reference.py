"""Tests of the benchmark's reference code against hand-derived values.

    python3 -m pytest perfbench/test_reference.py
"""

import math

import numpy as np
import pytest

import reference as ref


def test_epanechnikov_two_points_by_hand():
    x = np.array([0.0, 0.5])
    y = np.array([1.0, 0.0])
    # t = 0.25 sits halfway: both weights 1 - 0.25^2, so the mean label 1/2.
    # t = 0: weights 1 and 1 - 0.5^2 = 3/4, so 1 / (1 + 3/4) = 4/7.
    out = ref.epanechnikov_direct(x, y, np.array([0.25, 0.0]), h=1.0)
    assert out == pytest.approx([0.5, 4.0 / 7.0], abs=1e-15)


def test_epanechnikov_empty_window_takes_nearest_label():
    out = ref.epanechnikov_direct(np.array([0.0, 1.0]), np.array([1.0, 0.0]),
                                  np.array([0.2, 0.9]), h=0.1)
    assert out.tolist() == [1.0, 0.0]


def test_epanechnikov_matches_full_sum():
    rng = np.random.default_rng(0)
    x, t = rng.random(300), rng.random(1000)
    y = (rng.random(300) < 0.3).astype(float)
    h = 0.07
    w = np.maximum(1.0 - ((t[:, None] - x[None, :]) / h) ** 2, 0.0)
    full = (w @ y) / w.sum(axis=1)
    assert np.max(np.abs(ref.epanechnikov_direct(x, y, t, h) - full)) <= 1e-14


def test_knn_by_hand():
    points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 3.0], [5.0, 5.0]])
    labels = np.array([1.0, 0.0, 1.0, 1.0])
    # From (0.2, 0): nearest (0,0), then (1,0), then (0,3).
    out = ref.knn_mean(points, labels, np.array([[0.2, 0.0]]), k=2)
    assert out.tolist() == [0.5]
    out = ref.knn_mean(points, labels, np.array([[0.2, 0.0]]), k=3)
    assert out == pytest.approx([2.0 / 3.0], abs=1e-15)


def test_threshold_constant_half_is_one_third():
    # theta / 2 = 1/2 - theta  =>  theta = 1/3.
    assert abs(ref.threshold_bisect([0.5]) - 1.0 / 3.0) <= 1e-12


def test_threshold_uniform_grid_is_golden():
    # theta * 1/2 = (1 - theta)^2 / 2  =>  theta = (3 - sqrt 5) / 2.
    k = 100_000
    grid = (np.arange(k) + 0.5) / k
    assert abs(ref.threshold_bisect(grid) - (3.0 - math.sqrt(5.0)) / 2.0) <= 1e-9


def test_threshold_all_zero_and_b():
    assert ref.threshold_bisect(np.zeros(5)) == 0.0
    # b = 2, two atoms eta = 0.9 and 0.1 with mass 1/2: 4 theta 0.5 =
    # 0.5 (0.9 - theta) on (0.1, 0.9)  =>  theta = 0.18.
    theta = ref.threshold_bisect([0.9, 0.1], [0.5, 0.5], b=2.0)
    assert abs(theta - 0.18) <= 1e-12


def test_excess_two_atoms_by_hand():
    mass, eta = np.array([0.5, 0.5]), np.array([0.9, 0.1])
    theta = ref.threshold_bisect(eta, mass)
    assert abs(theta - 0.45) <= 1e-12
    # g* = (1, 0): F = 0.45 / (0.5 + 0.5) = 0.45; all ones: 0.5 / 1.5 = 1/3.
    assert ref.excess_direct(mass, eta, [1, 1], theta) == pytest.approx(
        0.45 - 1.0 / 3.0, abs=1e-15)
    assert ref.excess_direct(mass, eta, [1, 0], theta) == 0.0
