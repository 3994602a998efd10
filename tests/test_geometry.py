"""Unit tests for the distance primitives."""

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from repro.core import geometry


class TestEuclidean:
    def test_basic(self):
        assert geometry.euclidean(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == 5.0

    def test_3d(self):
        assert geometry.euclidean(np.array([1.0, 2.0, 2.0]), np.zeros(3)) == 3.0

    def test_zero(self):
        point = np.array([1.5, -2.5])
        assert geometry.euclidean(point, point) == 0.0


class TestAnyWithin:
    def test_hit_and_miss(self):
        points = np.array([[0.0, 0.0], [10.0, 10.0]])
        assert geometry.any_within(np.array([0.5, 0.0]), points, 1.0)
        assert not geometry.any_within(np.array([5.0, 5.0]), points, 1.0)

    def test_boundary_inclusive(self):
        points = np.array([[3.0, 4.0]])
        assert geometry.any_within(np.zeros(2), points, 5.0)

    def test_empty_points(self):
        assert not geometry.any_within(np.zeros(2), np.empty((0, 2)), 1.0)

    def test_count_within(self):
        points = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0]])
        assert geometry.count_within(np.zeros(2), points, 1.5) == 2
        assert geometry.count_within(np.zeros(2), np.empty((0, 2)), 1.0) == 0


class TestPointSetsInteract:
    def test_interacting(self):
        a = np.array([[0.0, 0.0], [1.0, 1.0]])
        b = np.array([[10.0, 10.0], [1.2, 1.0]])
        assert geometry.point_sets_interact(a, b, 0.5)

    def test_not_interacting(self):
        a = np.array([[0.0, 0.0]])
        b = np.array([[10.0, 10.0]])
        assert not geometry.point_sets_interact(a, b, 5.0)

    def test_boundary_distance_counts(self):
        a = np.array([[0.0, 0.0]])
        b = np.array([[2.0, 0.0]])
        assert geometry.point_sets_interact(a, b, 2.0)

    def test_empty_operands(self):
        a = np.empty((0, 2))
        b = np.array([[0.0, 0.0]])
        assert not geometry.point_sets_interact(a, b, 1.0)
        assert not geometry.point_sets_interact(b, a, 1.0)

    def test_blocked_path_beyond_block_size(self):
        # More rows than the internal block, hit only in the last block.
        rng = np.random.default_rng(0)
        a = rng.uniform(100, 200, size=(200, 2))
        a[-1] = [0.0, 0.0]
        b = np.array([[0.5, 0.0]])
        assert geometry.point_sets_interact(a, b, 1.0)

    def test_matches_cdist_on_random_sets(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.uniform(0, 20, size=(rng.integers(1, 30), 3))
            b = rng.uniform(0, 20, size=(rng.integers(1, 30), 3))
            r = float(rng.uniform(0.5, 10))
            expected = bool(np.min(cdist(a, b)) <= r)
            assert geometry.point_sets_interact(a, b, r) == expected


class TestMinPairDistance:
    def test_matches_cdist(self):
        rng = np.random.default_rng(6)
        for _ in range(15):
            a = rng.uniform(0, 10, size=(rng.integers(1, 100), 2))
            b = rng.uniform(0, 10, size=(rng.integers(1, 100), 2))
            expected = float(np.min(cdist(a, b)))
            assert geometry.min_pair_distance(a, b) == pytest.approx(expected, abs=1e-9)

    def test_empty(self):
        assert geometry.min_pair_distance(np.empty((0, 2)), np.ones((1, 2))) == np.inf


class TestBoxes:
    def test_bounding_box(self):
        points = np.array([[1.0, 5.0], [3.0, 2.0]])
        low, high = geometry.bounding_box(points)
        assert low.tolist() == [1.0, 2.0]
        assert high.tolist() == [3.0, 5.0]

    def test_bounding_box_empty_raises(self):
        with pytest.raises(ValueError):
            geometry.bounding_box(np.empty((0, 2)))

    def test_boxes_overlap(self):
        assert geometry.boxes_within(
            np.array([0.0, 0.0]), np.array([2.0, 2.0]),
            np.array([1.0, 1.0]), np.array([3.0, 3.0]),
        )

    def test_boxes_within_gap(self):
        lo_a, hi_a = np.array([0.0, 0.0]), np.array([1.0, 1.0])
        lo_b, hi_b = np.array([4.0, 0.0]), np.array([5.0, 1.0])
        assert not geometry.boxes_within(lo_a, hi_a, lo_b, hi_b)
        assert geometry.boxes_within(lo_a, hi_a, lo_b, hi_b, r=3.0)
        assert not geometry.boxes_within(lo_a, hi_a, lo_b, hi_b, r=2.9)


class TestBoxPredicateForms:
    """``boxes_within`` on one pair of ``(d,)`` corners and on ``(m, d)``
    rows must compute the same bits: both verification kernels bound
    candidates through it, one box pair at a time or a batch at once."""

    @staticmethod
    def assert_forms_agree(lo_a, hi_a, lo_b, hi_b, r):
        lo_a, hi_a, lo_b, hi_b = (
            np.asarray(corner, dtype=np.float64) for corner in (lo_a, hi_a, lo_b, hi_b)
        )
        rows = geometry.box_gap_squared(lo_a, hi_a, lo_b, hi_b)
        within = geometry.boxes_within(lo_a, hi_a, lo_b, hi_b, r)
        assert within.dtype == bool
        for row in range(len(lo_a)):
            one = geometry.box_gap_squared(lo_a[row], hi_a[row], lo_b[row], hi_b[row])
            assert one.tobytes() == rows[row].tobytes()
            scalar = geometry.boxes_within(lo_a[row], hi_a[row], lo_b[row], hi_b[row], r)
            assert type(scalar) is bool
            assert scalar == bool(within[row])
        return within

    def test_gap_of_exactly_r_is_within(self):
        # 3-4-5 gaps: squared sums are exact, so the boundary is exact too.
        within = self.assert_forms_agree(
            [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
            [[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]],
            [[4.0, 5.0], [6.0, 1.0], [4.0, 5.0 + 2.0**-40]],
            [[9.0, 9.0], [7.0, 2.0], [9.0, 9.0]],
            5.0,
        )
        assert within.tolist() == [True, True, False]

    def test_zero_extent_boxes(self):
        # Points as boxes: the gap is the point distance.
        points_a = np.array([[0.1, 0.2], [3.0, -1.0], [2.5, 2.5]])
        points_b = np.array([[0.1, 0.2], [3.3, -0.6], [9.0, 9.0]])
        within = self.assert_forms_agree(points_a, points_a, points_b, points_b, 0.5)
        assert within.tolist() == [True, True, False]

    def test_negative_coordinates(self):
        within = self.assert_forms_agree(
            [[-10.0, -7.5], [-3.0, -3.0], [-1.0, -1.0]],
            [[-8.0, -6.0], [-2.0, -2.0], [1.0, 1.0]],
            [[-7.2, -12.0], [-0.5, -9.0], [-0.5, -0.5]],
            [[-5.0, -6.3], [0.0, -2.5], [0.5, 0.5]],
            1.0,
        )
        assert within.tolist() == [True, False, True]

    def test_3d_boxes(self):
        rng = np.random.default_rng(3)
        lo_a = rng.uniform(-20.0, 20.0, size=(64, 3))
        lo_b = rng.uniform(-20.0, 20.0, size=(64, 3))
        hi_a = lo_a + rng.uniform(0.0, 4.0, size=(64, 3))
        hi_b = lo_b + rng.uniform(0.0, 4.0, size=(64, 3))
        within = self.assert_forms_agree(lo_a, hi_a, lo_b, hi_b, 9.0)
        assert 0 < within.sum() < len(within)

    def test_sum_runs_axis_by_axis(self):
        # Left to right, as the scalar walk adds them, not pairwise.
        lo = np.zeros((1, 3))
        hi = np.zeros((1, 3))
        far = np.array([[0.1, 0.2, 0.3]])
        gap = geometry.box_gap_squared(lo, hi, far, far)
        assert gap[0] == (0.1 * 0.1 + 0.2 * 0.2) + 0.3 * 0.3
