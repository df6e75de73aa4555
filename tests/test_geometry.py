import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orientkit.geometry import (
    ConvexPolygon,
    OrientedBox,
    intersect,
    normalize_angle,
    rotated_iou,
    rotated_nms,
    to_polygon,
)

from oracles import axis_aligned_iou, mc_intersection_area, mc_iou


def boxes(max_center=50.0, min_dim=0.5, max_dim=30.0):
    finite = dict(allow_nan=False, allow_infinity=False)
    return st.builds(
        OrientedBox,
        cx=st.floats(-max_center, max_center, **finite),
        cy=st.floats(-max_center, max_center, **finite),
        w=st.floats(min_dim, max_dim, **finite),
        h=st.floats(min_dim, max_dim, **finite),
        theta=st.floats(-math.pi, math.pi, **finite),
    )


def same_point_set(a: np.ndarray, b: np.ndarray, tol=1e-9) -> bool:
    a = sorted(map(tuple, np.round(a / tol) * tol))
    b = sorted(map(tuple, np.round(b / tol) * tol))
    return np.allclose(a, b, atol=tol)


class TestOrientedBox:
    def test_rejects_bad_extents(self):
        with pytest.raises(ValueError):
            OrientedBox(0, 0, 0, 1)
        with pytest.raises(ValueError):
            OrientedBox(0, 0, 1, -2)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            OrientedBox(math.nan, 0, 1, 1)
        with pytest.raises(ValueError):
            OrientedBox(0, 0, 1, 1, math.inf)

    @pytest.mark.parametrize(
        "raw,expected",
        [
            (0.0, 0.0),
            (math.pi, 0.0),
            (-math.pi / 2, math.pi / 2),
            (math.pi / 2, math.pi / 2),
            (3 * math.pi / 4, -math.pi / 4),
            (-3 * math.pi / 4, math.pi / 4),
        ],
    )
    def test_angle_normalization(self, raw, expected):
        assert normalize_angle(raw) == pytest.approx(expected, abs=1e-12)
        assert OrientedBox(0, 0, 1, 1, raw).theta == pytest.approx(expected, abs=1e-12)

    @given(boxes(), st.integers(-3, 3))
    def test_adding_pi_preserves_point_set(self, box, k):
        shifted = OrientedBox(box.cx, box.cy, box.w, box.h, box.theta + k * math.pi)
        assert same_point_set(box.corners(), shifted.corners(), tol=1e-7)


class TestToPolygon:
    def test_axis_aligned_corners(self):
        poly = to_polygon(OrientedBox(0, 0, 2, 1, 0))
        assert same_point_set(
            poly.vertices, np.array([(-1, -0.5), (1, -0.5), (1, 0.5), (-1, 0.5)])
        )

    def test_quarter_turn_matches_swapped_extents(self):
        a = to_polygon(OrientedBox(0, 0, 2, 1, math.pi / 2))
        b = to_polygon(OrientedBox(0, 0, 1, 2, 0))
        assert same_point_set(a.vertices, b.vertices)

    def test_square_rotated_45_degrees(self):
        # Hand rotation of the corners (+-r, +-r) by pi/4 puts them on the axes.
        r = math.sqrt(2)
        poly = to_polygon(OrientedBox(0, 0, r, r, math.pi / 4))
        assert same_point_set(
            poly.vertices, np.array([(0, -1), (1, 0), (0, 1), (-1, 0)])
        )

    @given(boxes())
    def test_area_is_w_times_h(self, box):
        assert to_polygon(box).area == pytest.approx(box.area, rel=1e-9)

    def test_rejects_clockwise_winding(self):
        with pytest.raises(ValueError):
            ConvexPolygon(np.array([(0, 0), (0, 1), (1, 1), (1, 0)], float))

    def test_rejects_nonconvex(self):
        with pytest.raises(ValueError):
            ConvexPolygon(
                np.array([(0, 0), (2, 0), (0.1, 0.1), (0, 2)], float)
            )


UNIT_SQUARE = OrientedBox(0.5, 0.5, 1, 1, 0)


class TestIntersect:
    def test_self_intersection_is_own_area(self):
        p = to_polygon(UNIT_SQUARE)
        assert intersect(p, p) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_squares(self):
        a = to_polygon(UNIT_SQUARE)
        b = to_polygon(OrientedBox(5, 5, 1, 1, 0))
        assert intersect(a, b) == 0.0

    def test_square_against_its_45_degree_rotation(self):
        rotated = OrientedBox(0.5, 0.5, 1, 1, math.pi / 4)
        area = intersect(to_polygon(UNIT_SQUARE), to_polygon(rotated))
        # Monte Carlo oracle over the union's bounding box, 1e7 samples.
        mc = mc_intersection_area(
            UNIT_SQUARE, rotated, 10_000_000, np.random.default_rng(7)
        )
        assert area == pytest.approx(0.8284, abs=1e-3)
        assert area == pytest.approx(mc, abs=1e-3)

    @given(boxes(), boxes())
    @settings(max_examples=200)
    def test_intersection_bounded_by_smaller_area(self, a, b):
        inter = intersect(to_polygon(a), to_polygon(b))
        assert inter <= min(a.area, b.area) + 1e-9
        assert inter >= 0.0


class TestRotatedIou:
    def test_identical_boxes(self):
        box = OrientedBox(3, 4, 5, 2, 0.3)
        assert rotated_iou(box, box) == pytest.approx(1.0, abs=1e-9)

    def test_disjoint_boxes(self):
        assert rotated_iou(UNIT_SQUARE, OrientedBox(10, 10, 1, 1, 0.5)) == 0.0

    def test_unit_square_vs_rotated_45(self):
        rotated = OrientedBox(0.5, 0.5, 1, 1, math.pi / 4)
        assert rotated_iou(UNIT_SQUARE, rotated) == pytest.approx(0.7071, abs=1e-3)

    @given(boxes(), boxes())
    @settings(max_examples=300)
    def test_symmetry(self, a, b):
        assert abs(rotated_iou(a, b) - rotated_iou(b, a)) <= 1e-12

    @given(boxes(), boxes())
    @settings(max_examples=300)
    def test_same_clip_as_polygon_intersect(self, a, b):
        inter = intersect(to_polygon(a), to_polygon(b))
        assert rotated_iou(a, b) == inter / (a.area + b.area - inter)

    def test_axis_aligned_matches_closed_form(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            a = OrientedBox(*rng.uniform(0, 40, 2), *rng.uniform(1, 25, 2), 0.0)
            b = OrientedBox(*rng.uniform(0, 40, 2), *rng.uniform(1, 25, 2), 0.0)
            assert rotated_iou(a, b) == pytest.approx(
                axis_aligned_iou(a, b), abs=1e-9
            )

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = _random_box(rng)
            b = _random_box(rng)
            base = rotated_iou(a, b)
            angle = rng.uniform(-math.pi, math.pi)
            shift = rng.uniform(-30, 30, 2)
            assert rotated_iou(
                _rigid(a, angle, shift), _rigid(b, angle, shift)
            ) == pytest.approx(base, abs=1e-9)

    def test_monte_carlo_agreement(self):
        # Lighter version of the acceptance sweep: 100 pairs, 2e5 samples.
        rng = np.random.default_rng(5)
        failures = 0
        for _ in range(100):
            a = _random_box(rng)
            b = _random_box(rng)
            exact = rotated_iou(a, b)
            estimate, se = mc_iou(a, b, 200_000, rng)
            if abs(exact - estimate) > 3.0 * se + 1e-9:
                failures += 1
        assert failures <= 1


def _random_box(rng: np.random.Generator) -> OrientedBox:
    return OrientedBox(
        cx=rng.uniform(-15, 15),
        cy=rng.uniform(-15, 15),
        w=rng.uniform(2, 25),
        h=rng.uniform(2, 25),
        theta=rng.uniform(-math.pi / 2, math.pi / 2),
    )


def _rigid(box: OrientedBox, angle: float, shift: np.ndarray) -> OrientedBox:
    c, s = math.cos(angle), math.sin(angle)
    return OrientedBox(
        cx=box.cx * c + box.cy * s + shift[0],
        cy=-box.cx * s + box.cy * c + shift[1],
        w=box.w,
        h=box.h,
        theta=box.theta + angle,
    )


class TestRotatedNms:
    def test_single_box(self):
        assert rotated_nms([UNIT_SQUARE], [0.5], 0.5) == [0]

    def test_two_identical_boxes_keep_higher_score(self):
        boxes_ = [OrientedBox(1, 1, 2, 2, 0.2)] * 2
        assert rotated_nms(boxes_, [0.9, 0.8], 0.5) == [0]
        assert rotated_nms(boxes_, [0.8, 0.9], 0.5) == [1]

    def test_equal_scores_keep_lower_index(self):
        boxes_ = [OrientedBox(1, 1, 2, 2, 0.0)] * 3
        assert rotated_nms(boxes_, [0.7, 0.7, 0.7], 0.5) == [0]

    def test_three_box_example(self):
        # box2 overlaps box0 at IoU exactly 80/(100+80-80) = 0.8, box1 disjoint.
        box0 = OrientedBox(5, 5, 10, 10, 0)
        box1 = OrientedBox(100, 100, 10, 10, 0)
        box2 = OrientedBox(5, 4, 10, 8, 0)
        assert axis_aligned_iou(box0, box2) == pytest.approx(0.8)
        assert rotated_nms([box0, box1, box2], [0.9, 0.7, 0.6], 0.5) == [0, 1]

    def test_exact_threshold_survives(self):
        box0 = OrientedBox(5, 5, 10, 10, 0)
        box2 = OrientedBox(5, 4, 10, 8, 0)
        # Suppression requires IoU strictly above the threshold.
        assert rotated_nms([box0, box2], [0.9, 0.8], 0.8) == [0, 1]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rotated_nms([UNIT_SQUARE], [0.5, 0.4], 0.5)
