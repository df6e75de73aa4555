import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orientkit.geometry import (
    OrientedBox,
    box_array,
    iou_matrix,
    normalize_angle,
    rotated_iou,
    rotated_ious,
    rotated_nms,
)

from oracles import (
    axis_aligned_iou,
    clip_area,
    clip_polygon,
    clipper_iou,
    corner_list,
    mc_intersection_area,
    mc_iou,
)


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
    """`OrientedBox.corners()`: the box as its counter-clockwise corner polygon."""

    def test_axis_aligned_corners(self):
        corners = OrientedBox(0, 0, 2, 1, 0).corners()
        assert same_point_set(
            corners, np.array([(-1, -0.5), (1, -0.5), (1, 0.5), (-1, 0.5)])
        )

    def test_quarter_turn_matches_swapped_extents(self):
        a = OrientedBox(0, 0, 2, 1, math.pi / 2).corners()
        b = OrientedBox(0, 0, 1, 2, 0).corners()
        assert same_point_set(a, b)

    def test_square_rotated_45_degrees(self):
        # Hand rotation of the corners (+-r, +-r) by pi/4 puts them on the axes.
        r = math.sqrt(2)
        corners = OrientedBox(0, 0, r, r, math.pi / 4).corners()
        assert same_point_set(corners, np.array([(0, -1), (1, 0), (0, 1), (-1, 0)]))

    @given(boxes())
    def test_area_is_w_times_h(self, box):
        # A positive shoelace area is the counter-clockwise winding.
        x, y = box.corners().T
        area = 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
        assert area == pytest.approx(box.area, rel=1e-9)

    @given(boxes(max_center=5e5))
    def test_corners_equal_scalar_formula(self, box):
        assert box.corners().tolist() == [list(p) for p in corner_list(box)]


UNIT_SQUARE = OrientedBox(0.5, 0.5, 1, 1, 0)


def _overlap_area(a: OrientedBox, b: OrientedBox) -> float:
    """Intersection area read back from IoU = I / (A + B - I)."""
    iou = rotated_iou(a, b)
    return iou * (a.area + b.area) / (1.0 + iou)


class TestIntersect:
    """Overlap area of two boxes, through the same clipper as every IoU."""

    def test_self_intersection_is_own_area(self):
        assert _overlap_area(UNIT_SQUARE, UNIT_SQUARE) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_squares(self):
        assert _overlap_area(UNIT_SQUARE, OrientedBox(5, 5, 1, 1, 0)) == 0.0

    def test_square_against_its_45_degree_rotation(self):
        rotated = OrientedBox(0.5, 0.5, 1, 1, math.pi / 4)
        area = _overlap_area(UNIT_SQUARE, rotated)
        # Monte Carlo oracle over the union's bounding box, 1e7 samples.
        mc = mc_intersection_area(
            UNIT_SQUARE, rotated, 10_000_000, np.random.default_rng(7)
        )
        assert area == pytest.approx(0.8284, abs=1e-3)
        assert area == pytest.approx(mc, abs=1e-3)

    @given(boxes(), boxes())
    @settings(max_examples=200)
    def test_intersection_bounded_by_smaller_area(self, a, b):
        inter = _overlap_area(a, b)
        assert inter <= min(a.area, b.area) + 1e-9
        assert inter >= 0.0


@st.composite
def box_pairs(draw):
    """Box pairs far from the origin, octagonal overlaps, shared edges, near-vertical."""
    finite = dict(allow_nan=False, allow_infinity=False)
    offset = draw(st.sampled_from([0.0, 1e5, 5e5, -5e5]))
    a = draw(boxes())
    a = OrientedBox(a.cx + offset, a.cy + offset, a.w, a.h, a.theta)
    kind = draw(st.sampled_from(["any", "octagon", "shared_edge", "identical", "vertical"]))
    if kind == "any":
        b = draw(boxes())
        return a, OrientedBox(b.cx + offset, b.cy + offset, b.w, b.h, b.theta)
    if kind == "octagon":
        # A near-copy turned by about 45 degrees overlaps in an octagon.
        jitter = st.floats(-0.05, 0.05, **finite)
        return a, OrientedBox(
            a.cx + draw(jitter) * a.w, a.cy + draw(jitter) * a.h,
            a.w * (1 + draw(jitter)), a.h * (1 + draw(jitter)),
            a.theta + math.pi / 4 + draw(jitter),
        )
    if kind == "shared_edge":
        a = OrientedBox(a.cx, a.cy, a.w, a.h, 0.0)
        return a, OrientedBox(a.cx + a.w, a.cy, a.w, draw(st.sampled_from([a.h, 2 * a.h])), 0.0)
    if kind == "identical":
        return a, a
    near = draw(st.floats(0.0, 1e-6, **finite))
    side = draw(st.sampled_from([1.0, -1.0]))
    a = OrientedBox(a.cx, a.cy, a.w, a.h, side * (math.pi / 2 - near))
    return a, OrientedBox(a.cx + draw(st.floats(-3, 3, **finite)), a.cy, a.h, a.w,
                          -side * (math.pi / 2 - draw(st.floats(0.0, 1e-6, **finite))))


def _random_pairs(rng: np.random.Generator, n: int) -> list:
    """Seeded pairs: random, near-45-degree near-copies, identical and shifted boxes."""
    pairs = []
    for k in range(n):
        offset = (0.0, 1e5, 5e5)[k % 3]
        a = _random_box(rng)
        a = OrientedBox(a.cx + offset, a.cy + offset, a.w, a.h, a.theta)
        if k % 4 == 0:
            b = _random_box(rng)
            b = OrientedBox(b.cx + offset, b.cy + offset, b.w, b.h, b.theta)
        elif k % 4 == 1:
            b = OrientedBox(a.cx + rng.normal(0, 0.3), a.cy + rng.normal(0, 0.3),
                            a.w * rng.uniform(0.95, 1.05), a.h * rng.uniform(0.95, 1.05),
                            a.theta + math.pi / 4 + rng.normal(0, 0.05))
        elif k % 4 == 2:
            b = a
        else:
            b = OrientedBox(a.cx + 50, a.cy, a.w, a.h, a.theta)
        pairs.append((a, b))
    return pairs


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
        inter = clip_area(corner_list(a), corner_list(b))
        assert rotated_iou(a, b) == inter / (a.area + b.area - inter)

    @given(st.lists(box_pairs(), min_size=1, max_size=12))
    @settings(max_examples=300)
    def test_bit_identical_to_scalar_clipper(self, pairs):
        # One batch holds lanes of different vertex counts; each must equal
        # the scalar clipper exactly, and so must the one-pair call.
        a, b = box_array([p for p, _ in pairs]), box_array([q for _, q in pairs])
        idx = np.arange(len(pairs))
        expected = [clipper_iou(p, q) for p, q in pairs]
        assert rotated_ious(a, b, idx, idx).tolist() == expected
        assert [rotated_iou(p, q) for p, q in pairs] == expected

    def test_blocks_of_mixed_pairs_match_scalar_clipper(self):
        pairs = _random_pairs(np.random.default_rng(19), 700)
        octagons = sum(
            len(clip_polygon(corner_list(p), corner_list(q))) == 8 for p, q in pairs
        )
        assert octagons >= 50  # np.sum adds 8 terms as a tree, not in sequence
        idx = np.arange(len(pairs))
        got = rotated_ious(box_array([p for p, _ in pairs]),
                           box_array([q for _, q in pairs]), idx, idx)
        assert got.tolist() == [clipper_iou(p, q) for p, q in pairs]

    def test_returns_python_float(self):
        # Reports write repr(iou); a numpy scalar would print as np.float64(...).
        assert type(rotated_iou(UNIT_SQUARE, OrientedBox(1, 1, 1, 1, 0.3))) is float

    def test_iou_matrix_matches_pairs(self):
        rng = np.random.default_rng(23)
        a = [_random_box(rng) for _ in range(7)]
        b = [_random_box(rng) for _ in range(5)]
        m = iou_matrix(box_array(a), box_array(b))
        assert m.tolist() == [[rotated_iou(p, q) for q in b] for p in a]
        assert iou_matrix(box_array(a), box_array([])).shape == (7, 0)
        assert iou_matrix(box_array([]), box_array(b)).shape == (0, 5)
        assert iou_matrix(box_array(a[:1]), box_array(b[:1])).tolist() == [
            [rotated_iou(a[0], b[0])]
        ]

    @given(boxes())
    def test_identical_is_one(self, box):
        assert rotated_iou(box, box) == pytest.approx(1.0, abs=1e-9)

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

    def test_empty_input(self):
        assert rotated_nms([], [], 0.5) == []

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_scores(self, bad):
        # All three overlap; a NaN used to scramble the order and keep the
        # 0.5 box over the 0.9 one.
        boxes_ = [OrientedBox(5, 5, 10, 10, 0), OrientedBox(6, 5, 10, 10, 0),
                  OrientedBox(5, 4, 10, 8, 0)]
        with pytest.raises(ValueError, match="finite"):
            rotated_nms(boxes_, [0.5, bad, 0.9], 0.3)

    def test_matches_scalar_greedy_loop(self):
        rng = np.random.default_rng(29)
        boxes_ = [OrientedBox(*rng.uniform(0, 60, 2), *rng.uniform(5, 30, 2),
                              rng.uniform(-2, 2)) for _ in range(80)]
        scores = rng.integers(0, 10, 80).astype(float).tolist()  # many ties
        for threshold in (0.0, 0.2, 0.5, 0.9, 1.0):
            order = sorted(range(80), key=lambda i: (-scores[i], i))
            kept: list[int] = []
            for i in order:
                if all(clipper_iou(boxes_[i], boxes_[k]) <= threshold for k in kept):
                    kept.append(i)
            assert rotated_nms(boxes_, scores, threshold) == kept
