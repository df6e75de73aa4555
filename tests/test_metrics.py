import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orientkit.geometry import OrientedBox
from orientkit.metrics import (
    RocCurve,
    ScoreSet,
    SideErrors,
    eap,
    label_accuracy,
    mae,
    nist_tolerance_check,
    roc,
    side_errors,
    summarize_distribution,
    tar_at_far,
)

from oracles import brute_force_roc

finite = dict(allow_nan=False, allow_infinity=False)


def offset_box(gt: OrientedBox, left=0.0, right=0.0, top=0.0, bottom=0.0) -> OrientedBox:
    """Inflate/shrink gt per side in its own local frame (positive = outward)."""
    c, s = math.cos(gt.theta), math.sin(gt.theta)
    dx_local = (right - left) / 2.0
    dy_local = (bottom - top) / 2.0
    return OrientedBox(
        cx=gt.cx + dx_local * c + dy_local * s,
        cy=gt.cy - dx_local * s + dy_local * c,
        w=gt.w + left + right,
        h=gt.h + top + bottom,
        theta=gt.theta,
    )


class TestSideErrors:
    def test_identical_boxes(self):
        gt = OrientedBox(50, 50, 20, 30, 0.3)
        assert side_errors(gt, gt) == SideErrors(0, 0, 0, 0)

    def test_uniform_inflation(self):
        gt = OrientedBox(50, 50, 20, 30, 0)
        pred = OrientedBox(50, 50, 30, 40, 0)
        assert side_errors(pred, gt) == SideErrors(5, 5, 5, 5)

    def test_top_shrunk_only(self):
        gt = OrientedBox(50, 50, 20, 30, 0)
        pred = offset_box(gt, top=-3.0)
        errs = side_errors(pred, gt)
        assert errs.top == pytest.approx(-3.0, abs=1e-12)
        assert (errs.left, errs.right, errs.bottom) == (0, 0, 0)

    @pytest.mark.parametrize("theta_deg", [0.0, 17.0, -35.0, 60.0, 90.0])
    def test_local_frame_offsets_recovered_on_rotated_gt(self, theta_deg):
        gt = OrientedBox(120, 80, 40, 60, math.radians(theta_deg))
        pred = offset_box(gt, left=4.0, right=-2.0, top=1.5, bottom=7.0)
        errs = side_errors(pred, gt)
        assert errs.left == pytest.approx(4.0, abs=1e-9)
        assert errs.right == pytest.approx(-2.0, abs=1e-9)
        assert errs.top == pytest.approx(1.5, abs=1e-9)
        assert errs.bottom == pytest.approx(7.0, abs=1e-9)

    def test_rigid_motion_equivariance(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            gt = OrientedBox(*rng.uniform(20, 100, 2), *rng.uniform(10, 40, 2),
                             rng.uniform(-1.2, 1.2))
            pred = offset_box(gt, *rng.uniform(-4, 4, 4))
            base = side_errors(pred, gt)
            angle = rng.uniform(-math.pi, math.pi)
            shift = rng.uniform(-40, 40, 2)
            c, s = math.cos(angle), math.sin(angle)

            def move(b):
                return OrientedBox(
                    b.cx * c + b.cy * s + shift[0],
                    -b.cx * s + b.cy * c + shift[1],
                    b.w, b.h, b.theta + angle,
                )

            moved = side_errors(move(pred), move(gt))
            # When the rotation pushes gt.theta across the mod-pi boundary,
            # the canonical gt frame flips and both side pairs swap names;
            # the error values survive exactly, possibly double-swapped.
            same = np.allclose(moved.as_tuple(), base.as_tuple(), atol=1e-6)
            swapped = np.allclose(
                moved.as_tuple(),
                (base.right, base.left, base.bottom, base.top),
                atol=1e-6,
            )
            assert same or swapped

    def test_angled_prediction_averages_endpoint_feet(self):
        # Pred rotated slightly about the gt center: each side's two corner
        # feet straddle the gt line; the signed mean must follow the midpoint.
        gt = OrientedBox(0, 0, 20, 10, 0)
        pred = OrientedBox(0, 0, 20, 10, math.radians(5))
        errs = side_errors(pred, gt)
        c5, s5 = math.cos(math.radians(5)), math.sin(math.radians(5))
        # Right side endpoints at local (+10, +-5) rotate to x = 10c -+ 5s.
        expected = ((10 * c5 + 5 * s5 - 10) + abs(10 * c5 - 5 * s5 - 10)) / 2
        assert abs(errs.right) == pytest.approx(expected, abs=1e-9)
        assert errs.right == pytest.approx(errs.left, abs=1e-12)


class TestMae:
    def test_all_zero(self):
        report = mae([SideErrors(0, 0, 0, 0)] * 3)
        assert set(report.mae.values()) == {0.0}
        assert set(report.std.values()) == {0.0}
        assert report.count == 3

    def test_mean_of_absolute_values(self):
        report = mae([SideErrors(3, 0, 0, 0), SideErrors(-5, 0, 0, 0)])
        assert report.mae["left"] == pytest.approx(4.0)
        assert report.std["left"] == pytest.approx(1.0)  # population std of {3, 5}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mae([])


class TestEap:
    def test_identical_lists(self):
        assert eap([10, -20, 35], [10, -20, 35]) == (0.0, 0.0)

    def test_worked_example(self):
        mean, std = eap([30, -10], [25, -4])
        assert mean == pytest.approx(5.5)
        assert std == pytest.approx(0.5)

    def test_symmetry(self):
        a, b = [3.0, -7.0, 12.0], [1.0, 2.0, 3.0]
        assert eap(a, b) == eap(b, a)

    def test_folds_across_the_vertical(self):
        # Box axes at -89 and 89 degrees are 2 degrees apart, as in evaluate.
        assert eap([-89.0], [89.0]) == (2.0, 0.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            eap([1.0], [1.0, 2.0])


class TestLabelAccuracy:
    def test_perfect(self):
        labels = [["a", "b", "c"], ["d", "e"]]
        assert label_accuracy(labels, [list(x) for x in labels]) == (0.0, 1.0)

    def test_one_of_ten_slots(self):
        gt = [list("abcdefghij")]
        pred = [list("abcdefghiX")]
        loss, acc = label_accuracy(gt, pred)
        assert loss == pytest.approx(0.1)
        assert acc == pytest.approx(0.9)

    def test_loss_plus_accuracy_is_one(self):
        rng = np.random.default_rng(0)
        gt = [[int(v) for v in rng.integers(0, 3, 5)] for _ in range(20)]
        pred = [[int(v) for v in rng.integers(0, 3, 5)] for _ in range(20)]
        loss, acc = label_accuracy(gt, pred)
        assert loss + acc == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            label_accuracy([["a"]], [["a", "b"]])
        with pytest.raises(ValueError):
            label_accuracy([["a"]], [])


# Quarter steps on both sides of zero, with both signed zeros drawn often,
# so heavy ties and -0.0 next to 0.0 are common.
tied_scores = st.lists(
    st.one_of(st.integers(-20, 20).map(lambda v: v / 4.0), st.sampled_from([0.0, -0.0])),
    min_size=1,
    max_size=40,
)


class TestScoreSet:
    @pytest.mark.parametrize("wrap", [list, tuple, np.array])
    def test_stores_1d_float64_arrays(self, wrap):
        scores = ScoreSet(genuine=wrap([1, 0.5]), impostor=wrap([0.25]))
        for arr, expected in ((scores.genuine, [1.0, 0.5]), (scores.impostor, [0.25])):
            assert isinstance(arr, np.ndarray)
            assert arr.dtype == np.float64 and arr.ndim == 1
            assert arr.tolist() == expected

    def test_owns_read_only_copies(self):
        source = np.array([0.5, 0.6])
        scores = ScoreSet(genuine=source, impostor=[0.1])
        source[0] = math.nan
        assert scores.genuine.tolist() == [0.5, 0.6]
        with pytest.raises(ValueError):
            scores.genuine[0] = math.nan

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite genuine"):
            ScoreSet(genuine=[0.5, bad], impostor=[0.1])
        with pytest.raises(ValueError, match="non-finite impostor"):
            ScoreSet(genuine=[0.5], impostor=[bad])

    def test_rejects_2d_input(self):
        with pytest.raises(ValueError, match="1-d"):
            ScoreSet(genuine=[[0.5, 0.6]], impostor=[0.1])
        with pytest.raises(ValueError, match="1-d"):
            ScoreSet(genuine=[0.5], impostor=np.zeros((2, 2)))
        # Rows of (probe_id, gallery_id, score) are rejected too.
        with pytest.raises(ValueError):
            ScoreSet(genuine=(("p", "g", 0.5),), impostor=(("p", "g", 0.1),))


class TestRoc:
    def test_perfect_separation(self):
        curve = roc(ScoreSet([1.0, 1.0], [0.0, 0.0]))
        idx = list(curve.thresholds).index(1.0)
        assert curve.tar[idx] == 1.0
        assert curve.far[idx] == 0.0

    def test_worked_two_by_two(self):
        curve = roc(ScoreSet([0.9, 0.4], [0.6, 0.1]))
        assert curve.points() == [
            (0.9, 0.5, 0.0),
            (0.6, 0.5, 0.5),
            (0.4, 1.0, 0.5),
            (0.1, 1.0, 1.0),
        ]

    def test_tied_single_scores(self):
        curve = roc(ScoreSet([0.7], [0.7]))
        assert curve.points() == [(0.7, 1.0, 1.0)]

    def test_requires_both_sides(self):
        with pytest.raises(ValueError):
            roc(ScoreSet([0.5], []))
        with pytest.raises(ValueError):
            roc(ScoreSet([], [0.5]))

    @given(tied_scores, tied_scores)
    @settings(max_examples=150)
    def test_matches_brute_force_oracle(self, genuine, impostor):
        curve = roc(ScoreSet(genuine, impostor))
        assert curve.points() == brute_force_roc(genuine, impostor)

    @given(
        st.lists(st.floats(0, 1, **finite), min_size=1, max_size=30),
        st.lists(st.floats(0, 1, **finite), min_size=1, max_size=30),
    )
    @settings(max_examples=150)
    def test_monotone_as_threshold_drops(self, genuine, impostor):
        curve = roc(ScoreSet(genuine, impostor))
        assert np.all(np.diff(curve.tar) >= 0)
        assert np.all(np.diff(curve.far) >= 0)
        assert np.all(np.diff(curve.thresholds) < 0)


class TestTarAtFar:
    def test_perfect_curve(self):
        curve = roc(ScoreSet([1.0], [0.0]))
        assert tar_at_far(curve, 0.001) == 1.0

    def test_worked_curve_at_half(self):
        curve = roc(ScoreSet([0.9, 0.4], [0.6, 0.1]))
        assert tar_at_far(curve, 0.5) == 1.0
        assert tar_at_far(curve, 0.0) == 0.5
        assert tar_at_far(curve, 1.0) == 1.0

    def test_unreachable_target_gives_zero(self):
        curve = RocCurve(
            thresholds=np.array([0.5]), tar=np.array([1.0]), far=np.array([0.5])
        )
        assert tar_at_far(curve, 0.1) == 0.0

    @given(
        st.lists(st.floats(0, 1, **finite), min_size=1, max_size=25),
        st.lists(st.floats(0, 1, **finite), min_size=1, max_size=25),
        st.floats(0, 1, **finite),
        st.floats(0, 1, **finite),
    )
    @settings(max_examples=150)
    def test_monotone_in_target(self, genuine, impostor, f1, f2):
        curve = roc(ScoreSet(genuine, impostor))
        lo, hi = min(f1, f2), max(f1, f2)
        assert tar_at_far(curve, lo) <= tar_at_far(curve, hi)


class TestNistTolerance:
    def test_all_pass(self):
        assert nist_tolerance_check([SideErrors(0, 0, 0, 0)] * 4) == 1.0

    def test_single_side_failure_excludes_fingerprint(self):
        assert nist_tolerance_check([SideErrors(0, 0, 0, 90)]) == 0.0

    def test_mixed_set(self):
        errors = [SideErrors(10, 10, 10, 10), SideErrors(70, 0, 0, 0)]
        assert nist_tolerance_check(errors) == 0.5

    def test_boundary_inclusive(self):
        assert nist_tolerance_check([SideErrors(64, -64, 64, -64)]) == 1.0

    def test_custom_tolerance(self):
        assert nist_tolerance_check([SideErrors(10, 0, 0, 0)], tolerance=5) == 0.0

    def test_every_side_is_checked(self):
        for side in range(4):
            values = [0.0] * 4
            values[side] = -64.5
            assert not SideErrors(*values).within(64.0)
            values[side] = 64.0
            assert SideErrors(*values).within(64.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            nist_tolerance_check([])


class TestSummarizeDistribution:
    def test_five_point_quartiles(self):
        s = summarize_distribution([1, 2, 3, 4, 5], bins=5)
        assert (s.q1, s.median, s.q3) == (2.0, 3.0, 4.0)
        assert (s.minimum, s.maximum, s.mean) == (1.0, 5.0, 3.0)

    def test_interpolated_median(self):
        assert summarize_distribution([1, 2, 3, 4], bins=2).median == 2.5

    def test_constant_list_single_occupied_bin(self):
        s = summarize_distribution([7.0] * 5, bins=3)
        assert int(np.count_nonzero(s.counts)) == 1
        assert s.counts.sum() == 5
        assert s.q1 == s.median == s.q3 == 7.0

    def test_counts_cover_everything(self):
        values = np.linspace(-3, 9, 37)
        s = summarize_distribution(values, bins=6)
        assert s.counts.sum() == 37
        assert len(s.bin_edges) == 7

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            summarize_distribution([], bins=3)
        with pytest.raises(ValueError):
            summarize_distribution([1.0], bins=0)
