import math

import numpy as np
import pytest

from orientkit.dataio import AnnotatedFingerphoto, FingerAnnotation, FingerLabel
from orientkit.geometry import OrientedBox
from orientkit.metrics import SideErrors, mae, nist_tolerance_check
from orientkit.report import (
    aggregate_rows,
    evaluate_annotations,
    evaluate_image,
    match_fingers,
    write_detail_csv,
    write_summary,
)

LEFT_LABELS = [
    FingerLabel.LEFT_INDEX,
    FingerLabel.LEFT_MIDDLE,
    FingerLabel.LEFT_RING,
    FingerLabel.LEFT_LITTLE,
]


def record(image, boxes, labels=None, hand="left"):
    labels = labels or LEFT_LABELS[: len(boxes)]
    fingers = tuple(FingerAnnotation(l, b) for l, b in zip(labels, boxes))
    return AnnotatedFingerphoto(image, 1000, 1000, hand, fingers, "bonafide", image)


def offset_box(gt, left=0.0, right=0.0, top=0.0, bottom=0.0, dtheta=0.0):
    c, s = math.cos(gt.theta), math.sin(gt.theta)
    dxl = (right - left) / 2.0
    dyl = (bottom - top) / 2.0
    return OrientedBox(
        gt.cx + dxl * c + dyl * s,
        gt.cy - dxl * s + dyl * c,
        gt.w + left + right,
        gt.h + top + bottom,
        gt.theta + dtheta,
    )


GT_BOXES = [
    OrientedBox(100, 120, 40, 60, math.radians(10)),
    OrientedBox(300, 140, 42, 58, math.radians(-25)),
    OrientedBox(500, 150, 38, 62, 0.0),
]


class TestMatching:
    def test_exact_match_is_identity(self):
        gt = record("a", GT_BOXES)
        matches = match_fingers(gt, gt)
        assert [(gi, pi) for gi, pi, _ in matches] == [(0, 0), (1, 1), (2, 2)]
        assert all(iou == pytest.approx(1.0, abs=1e-9) for _, _, iou in matches)

    def test_highest_iou_wins(self):
        gt = record("a", [OrientedBox(100, 100, 40, 40, 0)])
        pred = record(
            "a",
            [OrientedBox(130, 100, 40, 40, 0), OrientedBox(101, 100, 40, 40, 0)],
            labels=[FingerLabel.LEFT_INDEX, FingerLabel.LEFT_MIDDLE],
        )
        matches = match_fingers(gt, pred)
        assert len(matches) == 1
        assert matches[0][0] == 0 and matches[0][1] == 1

    def test_tie_breaks_to_lower_pred_index(self):
        gt = record("a", [OrientedBox(100, 100, 40, 40, 0)])
        pred = record(
            "a",
            [OrientedBox(101, 100, 40, 40, 0), OrientedBox(99, 100, 40, 40, 0)],
            labels=[FingerLabel.LEFT_INDEX, FingerLabel.LEFT_MIDDLE],
        )
        matches = match_fingers(gt, pred)
        assert matches[0][1] == 0

    def test_zero_overlap_never_matches(self):
        gt = record("a", [OrientedBox(100, 100, 20, 20, 0)])
        pred = record("a", [OrientedBox(900, 900, 20, 20, 0)])
        assert match_fingers(gt, pred) == []


class TestEvaluateImage:
    def test_perfect_prediction(self):
        gt = record("a", GT_BOXES)
        rows = evaluate_image(gt, gt)
        assert len(rows) == 3
        for row in rows:
            assert row.matched
            assert row.gt_label == row.pred_label
            assert row.errors == SideErrors(0, 0, 0, 0)
            assert row.angle_error_deg == 0.0
            assert row.nist_pass is True

    def test_unmatched_gt_row(self):
        gt = record("a", GT_BOXES[:2])
        pred = record("a", GT_BOXES[:1])
        rows = evaluate_image(gt, pred)
        assert len(rows) == 2
        assert rows[1].matched is False
        assert rows[1].pred_label == ""
        assert rows[1].errors is None

    def test_angle_error_folds_across_the_vertical(self):
        # -89 and 89 degrees are box axes 2 degrees apart, not 178.
        gt = record("a", [OrientedBox(100, 100, 40, 60, math.radians(-89))])
        pred = record("a", [OrientedBox(100, 100, 40, 60, math.radians(89))])
        (row,) = evaluate_image(gt, pred)
        assert row.matched and row.iou > 0.9
        assert row.angle_error_deg == pytest.approx(2.0, abs=1e-9)
        assert evaluate_annotations([gt], [pred]).eap_mean == row.angle_error_deg

    def test_angle_error_up_to_90_is_plain_difference(self):
        for gt_deg, pred_deg in ((-45.0, 45.0), (30.0, -20.0), (10.0, 10.0)):
            gt = record("a", [OrientedBox(100, 100, 40, 40, math.radians(gt_deg))])
            pred = record("a", [OrientedBox(100, 100, 40, 40, math.radians(pred_deg))])
            (row,) = evaluate_image(gt, pred)
            assert row.angle_error_deg == abs(
                math.degrees(gt.fingers[0].box.theta)
                - math.degrees(pred.fingers[0].box.theta)
            )

    def test_stray_prediction_row(self):
        gt = record("a", GT_BOXES[:1])
        pred = record("a", GT_BOXES[:2])
        rows = evaluate_image(gt, pred)
        assert len(rows) == 2
        assert rows[1].gt_label == ""
        assert rows[1].pred_label == FingerLabel.LEFT_MIDDLE.value


class TestEvaluateAnnotations:
    def test_identical_files_are_perfect(self):
        gts = [record("a", GT_BOXES), record("b", GT_BOXES[:2])]
        report = evaluate_annotations(gts, gts)
        assert report.n_images == 2
        assert report.n_gt == 5
        assert report.n_matched == 5
        assert report.n_unmatched_gt == report.n_unmatched_pred == 0
        assert set(report.mae_report.mae.values()) == {0.0}
        assert report.eap_mean == 0.0 and report.eap_std == 0.0
        assert report.label_accuracy == 1.0 and report.hamming_loss == 0.0
        assert report.nist_pass_rate == 1.0

    def test_inflated_predictions_recover_offsets(self):
        gts = [record("a", GT_BOXES)]
        preds = [record("a", [offset_box(b, 5, 5, 5, 5) for b in GT_BOXES])]
        report = evaluate_annotations(gts, preds)
        for side in ("left", "right", "top", "bottom"):
            assert report.mae_report.mae[side] == pytest.approx(5.0, abs=1e-9)
            assert report.mae_report.std[side] == pytest.approx(0.0, abs=1e-9)

    def test_constant_angle_offset_gives_eap(self):
        gts = [record("a", GT_BOXES)]
        preds = [record("a", [offset_box(b, dtheta=math.radians(7)) for b in GT_BOXES])]
        report = evaluate_annotations(gts, preds)
        assert report.eap_mean == pytest.approx(7.0, abs=1e-9)
        assert report.eap_std == pytest.approx(0.0, abs=1e-9)

    def test_label_miss_from_unmatched_gt(self):
        gts = [record("a", GT_BOXES[:2])]
        preds = [record("a", GT_BOXES[:1])]
        report = evaluate_annotations(gts, preds)
        assert report.n_unmatched_gt == 1
        assert report.hamming_loss == pytest.approx(0.5)
        assert report.label_accuracy == pytest.approx(0.5)
        # MAE pool only contains the matched fingerprint.
        assert report.mae_report.count == 1

    def test_mislabeled_match_counts_against_accuracy(self):
        gts = [record("a", GT_BOXES[:2])]
        preds = [
            record(
                "a",
                GT_BOXES[:2],
                labels=[FingerLabel.LEFT_INDEX, FingerLabel.LEFT_RING],
            )
        ]
        report = evaluate_annotations(gts, preds)
        assert report.label_accuracy == pytest.approx(0.5)
        assert report.mae_report.count == 2

    def test_one_finger_images(self):
        gts = [record("a", GT_BOXES[:1]), record("b", GT_BOXES[1:2]),
               record("c", GT_BOXES[2:])]
        preds = [record("a", [offset_box(GT_BOXES[0], 2, 2, 2, 2)]),
                 record("b", [OrientedBox(900, 900, 10, 10, 0)]),
                 record("c", GT_BOXES[2:])]
        report = evaluate_annotations(gts, preds)
        assert (report.n_gt, report.n_matched) == (3, 2)
        assert (report.n_unmatched_gt, report.n_unmatched_pred) == (1, 1)
        assert [(r.image, r.matched) for r in report.rows] == [
            ("a", True), ("b", False), ("b", False), ("c", True)
        ]
        assert report.rows[3].iou == 1.0

    def test_rows_equal_per_image_evaluation(self):
        # Crowded images: every pred overlaps several gts, and some repeat a gt
        # exactly, so the greedy order and its ties decide the matching.
        rng = np.random.default_rng(12)
        gts, preds = [], []
        for i in range(40):
            g = [OrientedBox(*rng.uniform(100, 140, 2), *rng.uniform(20, 60, 2),
                             rng.uniform(-1.5, 1.5)) for _ in range(rng.integers(1, 5))]
            p = [OrientedBox(*rng.uniform(100, 140, 2), *rng.uniform(20, 60, 2),
                             rng.uniform(-1.5, 1.5)) for _ in range(rng.integers(1, 5))]
            if i % 3 == 0:
                p[0] = g[-1]
            gts.append(record(f"img{i}", g))
            preds.append(record(f"img{i}", p))
        report = evaluate_annotations(gts, preds)
        assert list(report.rows) == [
            row for g, p in zip(gts, preds) for row in evaluate_image(g, p)
        ]
        assert report.n_matched > 40

    def test_missing_ids_raise(self):
        gts = [record("a", GT_BOXES)]
        preds = [record("b", GT_BOXES)]
        with pytest.raises(ValueError, match="'a'"):
            evaluate_annotations(gts, preds)

    def test_duplicate_gt_id_raises(self):
        gts = [record("a", GT_BOXES), record("a", GT_BOXES)]
        with pytest.raises(ValueError, match="duplicate ground truth .*'a'"):
            evaluate_annotations(gts, gts[:1])

    def test_duplicate_pred_id_raises(self):
        gts = [record("a", GT_BOXES)]
        preds = [record("a", GT_BOXES), record("a", GT_BOXES[:1])]
        with pytest.raises(ValueError, match="duplicate prediction .*'a'"):
            evaluate_annotations(gts, preds)


class TestAggregateInvariant:
    def test_aggregates_equal_recomputation_from_rows(self):
        rng = np.random.default_rng(8)
        gts, preds = [], []
        for i in range(5):
            boxes = [
                OrientedBox(100 + 150 * j, 100, 40, 60, rng.uniform(-0.6, 0.6))
                for j in range(3)
            ]
            gts.append(record(f"img{i}", boxes))
            preds.append(
                record(
                    f"img{i}",
                    [offset_box(b, *rng.uniform(-6, 6, 4)) for b in boxes],
                )
            )
        report = evaluate_annotations(gts, preds, tolerance=5.0)
        matched = [r for r in report.rows if r.matched]
        recomputed = mae([r.errors for r in matched])
        for side in ("left", "right", "top", "bottom"):
            assert report.mae_report.mae[side] == pytest.approx(
                recomputed.mae[side], abs=1e-9
            )
        assert report.nist_pass_rate == pytest.approx(
            nist_tolerance_check([r.errors for r in matched], 5.0), abs=1e-9
        )
        angle_errors = [r.angle_error_deg for r in matched]
        assert report.eap_mean == pytest.approx(np.mean(angle_errors), abs=1e-9)
        assert report.eap_std == pytest.approx(np.std(angle_errors), abs=1e-9)


class TestWriters:
    def test_summary_and_csv_byte_stable(self, tmp_path):
        gts = [record("a", GT_BOXES)]
        preds = [record("a", [offset_box(b, 1, 2, 3, 4) for b in GT_BOXES])]
        report = evaluate_annotations(gts, preds)
        write_summary(report, tmp_path / "s1.txt")
        write_summary(report, tmp_path / "s2.txt")
        assert (tmp_path / "s1.txt").read_bytes() == (tmp_path / "s2.txt").read_bytes()
        write_detail_csv(report, tmp_path / "d1.csv")
        write_detail_csv(report, tmp_path / "d2.csv")
        assert (tmp_path / "d1.csv").read_bytes() == (tmp_path / "d2.csv").read_bytes()
        text = (tmp_path / "s1.txt").read_text()
        assert "mae_left = " in text
        assert "label_accuracy = 1.0" in text

    def test_csv_parses_back_to_aggregates(self, tmp_path):
        import csv

        gts = [record("a", GT_BOXES)]
        preds = [record("a", [offset_box(b, 2, 2, 2, 2) for b in GT_BOXES])]
        report = evaluate_annotations(gts, preds)
        path = tmp_path / "detail.csv"
        write_detail_csv(report, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        lefts = [float(r["err_left"]) for r in rows if r["matched"] == "1"]
        assert np.mean(np.abs(lefts)) == pytest.approx(report.mae_report.mae["left"])

