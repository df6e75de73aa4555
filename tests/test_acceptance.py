"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned in the assertions below.
"""

import csv
import math
import time

import numpy as np
import pytest

from orientkit.anchors import AnchorConfig, generate_anchors
from orientkit.augment import (
    DEFAULT_ANGLES,
    RasterImage,
    augment_dataset,
    read_raster,
    rotate_image,
    transform_point,
    write_raster,
)
from orientkit.cli import main
from orientkit.coding import (
    RegressionTarget,
    classification_loss,
    decode,
    encode,
    orpn_loss,
    smooth_l1,
    verify_loss_gradients,
)
from orientkit.dataio import (
    AnnotatedFingerphoto,
    FingerAnnotation,
    FingerLabel,
    parse_annotations,
    serialize_annotations,
)
from orientkit.geometry import OrientedBox, rotated_iou
from orientkit.metrics import (
    ScoreSet,
    eap,
    label_accuracy,
    mae,
    roc,
    side_errors,
    tar_at_far,
)

from oracles import axis_aligned_iou, brute_force_roc, mc_iou


def ok(n, text):
    print(f"criterion {n:2d} [{text}]: PASS")


def random_box(rng, center=15.0, dim_lo=2.0, dim_hi=25.0):
    return OrientedBox(
        cx=rng.uniform(-center, center),
        cy=rng.uniform(-center, center),
        w=rng.uniform(dim_lo, dim_hi),
        h=rng.uniform(dim_lo, dim_hi),
        theta=rng.uniform(-math.pi / 2, math.pi / 2),
    )


def test_criterion_01_anchor_arithmetic():
    start = time.time()
    assert len(generate_anchors(1, 1)) == 63
    for rows, cols in ((1, 2), (2, 3), (4, 5), (7, 3)):
        assert len(generate_anchors(rows, cols)) == 63 * rows * cols
    assert time.time() - start < 1.0
    ok(1, "anchor arithmetic 63 per cell")


def test_criterion_02_rotated_iou_oracles():
    start = time.time()
    rng = np.random.default_rng(2024)
    failures = 0
    for _ in range(1000):
        a, b = random_box(rng), random_box(rng)
        exact = rotated_iou(a, b)
        estimate, se = mc_iou(a, b, 1_000_000, rng)
        if abs(exact - estimate) > 3.0 * se + 1e-9:
            failures += 1
    assert failures <= 10, f"{failures}/1000 pairs outside 3 standard errors"

    for _ in range(500):
        a = OrientedBox(rng.uniform(0, 40), rng.uniform(0, 40),
                        rng.uniform(1, 25), rng.uniform(1, 25), 0.0)
        b = OrientedBox(rng.uniform(0, 40), rng.uniform(0, 40),
                        rng.uniform(1, 25), rng.uniform(1, 25), 0.0)
        assert rotated_iou(a, b) == pytest.approx(axis_aligned_iou(a, b), abs=1e-9)
    elapsed = time.time() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    ok(2, f"rotated IoU vs Monte Carlo ({failures}/1000 outliers, {elapsed:.1f}s)")


def test_criterion_03_encode_decode_round_trip():
    start = time.time()
    rng = np.random.default_rng(3)
    for _ in range(10_000):
        box = random_box(rng, center=100.0, dim_lo=0.5, dim_hi=50.0)
        anchor = random_box(rng, center=100.0, dim_lo=0.5, dim_hi=50.0)
        back = decode(encode(box, anchor), anchor)
        assert abs(back.cx - box.cx) <= 1e-9 * max(1.0, abs(box.cx))
        assert abs(back.cy - box.cy) <= 1e-9 * max(1.0, abs(box.cy))
        assert abs(back.w - box.w) <= 1e-9 * box.w
        assert abs(back.h - box.h) <= 1e-9 * box.h
        assert abs(back.theta - box.theta) <= 1e-9
    elapsed = time.time() - start
    assert elapsed < 5.0, f"took {elapsed:.1f}s"
    ok(3, f"10k encode/decode round trips ({elapsed:.1f}s)")


def test_criterion_04_loss_values():
    assert smooth_l1(0.5) == pytest.approx(0.125, abs=1e-12)
    assert smooth_l1(2.0) == pytest.approx(1.5, abs=1e-12)
    assert 0.5 * 1.0**2 == pytest.approx(abs(1.0) - 0.5, abs=1e-12)
    assert smooth_l1(1.0) == pytest.approx(0.5, abs=1e-12)
    assert classification_loss(0.5, 1) == pytest.approx(math.log(2), abs=1e-12)
    assert classification_loss(0.5, 0) == pytest.approx(math.log(2), abs=1e-12)
    rng = np.random.default_rng(4)
    for _ in range(200):
        p = rng.uniform(0.01, 0.99)
        u = int(rng.integers(0, 2))
        lam = rng.uniform(0, 3)
        t = RegressionTarget.from_array(rng.uniform(-2, 2, 5))
        tstar = RegressionTarget.from_array(rng.uniform(-2, 2, 5))
        b = orpn_loss(p, u, t, tstar, lam)
        assert abs(b.total - (b.cls + lam * u * b.reg)) <= 1e-12
    ok(4, "pinned loss values and composition law")


def test_criterion_05_gradient_check():
    start = time.time()
    worst = verify_loss_gradients(n_points=100, step=1e-6, seed=5)
    elapsed = time.time() - start
    assert worst < 1e-4, f"max relative error {worst}"
    assert elapsed < 5.0, f"took {elapsed:.1f}s"
    ok(5, f"gradient check worst rel err {worst:.2e} ({elapsed:.1f}s)")


def _offset_box(gt, left=0.0, right=0.0, top=0.0, bottom=0.0, dtheta=0.0):
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


def test_criterion_06_mae_construction():
    rng = np.random.default_rng(6)
    for trial in range(200):
        theta = rng.uniform(-math.pi / 2, math.pi / 2)
        gt = OrientedBox(rng.uniform(50, 200), rng.uniform(50, 200),
                         rng.uniform(20, 60), rng.uniform(20, 60), theta)
        offsets = rng.uniform(-8, 8, 4)
        # Keep the box valid: shrink offsets that would collapse a side.
        offsets[0] = max(offsets[0], -gt.w / 4)
        offsets[1] = max(offsets[1], -gt.w / 4)
        offsets[2] = max(offsets[2], -gt.h / 4)
        offsets[3] = max(offsets[3], -gt.h / 4)
        pred = _offset_box(gt, *offsets)
        errs = side_errors(pred, gt)
        assert errs.left == pytest.approx(offsets[0], abs=1e-6)
        assert errs.right == pytest.approx(offsets[1], abs=1e-6)
        assert errs.top == pytest.approx(offsets[2], abs=1e-6)
        assert errs.bottom == pytest.approx(offsets[3], abs=1e-6)
    # mae over a constructed batch recovers the common magnitudes.
    gt = OrientedBox(100, 100, 40, 60, math.radians(20))
    batch = [side_errors(_offset_box(gt, 3, -2, 1, 4), gt) for _ in range(10)]
    report = mae(batch)
    assert report.mae["left"] == pytest.approx(3.0, abs=1e-6)
    assert report.mae["right"] == pytest.approx(2.0, abs=1e-6)
    assert report.mae["top"] == pytest.approx(1.0, abs=1e-6)
    assert report.mae["bottom"] == pytest.approx(4.0, abs=1e-6)
    ok(6, "per-side offsets recovered on rotated boxes")


def test_criterion_07_eap_constant_offset():
    rng = np.random.default_rng(7)
    gt_angles = [float(a) for a in rng.uniform(-80, 80, 50)]
    pred_angles = [a + 7.0 for a in gt_angles]
    mean, std = eap(gt_angles, pred_angles)
    assert mean == pytest.approx(7.0, abs=1e-9)
    assert std == pytest.approx(0.0, abs=1e-9)
    ok(7, "EAP mean 7.0, stddev 0 for constant offset")


def test_criterion_08_label_accuracy_exact():
    gt = [list("abcdefghij")]
    pred = [list("abcdefghiX")]
    loss, acc = label_accuracy(gt, pred)
    assert loss == 0.1 and acc == 0.9
    loss, acc = label_accuracy([["a", "b"], ["c", "d"]], [["a", "b"], ["c", "d"]])
    assert loss == 0.0 and acc == 1.0
    loss, acc = label_accuracy([["a", "b", "c", "d"]], [["x", "y", "c", "d"]])
    assert loss == 0.5 and acc == 0.5
    ok(8, "Hamming loss / accuracy exact on constructed patterns")


def test_criterion_09_roc_oracle():
    rng = np.random.default_rng(9)
    for _ in range(200):
        n_gen = int(rng.integers(1, 40))
        n_imp = int(rng.integers(1, 40))
        genuine = [float(v) for v in rng.integers(0, 25, n_gen) / 5.0]
        impostor = [float(v) for v in rng.integers(0, 25, n_imp) / 5.0]
        scores = ScoreSet(genuine=genuine, impostor=impostor)
        curve = roc(scores)
        assert curve.points() == brute_force_roc(genuine, impostor)
        assert np.all(np.diff(curve.tar) >= 0)
        assert np.all(np.diff(curve.far) >= 0)
    separated = ScoreSet(genuine=(0.8, 0.9, 1.0), impostor=(0.0, 0.1, 0.2))
    assert tar_at_far(roc(separated), 0.001) == 1.0
    ok(9, "ROC equals brute-force oracle on 200 random score sets")


def test_criterion_10_augmentation_pipeline(tmp_path):
    start = time.time()
    img = RasterImage((np.arange(64, dtype=np.int64) % 256).astype(np.uint8).reshape(8, 8))
    records = []
    for i in range(2150):
        name = f"s{i:04d}.pgm"
        write_raster(img, tmp_path / name)
        records.append(
            AnnotatedFingerphoto(
                name, 8, 8, "left",
                (FingerAnnotation(FingerLabel.LEFT_INDEX,
                                  OrientedBox(4.0, 4.0, 3.0, 2.0, 0.15)),),
                "bonafide", f"s{i:04d}",
            )
        )
    out_dir = tmp_path / "out"
    augmented = augment_dataset(records, tmp_path, out_dir)
    assert len(DEFAULT_ANGLES) == 10
    assert len(augmented) == 21_500
    assert len(records) + len(augmented) == 23_650

    # Corner-rotation consistency on a spread of outputs.
    for record in augmented[:: 977]:
        source = records[[r.source_id for r in records].index(record.source_id)]
        alpha = record.augment_angle
        for before, after in zip(source.fingers, record.fingers):
            mapped = [
                transform_point(x, y, source.image_width, source.image_height, alpha)
                for x, y in before.box.corners()
            ]
            got = after.box.corners()
            assert np.allclose(
                sorted(map(tuple, mapped)), sorted(map(tuple, got)), atol=1e-6
            )

    back = rotate_image(rotate_image(img, 90.0), -90.0)
    assert np.array_equal(back.pixels, img.pixels)
    written = read_raster(out_dir / augmented[0].image_path)
    assert (written.width, written.height) == (
        augmented[0].image_width, augmented[0].image_height,
    )
    elapsed = time.time() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    ok(10, f"2150 -> 23650 augmentation ({elapsed:.1f}s)")


def test_criterion_11_end_to_end_cli(tmp_path, capsys):
    labels = [FingerLabel.LEFT_INDEX, FingerLabel.LEFT_MIDDLE, FingerLabel.LEFT_RING]
    records = []
    for i in range(4):
        fingers = tuple(
            FingerAnnotation(
                labels[j],
                OrientedBox(30.0 + 25 * j, 40.0, 14.0, 22.0, math.radians(6 * j - 5)),
            )
            for j in range(3)
        )
        records.append(
            AnnotatedFingerphoto(f"img{i:02d}.pgm", 128, 96, "left", fingers,
                                 "bonafide", f"img{i:02d}")
        )
    gt = tmp_path / "gt.jsonl"
    serialize_annotations(records, gt)

    out = tmp_path / "eval"
    assert main(["evaluate", "--gt", str(gt), "--pred", str(gt),
                 "--out", str(out), "--jobs", "1"]) == 0
    summary = {}
    for line in (out / "summary.txt").read_text().splitlines():
        key, _, value = line.partition(" = ")
        summary[key] = value
    assert summary["mae_left"] == "0.0"
    assert summary["mae_right"] == "0.0"
    assert summary["mae_top"] == "0.0"
    assert summary["mae_bottom"] == "0.0"
    assert summary["eap_mean_deg"] == "0.0"
    assert summary["label_accuracy"] == "1.0"
    assert summary["nist_pass_rate"] == "1.0"

    # Identical seeds: byte-identical split files and evaluation reports.
    splits = []
    for name in ("s1", "s2"):
        split_out = tmp_path / name
        assert main(["split", "--annotations", str(gt), "--seed", "7",
                     "--out", str(split_out)]) == 0
        splits.append(split_out)
    for fname in ("train.txt", "validation.txt", "test.txt"):
        assert (splits[0] / fname).read_bytes() == (splits[1] / fname).read_bytes()

    out2 = tmp_path / "eval2"
    assert main(["evaluate", "--gt", str(gt), "--pred", str(gt),
                 "--out", str(out2), "--jobs", "2"]) == 0
    for fname in ("summary.txt", "detail.csv"):
        assert (out / fname).read_bytes() == (out2 / fname).read_bytes()
    capsys.readouterr()
    ok(11, "CLI perfect-prediction report and byte-identical reruns")
