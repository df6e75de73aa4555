import csv
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from orientkit.augment import RasterImage, write_raster
from orientkit.cli import main
from orientkit.dataio import (
    AnnotatedFingerphoto,
    FingerAnnotation,
    FingerLabel,
    parse_annotations,
    serialize_annotations,
)
from orientkit.geometry import OrientedBox

from oracles import brute_force_roc

LABELS = [FingerLabel.LEFT_INDEX, FingerLabel.LEFT_MIDDLE, FingerLabel.LEFT_RING]


def make_records(n, n_fingers=3):
    records = []
    for i in range(n):
        name = f"img{i:03d}.pgm"
        fingers = tuple(
            FingerAnnotation(
                LABELS[j],
                OrientedBox(20.0 + 18 * j, 30.0 + 2 * i, 10.0, 16.0, math.radians(5 * j)),
            )
            for j in range(n_fingers)
        )
        records.append(
            AnnotatedFingerphoto(name, 96, 64, "left", fingers, "bonafide", f"img{i:03d}")
        )
    return records


def write_dataset(tmp_path, n=3):
    records = make_records(n)
    ann = tmp_path / "annotations.jsonl"
    serialize_annotations(records, ann)
    img = RasterImage(np.full((64, 96), 150, np.uint8))
    for record in records:
        write_raster(img, tmp_path / record.image_path)
    return ann, records


def offset_records(records, d=5.0):
    out = []
    for record in records:
        fingers = tuple(
            FingerAnnotation(
                f.label,
                OrientedBox(f.box.cx, f.box.cy, f.box.w + 2 * d, f.box.h + 2 * d,
                            f.box.theta),
            )
            for f in record.fingers
        )
        out.append(
            AnnotatedFingerphoto(
                record.image_path, record.image_width, record.image_height,
                record.hand, fingers, record.provenance, record.source_id,
            )
        )
    return out


class TestCmdAugment:
    def test_counts_and_combined_file(self, tmp_path, capsys):
        ann, _ = write_dataset(tmp_path, n=2)
        out = tmp_path / "out"
        code = main([
            "augment", "--annotations", str(ann), "--images", str(tmp_path),
            "--out", str(out), "--angles", "-30,30",
        ])
        assert code == 0
        assert capsys.readouterr().out.strip() == "bonafide=2 augmented=4 total=6"
        combined = parse_annotations(out / "annotations.jsonl")
        assert len(combined) == 6
        assert sum(1 for r in combined if r.provenance == "augmented") == 4
        for record in combined:
            if record.provenance == "augmented":
                assert (out / record.image_path).exists()

    def test_missing_image_exits_2(self, tmp_path, capsys):
        records = make_records(1)
        ann = tmp_path / "annotations.jsonl"
        serialize_annotations(records, ann)
        code = main([
            "augment", "--annotations", str(ann), "--images", str(tmp_path),
            "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        assert "img000" in capsys.readouterr().err

    def test_repeated_angle_exits_3_before_writing(self, tmp_path, capsys):
        ann, _ = write_dataset(tmp_path, n=1)
        out = tmp_path / "out"
        code = main([
            "augment", "--annotations", str(ann), "--images", str(tmp_path),
            "--out", str(out), "--angles", "30,-30,30",
        ])
        assert code == 3
        assert "img000_rot30.pgm" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_shared_source_id_exits_3_before_writing(self, tmp_path, capsys):
        records = make_records(2)
        records[1] = replace(records[1], source_id=records[0].source_id)
        ann = tmp_path / "annotations.jsonl"
        serialize_annotations(records, ann)
        img = RasterImage(np.full((64, 96), 150, np.uint8))
        for record in records:
            write_raster(img, tmp_path / record.image_path)
        out = tmp_path / "out"
        code = main([
            "augment", "--annotations", str(ann), "--images", str(tmp_path),
            "--out", str(out), "--angles", "-30,30",
        ])
        assert code == 3
        assert "img000_rot-30.pgm" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_invalid_annotation_exits_3(self, tmp_path, capsys):
        ann = tmp_path / "annotations.jsonl"
        ann.write_text('{"image": "a.pgm", bad json\n', encoding="utf-8")
        code = main([
            "augment", "--annotations", str(ann), "--images", str(tmp_path),
            "--out", str(tmp_path / "out"),
        ])
        assert code == 3

    def test_missing_annotation_file_exits_2(self, tmp_path):
        code = main([
            "augment", "--annotations", str(tmp_path / "none.jsonl"),
            "--images", str(tmp_path), "--out", str(tmp_path / "out"),
        ])
        assert code == 2


class TestCmdSplit:
    def test_sizes_and_determinism(self, tmp_path, capsys):
        records = make_records(10)
        ann = tmp_path / "ann.jsonl"
        serialize_annotations(records, ann)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        for out in (out1, out2):
            code = main([
                "split", "--annotations", str(ann), "--seed", "42",
                "--out", str(out),
            ])
            assert code == 0
        assert capsys.readouterr().out.splitlines() == [
            "train=8 validation=1 test=1",
            "train=8 validation=1 test=1",
        ]
        for name in ("train.txt", "validation.txt", "test.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        train = (out1 / "train.txt").read_text().splitlines()
        assert len(train) == 8

    def test_bad_ratios_exit_3(self, tmp_path):
        records = make_records(10)
        ann = tmp_path / "ann.jsonl"
        serialize_annotations(records, ann)
        code = main([
            "split", "--annotations", str(ann), "--ratios", "0.5,0.2,0.2",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 3


class TestCmdKfold:
    def test_files_written(self, tmp_path, capsys):
        records = make_records(12)
        ann = tmp_path / "ann.jsonl"
        serialize_annotations(records, ann)
        out = tmp_path / "folds"
        code = main([
            "kfold", "--annotations", str(ann), "--k", "4", "--seed", "1",
            "--out", str(out),
        ])
        assert code == 0
        assert capsys.readouterr().out.strip() == "folds=4"
        tests = []
        for i in range(4):
            ids = (out / f"fold_{i:02d}.test.txt").read_text().splitlines()
            assert len(ids) == 3
            tests.extend(ids)
        assert sorted(tests) == sorted(r.record_id for r in records)

    def test_k_too_small_exit_3(self, tmp_path):
        records = make_records(5)
        ann = tmp_path / "ann.jsonl"
        serialize_annotations(records, ann)
        assert main([
            "kfold", "--annotations", str(ann), "--k", "1",
            "--out", str(tmp_path / "out"),
        ]) == 3


def read_summary(path):
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


class TestCmdEvaluate:
    def test_perfect_prediction_report(self, tmp_path, capsys):
        records = make_records(3)
        gt = tmp_path / "gt.jsonl"
        serialize_annotations(records, gt)
        out = tmp_path / "out"
        code = main([
            "evaluate", "--gt", str(gt), "--pred", str(gt), "--out", str(out),
            "--jobs", "1",
        ])
        assert code == 0
        summary = read_summary(out / "summary.txt")
        assert summary["mae_left"] == "0.0"
        assert summary["mae_bottom"] == "0.0"
        assert summary["eap_mean_deg"] == "0.0"
        assert summary["label_accuracy"] == "1.0"
        assert summary["nist_pass_rate"] == "1.0"
        stdout = capsys.readouterr().out
        assert "label_accuracy=1.000000" in stdout

    def test_inflated_prediction_mae(self, tmp_path):
        records = make_records(3)
        gt = tmp_path / "gt.jsonl"
        pred = tmp_path / "pred.jsonl"
        serialize_annotations(records, gt)
        serialize_annotations(offset_records(records, 5.0), pred)
        out = tmp_path / "out"
        assert main([
            "evaluate", "--gt", str(gt), "--pred", str(pred), "--out", str(out),
            "--jobs", "1",
        ]) == 0
        summary = read_summary(out / "summary.txt")
        for side in ("left", "right", "top", "bottom"):
            assert float(summary[f"mae_{side}"]) == pytest.approx(5.0, abs=1e-9)

    def test_byte_identical_reports_across_jobs(self, tmp_path):
        records = make_records(5)
        gt = tmp_path / "gt.jsonl"
        pred = tmp_path / "pred.jsonl"
        serialize_annotations(records, gt)
        serialize_annotations(offset_records(records, 3.0), pred)
        outs = []
        for name, jobs in (("a", "1"), ("b", "2")):
            out = tmp_path / name
            assert main([
                "evaluate", "--gt", str(gt), "--pred", str(pred),
                "--out", str(out), "--jobs", jobs,
            ]) == 0
            outs.append(out)
        for fname in ("summary.txt", "detail.csv"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_id_mismatch_exits_3(self, tmp_path, capsys):
        records = make_records(2)
        gt = tmp_path / "gt.jsonl"
        pred = tmp_path / "pred.jsonl"
        serialize_annotations(records, gt)
        serialize_annotations(records[:1], pred)
        assert main([
            "evaluate", "--gt", str(gt), "--pred", str(pred),
            "--out", str(tmp_path / "out"), "--jobs", "1",
        ]) == 3
        assert "img001" in capsys.readouterr().err

    def test_duplicate_gt_id_exits_3(self, tmp_path, capsys):
        records = make_records(2)
        gt = tmp_path / "gt.jsonl"
        pred = tmp_path / "pred.jsonl"
        serialize_annotations(records + records[:1], gt)
        serialize_annotations(records, pred)
        assert main([
            "evaluate", "--gt", str(gt), "--pred", str(pred),
            "--out", str(tmp_path / "out"),
        ]) == 3
        assert "duplicate ground truth for image 'img000.pgm'" in capsys.readouterr().err

    def test_duplicate_pred_id_exits_3(self, tmp_path, capsys):
        records = make_records(2)
        gt = tmp_path / "gt.jsonl"
        pred = tmp_path / "pred.jsonl"
        serialize_annotations(records, gt)
        serialize_annotations(records + offset_records(records[1:]), pred)
        assert main([
            "evaluate", "--gt", str(gt), "--pred", str(pred),
            "--out", str(tmp_path / "out"),
        ]) == 3
        assert "duplicate prediction for image 'img001.pgm'" in capsys.readouterr().err

    def test_plots_emitted(self, tmp_path):
        records = make_records(3)
        gt = tmp_path / "gt.jsonl"
        serialize_annotations(records, gt)
        out = tmp_path / "out"
        assert main([
            "evaluate", "--gt", str(gt), "--pred", str(gt), "--out", str(out),
            "--plots", "--jobs", "1",
        ]) == 0
        for name in ("mae_left.svg", "mae_right.svg", "mae_top.svg",
                     "mae_bottom.svg", "eap_hist.svg", "eap_box.svg"):
            text = (out / name).read_text()
            assert text.startswith("<?xml")
            assert "<svg" in text and "</svg>" in text


def write_scores(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["probe_id", "gallery_id", "score", "mated"])
        writer.writerows(rows)


class TestCmdRoc:
    def test_perfect_separation(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        write_scores(scores, [
            ("p1", "g1", "0.9", "1"), ("p2", "g2", "0.8", "1"),
            ("p3", "g3", "0.2", "0"), ("p4", "g4", "0.1", "0"),
        ])
        out = tmp_path / "out"
        code = main(["roc", "--scores", str(scores), "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out.strip() == "TAR@FAR0.001 = 1.0000"

    def test_curve_matches_oracle(self, tmp_path):
        genuine = [0.9, 0.4]
        impostor = [0.6, 0.1]
        scores = tmp_path / "scores.csv"
        write_scores(
            scores,
            [("p", "g", str(s), "1") for s in genuine]
            + [("p", "g", str(s), "0") for s in impostor],
        )
        out = tmp_path / "out"
        assert main([
            "roc", "--scores", str(scores), "--out", str(out), "--plots",
        ]) == 0
        with open(out / "roc.csv", newline="") as fh:
            rows = [
                (float(r["threshold"]), float(r["tar"]), float(r["far"]))
                for r in csv.DictReader(fh)
            ]
        assert rows == brute_force_roc(genuine, impostor)
        assert (out / "roc.svg").read_text().startswith("<?xml")

    def test_only_genuine_exits_3(self, tmp_path):
        scores = tmp_path / "scores.csv"
        write_scores(scores, [("p", "g", "0.9", "1")])
        assert main(["roc", "--scores", str(scores), "--out", str(tmp_path / "o")]) == 3

    def test_bad_mated_flag_exits_3(self, tmp_path):
        scores = tmp_path / "scores.csv"
        write_scores(scores, [("p", "g", "0.9", "2")])
        assert main(["roc", "--scores", str(scores), "--out", str(tmp_path / "o")]) == 3

    def test_non_numeric_score_names_its_line(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        write_scores(scores, [("p", "g", "abc", "1"), ("p", "g", "0.1", "0")])
        assert main(["roc", "--scores", str(scores), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert f"{scores}: line 2: malformed row" in err


class TestCmdAnchors:
    def test_default_grid_count(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["anchors", "--grid", "1x1", "--out", str(out)]) == 0
        assert capsys.readouterr().out.strip() == "anchors=63"
        with open(out / "anchors.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 63
        assert set(rows[0]) == {"cx", "cy", "w", "h", "theta_deg"}

    def test_two_by_three_grid(self, tmp_path, capsys):
        assert main(["anchors", "--grid", "2x3", "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out.strip() == "anchors=378"

    def test_malformed_grid_exits_3(self, tmp_path):
        assert main(["anchors", "--grid", "2by3", "--out", str(tmp_path)]) == 3

    def test_empty_scales_config_exits_3(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scales": []}), encoding="utf-8")
        assert main([
            "anchors", "--grid", "1x1", "--config", str(cfg), "--out", str(tmp_path),
        ]) == 3

    @pytest.mark.parametrize("config, key", [
        ({"scales": 5}, "scales"),
        ({"orientations_deg": ["a"]}, "orientations_deg"),
        ({"positive_iou": None}, "positive_iou"),
        ({"aspect_ratios": "12"}, "aspect_ratios"),
        ({"negative_iou": True}, "negative_iou"),
    ])
    def test_mistyped_config_value_exits_3(self, tmp_path, capsys, config, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        assert main([
            "anchors", "--grid", "1x1", "--config", str(cfg), "--out", str(tmp_path),
        ]) == 3
        err = capsys.readouterr().err
        assert f"{cfg}: {key}: expected" in err
        assert not (tmp_path / "anchors.csv").exists()

    def test_config_array_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]", encoding="utf-8")
        assert main([
            "anchors", "--grid", "1x1", "--config", str(cfg), "--out", str(tmp_path),
        ]) == 3
        assert f"{cfg}: anchor config must be a JSON object" in capsys.readouterr().err

    def test_custom_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({
                "orientations_deg": [-45, 0, 45],
                "aspect_ratios": [1.0],
                "scales": [64, 128],
            }),
            encoding="utf-8",
        )
        assert main([
            "anchors", "--grid", "2x2", "--stride", "8", "--config", str(cfg),
            "--out", str(tmp_path),
        ]) == 0
        assert capsys.readouterr().out.strip() == "anchors=24"
