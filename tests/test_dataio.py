import json
import math
import re

import pytest

from orientkit.dataio import (
    AnnotatedFingerphoto,
    AnnotationParseError,
    AnnotationValidationError,
    FingerAnnotation,
    FingerLabel,
    kfold,
    parse_annotations,
    serialize_annotations,
    split_dataset,
)
from orientkit.geometry import OrientedBox


def make_record(image="img_000.pgm", hand="left", source_id=None, provenance="bonafide",
                n_fingers=2, angle=0.0):
    labels = {
        "left": [FingerLabel.LEFT_INDEX, FingerLabel.LEFT_MIDDLE,
                 FingerLabel.LEFT_RING, FingerLabel.LEFT_LITTLE, FingerLabel.LEFT_THUMB],
        "right": [FingerLabel.RIGHT_INDEX, FingerLabel.RIGHT_MIDDLE,
                  FingerLabel.RIGHT_RING, FingerLabel.RIGHT_LITTLE, FingerLabel.RIGHT_THUMB],
    }[hand]
    fingers = tuple(
        FingerAnnotation(labels[i], OrientedBox(20 + 10 * i, 30, 8, 14, math.radians(12)))
        for i in range(n_fingers)
    )
    return AnnotatedFingerphoto(
        image_path=image,
        image_width=128,
        image_height=96,
        hand=hand,
        fingers=fingers,
        provenance=provenance,
        source_id=source_id if source_id is not None else image.split(".")[0],
        augment_angle=angle,
    )


class TestFingerLabel:
    def test_exactly_ten_labels(self):
        assert len(FingerLabel) == 10

    def test_serialized_names(self):
        assert FingerLabel.LEFT_INDEX.value == "Left-Index"
        assert FingerLabel.RIGHT_THUMB.value == "Right-Thumb"
        assert FingerLabel.from_name("Left-Ring") is FingerLabel.LEFT_RING

    def test_unknown_label_rejected(self):
        with pytest.raises(AnnotationValidationError):
            FingerLabel.from_name("Left-Pinky")

    @pytest.mark.parametrize("name", [5, ["Left-Index"]])
    def test_non_string_label_rejected(self, name):
        with pytest.raises(AnnotationValidationError,
                           match=re.escape(f"unknown finger label {name!r}")):
            FingerLabel.from_name(name)


class TestRecordInvariants:
    def test_duplicate_labels_rejected(self):
        fingers = (
            FingerAnnotation(FingerLabel.LEFT_INDEX, OrientedBox(10, 10, 5, 8)),
            FingerAnnotation(FingerLabel.LEFT_INDEX, OrientedBox(30, 10, 5, 8)),
        )
        with pytest.raises(AnnotationValidationError):
            AnnotatedFingerphoto("a.pgm", 64, 64, "left", fingers)

    def test_hand_label_consistency(self):
        fingers = (FingerAnnotation(FingerLabel.RIGHT_INDEX, OrientedBox(10, 10, 5, 8)),)
        with pytest.raises(AnnotationValidationError):
            AnnotatedFingerphoto("a.pgm", 64, 64, "left", fingers)

    def test_finger_count_bounds(self):
        with pytest.raises(AnnotationValidationError):
            AnnotatedFingerphoto("a.pgm", 64, 64, "left", ())

    def test_bad_hand(self):
        fingers = (FingerAnnotation(FingerLabel.LEFT_INDEX, OrientedBox(10, 10, 5, 8)),)
        with pytest.raises(AnnotationValidationError):
            AnnotatedFingerphoto("a.pgm", 64, 64, "both", fingers)


class TestParseSerialize:
    def test_empty_document(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        assert parse_annotations(path) == []

    def test_round_trip_identity(self, tmp_path):
        records = [
            make_record("a.pgm", "left", n_fingers=3),
            make_record("b.pgm", "right", provenance="augmented", angle=-30.0,
                        source_id="b_src"),
        ]
        path = tmp_path / "ann.jsonl"
        serialize_annotations(records, path)
        back = parse_annotations(path)
        assert back == records

    def test_angles_serialized_in_degrees(self, tmp_path):
        record = make_record("a.pgm")
        path = tmp_path / "ann.jsonl"
        serialize_annotations([record], path)
        obj = json.loads(path.read_text().splitlines()[0])
        assert obj["fingers"][0]["theta_deg"] == pytest.approx(12.0)
        assert -90.0 < obj["fingers"][0]["theta_deg"] <= 90.0

    def test_unknown_label_rejected_with_locus(self, tmp_path):
        record = json.loads(json.dumps(
            {
                "image": "a.pgm", "width": 64, "height": 64, "hand": "left",
                "provenance": "bonafide", "source_id": "a", "augment_angle_deg": 0.0,
                "fingers": [{"label": "Left-Pinky", "cx": 10, "cy": 10, "w": 5,
                             "h": 8, "theta_deg": 0.0}],
            }
        ))
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(AnnotationValidationError, match="Left-Pinky"):
            parse_annotations(path)

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"image": "a.pgm"\n', encoding="utf-8")
        with pytest.raises(AnnotationParseError, match="line 1"):
            parse_annotations(path)

    def test_nonpositive_dims_rejected(self, tmp_path):
        obj = {
            "image": "a.pgm", "width": 64, "height": 64, "hand": "left",
            "provenance": "bonafide", "source_id": "a", "augment_angle_deg": 0.0,
            "fingers": [{"label": "Left-Index", "cx": 10, "cy": 10, "w": -5,
                         "h": 8, "theta_deg": 0.0}],
        }
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
        with pytest.raises(AnnotationValidationError):
            parse_annotations(path)


def grouped_records(n_groups, copies_per_group=1):
    records = []
    for g in range(n_groups):
        src = f"src{g:04d}"
        records.append(make_record(f"{src}.pgm", source_id=src))
        for c in range(copies_per_group - 1):
            records.append(
                make_record(f"{src}_rot{c}.pgm", source_id=src,
                            provenance="augmented", angle=10.0 * (c + 1))
            )
    return records


class TestSplitDataset:
    def test_ten_groups(self):
        split = split_dataset(grouped_records(10), seed=1)
        assert (len(split.train), len(split.validation), len(split.test)) == (8, 1, 1)

    def test_table_one_arithmetic(self):
        split = split_dataset(grouped_records(2150), seed=7)
        assert (len(split.train), len(split.validation), len(split.test)) == (
            1720, 215, 215,
        )

    def test_determinism(self):
        records = grouped_records(50)
        assert split_dataset(records, seed=3) == split_dataset(records, seed=3)

    def test_different_seeds_differ(self):
        records = grouped_records(50)
        assert split_dataset(records, seed=3) != split_dataset(records, seed=4)

    def test_partition_property(self):
        records = grouped_records(23, copies_per_group=3)
        split = split_dataset(records, seed=5)
        parts = [set(split.train), set(split.validation), set(split.test)]
        assert parts[0] | parts[1] | parts[2] == {r.record_id for r in records}
        assert not (parts[0] & parts[1] or parts[0] & parts[2] or parts[1] & parts[2])

    def test_no_leakage_across_partitions(self):
        records = grouped_records(12, copies_per_group=4)
        split = split_dataset(records, seed=9)
        location = {}
        for name, ids in (("train", split.train), ("val", split.validation),
                          ("test", split.test)):
            for rid in ids:
                location[rid] = name
        by_source = {}
        for record in records:
            by_source.setdefault(record.source_id, set()).add(
                location[record.record_id]
            )
        assert all(len(parts) == 1 for parts in by_source.values())

    def test_bad_ratios(self):
        records = grouped_records(10)
        with pytest.raises(ValueError):
            split_dataset(records, ratios=(0.5, 0.2, 0.2), seed=0)
        with pytest.raises(ValueError):
            split_dataset(records, ratios=(0.8, -0.1, 0.3), seed=0)

    def test_too_few_groups(self):
        with pytest.raises(ValueError):
            split_dataset(grouped_records(2), seed=0)


class TestKfold:
    def test_ten_groups_ten_folds(self):
        folds = kfold(grouped_records(10), k=10, seed=2)
        assert len(folds) == 10
        assert all(len(test) == 1 for _, test in folds)

    def test_folds_partition_all_groups(self):
        records = grouped_records(17, copies_per_group=2)
        folds = kfold(records, k=5, seed=2)
        all_ids = {r.record_id for r in records}
        seen = set()
        for train, test in folds:
            assert set(train) | set(test) == all_ids
            assert not set(train) & set(test)
            assert not seen & set(test)
            seen |= set(test)
        assert seen == all_ids

    def test_remainder_distribution(self):
        folds = kfold(grouped_records(23), k=10, seed=0)
        sizes = sorted(len(test) for _, test in folds)
        assert set(sizes) == {2, 3}
        assert sum(sizes) == 23

    def test_determinism(self):
        records = grouped_records(30)
        assert kfold(records, k=4, seed=11) == kfold(records, k=4, seed=11)

    def test_k_too_small(self):
        with pytest.raises(ValueError):
            kfold(grouped_records(10), k=1, seed=0)

    def test_too_few_groups(self):
        with pytest.raises(ValueError):
            kfold(grouped_records(5), k=10, seed=0)
