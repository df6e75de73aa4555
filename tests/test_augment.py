import math
from dataclasses import replace

import numpy as np
import pytest

from orientkit.augment import (
    DEFAULT_ANGLES,
    RasterImage,
    augment_dataset,
    read_raster,
    rotate_annotation,
    rotate_image,
    transform_point,
    write_raster,
)
from orientkit.dataio import (
    AnnotatedFingerphoto,
    FingerAnnotation,
    FingerLabel,
    parse_annotations,
    serialize_annotations,
)
from orientkit.geometry import OrientedBox


def gradient_image(w=12, h=8):
    return RasterImage((np.arange(w * h, dtype=np.int64) % 251).astype(np.uint8).reshape(h, w))


def make_record(image="a.pgm", w=12, h=8):
    fingers = (
        FingerAnnotation(FingerLabel.LEFT_INDEX, OrientedBox(4.0, 3.0, 3.0, 4.0, 0.1)),
        FingerAnnotation(FingerLabel.LEFT_MIDDLE, OrientedBox(8.0, 5.0, 2.5, 3.5, -0.4)),
    )
    return AnnotatedFingerphoto(image, w, h, "left", fingers, "bonafide", "a")


class TestRasterImage:
    def test_rejects_wrong_dtype(self):
        with pytest.raises(ValueError):
            RasterImage(np.zeros((4, 4), dtype=np.float32))

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            RasterImage(np.zeros((4, 4, 2), dtype=np.uint8))

    def test_channel_detection(self):
        assert RasterImage(np.zeros((2, 3), np.uint8)).channels == "grayscale"
        assert RasterImage(np.zeros((2, 3, 3), np.uint8)).channels == "rgb"


class TestRotateImage:
    def test_zero_angle_is_identity(self):
        img = gradient_image()
        out = rotate_image(img, 0.0)
        assert out.pixels.shape == img.pixels.shape
        assert np.array_equal(out.pixels, img.pixels)

    def test_quarter_turn_pixel_map(self):
        img = gradient_image(w=4, h=3)
        out = rotate_image(img, 90.0)
        assert (out.width, out.height) == (3, 4)
        for y in range(3):
            for x in range(4):
                assert out.pixels[4 - 1 - x, y] == img.pixels[y, x]

    def test_canvas_expansion_formula(self):
        img = RasterImage(np.zeros((60, 100), np.uint8))
        out = rotate_image(img, 30.0)
        assert (out.width, out.height) == (
            math.ceil(100 * math.cos(math.radians(30)) + 60 * math.sin(math.radians(30))),
            math.ceil(100 * math.sin(math.radians(30)) + 60 * math.cos(math.radians(30))),
        )
        assert (out.width, out.height) == (117, 102)

    def test_quarter_turn_round_trip_exact(self):
        img = gradient_image()
        back = rotate_image(rotate_image(img, 90.0), -90.0)
        assert np.array_equal(back.pixels, img.pixels)

    def test_half_turn_round_trip_exact(self):
        img = gradient_image()
        back = rotate_image(rotate_image(img, 180.0), 180.0)
        assert np.array_equal(back.pixels, img.pixels)

    def test_fill_appears_in_expanded_corners(self):
        img = RasterImage(np.full((10, 10), 200, np.uint8))
        out = rotate_image(img, 45.0, fill=7)
        assert out.pixels[0, 0] == 7
        assert out.pixels[-1, -1] == 7
        center = out.pixels[out.height // 2, out.width // 2]
        assert center == 200

    def test_rgb_channels_rotate_together(self):
        rgb = np.stack([np.full((6, 9), v, np.uint8) for v in (10, 20, 30)], axis=2)
        out = rotate_image(RasterImage(rgb), 30.0, fill=0)
        interior = out.pixels[out.height // 2, out.width // 2]
        assert list(interior) == [10, 20, 30]

    def test_angle_bounds(self):
        with pytest.raises(ValueError):
            rotate_image(gradient_image(), 181.0)
        with pytest.raises(ValueError):
            rotate_image(gradient_image(), 90.0, fill=300)


class TestRotateAnnotation:
    def test_zero_angle_updates_provenance_only(self):
        record = make_record()
        out = rotate_annotation(record, 0.0)
        assert out.provenance == "augmented"
        assert out.augment_angle == 0.0
        assert out.source_id == record.source_id
        assert [f.box for f in out.fingers] == [f.box for f in record.fingers]
        assert (out.image_width, out.image_height) == (12, 8)

    def test_quarter_turn_centered_box(self):
        fingers = (
            FingerAnnotation(FingerLabel.LEFT_INDEX, OrientedBox(5.5, 3.5, 6.0, 2.0, 0.0)),
        )
        record = AnnotatedFingerphoto("a.pgm", 12, 8, "left", fingers, "bonafide", "a")
        out = rotate_annotation(record, 90.0)
        box = out.fingers[0].box
        # New canvas is 8x12; the centered box stays centered.
        assert (out.image_width, out.image_height) == (8, 12)
        assert (box.cx, box.cy) == (3.5, 5.5)
        assert box.theta == pytest.approx(math.pi / 2)
        # Point set equals the w/h-swapped upright box.
        swapped = OrientedBox(3.5, 5.5, 2.0, 6.0, 0.0)
        assert np.allclose(
            sorted(map(tuple, box.corners())), sorted(map(tuple, swapped.corners()))
        )

    @pytest.mark.parametrize("alpha", [-90.0, -45.0, -10.0, 30.0, 65.0, 90.0])
    def test_centers_follow_explicit_rotation_matrix(self, alpha):
        record = make_record()
        out = rotate_annotation(record, alpha)
        a = math.radians(alpha)
        c, s = math.cos(a), math.sin(a)
        for before, after in zip(record.fingers, out.fingers):
            # Hand-applied rotation about the pixel-grid center plus offset.
            cx0 = (record.image_width - 1) / 2
            cy0 = (record.image_height - 1) / 2
            cx1 = (out.image_width - 1) / 2
            cy1 = (out.image_height - 1) / 2
            ex = c * (before.box.cx - cx0) + s * (before.box.cy - cy0) + cx1
            ey = -s * (before.box.cx - cx0) + c * (before.box.cy - cy0) + cy1
            assert after.box.cx == pytest.approx(ex, abs=1e-9)
            assert after.box.cy == pytest.approx(ey, abs=1e-9)

    @pytest.mark.parametrize("alpha", [-70.0, -30.0, 20.0, 90.0])
    def test_corner_consistency_with_image_transform(self, alpha):
        record = make_record()
        out = rotate_annotation(record, alpha)
        for before, after in zip(record.fingers, out.fingers):
            mapped = np.array(
                [
                    transform_point(x, y, record.image_width, record.image_height, alpha)
                    for x, y in before.box.corners()
                ]
            )
            got = after.box.corners()
            assert np.allclose(
                sorted(map(tuple, mapped)), sorted(map(tuple, got)), atol=1e-6
            )

    @pytest.mark.parametrize("alpha", [-88.0, -45.0, 33.0, 90.0])
    def test_area_preserved_exactly(self, alpha):
        record = make_record()
        out = rotate_annotation(record, alpha)
        for before, after in zip(record.fingers, out.fingers):
            assert after.box.w * after.box.h == before.box.w * before.box.h


class TestRasterIo:
    def test_pgm_round_trip(self, tmp_path):
        img = gradient_image()
        path = tmp_path / "x.pgm"
        write_raster(img, path)
        back = read_raster(path)
        assert np.array_equal(back.pixels, img.pixels)
        assert back.channels == "grayscale"

    def test_ppm_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = RasterImage(rng.integers(0, 256, (5, 7, 3), dtype=np.uint8))
        path = tmp_path / "x.ppm"
        write_raster(img, path)
        back = read_raster(path)
        assert np.array_equal(back.pixels, img.pixels)
        assert back.channels == "rgb"

    def test_rejects_unknown_magic(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P3\n1 1\n255\n0")
        with pytest.raises(ValueError):
            read_raster(path)

    def test_rejects_truncated_data(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P5\n4 4\n255\nab")
        with pytest.raises(ValueError):
            read_raster(path)


class TestAugmentDataset:
    def _write_sources(self, tmp_path, n):
        records = []
        for i in range(n):
            name = f"src{i:03d}.pgm"
            write_raster(gradient_image(), tmp_path / name)
            record = make_record(name)
            records.append(
                AnnotatedFingerphoto(
                    name, record.image_width, record.image_height, record.hand,
                    record.fingers, "bonafide", f"src{i:03d}",
                )
            )
        return records

    def test_two_angles_two_outputs(self, tmp_path):
        records = self._write_sources(tmp_path, 1)
        out_dir = tmp_path / "out"
        augmented = augment_dataset(records, tmp_path, out_dir, angles=(-45.0, 45.0))
        assert len(augmented) == 2
        assert sorted(a.image_path for a in augmented) == [
            "src000_rot-45.pgm",
            "src000_rot45.pgm",
        ]
        for a in augmented:
            assert (out_dir / a.image_path).exists()
            assert a.provenance == "augmented"
            assert a.source_id == "src000"

    def test_dataset_arithmetic(self, tmp_path):
        records = self._write_sources(tmp_path, 3)
        augmented = augment_dataset(records, tmp_path, tmp_path / "out")
        assert len(augmented) == 3 * len(DEFAULT_ANGLES)

    def test_written_images_match_annotation_dims(self, tmp_path):
        records = self._write_sources(tmp_path, 1)
        out_dir = tmp_path / "out"
        augmented = augment_dataset(records, tmp_path, out_dir, angles=(30.0,))
        img = read_raster(out_dir / augmented[0].image_path)
        assert (img.width, img.height) == (
            augmented[0].image_width, augmented[0].image_height,
        )

    def test_missing_source_image_names_record(self, tmp_path):
        record = make_record("missing.pgm")
        with pytest.raises(FileNotFoundError, match="missing.pgm"):
            augment_dataset([record], tmp_path, tmp_path / "out", angles=(10.0,))

    def test_rejects_out_of_range_angles(self, tmp_path):
        records = self._write_sources(tmp_path, 1)
        with pytest.raises(ValueError):
            augment_dataset(records, tmp_path, tmp_path / "out", angles=(120.0,))
        with pytest.raises(ValueError):
            augment_dataset(records, tmp_path, tmp_path / "out", angles=())

    def test_round_trips_through_annotation_file(self, tmp_path):
        records = self._write_sources(tmp_path, 2)
        out_dir = tmp_path / "out"
        augmented = augment_dataset(records, tmp_path, out_dir, angles=(-30.0, 30.0))
        path = out_dir / "annotations.jsonl"
        serialize_annotations(records + augmented, path)
        assert parse_annotations(path) == records + augmented

    def test_repeated_angle_is_rejected_before_writing(self, tmp_path):
        records = self._write_sources(tmp_path, 1)
        out_dir = tmp_path / "out"
        with pytest.raises(ValueError, match="src000_rot10.pgm"):
            augment_dataset(records, tmp_path, out_dir, angles=(10.0, -10.0, 10.0))
        assert not out_dir.exists()

    def test_angles_with_one_tag_are_rejected(self, tmp_path):
        records = self._write_sources(tmp_path, 1)
        out_dir = tmp_path / "out"
        with pytest.raises(ValueError, match="src000_rot10.pgm"):
            augment_dataset(records, tmp_path, out_dir, angles=(10.0, 10.0000001))
        assert not out_dir.exists()

    def test_shared_source_id_is_rejected(self, tmp_path):
        first, second = self._write_sources(tmp_path, 2)
        twin = replace(second, source_id=first.source_id)
        out_dir = tmp_path / "out"
        with pytest.raises(ValueError, match="src000_rot-20.pgm"):
            augment_dataset([first, twin], tmp_path, out_dir, angles=(-20.0, 20.0))
        assert not out_dir.exists()
