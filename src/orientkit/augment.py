"""Rotation augmentation of fingerphotos and their box annotations.

An image rotates counter-clockwise (screen sense) about its center onto a
canvas expanded to the bounding rectangle of the rotated content, so
nothing is cropped. Annotations ride along through the identical
transform: box centers move with the image, box angles grow by the
rotation angle, extents never change. Quarter turns are exact index
remaps; every other angle resamples bilinearly.

Raster I/O is binary PGM (grayscale) / PPM (rgb), 8 bits per channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .dataio import AnnotatedFingerphoto, FingerAnnotation
from .geometry import OrientedBox

DEFAULT_ANGLES = (-90.0, -70.0, -50.0, -30.0, -10.0, 10.0, 30.0, 50.0, 70.0, 90.0)


@dataclass(frozen=True)
class RasterImage:
    """8-bit raster, (height, width) for grayscale or (height, width, 3) for rgb."""

    pixels: np.ndarray

    def __post_init__(self):
        px = np.asarray(self.pixels)
        if px.dtype != np.uint8:
            raise ValueError(f"pixel data must be uint8, got {px.dtype}")
        if px.ndim == 2:
            pass
        elif px.ndim == 3 and px.shape[2] == 3:
            pass
        else:
            raise ValueError(f"unsupported pixel shape {px.shape}")
        object.__setattr__(self, "pixels", px)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def channels(self) -> str:
        return "grayscale" if self.pixels.ndim == 2 else "rgb"


def _rotation_transform(
    width: int, height: int, alpha_deg: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
    """Forward map p' = R (p - c_src) + c_dst and the expanded canvas size.

    Rotation is about the pixel-grid center ((W-1)/2, (H-1)/2); the canvas
    grows to ceil(W|cos| + H|sin|) x ceil(W|sin| + H|cos|), with exact
    integer sizes for quarter turns.
    """
    a = math.radians(alpha_deg)
    if alpha_deg % 90.0 == 0.0:
        quarter = int(alpha_deg // 90) % 4
        cos_a, sin_a = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)][quarter]
        if quarter % 2 == 0:
            new_w, new_h = width, height
        else:
            new_w, new_h = height, width
    else:
        cos_a, sin_a = math.cos(a), math.sin(a)
        # ceil with a tiny backoff so exact integers are not bumped up by
        # floating-point residue in cos/sin.
        new_w = math.ceil(width * abs(cos_a) + height * abs(sin_a) - 1e-9)
        new_h = math.ceil(width * abs(sin_a) + height * abs(cos_a) - 1e-9)
    rot = np.array([[cos_a, sin_a], [-sin_a, cos_a]])
    c_src = np.array([(width - 1) / 2.0, (height - 1) / 2.0])
    c_dst = np.array([(new_w - 1) / 2.0, (new_h - 1) / 2.0])
    return rot, c_src, c_dst, new_w, new_h


def rotate_image(img: RasterImage, alpha: float, fill: int = 128) -> RasterImage:
    """Rotate counter-clockwise by `alpha` degrees onto an expanded canvas.

    Quarter turns are exact pixel remaps; other angles interpolate
    bilinearly, with pixels that fall outside the source taking `fill`.
    """
    if not -180.0 <= alpha <= 180.0:
        raise ValueError(f"alpha must be within [-180, 180], got {alpha}")
    if not 0 <= fill <= 255:
        raise ValueError(f"fill must be an 8-bit value, got {fill}")
    if alpha % 90.0 == 0.0:
        quarter = int(alpha // 90) % 4
        return RasterImage(np.ascontiguousarray(np.rot90(img.pixels, k=quarter)))

    rot, c_src, c_dst, new_w, new_h = _rotation_transform(img.width, img.height, alpha)
    xs, ys = np.meshgrid(np.arange(new_w), np.arange(new_h))
    # Inverse map destination pixel centers back into the source grid.
    dx = xs - c_dst[0]
    dy = ys - c_dst[1]
    src_x = rot[0, 0] * dx + rot[1, 0] * dy + c_src[0]
    src_y = rot[0, 1] * dx + rot[1, 1] * dy + c_src[1]

    x0 = np.floor(src_x).astype(int)
    y0 = np.floor(src_y).astype(int)
    fx = src_x - x0
    fy = src_y - y0
    valid = (src_x >= -0.5) & (src_x <= img.width - 0.5) & \
            (src_y >= -0.5) & (src_y <= img.height - 0.5)

    x0c = np.clip(x0, 0, img.width - 1)
    x1c = np.clip(x0 + 1, 0, img.width - 1)
    y0c = np.clip(y0, 0, img.height - 1)
    y1c = np.clip(y0 + 1, 0, img.height - 1)

    src = img.pixels.astype(np.float64)
    if src.ndim == 3:
        fx = fx[..., None]
        fy = fy[..., None]
    top = src[y0c, x0c] * (1 - fx) + src[y0c, x1c] * fx
    bot = src[y1c, x0c] * (1 - fx) + src[y1c, x1c] * fx
    out = np.clip(np.rint(top * (1 - fy) + bot * fy), 0, 255).astype(np.uint8)
    mask = valid if src.ndim == 2 else np.broadcast_to(valid[..., None], out.shape)
    out = np.where(mask, out, np.uint8(fill))
    return RasterImage(np.ascontiguousarray(out))


def transform_point(
    x: float, y: float, width: int, height: int, alpha: float
) -> tuple[float, float]:
    """Map a source-image point through the rotate_image transform."""
    rot, c_src, c_dst, _, _ = _rotation_transform(width, height, alpha)
    p = rot @ (np.array([x, y]) - c_src) + c_dst
    return float(p[0]), float(p[1])


def rotate_annotation(
    record: AnnotatedFingerphoto, alpha: float, image_path: str | None = None
) -> AnnotatedFingerphoto:
    """Annotation counterpart of rotate_image on the same record.

    Box centers go through the identical center-rotation plus canvas
    offset, angles grow by alpha (then renormalize), and extents are kept
    bit-exactly. Provenance flips to augmented; the source link survives.
    """
    if not -180.0 <= alpha <= 180.0:
        raise ValueError(f"alpha must be within [-180, 180], got {alpha}")
    rot, c_src, c_dst, new_w, new_h = _rotation_transform(
        record.image_width, record.image_height, alpha
    )
    fingers = []
    for finger in record.fingers:
        box = finger.box
        center = rot @ (np.array([box.cx, box.cy]) - c_src) + c_dst
        fingers.append(
            FingerAnnotation(
                label=finger.label,
                box=OrientedBox(
                    cx=float(center[0]),
                    cy=float(center[1]),
                    w=box.w,
                    h=box.h,
                    theta=box.theta + math.radians(alpha),
                ),
            )
        )
    return replace(
        record,
        image_path=image_path if image_path is not None else record.image_path,
        image_width=new_w,
        image_height=new_h,
        fingers=tuple(fingers),
        provenance="augmented",
        augment_angle=alpha,
    )


def read_raster(path: str | Path) -> RasterImage:
    """Read a binary PGM (P5) or PPM (P6) file."""
    data = Path(path).read_bytes()
    magic = data[:2]
    if magic not in (b"P5", b"P6"):
        raise ValueError(f"{path}: unsupported raster magic {magic!r}")
    fields: list[int] = []
    pos = 2
    while len(fields) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        fields.append(int(data[start:pos]))
    pos += 1  # single whitespace after maxval
    width, height, maxval = fields
    if maxval != 255:
        raise ValueError(f"{path}: only 8-bit rasters supported, maxval {maxval}")
    channels = 1 if magic == b"P5" else 3
    expected = width * height * channels
    raw = np.frombuffer(data[pos : pos + expected], dtype=np.uint8)
    if raw.size != expected:
        raise ValueError(f"{path}: truncated pixel data")
    shape = (height, width) if channels == 1 else (height, width, 3)
    return RasterImage(raw.reshape(shape).copy())


def write_raster(img: RasterImage, path: str | Path) -> None:
    """Write a binary PGM (grayscale) or PPM (rgb) file."""
    magic = b"P5" if img.channels == "grayscale" else b"P6"
    header = b"%s\n%d %d\n255\n" % (magic, img.width, img.height)
    Path(path).write_bytes(header + img.pixels.tobytes())


def _angle_tag(angle: float) -> str:
    return f"{angle:g}"


def augment_dataset(
    records: list[AnnotatedFingerphoto],
    images_dir: str | Path,
    out_dir: str | Path,
    angles: tuple[float, ...] = DEFAULT_ANGLES,
    fill: int = 128,
) -> list[AnnotatedFingerphoto]:
    """Rotate every record through every angle, writing images as it goes.

    Returns the augmented records (|records| * |angles| of them). Output
    rasters are named `<source_id>_rot<angle>` with the source's
    extension, so parallel runs over disjoint records never collide.
    Two equal output names are rejected before any raster is written.
    """
    if not angles:
        raise ValueError("angles must be non-empty")
    for angle in angles:
        if not -90.0 <= angle <= 90.0:
            raise ValueError(f"augmentation angle {angle} outside [-90, 90]")
    images_dir = Path(images_dir)
    out_dir = Path(out_dir)
    plan = []  # (record, its output names)
    seen: set[str] = set()
    for record in records:
        suffix = Path(record.image_path).suffix or (
            ".pgm" if _read_source(images_dir, record).channels == "grayscale" else ".ppm"
        )
        names = [f"{record.source_id}_rot{_angle_tag(angle)}{suffix}" for angle in angles]
        for name in names:
            if name in seen:
                raise ValueError(f"two augmented rasters would both be named {name!r}")
            seen.add(name)
        plan.append((record, names))
    out_dir.mkdir(parents=True, exist_ok=True)
    augmented = []
    for record, names in plan:
        img = _read_source(images_dir, record)
        for angle, name in zip(angles, names):
            write_raster(rotate_image(img, angle, fill), out_dir / name)
            augmented.append(rotate_annotation(record, angle, image_path=name))
    return augmented


def _read_source(images_dir: Path, record: AnnotatedFingerphoto) -> RasterImage:
    src_path = images_dir / record.image_path
    try:
        return read_raster(src_path)
    except FileNotFoundError as exc:
        raise FileNotFoundError(
            f"record {record.record_id!r}: source image {src_path} not found"
        ) from exc
