"""Command-line front end for the toolkit.

Subcommands: augment, split, kfold, evaluate, roc, anchors. Every command
is deterministic for identical inputs and flags. Exit codes: 0 on
success, 2 on I/O failure, 3 on input or validation failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

from . import report as report_mod
from .anchors import AnchorConfig, generate_anchors
from .augment import DEFAULT_ANGLES, augment_dataset
from .dataio import kfold, parse_annotations, serialize_annotations, split_dataset
from .metrics import RocCurve, ScoreSet, roc, summarize_distribution, tar_at_far
from .svgplot import boxplot_svg, histogram_from_values, roc_svg, save_svg

EXIT_OK = 0
EXIT_IO = 2
EXIT_INVALID = 3


def _parse_csv_floats(text: str, flag: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"{flag}: expected comma-separated numbers, got {text!r}") from exc


def cmd_augment(args: argparse.Namespace) -> int:
    records = parse_annotations(args.annotations)
    bonafide = [r for r in records if r.provenance == "bonafide"]
    angles = _parse_csv_floats(args.angles, "--angles") if args.angles else DEFAULT_ANGLES
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    augmented = augment_dataset(bonafide, args.images, out_dir, angles=angles)
    serialize_annotations(bonafide + augmented, out_dir / "annotations.jsonl")
    print(f"bonafide={len(bonafide)} augmented={len(augmented)} "
          f"total={len(bonafide) + len(augmented)}")
    return EXIT_OK


def cmd_split(args: argparse.Namespace) -> int:
    records = parse_annotations(args.annotations)
    ratios = _parse_csv_floats(args.ratios, "--ratios")
    if len(ratios) != 3:
        raise ValueError(f"--ratios needs exactly three values, got {len(ratios)}")
    split = split_dataset(records, ratios=ratios, seed=args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, ids in (
        ("train", split.train),
        ("validation", split.validation),
        ("test", split.test),
    ):
        (out_dir / f"{name}.txt").write_text(
            "".join(f"{rid}\n" for rid in ids), encoding="utf-8"
        )
    print(f"train={len(split.train)} validation={len(split.validation)} "
          f"test={len(split.test)}")
    return EXIT_OK


def cmd_kfold(args: argparse.Namespace) -> int:
    records = parse_annotations(args.annotations)
    folds = kfold(records, k=args.k, seed=args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, (train_ids, test_ids) in enumerate(folds):
        for part, ids in (("train", train_ids), ("test", test_ids)):
            (out_dir / f"fold_{i:02d}.{part}.txt").write_text(
                "".join(f"{rid}\n" for rid in ids), encoding="utf-8"
            )
    print(f"folds={len(folds)}")
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    gt_records = parse_annotations(args.gt)
    pred_records = parse_annotations(args.pred)
    report = report_mod.evaluate_annotations(
        gt_records, pred_records, tolerance=args.tolerance
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_mod.write_summary(report, out_dir / "summary.txt")
    report_mod.write_detail_csv(report, out_dir / "detail.csv")
    if args.plots:
        _write_evaluation_plots(report, out_dir)
    m = report.mae_report
    if m is not None:
        print("mae_left={left} mae_right={right} mae_top={top} mae_bottom={bottom}".format(
            **{k: f"{v:.4f}" for k, v in m.mae.items()}))
    print(f"eap_mean_deg={_optfmt(report.eap_mean)} "
          f"label_accuracy={report.label_accuracy:.6f} "
          f"nist_pass_rate={_optfmt(report.nist_pass_rate)}")
    return EXIT_OK


def _optfmt(value: float | None) -> str:
    return "nan" if value is None else f"{value:.4f}"


def _write_evaluation_plots(report: report_mod.EvaluationReport, out_dir: Path) -> None:
    matched = [r for r in report.rows if r.matched]
    if not matched:
        return
    for side in ("left", "right", "top", "bottom"):
        values = [getattr(r.errors, side) for r in matched]
        save_svg(
            histogram_from_values(
                values, bins=20, title=f"{side} side error", x_label="signed error (px)"
            ),
            out_dir / f"mae_{side}.svg",
        )
    angle_errors = [r.angle_error_deg for r in matched]
    save_svg(
        histogram_from_values(
            angle_errors, bins=20, title="angle prediction error",
            x_label="absolute error (deg)",
        ),
        out_dir / "eap_hist.svg",
    )
    save_svg(
        boxplot_svg(
            summarize_distribution(angle_errors, bins=20),
            title="angle prediction error", y_label="absolute error (deg)",
        ),
        out_dir / "eap_box.svg",
    )


def read_scores_csv(path: str | Path) -> ScoreSet:
    """Read `probe_id,gallery_id,score,mated` rows; only the scores are kept."""
    genuine, impostor = [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        required = {"probe_id", "gallery_id", "score", "mated"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ValueError(
                f"{path}: scores file needs columns {sorted(required)}"
            )
        for lineno, row in enumerate(reader, start=2):
            try:
                score = float(row["score"])
                mated = row["mated"].strip()
            except (TypeError, AttributeError, ValueError) as exc:
                raise ValueError(f"{path}: line {lineno}: malformed row") from exc
            if not math.isfinite(score):
                raise ValueError(f"{path}: line {lineno}: non-finite score")
            if mated == "1":
                genuine.append(score)
            elif mated == "0":
                impostor.append(score)
            else:
                raise ValueError(
                    f"{path}: line {lineno}: mated must be 0 or 1, got {mated!r}"
                )
    return ScoreSet(genuine=genuine, impostor=impostor)


def write_roc_csv(curve: RocCurve, path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["threshold", "tar", "far"])
        for threshold, tar, far in curve.points():
            writer.writerow([repr(threshold), repr(tar), repr(far)])


def cmd_roc(args: argparse.Namespace) -> int:
    scores = read_scores_csv(args.scores)
    curve = roc(scores)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_roc_csv(curve, out_dir / "roc.csv")
    if args.plots:
        save_svg(roc_svg(curve), out_dir / "roc.svg")
    value = tar_at_far(curve, args.target_far)
    print(f"TAR@FAR{args.target_far:g} = {value:.4f}")
    return EXIT_OK


def _anchor_config(path: str | None, stride: float) -> AnchorConfig:
    kwargs: dict = {"stride": stride}
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError(f"{path}: anchor config must be a JSON object")
        for key in ("orientations_deg", "aspect_ratios", "scales",
                    "positive_iou", "negative_iou"):
            if key not in raw:
                continue
            value, many = raw[key], not key.endswith("_iou")
            items = value if many and isinstance(value, list) else [value]
            # Exact types, because JSON true/false load as bool, an int subclass.
            numeric = all(type(v) in (int, float) for v in items)
            if many != isinstance(value, list) or not numeric:
                kind = "a list of numbers" if many else "a number"
                raise ValueError(f"{path}: {key}: expected {kind}, got {value!r}")
            kwargs[key] = tuple(float(v) for v in items) if many else float(value)
        if "orientations_deg" in kwargs:
            kwargs["orientations"] = tuple(map(math.radians, kwargs.pop("orientations_deg")))
    return AnchorConfig(**kwargs)


def cmd_anchors(args: argparse.Namespace) -> int:
    try:
        rows_text, cols_text = args.grid.lower().split("x")
        grid_rows, grid_cols = int(rows_text), int(cols_text)
    except ValueError as exc:
        raise ValueError(f"--grid must look like RxC, got {args.grid!r}") from exc
    config = _anchor_config(args.config, args.stride)
    anchors = generate_anchors(grid_rows, grid_cols, config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "anchors.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["cx", "cy", "w", "h", "theta_deg"])
        for anchor in anchors:
            box = anchor.box
            writer.writerow(
                [repr(box.cx), repr(box.cy), repr(box.w), repr(box.h),
                 repr(math.degrees(box.theta))]
            )
    print(f"anchors={len(anchors)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orientkit",
        description="Oriented-box dataset tooling and segmentation evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("augment", help="rotate fingerphotos and their annotations")
    p.add_argument("--annotations", required=True)
    p.add_argument("--images", required=True, help="directory of source rasters")
    p.add_argument("--out", required=True)
    p.add_argument("--angles", default=None, help="comma-separated degrees")
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("split", help="seeded train/validation/test split")
    p.add_argument("--annotations", required=True)
    p.add_argument("--ratios", default="0.8,0.1,0.1")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("kfold", help="seeded cross-validation folds")
    p.add_argument("--annotations", required=True)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_kfold)

    p = sub.add_parser("evaluate", help="score predictions against ground truth")
    p.add_argument("--gt", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--tolerance", type=float, default=64.0)
    p.add_argument("--plots", action="store_true")
    p.add_argument("--jobs", type=int, default=None,
                   help="ignored; kept so older invocations still parse")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("roc", help="ROC curve and TAR at a target FAR")
    p.add_argument("--scores", required=True)
    p.add_argument("--target-far", type=float, default=0.001)
    p.add_argument("--out", required=True)
    p.add_argument("--plots", action="store_true")
    p.set_defaults(func=cmd_roc)

    p = sub.add_parser("anchors", help="dump an oriented anchor grid")
    p.add_argument("--grid", required=True, help="RxC feature-grid size")
    p.add_argument("--stride", type=float, default=16.0)
    p.add_argument("--config", default=None, help="JSON anchor config")
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_anchors)
    return parser


def _reattach_negative_values(argv: list[str]) -> list[str]:
    # argparse mistakes a leading-dash value like "-30,30" for a flag;
    # fold it into --angles= form so negative angle lists parse.
    out: list[str] = []
    i = 0
    while i < len(argv):
        if argv[i] == "--angles" and i + 1 < len(argv):
            out.append(f"--angles={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_reattach_negative_values(list(argv)))
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
