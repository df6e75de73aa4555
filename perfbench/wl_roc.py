"""roc: `orientkit roc --plots` on a seeded match-score CSV.

Generator: N_ROWS comparisons, one genuine per ten impostors, with
distinct float scores (genuine and impostor normal distributions that
overlap), written in shuffled order with exact float text.
"""

from __future__ import annotations

import csv

import numpy as np

from common import Checks, nonempty, run_cli

ITEM = "score row"
N_ROWS = 22_000
TARGET_FAR = 0.001
SAMPLED_THRESHOLDS = 64


class Workload:
    def __init__(self, ok, seed: int, workdir):
        rng = np.random.default_rng(seed)
        self.ok = ok
        self.items = N_ROWS
        n_gen = N_ROWS // 11
        while True:
            scores = np.concatenate([rng.normal(0.65, 0.12, n_gen),
                                     rng.normal(0.35, 0.12, N_ROWS - n_gen)])
            if np.unique(scores).size == N_ROWS:
                break
        mated = np.arange(N_ROWS) < n_gen
        self.genuine = np.sort(scores[mated])
        self.impostor = np.sort(scores[~mated])
        self.sample_seed = int(rng.integers(2**32))
        workdir.mkdir(parents=True, exist_ok=True)
        self.path = workdir / "scores.csv"
        lines = ["probe_id,gallery_id,score,mated\n"]
        for i in rng.permutation(N_ROWS).tolist():
            lines.append(f"p{i // 50:05d},g{i % 50 + 1000 * int(mated[i]):05d},"
                         f"{float(scores[i])!r},{int(mated[i])}\n")
        self.path.write_text("".join(lines), encoding="utf-8")

    def _rates(self, t: float) -> tuple[float, float]:
        """Direct TAR and FAR at threshold t: counts with score >= t, divided by n."""
        gen = self.genuine.size - np.searchsorted(self.genuine, t, side="left")
        imp = self.impostor.size - np.searchsorted(self.impostor, t, side="left")
        return int(gen) / self.genuine.size, int(imp) / self.impostor.size

    def call(self, out_dir, jobs, tracer=None):
        rc, stdout = run_cli(self.ok.cli, ["roc", "--scores", str(self.path), "--target-far",
                                           str(TARGET_FAR), "--out", str(out_dir), "--plots"])
        return rc, stdout, out_dir

    def check(self, out, checks: Checks) -> None:
        rc, stdout, out_dir = out
        checks.expect(rc == 0, f"roc: exit code {rc}")
        if rc != 0:
            return
        with open(out_dir / "roc.csv", newline="", encoding="utf-8") as fh:
            rows = [(float(r["threshold"]), float(r["tar"]), float(r["far"]))
                    for r in csv.DictReader(fh)]
        checks.expect(len(rows) == N_ROWS, f"roc: {len(rows)} operating points")
        checks.expect(all(a[0] > b[0] for a, b in zip(rows, rows[1:])),
                      "roc: thresholds not strictly decreasing")
        rng = np.random.default_rng(self.sample_seed)
        for i in rng.choice(len(rows), size=min(SAMPLED_THRESHOLDS, len(rows)), replace=False):
            t, tar, far = rows[i]
            checks.expect((tar, far) == self._rates(t), f"roc: rates at threshold {t!r}")
        best = max((tar for t, tar, far in rows if far <= TARGET_FAR), default=0.0)
        checks.expect(stdout == f"TAR@FAR{TARGET_FAR:g} = {best:.4f}\n",
                      f"roc: printed {stdout!r}, expected TAR {best:.4f}")
        checks.expect(nonempty(out_dir / "roc.svg"), "roc: missing plot")

    def trace_targets(self, inner: bool):
        cli = self.ok.cli

        def thresholds(tracer, curve):
            tracer.counts["metrics.roc.thresholds"] += len(curve.thresholds)

        return [
            (cli, "read_scores_csv", "cli.read_scores_csv", None),
            (cli, "roc", "metrics.roc", thresholds),
            (cli, "write_roc_csv", "cli.write_roc_csv", None),
            (cli, "tar_at_far", "metrics.tar_at_far", None),
            (cli, "roc_svg", "svgplot", None),
            (cli, "save_svg", "svgplot", None),
        ]

    def layer_metrics(self, inner, outer, reps: int, last) -> dict:
        metrics = {
            f"{name}.s": (inner.self_s(name) / reps, "s")
            for name in ("cli.read_scores_csv", "metrics.roc", "cli.write_roc_csv",
                         "metrics.tar_at_far", "svgplot")
        }
        metrics["metrics.roc.thresholds"] = (inner.counts["metrics.roc.thresholds"] / reps, "count")
        return metrics
