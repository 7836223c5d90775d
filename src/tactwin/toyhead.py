"""A linear per-cell head trained with the full detection loss.

This stands in for a learned decoder so the loss, assignment, and gradients
can be exercised end to end as an optimization objective. Features are
deterministic image statistics pooled per grid cell (local window, 3x3
context, and global deviation summaries); one affine map per output channel
is trained by full-batch gradient descent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .assignment import (Positives, PositiveTerms, PredictionField, bce, bce_grad,
                         positive_targets, simota_assign)
from .dataset import check_array, check_names, read_json, write_json
from .encoding import CSL_BINS, DEFAULT_SIGMA, DEFAULT_WINDOW_RADIUS, RegionGrid
from .errors import ConfigError

HEAD_VERSION = 1
# Deviation at which a pixel counts as touched; four times it is the high band.
FEATURE_THRESHOLD = 0.01


def cell_features(image: np.ndarray, reference: np.ndarray,
                  grid: RegionGrid) -> np.ndarray:
    """Per-cell feature matrix (n_cells, 20), deterministic in the image.

    Local statistics are taken over each cell's own stride window, context
    over the 3x3 cell neighborhood, and the global columns summarize the
    whole deviation map (identical across cells of one image). The global
    products and powers give a linear head enough reach to express
    indentation laws such as force ~ area * sqrt(contrast).
    """
    if image.shape != reference.shape:
        raise ConfigError("image and reference shapes differ")
    dev = np.abs(image - reference)
    gy, gx = np.gradient(image)
    grad = np.hypot(gx, gy)
    above = dev >= FEATURE_THRESHOLD

    g_area = float(above.mean())
    g_area_hi = float((dev >= 4 * FEATURE_THRESHOLD).mean())
    g_mean = float(dev.mean())
    g_p98, g_p999 = (float(v) for v in np.percentile(dev, [98, 99.9]))
    global_cols = np.array([
        g_area, g_area_hi, g_mean, g_p98, g_p999,
        g_area * np.sqrt(g_p98),
        g_area * g_p98,
        g_area_hi * g_p98,
        g_area * g_mean,
        np.sqrt(g_area * g_p98),
        g_area ** 1.5,
        g_area_hi * np.sqrt(g_p999),
    ])

    size = image.shape[0]
    rows = []
    for stride in grid.strides:
        m = size // stride
        win = dev.reshape(m, stride, m, stride)
        mean_map = win.mean(axis=(1, 3))
        std_map = win.std(axis=(1, 3))
        max_map = win.max(axis=(1, 3))
        grad_map = grad.reshape(m, stride, m, stride).mean(axis=(1, 3))
        frac_map = above.reshape(m, stride, m, stride).mean(axis=(1, 3))
        ctx_mean = ndimage.uniform_filter(mean_map, size=3, mode="nearest")
        ctx_max = ndimage.maximum_filter(max_map, size=3, mode="nearest")
        ctx_frac = ndimage.uniform_filter(frac_map, size=3, mode="nearest")
        local = np.stack([
            mean_map, std_map, max_map, grad_map, frac_map,
            ctx_mean, ctx_max, ctx_frac,
        ], axis=-1).reshape(m * m, 8)
        rows.append(np.concatenate(
            [local, np.tile(global_cols, (m * m, 1))], axis=1))
    return np.concatenate(rows, axis=0)


FEATURE_DIM = 20


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


@dataclass
class ToyHead:
    """Affine map per output channel over whitened features.

    feature_transform decorrelates the raw features (PCA whitening computed
    from the training set), which keeps plain gradient descent well
    conditioned across all output channels.
    """

    classes: list
    feature_mean: np.ndarray
    feature_transform: np.ndarray   # (F, F)
    weights: np.ndarray             # (F, D_total)
    bias: np.ndarray                # (D_total,)

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    def _slices(self):
        k = self.n_classes
        return {
            "obj": slice(0, 1),
            "cls": slice(1, 1 + k),
            "csl": slice(1 + k, 1 + k + CSL_BINS),
            "force": slice(1 + k + CSL_BINS, 2 + k + CSL_BINS),
            "box": slice(2 + k + CSL_BINS, 7 + k + CSL_BINS),
        }

    @classmethod
    def zeros(cls, classes, feature_mean, feature_transform) -> "ToyHead":
        d_total = 7 + len(classes) + CSL_BINS
        f = feature_mean.shape[0]
        return cls(list(classes), feature_mean, feature_transform,
                   np.zeros((f, d_total)), np.zeros(d_total))

    def standardize(self, features: np.ndarray) -> np.ndarray:
        return (features - self.feature_mean) @ self.feature_transform.T

    def predict(self, features: np.ndarray, grid: RegionGrid,
                scale_mm_per_px: float) -> PredictionField:
        return self.prediction_field(self.standardize(features), grid,
                                     scale_mm_per_px)

    def prediction_field(self, x: np.ndarray, grid: RegionGrid,
                         scale_mm_per_px: float) -> PredictionField:
        """The predictions for one image's standardized feature rows ``x``."""
        z = x @ self.weights + self.bias
        s = self._slices()
        return PredictionField(
            grid=grid,
            scale_mm_per_px=scale_mm_per_px,
            obj=_sigmoid(z[:, s["obj"]])[:, 0],
            cls=_sigmoid(z[:, s["cls"]]),
            csl=_sigmoid(z[:, s["csl"]]),
            force=z[:, s["force"]][:, 0],
            box_raw=z[:, s["box"]],
        )

    def to_json(self) -> dict:
        return {
            "version": HEAD_VERSION,
            "classes": self.classes,
            "window_radius": DEFAULT_WINDOW_RADIUS,
            "sigma": DEFAULT_SIGMA,
            "feature_mean": [float(v) for v in self.feature_mean],
            "feature_transform": [[float(v) for v in row]
                                  for row in self.feature_transform],
            "weights": [[float(v) for v in row] for row in self.weights],
            "bias": [float(v) for v in self.bias],
        }

    @classmethod
    def from_json(cls, data: dict) -> "ToyHead":
        """The head of a head file, once it has this version, the fixed angle
        label, class names, and finite arrays that fit FEATURE_DIM and the
        class count; else a TypeError naming the field (see ``read_json``)."""
        for key, value in (("version", HEAD_VERSION),
                           ("window_radius", DEFAULT_WINDOW_RADIUS),
                           ("sigma", DEFAULT_SIGMA)):
            if data[key] != value:
                raise TypeError(f"{key} must be {value!r}, got {data[key]!r}")
        classes = check_names(data["classes"], "classes")
        d_total = 7 + len(classes) + CSL_BINS
        return cls(
            classes=classes,
            feature_mean=check_array(data["feature_mean"], "feature_mean", (FEATURE_DIM,)),
            feature_transform=check_array(data["feature_transform"], "feature_transform",
                                          (FEATURE_DIM, FEATURE_DIM)),
            weights=check_array(data["weights"], "weights", (FEATURE_DIM, d_total)),
            bias=check_array(data["bias"], "bias", (d_total,)),
        )

    def save(self, path):
        write_json(path, self.to_json())

    @classmethod
    def load(cls, path) -> "ToyHead":
        return read_json(path, cls.from_json)


@dataclass
class FitResult:
    head: ToyHead
    losses: list
    diverged: str   # the divergence rule that stopped training; "" if none did


def _distinct_rows(x: np.ndarray, t: np.ndarray):
    """Distinct rows of ``[x | t]``, sorted: rows, targets, and their counts."""
    xt = np.column_stack([x, t])
    xt = xt[np.lexsort(xt.T[::-1])]
    starts = np.flatnonzero(np.r_[True, (xt[1:] != xt[:-1]).any(axis=1)])
    return xt[starts, :-1], xt[starts, -1], np.diff(np.r_[starts, len(xt)])


def _fit_inputs(features_per_sample, gts_per_sample, grid: RegionGrid,
                scale_mm_per_px: float, classes, init_head: ToyHead | None):
    """The head to train, the distinct objectness rows with their targets and
    cell counts, and the positive rows with their ``Positives``.

    A fresh head whitens with one concatenated copy of the rows, centred in
    place; rows that never vary cannot be whitened, a ConfigError. Each
    sample's block is standardized once, as one product (row by row may
    differ in the last bits), and gives the initial predictions that freeze
    the assignments, the distinct objectness rows and the positive rows.
    """
    if init_head is not None:
        head = init_head
    else:
        centered = np.concatenate(features_per_sample, axis=0)
        mean = centered.mean(axis=0)
        centered -= mean
        cov = centered.T @ centered / max(centered.shape[0] - 1, 1)
        del centered
        evals, evecs = np.linalg.eigh(cov)
        if not evals.max() > 0:
            raise ConfigError("the training features never vary (every training "
                              "image is flat), so they cannot be whitened")
        scale = 1.0 / np.sqrt(np.maximum(evals, 1e-9 * evals.max()))
        transform = (evecs * scale) @ evecs.T
        head = ToyHead.zeros(classes, mean, transform)

    batches, pos_rows, obj_rows = [], [], []
    for feats, gts in zip(features_per_sample, gts_per_sample):
        x = head.standardize(feats)
        preds = head.prediction_field(x, grid, scale_mm_per_px)
        asn = simota_assign(preds, gts, classes)
        batch = positive_targets(preds, gts, asn, classes)
        batches.append(batch)
        pos_rows.append(x[batch.cells])
        obj_rows.append(_distinct_rows(x, asn.obj_targets()))
    positives = Positives(*map(np.concatenate, zip(*batches)))
    x_obj, obj_t, counts = map(np.concatenate, zip(*obj_rows))
    return head, x_obj, obj_t, counts, np.concatenate(pos_rows), positives


def fit_toy_head(features_per_sample, gts_per_sample, grid: RegionGrid,
                 scale_mm_per_px: float, classes, learning_rate: float = 0.02,
                 epochs: int = 200, init_head: ToyHead | None = None) -> FitResult:
    """Full-batch gradient descent of the detection loss over a linear head.

    Assignments come from the epoch-0 (uniform) predictions and stay frozen so
    the objective is a fixed function of the weights; an epoch's loss equals
    the sum of per-scene detection losses divided by the sample count.
    The objectness term runs once per distinct (feature row, target) pair of
    a sample, weighted by its cell count; noise-free backgrounds share a row.
    Divergence stops training early and flags the result with the rule that
    fired: a non-finite loss, five consecutive loss increases (the plain
    reading), or five consecutive epochs whose trailing-5 mean loss exceeds
    twice the best loss seen. The last rule catches oscillating blowup
    (saturated sigmoids flip-flop instead of growing monotonically) without
    tripping on transient plateaus. A NaN loss compares false with any
    other, so only the first rule sees it.
    """
    if not (0 <= learning_rate < math.inf) or epochs < 0:
        raise ConfigError(f"learning_rate must be finite and >= 0 and epochs >= 0, "
                          f"got {learning_rate!r} and {epochs!r}")
    n_samples = len(features_per_sample)
    if n_samples == 0 or n_samples != len(gts_per_sample):
        raise ConfigError("need matching nonempty feature and ground-truth lists")
    head, x_obj, obj_t, counts, x_pos, positives = _fit_inputs(
        features_per_sample, gts_per_sample, grid, scale_mm_per_px, classes,
        init_head)
    s = head._slices()

    w_obj = s["obj"]
    rest = slice(w_obj.stop, head.bias.shape[0])
    # Columns of each channel among the positive-cell outputs (all but obj).
    cols = {name: slice(c.start - rest.start, c.stop - rest.start)
            for name, c in s.items() if name != "obj"}

    losses = []
    diverged = ""
    best = math.inf
    rising = 0
    blowup = 0
    for epoch in range(epochs):
        z_obj = x_obj @ head.weights[:, w_obj] + head.bias[w_obj]
        p_obj = _sigmoid(z_obj[:, 0])
        z_pos = x_pos @ head.weights[:, rest] + head.bias[rest]
        p_cls = _sigmoid(z_pos[:, cols["cls"]])
        p_csl = _sigmoid(z_pos[:, cols["csl"]])
        force = z_pos[:, cols["force"]][:, 0]
        box_raw = z_pos[:, cols["box"]]

        # Summed obj, cls, csl, force, box: the curve's last bits depend on it.
        terms = PositiveTerms(positives, p_cls, p_csl, force, box_raw)
        loss = float((counts * bce(p_obj, obj_t)).sum())
        for term in terms.loss():
            loss += term
        losses.append(loss / n_samples)
        rising = rising + 1 if (len(losses) >= 2 and losses[-1] > losses[-2]) else 0
        stuck_high = (len(losses) >= 5
                      and float(np.mean(losses[-5:])) > 2.0 * best)
        blowup = blowup + 1 if stuck_high else 0
        if not math.isfinite(losses[-1]):
            diverged = "non-finite loss"
        elif rising >= 5:
            diverged = "five consecutive loss increases"
        elif blowup >= 5:
            diverged = "trailing-5 mean loss above twice the best for five epochs"
        if diverged:
            break
        best = min(best, losses[-1])

        # Chain the loss gradients through the sigmoids into the logits.
        g_cls, g_csl, g_force, g_box = terms.gradient()
        gz_obj = (counts * bce_grad(p_obj, obj_t) * p_obj * (1.0 - p_obj))[:, None]
        gz_pos = np.zeros_like(z_pos)
        gz_pos[:, cols["cls"]] = g_cls * p_cls * (1.0 - p_cls)
        gz_pos[:, cols["csl"]] = g_csl * p_csl * (1.0 - p_csl)
        gz_pos[:, cols["force"]] = g_force[:, None]
        gz_pos[:, cols["box"]] = g_box

        # obj is output column 0; the positive-cell outputs follow it. einsum
        # sums x_obj's rows in one order; threaded BLAS in one per thread count.
        grad_w = np.concatenate([np.einsum("ij,ik->jk", x_obj, gz_obj),
                                 x_pos.T @ gz_pos], axis=1)
        grad_b = np.concatenate([gz_obj.sum(axis=0), gz_pos.sum(axis=0)])
        head.weights = head.weights - learning_rate * grad_w / n_samples
        head.bias = head.bias - learning_rate * grad_b / n_samples
    return FitResult(head=head, losses=losses, diverged=diverged)


def predict_sample_force(head: ToyHead, features: np.ndarray, grid: RegionGrid,
                         scale_mm_per_px: float) -> float:
    """Force readout at the most confident cell."""
    preds = head.predict(features, grid, scale_mm_per_px)
    return float(preds.force[int(np.argmax(preds.obj))])
