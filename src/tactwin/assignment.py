"""Positive-sample assignment and the multi-task detection loss.

The loss over one scene is

    sum over B assigned cells of [ BCE(class probs, one-hot class)
                                   + BCE(angle bins, soft angle label)
                                   + smoothL1(force error)
                                   + (1 - IoU(box, gt box)^2) ]
    + sum over every grid cell of BCE(objectness, assigned ? 1 : 0)

where the B positives are chosen by a simOTA-style dynamic assignment: for
each ground truth, candidate cells (center inside the box, or within
center_radius strides of its center) are ranked by BCE_cls + 3 (1 - IoU^2),
and the floor of the top-10 candidate IoU sum picks how many to keep.

The bracketed terms live in one core that the per-scene loss and the
toy-head trainer share: ``positive_targets`` flattens positives and their
targets into a ``Positives`` batch, and ``PositiveTerms`` scores it at one
prediction, loss and gradient from one forward pass. Every gradient is
analytic; the box term's comes from the boundary integral of
``geometry.rotated_iou_gradient``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .encoding import CSL_BINS, RegionGrid, csl_encode
from .errors import AssignmentError, ContractViolation
from .geometry import points_in_box, rotated_iou_gradient, rotated_iou_pairs

PROB_EPS = 1e-7
DEFAULT_CENTER_RADIUS = 2.5
DEFAULT_COST_IOU_WEIGHT = 3.0
_RAW_CLIP = 20.0  # raw log-size bound; exp(20) strides is far beyond any sensor


def bce(p, y):
    """Binary cross-entropy with per-log clamping; accepts arrays.

    Targets may be soft. Exact predictions of hard targets give exactly 0:
    only the argument of each logarithm is clamped at 1e-7.
    """
    p = np.asarray(p, dtype=float)
    y = np.asarray(y, dtype=float)
    return -(y * np.log(np.maximum(p, PROB_EPS))
             + (1.0 - y) * np.log(np.maximum(1.0 - p, PROB_EPS)))


def bce_grad(p, y):
    """d BCE / d p with the prediction clamped into [eps, 1 - eps]."""
    pc = np.clip(np.asarray(p, dtype=float), PROB_EPS, 1.0 - PROB_EPS)
    return (pc - np.asarray(y, dtype=float)) / (pc * (1.0 - pc))


def smooth_l1(x):
    """0.5 x^2 inside |x| < 1, |x| - 0.5 outside; C1 at the joint."""
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    return np.where(ax < 1.0, 0.5 * x * x, ax - 0.5)


def smooth_l1_grad(x):
    x = np.asarray(x, dtype=float)
    return np.where(np.abs(x) < 1.0, x, np.sign(x))


@dataclass
class PredictionField:
    """Per-cell predictions over a region grid.

    box_raw rows are (dx, dy, log w, log h, theta): offsets and sizes are in
    units of the cell's stride, decoded into mm around the cell center.
    """

    grid: RegionGrid
    scale_mm_per_px: float
    obj: np.ndarray       # (n,)
    cls: np.ndarray       # (n, K)
    csl: np.ndarray       # (n, 180)
    force: np.ndarray     # (n,)
    box_raw: np.ndarray   # (n, 5)

    @classmethod
    def uniform(cls, grid: RegionGrid, scale_mm_per_px: float,
                n_classes: int) -> "PredictionField":
        n = grid.n_cells
        return cls(grid, scale_mm_per_px,
                   obj=np.full(n, 0.5),
                   cls=np.full((n, n_classes), 0.5),
                   csl=np.full((n, CSL_BINS), 0.5),
                   force=np.zeros(n),
                   box_raw=np.zeros((n, 5)))

    @property
    def n_classes(self) -> int:
        return self.cls.shape[1]

    def decode_box_params(self, indices=None) -> np.ndarray:
        """Decode raw box rows into (m, 5) mm-frame box parameters."""
        if indices is None:
            indices = np.arange(self.grid.n_cells)
        indices = np.asarray(indices)
        centers = self.grid.centers_mm(self.scale_mm_per_px, indices)
        s_mm = self.grid.strides_mm(self.scale_mm_per_px)[indices]
        return _decode_raw(self.box_raw[indices], centers, s_mm)

    def rows(self, cells) -> tuple:
        """The (cls, csl, force, box_raw) rows of the given cells."""
        return self.cls[cells], self.csl[cells], self.force[cells], self.box_raw[cells]


def _decode_raw(raw: np.ndarray, centers: np.ndarray, strides_mm: np.ndarray) -> np.ndarray:
    raw = np.asarray(raw, dtype=float).reshape(-1, 5)
    out = np.empty_like(raw)
    out[:, 0] = centers[:, 0] + raw[:, 0] * strides_mm
    out[:, 1] = centers[:, 1] + raw[:, 1] * strides_mm
    out[:, 2] = np.exp(np.clip(raw[:, 2], -_RAW_CLIP, _RAW_CLIP)) * strides_mm
    out[:, 3] = np.exp(np.clip(raw[:, 3], -_RAW_CLIP, _RAW_CLIP)) * strides_mm
    out[:, 4] = np.mod(raw[:, 4], 180.0)
    return out


@dataclass(frozen=True)
class Assignment:
    """Result of positive-sample selection for one scene."""

    cell_to_gt: np.ndarray           # (n,) int, -1 for background
    positives_per_gt: list           # list of int arrays, one per ground truth
    clipped: tuple | None = None     # positives' (boxes, gt boxes, IoUs) simOTA clipped

    def obj_targets(self) -> np.ndarray:
        return (self.cell_to_gt >= 0).astype(float)


def _class_index(class_name: str, classes) -> int:
    try:
        return list(classes).index(class_name)
    except ValueError:
        raise ContractViolation(
            f"ground-truth class {class_name!r} not in class list {list(classes)}")


def simota_assign(preds: PredictionField, gts, classes,
                  center_radius: float = DEFAULT_CENTER_RADIUS) -> Assignment:
    """Select positive cells for each ground truth.

    Every ground truth keeps at least one cell; a cell contested by several
    ground truths goes to the cheapest one and stripped ground truths refill
    from their next-best free candidate. Fully deterministic: ties break on
    (cost, cell index) and conflicts resolve in ground-truth order.
    """
    n = preds.grid.n_cells
    cell_to_gt = np.full(n, -1, dtype=int)
    if len(gts) == 0:
        return Assignment(cell_to_gt, [])

    centers = preds.grid.centers_mm(preds.scale_mm_per_px)
    strides_mm = preds.grid.strides_mm(preds.scale_mm_per_px)

    cands, k_idxs = [], []
    for gi, gt in enumerate(gts):
        inside = points_in_box(centers, gt.box)
        near = ((np.abs(centers[:, 0] - gt.box.cx) <= center_radius * strides_mm)
                & (np.abs(centers[:, 1] - gt.box.cy) <= center_radius * strides_mm))
        cand = np.nonzero(inside | near)[0]
        if cand.size == 0:
            raise AssignmentError(
                f"ground truth {gi} ({gt.class_name}) has no candidate cells")
        cands.append(cand)
        k_idxs.append(_class_index(gt.class_name, classes))
    # One IoU call over every ground truth's candidates; its rows are independent.
    sizes = [cand.size for cand in cands]
    starts = np.cumsum(sizes) - sizes
    boxes = preds.decode_box_params(np.concatenate(cands))
    gt_boxes = np.repeat([gt.box.as_array() for gt in gts], sizes, axis=0)
    flat_ious = rotated_iou_pairs(boxes, gt_boxes)
    all_ious = np.split(flat_ious, starts[1:])

    per_gt_order = []   # candidate cells in cost order, per gt
    selections = []     # (gt index, cell, cost)
    for gi, (cand, ious, k_idx) in enumerate(zip(cands, all_ious, k_idxs)):
        onehot = np.zeros(preds.n_classes)
        onehot[k_idx] = 1.0
        cls_cost = bce(preds.cls[cand], onehot[None, :]).sum(axis=1)
        cost = cls_cost + DEFAULT_COST_IOU_WEIGHT * (1.0 - ious ** 2)
        order = np.lexsort((cand, cost))
        top10 = np.sort(ious)[::-1][:10]
        dyn_k = int(np.clip(np.floor(top10.sum()), 1, cand.size))
        ordered = cand[order]
        per_gt_order.append(ordered)
        selections += [(gi, int(cell), float(c))
                       for cell, c in zip(ordered[:dyn_k], cost[order[:dyn_k]])]

    # A contested cell keeps only its cheapest ground truth.
    best = {}
    for gi, cell, cost in selections:
        if cell not in best or cost < best[cell][0]:
            best[cell] = (cost, gi)
    positives = [[] for _ in gts]
    for cell, (_, gi) in best.items():
        positives[gi].append(cell)

    taken = set(best.keys())
    for gi, ordered in enumerate(per_gt_order):
        if positives[gi]:
            continue
        refill = next((int(c) for c in ordered if int(c) not in taken), None)
        if refill is None:
            raise AssignmentError(
                f"ground truth {gi} lost all candidates to other objects")
        positives[gi].append(refill)
        taken.add(refill)

    positives = [np.array(sorted(p), dtype=int) for p in positives]
    rows = np.empty(n, dtype=int)     # each positive's row of the IoU call
    for gi, cells in enumerate(positives):
        cell_to_gt[cells] = gi
        rows[cells] = starts[gi] + np.searchsorted(cands[gi], cells)
    rows = rows[cell_to_gt >= 0]
    return Assignment(cell_to_gt, positives,
                      (boxes[rows], gt_boxes[rows], flat_ious[rows]))


@dataclass(frozen=True)
class LossBreakdown:
    cls: float
    csl: float
    force: float
    box: float
    obj: float

    @property
    def total(self) -> float:
        return self.cls + self.csl + self.force + self.box + self.obj


def _check_assignment(preds: PredictionField, gts, assignment: Assignment):
    if assignment.cell_to_gt.shape[0] != preds.grid.n_cells:
        raise ContractViolation("assignment does not cover the prediction grid")
    if len(assignment.positives_per_gt) != len(gts):
        raise ContractViolation("assignment ground-truth count mismatch")
    if assignment.cell_to_gt.max(initial=-1) >= len(gts):
        raise ContractViolation("assignment references a missing ground truth")


class Positives(NamedTuple):
    """Positive cells and their targets; one scene's rows are in cell order,
    and scenes' batches concatenate field by field."""

    cells: np.ndarray        # (B,) cell index in its scene's grid
    centers_mm: np.ndarray   # (B, 2) cell centre
    strides_mm: np.ndarray   # (B,) cell stride
    cls: np.ndarray          # (B, K) one-hot class
    csl: np.ndarray          # (B, 180) circular smooth angle label
    force: np.ndarray        # (B,) normal force
    boxes: np.ndarray        # (B, 5) ground-truth box parameters


def positive_targets(preds: PredictionField, gts, assignment: Assignment,
                     classes) -> Positives:
    """The scene's positive cells, each with its ground truth's targets."""
    _check_assignment(preds, gts, assignment)
    # Per ground truth, shaped for an empty list too.
    cls_t = np.eye(preds.n_classes)[[_class_index(g.class_name, classes) for g in gts]]
    csl_t = np.array([csl_encode(g.theta_deg) for g in gts]).reshape(-1, CSL_BINS)
    force_t = np.array([g.force_n for g in gts], dtype=float)
    boxes_t = np.array([g.box.as_array() for g in gts]).reshape(-1, 5)
    cells = np.nonzero(assignment.cell_to_gt >= 0)[0]
    gt_of = assignment.cell_to_gt[cells]
    return Positives(cells,
                     preds.grid.centers_mm(preds.scale_mm_per_px, cells),
                     preds.grid.strides_mm(preds.scale_mm_per_px)[cells],
                     cls_t[gt_of], csl_t[gt_of], force_t[gt_of], boxes_t[gt_of])


class PositiveTerms:
    """The bracketed terms at one prediction of a batch of positives, given
    their class and angle-bin probabilities, forces and raw box rows.

    The box term's forward pass, one decode and one ``rotated_iou_pairs``
    call, runs once here and serves both the loss and its gradient. Given an
    assignment's ``clipped`` rows, it takes their IoUs in place of the call
    when its decoded boxes and ground-truth boxes equal theirs bit for bit:
    a row of that call depends on its own pair alone.
    """

    def __init__(self, pos: Positives, cls, csl, force, box_raw, clipped=None):
        self.pos, self.cls, self.csl, self.force = pos, cls, csl, force
        self.box_raw = box_raw
        self.boxes = _decode_raw(box_raw, pos.centers_mm, pos.strides_mm)
        if (clipped is not None and self.boxes.tobytes() == clipped[0].tobytes()
                and pos.boxes.tobytes() == clipped[1].tobytes()):
            self.iou = clipped[2]
        else:
            self.iou = rotated_iou_pairs(self.boxes, pos.boxes)

    def loss(self) -> tuple:
        """(class, angle, force, box) term sums."""
        pos = self.pos
        return (float(bce(self.cls, pos.cls).sum()),
                float(bce(self.csl, pos.csl).sum()),
                float(smooth_l1(self.force - pos.force).sum()),
                float(np.sum(1.0 - self.iou ** 2)))

    def gradient(self) -> tuple:
        """Analytic gradients of the four terms with respect to cls, csl,
        force and box_raw.

        The box term's is -2 IoU dIoU, with dIoU from
        ``rotated_iou_gradient`` (see there for the convention at coincident
        edges) chained through ``_decode_raw``: the offsets scale by the
        stride, a log-size by its size (0 where |raw| >= _RAW_CLIP holds it),
        and the angle's mod 180 has slope 1. Rows with IoU 0 get exactly 0.
        """
        pos, raw = self.pos, self.box_raw
        chain = np.column_stack([
            pos.strides_mm, pos.strides_mm,
            np.where(np.abs(raw[:, 2:4]) < _RAW_CLIP, self.boxes[:, 2:4], 0.0),
            np.ones(len(raw))])
        d_iou = rotated_iou_gradient(self.boxes, pos.boxes, self.iou)
        return (bce_grad(self.cls, pos.cls),
                bce_grad(self.csl, pos.csl),
                smooth_l1_grad(self.force - pos.force),
                -2.0 * self.iou[:, None] * d_iou * chain)


def total_loss(preds: PredictionField, gts, assignment: Assignment,
               classes) -> LossBreakdown:
    """Evaluate the full multi-task loss for one scene."""
    pos = positive_targets(preds, gts, assignment, classes)
    obj = float(bce(preds.obj, assignment.obj_targets()).sum())
    return LossBreakdown(*PositiveTerms(pos, *preds.rows(pos.cells),
                                        assignment.clipped).loss(), obj)


@dataclass
class FieldGradient:
    """Partial derivatives of the scene loss in prediction-field layout."""

    obj: np.ndarray
    cls: np.ndarray
    csl: np.ndarray
    force: np.ndarray
    box_raw: np.ndarray


def loss_gradient(preds: PredictionField, gts, assignment: Assignment,
                  classes) -> FieldGradient:
    """Analytic gradients of the scene loss, in prediction-field layout."""
    pos = positive_targets(preds, gts, assignment, classes)
    # np.zeros allocates through calloc; zeros_like runs numpy's slower fill loop.
    grad = FieldGradient(bce_grad(preds.obj, assignment.obj_targets()),
                         *(np.zeros(a.shape, a.dtype) for a in preds.rows(slice(None))))
    c = pos.cells
    grad.cls[c], grad.csl[c], grad.force[c], grad.box_raw[c] = PositiveTerms(
        pos, *preds.rows(c), assignment.clipped).gradient()
    return grad
