"""Oriented boxes, rotated IoU via convex clipping, and the angle-error metric.

Angles are degrees in the half-open range [0, 180); a box is the five-tuple
(cx, cy, w, h, theta) in mm/degrees. All functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# The clip's side tolerance (mm^2): a vertex whose cross product with a clip
# edge is at least -MERGE_EPS counts as inside that edge.
MERGE_EPS = 1e-9


def normalize_angle(raw: float) -> float:
    """Reduce an angle in degrees to the canonical [0, 180) range."""
    raw = float(raw)
    if not math.isfinite(raw):
        raise ValueError(f"angle must be finite, got {raw}")
    out = math.fmod(raw, 180.0)
    if out < 0.0:
        out += 180.0
    return out if out < 180.0 else 0.0


def rotation_matrix(theta_deg: float) -> np.ndarray:
    """2x2 counter-clockwise rotation matrix for an angle in degrees."""
    t = math.radians(theta_deg)
    c, s = math.cos(t), math.sin(t)
    return np.array([[c, -s], [s, c]])


def angle_error(pred_deg: float, gt_deg: float) -> float:
    """Pose-angle error in degrees, in [0, 90].

    Builds the two rotation matrices, forms M = R_pred @ R_gt^-1, and folds
    the 180-degree ambiguity of the box representation by taking absolute
    values, so (1, 179) gives 2 rather than 178. Mathematically this is
    arccos(|trace(M) / 2|); it is evaluated as atan2(|sin|, |cos|) of the
    same matrix entries because arccos loses ~6 digits next to 0 and 90
    degrees where its derivative blows up.
    """
    r_pred = rotation_matrix(normalize_angle(pred_deg))
    r_gt = rotation_matrix(normalize_angle(gt_deg))
    rel = r_pred @ r_gt.T  # inverse of a rotation is its transpose
    cos_d = (rel[0, 0] + rel[1, 1]) / 2.0
    sin_d = (rel[1, 0] - rel[0, 1]) / 2.0
    return math.degrees(math.atan2(abs(sin_d), abs(cos_d)))


@dataclass(frozen=True)
class OrientedBox:
    """Five-parameter oriented rectangle: center (mm), size (mm), angle (deg)."""

    cx: float
    cy: float
    w: float
    h: float
    theta_deg: float

    def __post_init__(self):
        if not (self.w > 0 and self.h > 0):
            raise ValueError(f"box dimensions must be positive, got w={self.w} h={self.h}")
        object.__setattr__(self, "theta_deg", normalize_angle(self.theta_deg))

    @property
    def area(self) -> float:
        return self.w * self.h

    def corners(self) -> np.ndarray:
        """Corner coordinates, shape (4, 2), counter-clockwise."""
        t = math.radians(self.theta_deg)
        c, s = math.cos(t), math.sin(t)
        hw, hh = self.w / 2.0, self.h / 2.0
        local = np.array([[hw, hh], [-hw, hh], [-hw, -hh], [hw, -hh]])
        rot = np.array([[c, -s], [s, c]])
        return local @ rot.T + np.array([self.cx, self.cy])

    def as_array(self) -> np.ndarray:
        return np.array([self.cx, self.cy, self.w, self.h, self.theta_deg])


# Rotated IoU is one batched clip, for single pairs and whole batches. Its
# cross products could overflow for pairs with a coordinate or size above
# 2**_CLIP_EXP mm, so those are scaled down by a power of two first; IoU is
# scale-invariant.
_CLIP_EXP = 500

# A rectangle clipped by 4 half-planes has at most 8 vertices, so the clip
# runs in 8 vertex slots. Spurious eps-tolerance crossings at near-degenerate
# contacts can emit more; those rows are clipped again in 16 slots, which is
# the layout the intersection area is summed in.
_WIDTH = 8
_WIDE = 16


def _corner_planes(boxes: np.ndarray) -> tuple:
    """x and y of the corners of (N, 5) boxes, each (4, N), counter-clockwise."""
    t = np.radians(boxes[:, 4])
    c, s = np.cos(t), np.sin(t)
    hw, hh = boxes[:, 2] / 2.0, boxes[:, 3] / 2.0
    lx = np.stack([hw, -hw, -hw, hw])
    ly = np.stack([hh, hh, -hh, -hh])
    return lx * c - ly * s + boxes[:, 0], lx * s + ly * c + boxes[:, 1]


def _padded_areas(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Shoelace areas of (N, w <= 16) vertex planes padded with their last
    vertex. Padded to 16 slots, the terms past the last vertex are exact
    zeros but the closing one, in slot 15; the sum is numpy's pairwise sum
    of 16 terms written out, r_j = a_j + a_(j+8) and then
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))."""
    x, y = x.T, y.T
    a = np.zeros((16, x.shape[1]))
    a[:x.shape[0] - 1] = x[:-1] * y[1:] - x[1:] * y[:-1]
    a[15] = x[-1] * y[0] - x[0] * y[-1]
    r = a[:8] + a[8:]
    r = r[0::2] + r[1::2]
    r = r[0::2] + r[1::2]
    return np.maximum(0.5 * (r[0] + r[1]), 0.0)


def _clip_quads(sx, sy, cx, cy, width: int) -> tuple:
    """Sutherland-Hodgman clip of (4, N) subject quads by (4, N) clip quads.

    The working polygon of each row lives in a slot-major (m + 1, N) view of
    a zero-filled (2 width + 1, N) buffer, m being the largest vertex count
    so far: row 0 repeats the last vertex as slot 0's predecessor, rows 1..m
    hold the vertices, and slots past the row's count are masked. Slot j
    emits an edge crossing and then, if inside, its own vertex; the p-th
    emission lands at flat index (1 + p)*N + row. Emissions past ``width``
    are dropped and flag the row in ``overflow``. Two buffer pairs alternate
    between clip edges, so masked slots hold zeros or earlier vertices and
    stay finite. Returns the result as (N, width) planes padded with the
    last vertex, the vertex counts and ``overflow``.
    """
    n = sx.shape[1]
    rows = np.arange(n)
    slots = np.arange(width)[:, None]
    # Corner 3 leads, then corners 0-3.
    x, y = sx[[3, 0, 1, 2, 3]], sy[[3, 0, 1, 2, 3]]
    m = 4
    counts = np.full(n, 4)
    overflow = np.zeros(n, dtype=bool)
    buffers = [(np.zeros((2 * width + 1) * n), np.zeros((2 * width + 1) * n))
               for _ in range(2)]
    for k in range(4):
        ax, ay = cx[k], cy[k]
        ex = cx[(k + 1) % 4] - ax
        ey = cy[(k + 1) % 4] - ay
        side = ex * (y - ay) - ey * (x - ax)
        geo = side >= -MERGE_EPS
        valid = slots[:m] < counts
        inside = geo[1:] & valid
        crossing = (geo[1:] != geo[:-1]) & valid
        # at[j] = flat index of slot j's first emission, a running sum of
        # what the slots before it emitted.
        at = np.empty((m + 1, n), dtype=np.intp)
        at[0] = rows + n
        np.add(crossing, inside, out=at[1:], dtype=np.intp)
        at[1:] *= n
        for j in range(1, m + 1):
            at[j] += at[j - 1]

        # Interpolate at crossings only. Their two sides straddle -MERGE_EPS,
        # so the denominator is at least the float spacing there, never 0.
        cut = np.flatnonzero(crossing)
        prev_side = side[:-1].ravel()[cut]
        t = np.clip(prev_side / (prev_side - side[1:].ravel()[cut]), 0.0, 1.0)
        px, py = x[:-1].ravel()[cut], y[:-1].ravel()[cut]
        x, y = x[1:].ravel(), y[1:].ravel()
        out_x, out_y = buffers[k % 2]
        ix = at[:-1].ravel()[cut]
        out_x[ix] = px + t * (x[cut] - px)
        out_y[ix] = py + t * (y[cut] - py)
        keep = np.flatnonzero(inside)
        ix = at[1:].ravel()[keep] - n
        out_x[ix] = x[keep]
        out_y[ix] = y[keep]

        total = at[-1] // n - 1
        overflow |= total > width
        counts = np.minimum(total, width)
        m = int(counts.max())
        last = np.maximum(counts, 1) * n + rows
        if k < 3:
            out_x[:n], out_y[:n] = out_x[last], out_y[last]
            x = out_x[:(m + 1) * n].reshape(m + 1, n)
            y = out_y[:(m + 1) * n].reshape(m + 1, n)
    ix = np.minimum(np.arange(1, width + 1)[:, None] * n + rows, last)
    return out_x[ix].T, out_y[ix].T, counts, overflow


def _rescale_huge_rows(boxes_a: np.ndarray, boxes_b: np.ndarray):
    """The clip's overflow guard. Pairs with a finite coordinate or size
    above 2**_CLIP_EXP mm have their lengths scaled by a power of two into
    range. Returns the scaled copies and a mask of the rows that score 0.0:
    those more than twice their summed reach apart or with a size that
    scales to 0, and those with an infinite entry, which are clipped as
    unit squares instead so that no arithmetic sees the infinity."""
    infinite = np.isinf(boxes_a).any(axis=1) | np.isinf(boxes_b).any(axis=1)
    size = np.fmax.reduce(np.abs(np.concatenate([boxes_a[:, :4], boxes_b[:, :4]], axis=1)),
                          axis=1)    # NaN-blind
    rows = np.flatnonzero(np.isfinite(size) & (size > 2.0 ** _CLIP_EXP))
    a, b = boxes_a.copy(), boxes_b.copy()
    exponent = _CLIP_EXP - np.frexp(size[rows])[1]
    a[rows, :4] = np.ldexp(a[rows, :4], exponent[:, None])
    b[rows, :4] = np.ldexp(b[rows, :4], exponent[:, None])
    # A box's reach: its circumradius grown by the clip's side tolerance, a
    # vertex up to MERGE_EPS / (edge length) outside an edge counting as
    # inside; taken at the unscaled size, so MERGE_EPS scales by 2**(2 exponent).
    eps = np.ldexp(MERGE_EPS, 2 * exponent)
    ra, rb = a[rows], b[rows]
    with np.errstate(divide="ignore", over="ignore"):
        reach = sum(np.hypot(r[:, 2], r[:, 3]) / 2.0 + eps / r[:, 2] + eps / r[:, 3]
                    for r in (ra, rb))
    far = np.hypot(ra[:, 0] - rb[:, 0], ra[:, 1] - rb[:, 1]) > 2.0 * reach
    vanished = np.any(np.concatenate([ra[:, 2:4], rb[:, 2:4]], axis=1) == 0.0, axis=1)
    a[infinite] = b[infinite] = (0.0, 0.0, 1.0, 1.0, 0.0)
    zero = infinite
    zero[rows] |= far | vanished
    return a, b, zero


def _iou_rows(boxes_a: np.ndarray, boxes_b: np.ndarray) -> np.ndarray:
    """Elementwise rotated IoU of two float (N, 5) box arrays.

    Batched Sutherland-Hodgman over fixed-size vertex buffers, in an 8-slot
    buffer; the rare rows that emit more than 8 vertices at some clip edge
    are clipped again in 16 slots. The result is bit-identical to clipping
    every row in 16 slots, where vertices past the 16th are dropped.
    """
    n = boxes_a.shape[0]
    if n == 0:
        return np.zeros(0)
    zero = None
    # a cheap whole-batch test first; the angle column only costs a false alarm
    if (np.abs(boxes_a) > 2.0 ** _CLIP_EXP).any() or (np.abs(boxes_b) > 2.0 ** _CLIP_EXP).any():
        boxes_a, boxes_b, zero = _rescale_huge_rows(boxes_a, boxes_b)
    sx, sy = _corner_planes(boxes_a)
    cx, cy = _corner_planes(boxes_b)
    x, y, counts, overflow = _clip_quads(sx, sy, cx, cy, _WIDTH)
    inter = _padded_areas(x, y)
    if overflow.any():
        rows = np.nonzero(overflow)[0]
        x, y, counts[rows], _ = _clip_quads(
            sx[:, rows], sy[:, rows], cx[:, rows], cy[:, rows], _WIDE)
        inter[rows] = _padded_areas(x, y)
    inter = np.where(counts >= 3, inter, 0.0)
    area_a = _padded_areas(sx.T, sy.T)
    area_b = _padded_areas(cx.T, cy.T)
    union = area_a + area_b - inter
    iou = np.where(union > 0, inter / np.where(union > 0, union, 1.0), 0.0)
    if zero is not None:
        iou[zero] = 0.0
    return np.clip(iou, 0.0, 1.0)


def rotated_iou_pairs(boxes_a: np.ndarray, boxes_b: np.ndarray) -> np.ndarray:
    """Elementwise rotated IoU of two (N, 5) box arrays, in [0, 1].

    Pairs with a coordinate or size above 2**_CLIP_EXP mm are clipped at a
    smaller scale; pairs with an infinite entry score 0.0.
    """
    return _iou_rows(np.asarray(boxes_a, dtype=float).reshape(-1, 5),
                     np.asarray(boxes_b, dtype=float).reshape(-1, 5))


def rotated_iou_gradient(boxes_a: np.ndarray, boxes_b: np.ndarray,
                         iou: np.ndarray) -> np.ndarray:
    """Derivative of ``iou = rotated_iou_pairs(boxes_a, boxes_b)`` in the
    parameters (cx, cy, w, h, theta) of each first box, as (N, 5); theta in
    degrees.

    The intersection area changes only where the first box's boundary runs
    inside the second box (Reynolds transport). Each edge adds the length of
    its part inside times the outward velocity of that part's midpoint; the
    velocity is linear along an edge. The part is a Liang-Barsky clip of the
    edge against the second box's two slabs, in that box's frame. The union's
    derivative follows from intersection + union = area_a + area_b.

    At coincident edges the IoU has a kink. The second box counts as closed,
    so a first-box edge lying on its boundary counts as inside: the gradient
    is the one-sided derivative in which that edge moves into the second box.
    Where coincident edges move opposite ways, as for identical boxes shifted
    or turned, their terms cancel to 0, the mean of the two sides. Pairs with
    IoU 0 (disjoint, touching, or scored 0 by the overflow guard) get exactly 0.
    """
    grad = np.zeros_like(boxes_a)
    rows = np.flatnonzero(iou > 0)
    a, b, iou = boxes_a[rows], boxes_b[rows], iou[rows]
    # The first box's corners in the second box's frame; the relative angle
    # keeps parallel boxes exactly parallel there.
    tb = np.radians(b[:, 4])
    cb, sb = np.cos(tb), np.sin(tb)
    dx, dy = a[:, 0] - b[:, 0], a[:, 1] - b[:, 1]
    start = np.stack(_corner_planes(np.column_stack(
        [dx * cb + dy * sb, dy * cb - dx * sb, a[:, 2:4], a[:, 4] - b[:, 4]])))  # (2, 4, n)
    # Edge k runs from corner k to corner k + 1: 0 top, 1 left, 2 bottom, 3 right.
    step = np.roll(start, -1, axis=1) - start
    half = b[:, 2:4].T[:, None, :] / 2.0                                      # (2, 1, n)
    moving = step != 0.0
    d = np.where(moving, step, 1.0)
    lo, hi = (-half - start) / d, (half - start) / d
    within = np.abs(start) <= half    # an edge parallel to a slab is all in or all out
    enter = np.where(moving, np.minimum(lo, hi), np.where(within, 0.0, 1.0))
    leave = np.where(moving, np.maximum(lo, hi), np.where(within, 1.0, 0.0))
    s0 = np.clip(enter.max(axis=0), 0.0, 1.0)
    s1 = np.clip(leave.min(axis=0), 0.0, 1.0)
    run = np.maximum(s1 - s0, 0.0)          # (4, n) inside share of each edge
    mid = (s0 + s1) / 2.0 - 0.5             # its midpoint, from the edge's centre

    # d(intersection). A shift moves an edge along its outward normal, whose
    # length-scaled form is (step_v, -step_u). A size moves the two edges
    # across it by half. A turn moves the point at t from an edge's centre by
    # -t along the normal, and t is mid times the edge's length.
    gu, gv = (run * step[1]).sum(axis=0), -(run * step[0]).sum(axis=0)
    w, h = a[:, 2], a[:, 3]
    d_inter = np.stack([cb * gu - sb * gv, sb * gu + cb * gv,
                        h * (run[1] + run[3]) / 2.0, w * (run[0] + run[2]) / 2.0,
                        -(run * mid * (step ** 2).sum(axis=0)).sum(axis=0) * (math.pi / 180.0)],
                       axis=1)
    # IoU = I / U with U = area_a + area_b - I, and only area_a moves.
    union = (w * h + b[:, 2] * b[:, 3]) / (1.0 + iou)
    d_inter *= (1.0 + iou)[:, None]
    d_inter[:, 2] -= iou * h
    d_inter[:, 3] -= iou * w
    grad[rows] = d_inter / union[:, None]
    return grad


def rotated_iou(a: OrientedBox, b: OrientedBox) -> float:
    """Intersection-over-union of two oriented boxes: a one-row batched clip.

    The pair is ordered canonically first, so the result is exactly
    symmetric in its arguments. It calls the private core rather than
    ``rotated_iou_pairs``, so a tracer that rebinds that name sees only
    batched callers.
    """
    first, second = sorted((a, b), key=lambda bx: (bx.cx, bx.cy, bx.w, bx.h, bx.theta_deg))
    return float(_iou_rows(first.as_array()[None], second.as_array()[None])[0])


def points_in_box(points: np.ndarray, box: OrientedBox) -> np.ndarray:
    """Boolean mask of (M, 2) points inside (or on) an oriented box."""
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    t = math.radians(box.theta_deg)
    c, s = math.cos(t), math.sin(t)
    dx = points[:, 0] - box.cx
    dy = points[:, 1] - box.cy
    u = dx * c + dy * s
    v = -dx * s + dy * c
    return (np.abs(u) <= box.w / 2.0) & (np.abs(v) <= box.h / 2.0)
