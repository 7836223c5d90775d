"""Which program functions the traced run wraps, and the per-layer metrics
computed from their spans.

Layers are named after the ``tactwin`` modules. Metrics that a workload does
not reach read 0 (no calls, no samples).
"""

from __future__ import annotations

import importlib
import os

from tracing import (ATTRS, END, NAME, START, Target, inside, percentile,
                     self_times)

def _kind(attrs, args, kwargs):
    attrs["kind"] = "sphere" if args[0].probe.params()["kind"] == "sphere" else "punch"


def _sweep(attrs, args, kwargs):
    pose = args[2] if len(args) > 2 else kwargs.get("pose")
    attrs["sweep"] = not (pose is not None and pose.confident)


def _file_size(attrs, args, kwargs):
    attrs["bytes"] = os.path.getsize(args[0])


def _table_rows(attrs, table):
    attrs["rows"] = sum(int((c.forces > 0).sum()) for c in table.curves)


def targets() -> list:
    # Import the modules by full name: the package re-exports a function
    # called render, which shadows the module of that name.
    (assignment, contact, dataset, decoder, encoding, geometry, metrics, render,
     toyhead) = (importlib.import_module(f"tactwin.{m}") for m in (
        "assignment", "contact", "dataset", "decoder", "encoding", "geometry",
        "metrics", "render", "toyhead"))
    return [
        Target("contact.height_field", contact, "height_field", on_call=_kind),
        Target("render.render", render, "render"),
        Target("render.simulate", render, "simulate"),
        Target("render.make_reference", render, "make_reference"),
        Target("dataset.sample_for_index", dataset, "sample_for_index",
               request=lambda a, k: f"image{a[1]}"),
        Target("dataset.pgm_bytes", dataset, "pgm_bytes",
               on_result=lambda at, r: at.update(bytes=len(r))),
        Target("dataset.load_sample_image", dataset, "load_sample_image",
               request=lambda a, k: f"image{a[1]['index']}"),
        Target("dataset.read_pgm", dataset, "read_pgm", on_call=_file_size),
        Target("decoder.decode", decoder.TactileDecoder, "decode",
               on_result=lambda at, r: at.update(detections=len(r))),
        Target("decoder.difference_image", decoder, "difference_image"),
        Target("decoder.extract_blobs", decoder, "extract_blobs",
               on_result=lambda at, r: at.update(blobs=len(r))),
        Target("decoder.classify", decoder, "classify", on_call=_sweep),
        Target("decoder.estimate_force", decoder, "estimate_force"),
        Target("decoder.corrected_box", decoder, "corrected_box"),
        Target("decoder.build_calibration", decoder, "build_calibration",
               request=lambda a, k: f"calibrate:{a[0]}", on_result=_table_rows),
        Target("decoder.build_templates", decoder, "build_templates"),
        Target("geometry.rotated_iou", geometry, "rotated_iou"),
        Target("geometry.rotated_iou_pairs", geometry, "rotated_iou_pairs",
               on_call=lambda at, a, k: at.update(pairs=len(a[0]))),
        Target("encoding.centers_mm", encoding.RegionGrid, "centers_mm"),
        Target("encoding.csl_encode", encoding, "csl_encode"),
        Target("assignment.simota_assign", assignment, "simota_assign"),
        Target("assignment.total_loss", assignment, "total_loss"),
        Target("assignment.loss_gradient", assignment, "loss_gradient"),
        Target("toyhead.cell_features", toyhead, "cell_features"),
        Target("toyhead.fit_toy_head", toyhead, "fit_toy_head",
               on_result=lambda at, r: at.update(epochs=len(r.losses))),
        Target("metrics.evaluate_detections", metrics, "evaluate_detections"),
        Target("metrics.match_detections", metrics, "match_detections"),
        Target("metrics.write_report", metrics, "write_report"),
    ]


def layer_metrics(spans, extra: dict, names) -> dict:
    """The per-layer metrics ``names`` (BENCHMARK.json's list) from the spans
    plus workload-supplied values (``images`` generated in the traced pass,
    and metrics measured outside the spans)."""
    extra = dict(extra)
    selfs = self_times(spans)
    in_decode = inside(spans, "decoder.decode")
    in_calibration = inside(spans, "decoder.build_calibration")
    in_fit = inside(spans, "toyhead.fit_toy_head")
    in_gradient = inside(spans, "assignment.loss_gradient")

    def pick(name, where=None, attr=None):
        return [i for i, s in enumerate(spans) if s[NAME] == name
                and (where is None or where[i])
                and (attr is None or s[ATTRS].get(attr[0]) == attr[1])]

    def dur(ix):
        return [spans[i][END] - spans[i][START] for i in ix]

    def p50(ix, scale):
        return percentile(dur(ix), 50) * scale

    def busy(name):
        return sum(dur(pick(name)))

    def attr_sum(ix, key):
        return sum(spans[i][ATTRS].get(key, 0) for i in ix)

    def share(num, den):
        return num / den if den else 0.0

    hf = pick("contact.height_field")
    renders = pick("render.render")
    decodes = pick("decoder.decode")
    classify = pick("decoder.classify", in_decode)
    iou = pick("geometry.rotated_iou")
    pairs = pick("geometry.rotated_iou_pairs")
    calib = pick("decoder.build_calibration")
    fits = pick("toyhead.fit_toy_head")
    fit_iou = pick("geometry.rotated_iou_pairs", in_fit)
    calib_sims = pick("render.simulate", in_calibration)
    m = {
        "contact.height_field.calls": len(hf),
        "contact.height_field.busy_s": sum(dur(hf)),
        "contact.height_field.sphere.p50_ms":
            p50(pick("contact.height_field", attr=("kind", "sphere")), 1e3),
        "contact.height_field.punch.p50_ms":
            p50(pick("contact.height_field", attr=("kind", "punch")), 1e3),
        "render.render.calls": len(renders),
        "render.render.p50_ms": p50(renders, 1e3),
        "render.render.busy_s": sum(dur(renders)),
        "render.simulate.self_p50_ms":
            percentile([selfs[i] for i in pick("render.simulate")], 50) * 1e3,
        "render.make_reference.calls": len(pick("render.make_reference")),
        "dataset.pgm_bytes.p50_ms": p50(pick("dataset.pgm_bytes"), 1e3),
        "dataset.read_pgm.p50_ms": p50(pick("dataset.read_pgm"), 1e3),
        "dataset.bytes_written": attr_sum(pick("dataset.pgm_bytes"), "bytes"),
        "dataset.bytes_read": attr_sum(pick("dataset.read_pgm"), "bytes"),
        "decoder.decode.calls": len(decodes),
        "decoder.decode.p50_ms": p50(decodes, 1e3),
        "decoder.decode.p80_ms": percentile(dur(decodes), 80) * 1e3,
        "decoder.decode.self_p50_ms":
            percentile([selfs[i] for i in decodes], 50) * 1e3,
        "decoder.difference_image.p50_ms":
            p50(pick("decoder.difference_image", in_decode), 1e3),
        "decoder.extract_blobs.p50_ms":
            p50(pick("decoder.extract_blobs", in_decode), 1e3),
        "decoder.classify.p50_ms": p50(classify, 1e3),
        "decoder.classify.sweep_share":
            share(sum(spans[i][ATTRS]["sweep"] for i in classify), len(classify)),
        "decoder.estimate_force.p50_us":
            p50(pick("decoder.estimate_force", in_decode), 1e6),
        "decoder.corrected_box.p50_us":
            p50(pick("decoder.corrected_box", in_decode), 1e6),
        "decoder.blobs_per_image":
            share(attr_sum(pick("decoder.extract_blobs", in_decode), "blobs"),
                  len(decodes)),
        "decoder.build_calibration.busy_s": sum(dur(calib)),
        "decoder.build_calibration.self_s": sum(selfs[i] for i in calib),
        "decoder.build_templates.busy_s": busy("decoder.build_templates"),
        "decoder.calibration.useful_ratio":
            share(attr_sum(calib, "rows"), len(calib_sims)),
        "geometry.rotated_iou.calls": len(iou),
        "geometry.rotated_iou.mean_us": share(sum(dur(iou)), len(iou)) * 1e6,
        "geometry.rotated_iou_pairs.calls": len(pairs),
        "geometry.rotated_iou_pairs.pairs": attr_sum(pairs, "pairs"),
        "geometry.rotated_iou_pairs.us_per_pair":
            share(sum(dur(pairs)), attr_sum(pairs, "pairs")) * 1e6,
        "encoding.centers_mm.calls": len(pick("encoding.centers_mm")),
        "encoding.centers_mm.busy_s": busy("encoding.centers_mm"),
        "encoding.csl_encode.calls": len(pick("encoding.csl_encode")),
        "assignment.simota_assign.p50_ms":
            p50(pick("assignment.simota_assign"), 1e3),
        "assignment.total_loss.p50_ms": p50(pick("assignment.total_loss"), 1e3),
        "assignment.loss_gradient.p50_ms":
            p50(pick("assignment.loss_gradient"), 1e3),
        "assignment.loss_gradient.iou_pairs":
            attr_sum(pick("geometry.rotated_iou_pairs", in_gradient), "pairs"),
        "toyhead.cell_features.p50_ms": p50(pick("toyhead.cell_features"), 1e3),
        "toyhead.fit_toy_head.s_per_epoch":
            share(sum(dur(fits)), attr_sum(fits, "epochs")),
        "toyhead.fit_toy_head.iou_share": share(sum(dur(fit_iou)), sum(dur(fits))),
        "metrics.evaluate_detections.busy_s": busy("metrics.evaluate_detections"),
        "metrics.match_detections.p50_us":
            p50(pick("metrics.match_detections"), 1e6),
        "metrics.write_report.ms": busy("metrics.write_report") * 1e3,
    }
    for step in ("calibrate", "generate", "decode", "eval", "train-toy"):
        m[f"cli.{step}.self_s"] = sum(selfs[i] for i in pick(f"cli.{step}"))
    m["cli.calibrate.s"] = busy("cli.calibrate")
    m["cli.train-toy.s"] = busy("cli.train-toy")
    m["cli.generate.images_per_s"] = share(extra.pop("images", 0),
                                           busy("cli.generate"))
    m["cli.decode.images_per_s"] = share(len(decodes), busy("cli.decode"))
    for name in names:
        m.setdefault(name, 0.0)
    m.update(extra)
    unknown = set(m) - set(names)
    if unknown:
        raise KeyError(f"metrics not declared in BENCHMARK.json: {sorted(unknown)}")
    return {name: m[name] for name in names}
