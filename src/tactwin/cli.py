"""Batch command-line front end.

Subcommands: generate, calibrate, decode, eval, train-toy, resolution.
Configuration comes from an optional JSON file plus flag overrides (flags
win); the effective configuration is echoed into every output directory so
runs are reproducible. All primary outputs are byte-deterministic given the
seed; wall-clock timestamps go only to the run.log sidecar.

Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 stale
calibration, 5 internal contract violation.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .contact import DEFAULT_FORCE_RANGE, GroundTruth, MaterialParams
from .dataset import (SPLITS, DatasetSpec, check_fields, check_number, generate_dataset,
                      load_sample_image, read_json, read_jsonl, read_manifest, write_json,
                      write_jsonl)
from .decoder import DecodeConfig, Detection, TactileDecoder, build_decoder, params_hash
from .encoding import build_region_grid
from .errors import (AssignmentError, CalibrationError, ConfigError,
                     ContractViolation, ScenarioError, StaleCalibrationError)
from .frames import SensorConfig
from .geometry import OrientedBox
from .metrics import evaluate_detections, write_report
from .render import IlluminationModel, make_reference, resolution_sweep
from .runner import render_workers, run_units
from .suites import ANISOTROPIC_CLASSES, SUITES
from .toyhead import ToyHead, cell_features, fit_toy_head, predict_sample_force

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_STALE = 4
EXIT_CONTRACT = 5

_SECTIONS = {"sensor": SensorConfig, "material": MaterialParams,
             "illumination": IlluminationModel, "decode": DecodeConfig}


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise IOError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    unknown = set(cfg) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key, section in cfg.items():
        if not isinstance(section, dict):
            raise ConfigError(f"config section {key!r} must be a JSON object, "
                              f"got {section!r}")
    return cfg


def _build_params(cfg: dict, args=None) -> tuple:
    """The four sections of ``cfg``, each value checked, with the flags of
    ``args`` merged in, each checked as the key it sets."""
    sections = {section: dict(cfg.get(section, {})) for section in _SECTIONS}
    try:
        for section, cls in _SECTIONS.items():
            check_fields(sections[section], cls, section)
        for section, key, flag in (("sensor", "input_size", "size"),
                                   ("sensor", "scale_mm_per_px", "scale"),
                                   ("decode", "noise_sigma", "noise")):
            if getattr(args, flag, None) is not None:
                check_fields({key: getattr(args, flag)}, _SECTIONS[section], section)
                sections[section][key] = getattr(args, flag)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    return tuple(cls(**sections[section]) for section, cls in _SECTIONS.items())


def _manifest_config(spec: dict, cfg: dict | None = None, noise=None) -> dict:
    """Config sections for reading a dataset: the simulator parameters it was
    generated with, plus the decode section of ``cfg``. The noise sigma is
    ``noise`` if given, else the config's, else the dataset's."""
    decode = {"noise_sigma": spec["noise_sigma"]}
    decode.update((cfg or {}).get("decode", {}))
    if noise is not None:
        decode["noise_sigma"] = noise
    return {"sensor": spec["sensor"], "material": spec["material"],
            "illumination": spec["illumination"], "decode": decode}


def _parse_force_range(spec: str) -> tuple:
    """``--force-range LO:HI`` as two floats; ``DatasetSpec`` checks them."""
    try:
        lo, hi = (float(v) for v in spec.split(":"))
    except ValueError as exc:
        raise ConfigError(
            f"force-range must look like LO:HI, got {spec!r}") from exc
    return lo, hi


def _echo_config(out_dir: Path, payload: dict):
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "run_config.json", payload)


def _log(out_dir: Path, message: str):
    with open(out_dir / "run.log", "a") as fh:
        fh.write(f"[{time.strftime('%Y-%m-%dT%H:%M:%S')}] {message}\n")


def cmd_generate(args) -> int:
    cfg = _load_config(args.config)
    sensor, material, illum, decode_cfg = _build_params(cfg, args)
    spec = DatasetSpec(
        count=args.count,
        master_seed=args.seed,
        suite="spheres" if args.probe == "sphere" else args.suite,
        force_range=_parse_force_range(args.force_range),
        noise_sigma=decode_cfg.noise_sigma,
        sensor=sensor, material=material, illum=illum,
    )
    workers, _ = render_workers(sensor, spec.count)
    out = Path(args.out)
    _echo_config(out, {"command": "generate", "spec": spec.params()})
    manifest = generate_dataset(spec, out, workers=workers)
    _log(out, f"generate count={args.count} seed={args.seed} workers={workers}")
    print(f"wrote {manifest['counts']} to {out}")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    cfg = _load_config(args.config)
    sensor, material, illum, decode_cfg = _build_params(cfg, args)
    out = Path(args.out)
    _echo_config(out, {
        "command": "calibrate", "suite": args.suite,
        "sensor": sensor.params(), "material": material.params(),
        "illumination": illum.params(), "decode": decode_cfg.params(sensor),
        "params_hash": params_hash(material, illum, sensor, decode_cfg),
    })
    decoder = build_decoder(SUITES[args.suite](), material, illum, sensor,
                            decode_cfg)
    write_json(out / "calibration.json", decoder.to_json(), indent=None)
    _log(out, f"calibrate suite={args.suite}")
    print(f"calibrated {list(decoder.models)} -> {out}")
    return EXIT_OK


def _parse_row(row, scored: bool):
    """An annotation row as a GroundTruth, or a detection row as a Detection
    when scored, after checking every field the CLI reads from it."""
    if type(row["index"]) is not int or row["index"] < 0:
        raise ValueError(f"index must be a nonnegative integer, got {row['index']!r}")
    if not scored and row["split"] not in SPLITS:
        raise ValueError(f"split must be one of {SPLITS}, got {row['split']!r}")
    if not isinstance(row["class"], str):
        raise TypeError(f"class must be a string, got {row['class']!r}")
    cx, cy, w, h, theta, force = (
        float(check_number(row[key], key, positive=key in ("w_mm", "h_mm")))
        for key in ("cx_mm", "cy_mm", "w_mm", "h_mm", "theta_deg", "force_n"))
    fields = (OrientedBox(cx, cy, w, h, theta), row["class"], theta, force)
    if scored:
        return Detection(*fields, float(check_number(row["score"], "score")))
    return GroundTruth(*fields)


def _read_rows(path, scored: bool) -> list:
    """(row, parsed row) for each line of an annotation file, or of a
    detection file when scored; a bad row is an I/O error naming the file and
    line."""
    rows = []
    for lineno, row in read_jsonl(path):
        try:
            rows.append((row, _parse_row(row, scored)))
        except (KeyError, TypeError, ValueError) as exc:
            kind = "detection" if scored else "annotation"
            raise IOError(f"{path}:{lineno}: bad {kind} row: "
                          f"{type(exc).__name__}: {exc}") from exc
    return rows


def _read_annotations(dataset: Path, split: str = "all") -> list:
    return [(ann, gt) for ann, gt in _read_rows(dataset / "annotations.jsonl", False)
            if split in ("all", ann["split"])]


def _decode_row(decoder: TactileDecoder, dataset: Path, ann: dict) -> list:
    return decoder.decode(load_sample_image(dataset, ann, decoder.sensor))


def cmd_decode(args) -> int:
    cfg = _load_config(args.config)
    dataset = Path(args.dataset)
    manifest = read_manifest(dataset)
    # The manifest fixes the sensor, so decode has no --size or --scale.
    sensor, material, illum, decode_cfg = _build_params(
        _manifest_config(manifest["spec"], cfg, args.noise))
    decoder = read_json(Path(args.model) / "calibration.json", lambda data:
                        TactileDecoder.from_json(data, material, illum, sensor, decode_cfg))
    annotations = _read_annotations(dataset, args.split)
    out = Path(args.out)
    _echo_config(out, {
        "command": "decode", "dataset": str(dataset), "model": str(args.model),
        "split": args.split, "decode": decode_cfg.params(sensor),
        "params_hash": params_hash(material, illum, sensor, decode_cfg),
    })
    # One unit per image, on every CPU: decode gains from threads at every
    # raster size measured, 128 px included.
    per_image = run_units([functools.partial(_decode_row, decoder, dataset, ann)
                           for ann, _ in annotations])
    lines = [{"index": ann["index"], "split": ann["split"], **det.to_json_dict()}
             for (ann, _), detections in zip(annotations, per_image) for det in detections]
    write_jsonl(out / "detections.jsonl", lines)
    _log(out, f"decode n={len(annotations)} split={args.split}")
    print(f"decoded {len(annotations)} images -> {len(lines)} detections")
    return EXIT_OK


def cmd_eval(args) -> int:
    dataset = Path(args.dataset)
    annotations = _read_annotations(dataset, args.split)
    dets_by_index: dict = {}
    for row, det in _read_rows(args.detections, scored=True):
        dets_by_index.setdefault(row["index"], []).append(det)
    per_sample = []
    classes = set()
    for ann, gt in annotations:
        classes.add(gt.class_name)
        per_sample.append((dets_by_index.get(ann["index"], []), [gt]))
    report = evaluate_detections(per_sample, sorted(classes),
                                 iou_threshold=args.iou,
                                 angle_classes=ANISOTROPIC_CLASSES)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    json_path, txt_path = write_report(report, out / "report")
    _echo_config(out, {"command": "eval", "dataset": str(dataset),
                       "detections": str(args.detections), "iou": args.iou,
                       "split": args.split})
    _log(out, f"eval n={len(per_sample)}")
    print(txt_path.read_text())
    return EXIT_OK


def cmd_train_toy(args) -> int:
    dataset = Path(args.dataset)
    manifest = read_manifest(dataset)
    sensor, _, illum, _ = _build_params(_manifest_config(manifest["spec"]))
    grid = build_region_grid(sensor.input_size)
    reference = make_reference(sensor, illum)
    annotations = _read_annotations(dataset)
    classes = manifest["classes"]
    missing = sorted({gt.class_name for _, gt in annotations} - set(classes))
    if missing:
        raise IOError(f"{dataset / 'manifest.json'}: classes must hold every "
                      f"annotation's class, and lacks {missing}")

    def collect(split):
        feats, gts, forces = [], [], []
        for ann, gt in annotations:
            if ann["split"] != split:
                continue
            image = load_sample_image(dataset, ann, sensor)
            feats.append(cell_features(image, reference, grid))
            gts.append([gt])
            forces.append(gt.force_n)
        return feats, gts, forces

    train_f, train_g, _ = collect("train")
    val_f, _, val_forces = collect("val")
    init = ToyHead.load(args.resume) if args.resume else None
    if init is not None and init.classes != classes:
        raise IOError(f"{args.resume}: classes must be the dataset's {classes}, "
                      f"got {init.classes}")
    result = fit_toy_head(train_f, train_g, grid, sensor.scale_mm_per_px,
                          classes, learning_rate=args.lr, epochs=args.epochs,
                          init_head=init)
    out = Path(args.out)
    _echo_config(out, {"command": "train-toy", "dataset": str(dataset),
                       "lr": args.lr, "epochs": args.epochs,
                       "resume": args.resume})
    with open(out / "curve.csv", "w") as fh:
        fh.write("epoch,loss\n")
        for i, loss in enumerate(result.losses):
            fh.write(f"{i},{loss!r}\n")
    _log(out, f"train-toy epochs={len(result.losses)} diverged={bool(result.diverged)}")
    if result.diverged:
        # The curve shows the divergence; its head may hold non-finite
        # weights, which ToyHead.load refuses, so none is written.
        print(f"training diverged ({result.diverged})", file=sys.stderr)
        return EXIT_CONTRACT
    result.head.save(out / "head.json")
    if val_f:
        errs = [abs(predict_sample_force(result.head, f, grid,
                                         sensor.scale_mm_per_px) - gt)
                for f, gt in zip(val_f, val_forces)]
        print(f"val force MAE: {float(np.mean(errs)):.4f} N over {len(errs)} samples")
    final = f", final loss {result.losses[-1]:.4f}" if result.losses else ""
    print(f"trained {len(result.losses)} epochs{final}")
    return EXIT_OK


def cmd_resolution(args) -> int:
    cfg = _load_config(args.config)
    sensor, _, illum, _ = _build_params(cfg, args)
    try:
        freqs = [float(v) for v in args.frequencies.split(",")]
    except ValueError as exc:
        raise ConfigError(f"--frequencies must be a comma-separated list of numbers, "
                          f"got {args.frequencies!r}") from exc
    if not all(0 < f < math.inf for f in freqs):
        raise ConfigError(f"--frequencies must be finite and > 0, got {args.frequencies!r}")
    out = Path(args.out)
    _echo_config(out, {"command": "resolution", "frequencies": freqs,
                       "sensor": sensor.params()})
    limits = {}
    for orientation in ("horizontal", "vertical"):
        sweep = resolution_sweep(freqs, orientation, illum, sensor)
        with open(out / f"sweep_{orientation}.csv", "w") as fh:
            fh.write("frequency_lp_mm,modulation,resolvable\n")
            for row in sweep.rows:
                fh.write(f"{row.frequency_lp_mm!r},{row.modulation!r},"
                         f"{int(row.resolvable)}\n")
        limits[orientation] = sweep.limit_lp_mm
        print(f"{orientation}: limit {sweep.limit_lp_mm} lp/mm")
    _log(out, f"resolution freqs={len(freqs)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tactwin",
        description="Tactile-sensor digital twin: simulate, decode, evaluate.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, sensor=True, noise=True):
        p.add_argument("--config", help="JSON config file (flags override)")
        if sensor:
            p.add_argument("--size", type=int, help="sensor raster in px")
            p.add_argument("--scale", type=float, help="mm per px")
        if noise:
            p.add_argument("--noise", type=float, help="pixel noise sigma")

    p = sub.add_parser("generate", help="render a synthetic labeled dataset")
    common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--suite", default="roundtrip", choices=sorted(SUITES))
    p.add_argument("--probe", choices=("sphere",), help="the spheres suite, whatever --suite")
    p.add_argument("--force-range", default="%g:%g" % DEFAULT_FORCE_RANGE)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("calibrate", help="build the decoder's model file")
    common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--suite", default="roundtrip", choices=sorted(SUITES))
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("decode", help="extract detections from a dataset")
    common(p, sensor=False)
    p.add_argument("--dataset", required=True)
    p.add_argument("--model", required=True, help="calibrate output directory")
    p.add_argument("--out", required=True)
    p.add_argument("--split", default="test", choices=(*SPLITS, "all"))
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("eval", help="score detections against annotations")
    p.add_argument("--dataset", required=True)
    p.add_argument("--detections", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--split", default="test", choices=(*SPLITS, "all"))
    p.add_argument("--iou", type=float, default=0.5)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("train-toy", help="fit the linear toy head")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--lr", type=float, default=0.02)
    p.add_argument("--epochs", type=int, default=500)
    p.add_argument("--resume", help="head.json to continue from")
    p.set_defaults(func=cmd_train_toy)

    p = sub.add_parser("resolution", help="simulated stripe-target sweep")
    common(p, noise=False)
    p.add_argument("--out", required=True)
    p.add_argument("--frequencies",
                   default="0.5,1,2,3,4,5,6,7,8,9,10,11,12")
    p.set_defaults(func=cmd_resolution)
    return parser


def _keep_freed_memory() -> None:
    """Let glibc keep freed heap memory for the next image's rasters.

    A stage frees several 3.3 MB rasters per 640 px image, which glibc by
    default gives back to the kernel: over 60 noisy roundtrip images
    ``generate`` and ``decode`` took 56k-73k and 62k-180k minor faults
    (0.18-0.42 s of system time a step), and about 7k and 300 with both
    values set. Either alone turns off glibc's dynamic threshold, and
    ``generate`` took 265k-310k. Workers and threads inherit the setting.
    One arena serves every thread, so a raster that one thread frees is
    reused by the next image, where each thread's own arena would keep its
    own high-water mark.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(-3, 32 << 20)   # M_MMAP_THRESHOLD, glibc's 64-bit maximum
    mallopt(-1, 1 << 30)    # M_TRIM_THRESHOLD
    mallopt(-8, 1)          # M_ARENA_MAX


def main(argv=None) -> int:
    _keep_freed_memory()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StaleCalibrationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STALE
    except (ConfigError, ScenarioError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ContractViolation, AssignmentError, CalibrationError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    except (IOError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
