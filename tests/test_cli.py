import ctypes
import hashlib
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tactwin import cli, dataset, decoder, runner
from tactwin.cli import main
from tactwin.dataset import ANNOTATION_KEYS, assign_splits, pgm_bytes
from tactwin.errors import ScenarioError
from tactwin.frames import SensorConfig
from tactwin.render import TactileImage

SMALL = ["--size", "128", "--scale", "0.25"]


def digest_tree(root: Path, skip=("run.log",)) -> dict:
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file() and path.name not in skip:
            out[str(path.relative_to(root))] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    return out


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Dataset + calibration bundle shared by the pipeline tests."""
    root = tmp_path_factory.mktemp("cli")
    rc = main(["generate", "--out", str(root / "ds"), "--count", "20",
               "--seed", "11", "--suite", "spheres", "--force-range", "1:6",
               "--noise", "0.02", *SMALL])
    assert rc == 0
    rc = main(["calibrate", "--out", str(root / "model"), "--suite", "spheres",
               "--noise", "0.02", *SMALL])
    assert rc == 0
    return root


class TestGenerate:
    def test_deterministic_manifests(self, tmp_path):
        args = ["generate", "--count", "8", "--seed", "5", "--suite", "spheres",
                "--force-range", "1:4", *SMALL]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        assert digest_tree(tmp_path / "a") == digest_tree(tmp_path / "b")

    def test_worker_count_invariance(self, tmp_path, monkeypatch):
        # 128 images at 128 px fork one worker per CPU.
        args = ["generate", "--count", str(runner.FORK_MIN_IMAGES), "--seed", "5",
                "--suite", "spheres", "--force-range", "1:4", *SMALL]
        for n in (1, 4):
            monkeypatch.setattr(runner, "_available_cpus", lambda: n)
            assert main(args + ["--out", str(tmp_path / f"w{n}")]) == 0
            assert f"workers={n}" in (tmp_path / f"w{n}" / "run.log").read_text()
        assert digest_tree(tmp_path / "w1") == digest_tree(tmp_path / "w4")

    def test_invalid_force_range_exit_2(self, tmp_path, capsys):
        rc = main(["generate", "--out", str(tmp_path / "x"), "--count", "5",
                   "--force-range", "5:1", *SMALL])
        assert rc == 2
        assert "force-range" in capsys.readouterr().err

    @pytest.mark.parametrize("force_range", ["0:inf", "0:20"])
    def test_force_range_above_max_force_exit_2(self, force_range, tmp_path, capsys):
        # No scenario takes more than contact.MAX_FORCE_N: the range is
        # rejected before any file is written.
        rc = main(["generate", "--out", str(tmp_path / "x"), "--count", "20",
                   "--seed", "0", "--force-range", force_range, *SMALL])
        err = capsys.readouterr().err
        assert rc == 2
        assert "force_range must satisfy 0 <= lo < hi <= 10" in err
        assert "Traceback" not in err
        assert not (tmp_path / "x").exists()

    def test_workers_flag_rejected_exit_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--out", str(tmp_path / "x"), "--count", "5",
                  "--workers", "2", *SMALL])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_unwritable_sample_exit_3(self, workers, tmp_path, monkeypatch, capsys):
        # A directory stands at the PGM paths of samples 3 and 7; the first
        # in order is reported, whichever worker fails first.
        count = runner.FORK_MIN_IMAGES
        splits = assign_splits(count, 5)
        for i in (3, 7):
            (tmp_path / "x" / splits[i] / f"{i:06d}.pgm").mkdir(parents=True)
        monkeypatch.setattr(runner, "_available_cpus", lambda: int(workers))
        rc = main(["generate", "--out", str(tmp_path / "x"), "--count", str(count),
                   "--seed", "5", *SMALL])
        err = capsys.readouterr().err
        assert rc == 3
        assert "failed writing sample 3 " in err and "Traceback" not in err

    def test_negative_seed_exit_2(self, tmp_path, capsys):
        rc = main(["generate", "--out", str(tmp_path / "x"), "--count", "5",
                   "--seed", "-1", *SMALL])
        err = capsys.readouterr().err
        assert rc == 2
        assert "seed" in err and "Traceback" not in err
        assert not (tmp_path / "x").exists()

    def test_probe_diameters_flags(self, tmp_path, capsys):
        # --probe sphere takes the spheres suite's diameters; --diameters is gone.
        rc = main(["generate", "--out", str(tmp_path / "ds"), "--count", "12",
                   "--seed", "3", "--probe", "sphere",
                   "--force-range", "0.5:10", *SMALL])
        assert rc == 0
        manifest = json.loads((tmp_path / "ds" / "manifest.json").read_text())
        assert manifest["spec"]["sphere_diameters"] == [10.0, 15.0, 20.0, 25.0, 30.0]
        rows = [json.loads(line) for line in
                (tmp_path / "ds" / "annotations.jsonl").open()]
        assert {r["probe"]["diameter_mm"] for r in rows} <= {10, 15, 20, 25, 30}
        assert {r["class"] for r in rows} == {"sphere"}
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--out", str(tmp_path / "x"), "--count", "5",
                  "--probe", "sphere", "--diameters", "10", *SMALL])
        assert exc.value.code == 2
        assert "--diameters" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"sensr": {}}')
        rc = main(["generate", "--out", str(tmp_path / "x"), "--count", "5",
                   "--config", str(cfg), *SMALL])
        assert rc == 2
        assert "sensr" in capsys.readouterr().err

    @pytest.mark.parametrize("text, named", [
        ("[]", "JSON object"),
        ('{"sensor": 5}', "sensor"),
        ('{"illumination": {"n_lights": "x"}}', "n_lights"),
        ('{"illumination": {"light_dirs": "x"}}', "light_dirs"),
        ('{"decode": {"template_forces": 3}}', "template_forces"),
        ('{"decode": {"threshold": "x"}}', "threshold"),
        ('{"material": {"e_star": true}}', "material.e_star"),
        ('{"material": {"e_star": "x"}}', "material.e_star"),
        ('{"decode": {"merge_dist_mm": true}}', "decode.merge_dist_mm"),
        ('{"sensor": {"scale_mm_per_px": "0.25"}}', "sensor.scale_mm_per_px"),
        ('{"illumination": {"ambient": null}}', "illumination.ambient"),
        ('{"illumination": {"light_dirs": [[0, 0, true]]}}', "illumination.light_dirs"),
        ('{"decode": {"template_forces": [2, false]}}', "decode.template_forces"),
        ('{"decode": {"canonical_size": 1.5}}', "decode.canonical_size"),
        ('{"decode": {"canonical_size": 0}}', "decode.canonical_size"),
        ('{"decode": {"min_area_mm2": -1}}', "decode.min_area_mm2"),
        ('{"decode": {"merge_dist_mm": -0.5}}', "decode.merge_dist_mm"),
        ('{"decode": {"denoise_sigma_mm": -0.1}}', "decode.denoise_sigma_mm"),
        ('{"decode": {"noise_sigma": -0.02}}', "decode.noise_sigma"),
        ('{"decode": {"rotation_step_deg": 0}}', "decode.rotation_step_deg"),
        ('{"decode": {"canonical_pad": -1}}', "decode.canonical_pad"),
        ('{"decode": {"low_eccentricity": -0.05}}', "decode.low_eccentricity"),
        # The fixed decode constants and the removed light-count alias, each
        # at a value that used to be accepted.
        ('{"decode": {"merge_dist_mm": 3.0}}', "decode.merge_dist_mm"),
        ('{"decode": {"low_eccentricity": 0.05}}', "decode.low_eccentricity"),
        ('{"decode": {"canonical_size": 64}}', "decode.canonical_size"),
        ('{"decode": {"canonical_pad": 1.15}}', "decode.canonical_pad"),
        ('{"decode": {"rotation_step_deg": 10.0}}', "decode.rotation_step_deg"),
        ('{"decode": {"template_forces": [2.0, 6.0]}}', "decode.template_forces"),
        ('{"illumination": {"n_lights": 12}}', "illumination.n_lights"),
    ], ids=["list", "sensor-number", "n-lights-string", "light-dirs-string",
            "template-forces-number", "threshold-string", "e-star-bool", "e-star-string",
            "merge-dist-bool", "scale-string", "ambient-null", "light-dirs-bool",
            "template-forces-bool", "canonical-size-fraction", "canonical-size-zero",
            "min-area-negative", "merge-dist-negative", "denoise-sigma-negative",
            "noise-sigma-negative", "rotation-step-zero", "canonical-pad-negative",
            "low-eccentricity-negative", "merge-dist-fixed", "low-eccentricity-fixed",
            "canonical-size-fixed", "canonical-pad-fixed", "rotation-step-fixed",
            "template-forces-fixed", "n-lights-removed"])
    def test_malformed_config_exit_2(self, text, named, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(text)
        rc = main(["calibrate", "--out", str(tmp_path / "x"), "--suite", "spheres",
                   "--config", str(cfg), *SMALL])
        err = capsys.readouterr().err
        assert rc == 2
        assert named in err and "Traceback" not in err


class TestPipeline:
    def test_decode_then_eval(self, workspace, tmp_path):
        rc = main(["decode", "--dataset", str(workspace / "ds"),
                   "--model", str(workspace / "model"),
                   "--out", str(tmp_path / "dets"), "--split", "all"])
        assert rc == 0
        rows = [json.loads(line) for line in
                (tmp_path / "dets" / "detections.jsonl").open()]
        assert rows and all(r["class"] == "sphere" for r in rows)
        rc = main(["eval", "--dataset", str(workspace / "ds"),
                   "--detections", str(tmp_path / "dets" / "detections.jsonl"),
                   "--out", str(tmp_path / "report"), "--split", "all"])
        assert rc == 0
        report = json.loads((tmp_path / "report" / "report.json").read_text())
        assert report["overall"]["recall"] == 1.0
        assert report["overall"]["force_mae_n"] < 0.2
        assert (tmp_path / "report" / "report.txt").exists()

    def test_stale_calibration_exit_4(self, workspace, tmp_path, capsys):
        # decoding with a different noise setting changes the parameter hash
        rc = main(["decode", "--dataset", str(workspace / "ds"),
                   "--model", str(workspace / "model"),
                   "--out", str(tmp_path / "dets"), "--noise", "0.05"])
        assert rc == 4
        err = capsys.readouterr().err
        assert "hash" in err

    @staticmethod
    def write_two_file_model(model: Path, data: dict, version: int):
        """The model ``data`` in the layout of schema versions 1 and 2: one
        table per class in calibration.json, each with its own schema version
        and hash, and the masks and offsets in templates.json."""
        model.mkdir()
        (model / "calibration.json").write_text(json.dumps({
            cls: {"schema_version": version, "class_name": cls,
                  "params_hash": data["params_hash"], "curves": entry["curves"]}
            for cls, entry in data["classes"].items()}))
        (model / "templates.json").write_text(json.dumps({
            "schema_version": version, "params_hash": data["params_hash"],
            "canonical_size": 64, "classes": list(data["classes"]),
            "offsets": {cls: e["offset"] for cls, e in data["classes"].items()},
            "variants": {cls: e["variants"] for cls, e in data["classes"].items()}}))

    def decode_model(self, workspace, tmp_path, capsys):
        rc = main(["decode", "--dataset", str(workspace / "ds"),
                   "--model", str(tmp_path / "model"),
                   "--out", str(tmp_path / "dets")])
        return rc, capsys.readouterr().err

    def test_schema_1_model_exit_4(self, workspace, tmp_path, capsys):
        # A schema-1 model fits force on area, contrast and energy; its
        # curves have no radius of gyration.
        data = json.loads((workspace / "model" / "calibration.json").read_text())
        for entry in data["classes"].values():
            for curve in entry["curves"]:
                del curve["gyrations"]
                curve["areas"] = curve["contrasts"] = [0.0] * len(curve["forces"])
        self.write_two_file_model(tmp_path / "model", data, 1)
        rc, err = self.decode_model(workspace, tmp_path, capsys)
        assert rc == 4
        assert ("stale calibration: expected schema version 3, found 1 in the old "
                "two-file layout (calibration.json and templates.json)") in err

    def test_two_file_model_exit_4(self, workspace, tmp_path, capsys):
        # The last two-file model differs from the one-file model only in its
        # layout: its tables and masks would decode as they are.
        data = json.loads((workspace / "model" / "calibration.json").read_text())
        self.write_two_file_model(tmp_path / "model", data, 2)
        rc, err = self.decode_model(workspace, tmp_path, capsys)
        assert rc == 4
        assert ("expected schema version 3, found 2 in the old two-file layout "
                "(calibration.json and templates.json)") in err

    def test_model_of_another_schema_version_exit_4(self, workspace, tmp_path, capsys):
        shutil.copytree(workspace / "model", tmp_path / "model")
        path = tmp_path / "model" / "calibration.json"
        data = json.loads(path.read_text())
        data["schema_version"] = 4
        path.write_text(json.dumps(data))
        rc, err = self.decode_model(workspace, tmp_path, capsys)
        assert rc == 4
        assert "stale calibration: expected schema version 3, found 4\n" in err

    def test_model_on_another_force_grid_exit_4(self, tmp_path, monkeypatch, capsys):
        # The force grid enters the parameter hash: a model swept on the old
        # 0.25 N grid decodes on that grid and is stale on the default one.
        args = ["--suite", "spheres", "--size", "160", "--scale", "0.2", "--noise", "0.02"]
        assert main(["generate", "--out", str(tmp_path / "ds"), "--count", "2",
                     "--seed", "5", *args]) == 0
        monkeypatch.setattr(decoder, "CALIBRATION_FORCES",
                            tuple(np.arange(0.0, 10.0 + 1e-9, 0.25)))
        assert main(["calibrate", "--out", str(tmp_path / "model"), *args]) == 0
        model = json.loads((tmp_path / "model" / "calibration.json").read_text())
        assert {curve["forces"][-2] for entry in model["classes"].values()
                for curve in entry["curves"]} == {9.75}
        decode = ["decode", "--dataset", str(tmp_path / "ds"), "--model",
                  str(tmp_path / "model"), "--split", "all"]
        assert main([*decode, "--out", str(tmp_path / "dets")]) == 0
        monkeypatch.undo()
        capsys.readouterr()
        assert main([*decode, "--out", str(tmp_path / "stale")]) == 4
        assert "hash" in capsys.readouterr().err

    def test_decode_missing_dataset_exit_3(self, workspace, tmp_path):
        rc = main(["decode", "--dataset", str(tmp_path / "nope"),
                   "--model", str(workspace / "model"),
                   "--out", str(tmp_path / "dets")])
        assert rc == 3

    def test_decode_subthreshold_dataset_empty_detections(self, workspace,
                                                          tmp_path):
        # forces far below the visibility floor render as blank images
        rc = main(["generate", "--out", str(tmp_path / "blank"), "--count", "4",
                   "--seed", "2", "--suite", "spheres",
                   "--force-range", "0.0005:0.001", "--noise", "0.02", *SMALL])
        assert rc == 0
        rc = main(["decode", "--dataset", str(tmp_path / "blank"),
                   "--model", str(workspace / "model"),
                   "--out", str(tmp_path / "dets"), "--split", "all"])
        assert rc == 0
        assert (tmp_path / "dets" / "detections.jsonl").read_text() == ""

    def test_truncated_pgm_exit_3(self, workspace, tmp_path, capsys):
        ds = tmp_path / "ds"
        shutil.copytree(workspace / "ds", ds)
        victim = sorted((ds / "train").glob("*.pgm"))[0]
        victim.write_bytes(victim.read_bytes()[:-7])
        rc = main(["decode", "--dataset", str(ds),
                   "--model", str(workspace / "model"),
                   "--out", str(tmp_path / "dets"), "--split", "all"])
        assert rc == 3
        assert victim.name in capsys.readouterr().err

    def test_unknown_decode_key_exit_2(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"decode": {"thresold": 0.1}}')
        rc = main(["decode", "--dataset", str(workspace / "ds"),
                   "--model", str(workspace / "model"),
                   "--out", str(tmp_path / "dets"), "--config", str(cfg)])
        assert rc == 2
        assert "thresold" in capsys.readouterr().err

    def test_eval_row_without_cx_exit_3(self, workspace, tmp_path, capsys):
        dets = tmp_path / "dets.jsonl"
        dets.write_text('{"index": 0, "class": "sphere", "cy_mm": 0, "w_mm": 1, '
                        '"h_mm": 1, "theta_deg": 0, "force_n": 1, "score": 1}\n')
        rc = main(["eval", "--dataset", str(workspace / "ds"),
                   "--detections", str(dets), "--out", str(tmp_path / "report")])
        assert rc == 3
        err = capsys.readouterr().err
        assert f"{dets}:1" in err and "cx_mm" in err

    def test_eval_far_detection_is_false_positive(self, workspace, tmp_path):
        annotations = read_rows(workspace / "ds" / "annotations.jsonl")
        detections = detections_from(annotations)
        detections[0]["cx_mm"] = 1e308
        write_rows(tmp_path / "dets.jsonl", detections)
        rc = main(["eval", "--dataset", str(workspace / "ds"),
                   "--detections", str(tmp_path / "dets.jsonl"),
                   "--out", str(tmp_path / "report"), "--split", "all"])
        assert rc == 0
        overall = json.loads((tmp_path / "report" / "report.json").read_text())["overall"]
        assert overall["n_det"] == len(detections)
        assert overall["tp"] == len(detections) - 1

    @pytest.mark.parametrize("iou", ["nan", "0", "-1", "1.5"])
    def test_eval_iou_outside_unit_interval_exit_2(self, workspace, tmp_path, capsys, iou):
        write_rows(tmp_path / "dets.jsonl",
                   detections_from(read_rows(workspace / "ds" / "annotations.jsonl")))
        rc = main(["eval", "--dataset", str(workspace / "ds"),
                   "--detections", str(tmp_path / "dets.jsonl"),
                   "--out", str(tmp_path / "report"), "--split", "all", "--iou", iou])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err and "IoU threshold" in err and "Traceback" not in err
        assert not (tmp_path / "report").exists()


DROP = object()   # stands for a field removed from a row


def write_rows(path: Path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))


def detections_from(annotations):
    """One perfect detection per annotation row."""
    return [{**{k: a[k] for k in ANNOTATION_KEYS if k not in ("probe", "seed")},
             "score": 0.9} for a in annotations]


def read_rows(path: Path):
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestMalformedInputs:
    """Bad rasters and rows end in an exit code and a message, not a traceback."""

    def shrink_first_image(self, ds: Path) -> Path:
        victim = sorted((ds / "train").glob("*.pgm"))[0]
        victim.write_bytes(pgm_bytes(TactileImage(np.full((64, 64), 0.5), 0.25)))
        return victim

    def test_decode_raster_size_mismatch_exit_3(self, workspace, tmp_path, capsys):
        ds = tmp_path / "ds"
        shutil.copytree(workspace / "ds", ds)
        victim = self.shrink_first_image(ds)
        rc = main(["decode", "--dataset", str(ds),
                   "--model", str(workspace / "model"),
                   "--out", str(tmp_path / "dets"), "--split", "all"])
        assert rc == 3
        err = capsys.readouterr().err
        assert victim.name in err and "64x64" in err

    def test_train_toy_raster_size_mismatch_exit_3(self, workspace, tmp_path,
                                                   capsys):
        ds = tmp_path / "ds"
        shutil.copytree(workspace / "ds", ds)
        victim = self.shrink_first_image(ds)
        rc = main(["train-toy", "--dataset", str(ds),
                   "--out", str(tmp_path / "toy"), "--epochs", "2"])
        assert rc == 3
        assert victim.name in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("cx_mm", DROP), ("cx_mm", "abc"), ("theta_deg", None), ("class", 7),
        ("force_n", "1"), ("w_mm", -1)])
    def test_eval_bad_annotation_row_exit_3(self, workspace, tmp_path, capsys,
                                            key, value):
        rows = read_rows(workspace / "ds" / "annotations.jsonl")
        write_rows(tmp_path / "dets.jsonl", detections_from(rows))
        if value is DROP:
            del rows[3][key]
        else:
            rows[3][key] = value
        ds = tmp_path / "ds"
        ds.mkdir()
        write_rows(ds / "annotations.jsonl", rows)
        rc = main(["eval", "--dataset", str(ds),
                   "--detections", str(tmp_path / "dets.jsonl"),
                   "--out", str(tmp_path / "report"), "--split", "all"])
        assert rc == 3
        err = capsys.readouterr().err
        assert f"{ds / 'annotations.jsonl'}:4" in err and key in err

    def test_train_toy_row_without_split_exit_3(self, workspace, tmp_path,
                                                capsys):
        ds = tmp_path / "ds"
        shutil.copytree(workspace / "ds", ds)
        rows = read_rows(ds / "annotations.jsonl")
        del rows[0]["split"]
        write_rows(ds / "annotations.jsonl", rows)
        rc = main(["train-toy", "--dataset", str(ds),
                   "--out", str(tmp_path / "toy"), "--epochs", "2"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "annotations.jsonl:1" in err and "split" in err

    JSON = st.recursive(
        st.none() | st.booleans() | st.integers() | st.text(max_size=6)
        | st.floats(allow_nan=False, allow_infinity=False),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=6)

    @given(in_annotations=st.booleans(), row=st.integers(0, 19),
           key=st.sampled_from(sorted(set(ANNOTATION_KEYS) | {"score"})),
           value=st.just(DROP) | JSON)
    @settings(max_examples=150, deadline=None)
    def test_fuzzed_row_never_raises(self, workspace, in_annotations, row, key,
                                     value):
        annotations = read_rows(workspace / "ds" / "annotations.jsonl")
        detections = detections_from(annotations)
        target = (annotations if in_annotations else detections)[row]
        if value is DROP:
            target.pop(key, None)
        else:
            target[key] = value
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            (tmp / "ds").mkdir()
            write_rows(tmp / "ds" / "annotations.jsonl", annotations)
            write_rows(tmp / "dets.jsonl", detections)
            rc = main(["eval", "--dataset", str(tmp / "ds"),
                       "--detections", str(tmp / "dets.jsonl"),
                       "--out", str(tmp / "report"), "--split", "all"])
        assert rc in {0, 2, 3, 4, 5}


def truncate(path: Path):
    path.write_bytes(path.read_bytes()[:path.stat().st_size // 2])


def edit(*keys, value=DROP, keep=None):
    """A corruption of the value at ``keys`` in a JSON file: it is deleted,
    set to ``value``, or cut to its first ``keep`` items."""
    def corrupt(path: Path):
        data = json.loads(path.read_text())
        node = data
        for key in keys[:-1]:
            node = node[key]
        if keep is not None:
            del node[keys[-1]][keep:]
        elif value is DROP:
            del node[keys[-1]]
        else:
            node[keys[-1]] = value
        path.write_text(json.dumps(data))
    return corrupt


drop = edit


def change(*keys, fn):
    """A corruption that replaces the value at ``keys`` in a JSON file by
    ``fn`` of it."""
    def corrupt(path: Path):
        data = json.loads(path.read_text())
        node = data
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = fn(node[keys[-1]])
        path.write_text(json.dumps(data))
    return corrupt


def one_force(curve: dict) -> dict:
    return {k: v[:1] if isinstance(v, list) else v for k, v in curve.items()}


def swap_3_4(values: list) -> list:
    return values[:3] + values[4:2:-1] + values[5:]


SPHERE = ("classes", "sphere")


class TestCorruptJsonInputs:
    """A corrupt JSON input is an I/O error (exit 3) that names the file."""

    # A model class without curves or variants, or with a curve column or a
    # mask of the wrong size, is a file fault: exit 3, never a traceback or
    # the internal-error exit 5 at decode time.
    @pytest.mark.parametrize("victim, corrupt, named", [
        ("model/calibration.json", truncate, "JSONDecodeError"),
        ("model/calibration.json", drop(*SPHERE, "variants"), "'variants'"),
        ("model/calibration.json", drop(*SPHERE, "curves"), "'curves'"),
        ("model/calibration.json", edit(*SPHERE, "curves", value=[]),
         "classes.sphere.curves is empty"),
        ("model/calibration.json", edit(*SPHERE, "variants", value=[]),
         "classes.sphere.variants is empty"),
        ("model/calibration.json", edit("classes", value={}), "classes is empty"),
        ("model/calibration.json", edit(*SPHERE, "curves", 0, "energies", keep=5),
         "classes.sphere.curves[0].energies has 5 values, forces has 11"),
        ("model/calibration.json", edit(*SPHERE, "variants", 1, "mask", keep=10),
         "classes.sphere.variants[1].mask is not 64 x 64"),
        ("model/calibration.json", edit(*SPHERE, "variants", 0, "mask", 3, value="01"),
         "classes.sphere.variants[0].mask is not 64 x 64"),
        # What calibrate guarantees beyond the shapes: a curve has two forces
        # or more, from 0 and rising, and finite, rising energies; a mask
        # holds 0s and 1s; the offset and template forces are finite.
        ("model/calibration.json", edit(*SPHERE, "curves", 0, "energies", 3,
                                        value=float("nan")),
         "classes.sphere.curves[0].energies must be a list of finite numbers"),
        ("model/calibration.json", change(*SPHERE, "curves", 0, "energies", fn=swap_3_4),
         "classes.sphere.curves[0].energies must rise strictly"),
        ("model/calibration.json", change(*SPHERE, "curves", 0, "forces",
                                          fn=lambda f: f[::-1]),
         "classes.sphere.curves[0].forces must start at 0 and rise strictly"),
        ("model/calibration.json", change(*SPHERE, "curves", 0, fn=one_force),
         "classes.sphere.curves[0].forces has 1 values, needs at least 2"),
        ("model/calibration.json", edit(*SPHERE, "curves", 0, "energies", value="x" * 11),
         "classes.sphere.curves[0].energies must be a list of finite numbers"),
        ("model/calibration.json", edit(*SPHERE, "variants", 0, "mask", 5, value="2" * 64),
         "classes.sphere.variants[0].mask holds characters other than 0 and 1"),
        ("model/calibration.json", edit(*SPHERE, "offset", value="x"),
         "classes.sphere.offset must be a finite number, got 'x'"),
        ("model/calibration.json", edit(*SPHERE, "variants", 1, "force_n",
                                        value=float("nan")),
         "classes.sphere.variants[1].force_n must be a finite number, got nan"),
        ("ds/manifest.json", truncate, "JSONDecodeError"),
        ("ds/manifest.json", drop("spec", "sensor"), "'sensor'"),
    ], ids=["truncated-calibration", "class-without-variants", "class-without-curves",
            "class-with-empty-curves", "class-with-empty-variants", "no-classes",
            "short-curve-column", "mask-of-10-rows", "short-mask-row",
            "nan-energy", "swapped-energies", "reversed-forces", "one-force-curve",
            "energies-as-string", "mask-row-of-2s", "offset-not-a-number",
            "nan-template-force", "truncated-manifest", "manifest-without-sensor"])
    def test_decode_exit_3(self, workspace, tmp_path, capsys, victim, corrupt, named):
        for name in ("ds", "model"):
            shutil.copytree(workspace / name, tmp_path / name)
        corrupt(tmp_path / victim)
        rc = main(["decode", "--dataset", str(tmp_path / "ds"),
                   "--model", str(tmp_path / "model"),
                   "--out", str(tmp_path / "dets"), "--split", "all"])
        err = capsys.readouterr().err
        assert rc == 3
        assert str(tmp_path / victim) in err and named in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("key", ["sensor", "material", "illumination"])
    @pytest.mark.parametrize("command", ["decode", "train-toy"])
    def test_manifest_section_not_object_exit_3(self, workspace, tmp_path, capsys,
                                                key, command):
        shutil.copytree(workspace / "ds", tmp_path / "ds")
        manifest = tmp_path / "ds" / "manifest.json"
        data = json.loads(manifest.read_text())
        data["spec"][key] = 5
        manifest.write_text(json.dumps(data))
        argv = {"decode": ["decode", "--model", str(workspace / "model"), "--split", "all"],
                "train-toy": ["train-toy", "--epochs", "1"]}[command]
        rc = main([*argv, "--dataset", str(tmp_path / "ds"), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 3
        assert str(manifest) in err and f"spec.{key}" in err
        assert "Traceback" not in err

    def test_truncated_resume_head_exit_3(self, workspace, tmp_path, capsys):
        rc = main(["train-toy", "--dataset", str(workspace / "ds"),
                   "--out", str(tmp_path / "toy"), "--epochs", "1"])
        assert rc == 0
        head = tmp_path / "toy" / "head.json"
        truncate(head)
        capsys.readouterr()
        rc = main(["train-toy", "--dataset", str(workspace / "ds"),
                   "--out", str(tmp_path / "toy2"), "--epochs", "1",
                   "--resume", str(head)])
        err = capsys.readouterr().err
        assert rc == 3
        assert str(head) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("key", ["window_radius", "sigma"])
    def test_resume_head_with_other_angle_label_exit_3(self, workspace, tmp_path,
                                                        capsys, key):
        # Training always uses the fixed angle label, so a head that records
        # another window or sigma would be trained under values it misstates.
        rc = main(["train-toy", "--dataset", str(workspace / "ds"),
                   "--out", str(tmp_path / "toy"), "--epochs", "1"])
        assert rc == 0
        head = tmp_path / "toy" / "head.json"
        data = json.loads(head.read_text())
        assert (data["window_radius"], data["sigma"]) == (6.0, 4.0)
        data[key] = 3.0
        head.write_text(json.dumps(data))
        capsys.readouterr()
        rc = main(["train-toy", "--dataset", str(workspace / "ds"),
                   "--out", str(tmp_path / "toy2"), "--epochs", "1",
                   "--resume", str(head)])
        err = capsys.readouterr().err
        assert rc == 3
        assert str(head) in err and key in err
        assert "Traceback" not in err
        assert not (tmp_path / "toy2").exists()


class TestTrainToy:
    def test_train_and_resume(self, workspace, tmp_path):
        rc = main(["train-toy", "--dataset", str(workspace / "ds"),
                   "--out", str(tmp_path / "toy"), "--epochs", "10",
                   "--lr", "0.02"])
        assert rc == 0
        head = tmp_path / "toy" / "head.json"
        curve = (tmp_path / "toy" / "curve.csv").read_text().splitlines()
        assert curve[0] == "epoch,loss"
        assert len(curve) == 11
        rc = main(["train-toy", "--dataset", str(workspace / "ds"),
                   "--out", str(tmp_path / "toy2"), "--epochs", "3",
                   "--lr", "0.02", "--resume", str(head)])
        assert rc == 0
        rc = main(["train-toy", "--dataset", str(workspace / "ds"),
                   "--out", str(tmp_path / "toy3"), "--epochs", "3",
                   "--lr", "0.02", "--resume", str(head)])
        assert rc == 0
        assert ((tmp_path / "toy2" / "curve.csv").read_text()
                == (tmp_path / "toy3" / "curve.csv").read_text())

    def test_same_bytes_at_1_and_2_blas_threads(self, tmp_path):
        # OpenBLAS 0.3.31 splits the sums of a product over about 23,000 rows
        # or more among its threads. Training merges the cells that share a
        # feature row and an objectness target; with noise no two rows are
        # equal, so the 98 training samples of 336 cells each keep 32,928
        # rows, and the bytes would follow the CPU count if training summed
        # them that way.
        ds = tmp_path / "ds"
        assert main(["generate", "--out", str(ds), "--count", "120", "--seed", "41",
                     "--probe", "sphere", "--force-range", "0.2:3", "--noise", "0.02",
                     *SMALL]) == 0
        src = str(Path(__file__).resolve().parents[1] / "src")
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"toy{threads}"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(
                       p for p in (src, os.environ.get("PYTHONPATH")) if p)}
            run = subprocess.run(
                [sys.executable, "-m", "tactwin.cli", "train-toy", "--dataset", str(ds),
                 "--out", str(out), "--epochs", "20"],
                env=env, capture_output=True, text=True, timeout=300)
            assert run.returncode == 0, run.stderr
            outputs.append([(out / name).read_bytes() for name in ("head.json", "curve.csv")])
        assert outputs[0][1].count(b"\n") == 21
        assert outputs[0] == outputs[1]

    def test_zero_lr_flat_curve(self, workspace, tmp_path):
        rc = main(["train-toy", "--dataset", str(workspace / "ds"),
                   "--out", str(tmp_path / "toy"), "--epochs", "4",
                   "--lr", "0"])
        assert rc == 0
        rows = (tmp_path / "toy" / "curve.csv").read_text().splitlines()[1:]
        losses = {row.split(",")[1] for row in rows}
        assert len(losses) == 1

    def test_resume_head_of_another_version_exit_3(self, workspace, tmp_path, capsys):
        rc = main(["train-toy", "--dataset", str(workspace / "ds"),
                   "--out", str(tmp_path / "toy"), "--epochs", "1"])
        assert rc == 0
        head = tmp_path / "toy" / "head.json"
        data = json.loads(head.read_text())
        assert data["version"] == 1
        data["version"] = 2
        head.write_text(json.dumps(data))
        capsys.readouterr()
        rc = main(["train-toy", "--dataset", str(workspace / "ds"),
                   "--out", str(tmp_path / "toy2"), "--epochs", "1",
                   "--resume", str(head)])
        err = capsys.readouterr().err
        assert rc == 3
        assert str(head) in err and "version must be 1, got 2" in err
        assert "Traceback" not in err
        assert not (tmp_path / "toy2").exists()

    def test_zero_epochs_exit_0(self, workspace, tmp_path, capsys):
        rc = main(["train-toy", "--dataset", str(workspace / "ds"),
                   "--out", str(tmp_path / "toy"), "--epochs", "0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "trained 0 epochs" in out and "final loss" not in out
        assert (tmp_path / "toy" / "curve.csv").read_text() == "epoch,loss\n"
        assert (tmp_path / "toy" / "head.json").is_file()

    def test_divergence_nonzero_exit(self, workspace, tmp_path, capsys):
        import numpy as np
        with np.errstate(over="ignore"):
            rc = main(["train-toy", "--dataset", str(workspace / "ds"),
                       "--out", str(tmp_path / "toy"), "--epochs", "60",
                       "--lr", "1000"])
        assert rc == 5
        assert "diverged" in capsys.readouterr().err

    @pytest.mark.parametrize("lr", ["nan", "inf", "-1"])
    def test_bad_lr_exit_2(self, workspace, tmp_path, capsys, lr):
        rc = main(["train-toy", "--dataset", str(workspace / "ds"),
                   "--out", str(tmp_path / "toy"), "--epochs", "2", "--lr", lr])
        err = capsys.readouterr().err
        assert rc == 2
        assert "learning_rate" in err and "Traceback" not in err
        assert not (tmp_path / "toy").exists()


class TestResolution:
    def test_both_orientations_and_limit(self, tmp_path):
        rc = main(["resolution", "--out", str(tmp_path / "res"),
                   "--frequencies", "0.5,1,2,3,4"])
        assert rc == 0
        for orientation in ("horizontal", "vertical"):
            csv = (tmp_path / "res" / f"sweep_{orientation}.csv").read_text()
            lines = csv.splitlines()
            assert lines[0] == "frequency_lp_mm,modulation,resolvable"
            assert len(lines) == 6

    def test_rerun_byte_identical(self, tmp_path):
        args = ["resolution", "--frequencies", "0.5,2"]
        assert main(args + ["--out", str(tmp_path / "r1")]) == 0
        assert main(args + ["--out", str(tmp_path / "r2")]) == 0
        assert digest_tree(tmp_path / "r1") == digest_tree(tmp_path / "r2")

    @pytest.mark.parametrize("freqs", ["a,b", "", "nan"])
    def test_bad_frequencies_exit_2(self, tmp_path, capsys, freqs):
        rc = main(["resolution", "--out", str(tmp_path / "res"), "--frequencies", freqs,
                   *SMALL])
        err = capsys.readouterr().err
        assert rc == 2
        assert "--frequencies" in err and "Traceback" not in err
        assert not (tmp_path / "res").exists()


class TestConfigEcho:
    def test_effective_config_written(self, tmp_path):
        rc = main(["generate", "--out", str(tmp_path / "ds"), "--count", "4",
                   "--seed", "1", "--suite", "spheres",
                   "--force-range", "1:4", *SMALL])
        assert rc == 0
        echoed = json.loads((tmp_path / "ds" / "run_config.json").read_text())
        assert echoed["command"] == "generate"
        assert echoed["spec"]["sensor"]["input_size"] == 128


class TestCalibrateWorkers:
    """Calibration output and errors do not depend on the worker count."""

    ARGS = ["--size", "160", "--scale", "0.2", "--noise", "0.02"]

    @staticmethod
    def use_cpus(monkeypatch, n):
        monkeypatch.setattr(runner, "_available_cpus", lambda: n)

    @pytest.mark.parametrize("suite", ["roundtrip", "spheres"])
    def test_same_bytes_at_1_and_2_workers(self, suite, tmp_path, monkeypatch):
        files = []
        for n in (1, 2):
            self.use_cpus(monkeypatch, n)
            out = tmp_path / f"w{n}"
            assert main(["calibrate", "--out", str(out), "--suite", suite, *self.ARGS]) == 0
            assert multiprocessing.active_children() == []
            assert sorted(p.name for p in out.iterdir()) == [
                "calibration.json", "run.log", "run_config.json"]
            files.append((out / "calibration.json").read_bytes())
        assert files[0] == files[1]

    def test_failing_sweep_same_error_at_1_and_2_workers(self, tmp_path, monkeypatch,
                                                          capsys):
        # Two sphere variants lose their blob: 10 mm late in its sweep and
        # 15 mm early in its own. Two workers start both at once and finish
        # 15 mm first, but the first in suite order is reported, as in a
        # serial run. Fork hands the patch to the workers.
        calibration_blobs = decoder._calibration_blobs

        def vanishing(probe, force, *args):
            blobs, gt = calibration_blobs(probe, force, *args)
            if (probe.diameter_mm, force) in ((10.0, 9.0), (15.0, 2.0)):
                return [], gt
            return blobs, gt

        monkeypatch.setattr(decoder, "_calibration_blobs", vanishing)
        errors = []
        for n in (1, 2):
            self.use_cpus(monkeypatch, n)
            rc = main(["calibrate", "--out", str(tmp_path / f"w{n}"),
                       "--suite", "spheres", *self.ARGS])
            assert rc == 5
            assert multiprocessing.active_children() == []
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert "blob vanished at 9.0 N" in errors[0] and "Traceback" not in errors[0]


class TestThreadedGenerateAndDecode:
    """Datasets, detections and the first error do not depend on how many
    threads or forked workers generate and decode run on, and no thread or
    worker process outlives a command."""

    @staticmethod
    def use_cpus(monkeypatch, n):
        monkeypatch.setattr(runner, "_available_cpus", lambda: n)

    def test_default_threads_follow_the_raster(self, monkeypatch):
        self.use_cpus(monkeypatch, 3)
        small = SensorConfig(input_size=128, scale_mm_per_px=0.25)
        floor = runner.FORK_MIN_IMAGES
        assert runner.render_workers(small, floor) == (3, True)
        assert runner.render_workers(small, floor - 1) == (1, True)
        assert runner.render_workers(small, 8, workers=4) == (4, True)
        assert runner.render_workers(SensorConfig(), 8) == (3, False)
        assert runner.render_workers(SensorConfig(), 2) == (2, False)

    def test_128px_above_the_floor_same_bytes_at_1_and_2_cpus(self, tmp_path, monkeypatch):
        trees = []
        for n in (1, 2):
            self.use_cpus(monkeypatch, n)
            threads = threading.active_count()
            ds = tmp_path / f"ds{n}"
            assert main(["generate", "--out", str(ds), "--count", str(runner.FORK_MIN_IMAGES),
                         "--seed", "19", "--suite", "spheres", "--noise", "0.02", *SMALL]) == 0
            assert multiprocessing.active_children() == []
            assert threading.active_count() == threads
            assert f"workers={n}" in (ds / "run.log").read_text()
            trees.append(digest_tree(ds))
        assert len(trees[0]) == runner.FORK_MIN_IMAGES + 3
        assert trees[0] == trees[1]

    # At the floor two forked workers take chunks of a quarter of their share,
    # so the second worker starts at sample CHUNK and fails there before the
    # first worker reaches its earlier failure.
    COUNT = runner.FORK_MIN_IMAGES
    CHUNK = COUNT // 8

    def forked_errors(self, tmp_path, monkeypatch, capsys, expected_rc):
        errors = []
        for n in (1, 2):
            self.use_cpus(monkeypatch, n)
            threads = threading.active_count()
            rc = main(["generate", "--out", str(tmp_path / "x"), "--count", str(self.COUNT),
                       "--seed", "5", *SMALL])
            assert rc == expected_rc
            assert multiprocessing.active_children() == []
            assert threading.active_count() == threads
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] and "Traceback" not in errors[0]
        return errors[0]

    def test_unwritable_sample_on_forked_workers_exit_3(self, tmp_path, monkeypatch, capsys):
        splits = assign_splits(self.COUNT, 5)
        for i in (3, 7, self.CHUNK):
            (tmp_path / "x" / splits[i] / f"{i:06d}.pgm").mkdir(parents=True)
        err = self.forked_errors(tmp_path, monkeypatch, capsys, 3)
        assert "failed writing sample 3 " in err

    def test_scenario_error_on_forked_workers_exit_2(self, tmp_path, monkeypatch, capsys):
        sample_for_index = dataset.sample_for_index

        def failing(spec, index):
            if index in (5, self.CHUNK):
                raise ScenarioError(f"probe leaves the sensor at sample {index}")
            return sample_for_index(spec, index)

        monkeypatch.setattr(dataset, "sample_for_index", failing)
        err = self.forked_errors(tmp_path, monkeypatch, capsys, 2)
        assert "probe leaves the sensor at sample 5\n" in err

    def test_640px_same_bytes_at_1_and_2_cpus(self, roundtrip_decoder, tmp_path,
                                              monkeypatch):
        model = tmp_path / "model"
        model.mkdir()
        (model / "calibration.json").write_text(json.dumps(roundtrip_decoder.to_json()))
        outputs = []
        for n in (1, 2):
            self.use_cpus(monkeypatch, n)
            threads = threading.active_count()
            ds, dets = tmp_path / f"ds{n}", tmp_path / f"dets{n}"
            assert main(["generate", "--out", str(ds), "--count", "8", "--seed", "17",
                         "--suite", "roundtrip", "--noise", "0.02"]) == 0
            assert threading.active_count() == threads
            assert f"workers={n}" in (ds / "run.log").read_text()
            assert main(["decode", "--dataset", str(ds), "--model", str(model),
                         "--out", str(dets), "--split", "all"]) == 0
            assert threading.active_count() == threads
            outputs.append((digest_tree(ds), (dets / "detections.jsonl").read_bytes()))
        assert outputs[0][1].count(b"\n") >= 8
        assert outputs[0] == outputs[1]

    def test_first_bad_row_reported_at_1_and_2_cpus(self, workspace, tmp_path,
                                                    monkeypatch, capsys):
        # Rows 3 and 7 have truncated PGMs. On a pool thread, row 3 waits to
        # load until row 7 has failed, so two threads finish the later
        # failure first; both counts must report row 3, as a serial run does.
        ds = tmp_path / "ds"
        shutil.copytree(workspace / "ds", ds)
        rows = read_rows(ds / "annotations.jsonl")
        for row in (rows[3], rows[7]):
            truncate(ds / row["split"] / f"{row['index']:06d}.pgm")
        load = cli.load_sample_image
        row_7_failed = threading.Event()

        def ordered(dataset, ann, sensor):
            if ann["index"] == 3 and threading.current_thread() is not threading.main_thread():
                assert row_7_failed.wait(timeout=60)
            try:
                return load(dataset, ann, sensor)
            except IOError:
                if ann["index"] == 7:
                    row_7_failed.set()
                raise

        monkeypatch.setattr(cli, "load_sample_image", ordered)
        errors = []
        for n in (1, 2):
            self.use_cpus(monkeypatch, n)
            row_7_failed.clear()
            threads = threading.active_count()
            rc = main(["decode", "--dataset", str(ds), "--model", str(workspace / "model"),
                       "--out", str(tmp_path / f"dets{n}"), "--split", "all"])
            assert rc == 3
            assert threading.active_count() == threads
            assert row_7_failed.is_set() == (n == 2)
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert "000003.pgm" in errors[0] and "Traceback" not in errors[0]

    def test_units_not_started_are_cancelled(self):
        started = []

        def unit(i):
            started.append(i)
            if i == 0:
                raise ValueError("unit 0")
            time.sleep(0.05)
            return i

        threads = threading.active_count()
        with pytest.raises(ValueError, match="unit 0"):
            runner.run_units([lambda i=i: unit(i) for i in range(40)], workers=2)
        assert threading.active_count() == threads
        assert len(started) < 40
        assert runner.run_units([lambda i=i: i * i for i in range(40)], workers=3) == [
            i * i for i in range(40)]

    def test_forked_chunks_keep_order_and_first_failure(self):
        # Two workers take chunks of 40 // (4 * 2) = 5 units. The second chunk
        # fails at once, while the first still sleeps before its own failure
        # at unit 3.
        def unit(i):
            if i in (3, 5):
                raise ValueError(f"unit {i}")
            time.sleep(0.05 if i < 3 else 0)
            return i * i

        squares = [lambda i=i: i * i for i in range(40)]
        assert runner.run_units(squares, workers=2, fork=True) == [
            i * i for i in range(40)]
        with pytest.raises(ValueError, match="unit 3"):
            runner.run_units([lambda i=i: unit(i) for i in range(40)], workers=2, fork=True)
        assert multiprocessing.active_children() == []


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


# Each cycle holds a 640 px float64 raster and one temporary of its size, as
# a stage of the image path does. glibc's default thresholds keep a single
# freed raster, but give two back to the kernel, so every cycle faults them
# in again (about 1,570 faults a cycle).
FAULT_SCRIPT = """
import resource, sys
import numpy as np
from tactwin import cli

def faults():
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(20):
        raster = np.empty((640, 640))
        raster.fill(1.0)
        temporary = raster * 2.0
        del raster, temporary
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

imported = faults()
code = cli.main(["generate", "--out", sys.argv[1], "--count", "1",
                 "--size", "128", "--scale", "0.25"])
print(code, imported, faults())
"""


class TestKeepFreedMemory:
    @pytest.mark.skipif(not _has_mallopt(), reason="no glibc mallopt")
    def test_main_keeps_freed_rasters(self, tmp_path):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        run = subprocess.run([sys.executable, "-c", FAULT_SCRIPT, str(tmp_path / "ds")],
                             env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        code, imported, after_main = map(int, run.stdout.split()[-3:])
        assert code == 0
        assert imported > 10_000
        assert after_main * 10 <= imported
