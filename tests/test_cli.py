import hashlib
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tactwin.cli import main
from tactwin.dataset import ANNOTATION_KEYS, pgm_bytes
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

    def test_worker_count_invariance(self, tmp_path):
        args = ["generate", "--count", "8", "--seed", "5", "--suite", "spheres",
                "--force-range", "1:4", *SMALL]
        assert main(args + ["--out", str(tmp_path / "w1"), "--workers", "1"]) == 0
        assert main(args + ["--out", str(tmp_path / "w4"), "--workers", "4"]) == 0
        assert digest_tree(tmp_path / "w1") == digest_tree(tmp_path / "w4")

    def test_invalid_force_range_exit_2(self, tmp_path, capsys):
        rc = main(["generate", "--out", str(tmp_path / "x"), "--count", "5",
                   "--force-range", "5:1", *SMALL])
        assert rc == 2
        assert "force-range" in capsys.readouterr().err

    def test_probe_diameters_flags(self, tmp_path):
        rc = main(["generate", "--out", str(tmp_path / "ds"), "--count", "12",
                   "--seed", "3", "--probe", "sphere",
                   "--diameters", "10,15,20,25,30",
                   "--force-range", "0.5:10", *SMALL])
        assert rc == 0
        rows = [json.loads(line) for line in
                (tmp_path / "ds" / "annotations.jsonl").open()]
        assert {r["probe"]["diameter_mm"] for r in rows} <= {10, 15, 20, 25, 30}
        assert {r["class"] for r in rows} == {"sphere"}

    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"sensr": {}}')
        rc = main(["generate", "--out", str(tmp_path / "x"), "--count", "5",
                   "--config", str(cfg), *SMALL])
        assert rc == 2
        assert "sensr" in capsys.readouterr().err


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

    def test_zero_lr_flat_curve(self, workspace, tmp_path):
        rc = main(["train-toy", "--dataset", str(workspace / "ds"),
                   "--out", str(tmp_path / "toy"), "--epochs", "4",
                   "--lr", "0"])
        assert rc == 0
        rows = (tmp_path / "toy" / "curve.csv").read_text().splitlines()[1:]
        losses = {row.split(",")[1] for row in rows}
        assert len(losses) == 1

    def test_divergence_nonzero_exit(self, workspace, tmp_path, capsys):
        import numpy as np
        with np.errstate(over="ignore"):
            rc = main(["train-toy", "--dataset", str(workspace / "ds"),
                       "--out", str(tmp_path / "toy"), "--epochs", "60",
                       "--lr", "1000"])
        assert rc == 5
        assert "diverged" in capsys.readouterr().err


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


class TestConfigEcho:
    def test_effective_config_written(self, tmp_path):
        rc = main(["generate", "--out", str(tmp_path / "ds"), "--count", "4",
                   "--seed", "1", "--suite", "spheres",
                   "--force-range", "1:4", *SMALL])
        assert rc == 0
        echoed = json.loads((tmp_path / "ds" / "run_config.json").read_text())
        assert echoed["command"] == "generate"
        assert echoed["spec"]["sensor"]["input_size"] == 128
