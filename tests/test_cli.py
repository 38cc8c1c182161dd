"""End-to-end command-line tests: exit codes, file outputs, rerun stability."""

import json
import os
import re
import struct
import subprocess
import sys
import csv
from pathlib import Path

import numpy as np
import pytest

import relprop
from relprop.cli import build_parser, main
from relprop.imaging import preprocess, read_pgm, read_ppm, write_ppm
from relprop.model import (
    LayerParams, LayerSpec, NetworkModel, Preprocessing, forward, load_model, predict_topk, save_model,
)
from relprop.relevance import explain


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Saved conv+pool three-class model with three labeled 8x8 PPMs and boxes."""
    root = tmp_path_factory.mktemp("cli")
    rng = np.random.default_rng(11)
    layers = (
        LayerSpec(
            "conv2d", {"in": 3, "out": 2, "kh": 3, "kw": 3, "stride": 1, "pad": 1, "bias": 1}
        ),
        LayerSpec("relu"),
        LayerSpec("maxpool", {"kh": 2, "kw": 2, "stride": 2}),
        LayerSpec("flatten"),
        LayerSpec("dense", {"in": 32, "out": 3, "bias": 1}),
        LayerSpec("softmax"),
    )
    params = (
        LayerParams(0.01 * np.abs(rng.normal(size=(2, 3, 3, 3))), 0.05 * np.ones(2)),
        None,
        None,
        None,
        LayerParams(0.05 * np.abs(rng.normal(size=(3, 32))), np.zeros(3)),
        None,
    )
    model = NetworkModel(
        input_shape=(8, 8, 3),
        layers=layers,
        params=params,
        preprocessing=Preprocessing(
            means=np.array([10.0, 20.0, 30.0]), pixel_range=(0.0, 255.0)
        ),
    )
    manifest, weights = root / "model.txt", root / "model.bin"
    save_model(model, manifest, weights)

    for i in range(3):
        write_ppm(rng.integers(0, 256, size=(8, 8, 3), dtype=np.uint8), root / f"img{i}.ppm")
    (root / "images.txt").write_text("img0.ppm 0\nimg1.ppm 1\nimg2.ppm 2\n")
    (root / "images_nolabel.txt").write_text("img0.ppm\nimg1.ppm\n")
    (root / "boxes.txt").write_text(
        "img0 0 1 1 5 5\nimg1 1 2 0 6 4\nimg2 2 0 2 4 7\n"
    )
    return {"root": root, "manifest": str(manifest), "weights": str(weights)}


@pytest.fixture(scope="module")
def six_classes(tmp_path_factory):
    """Saved 2x2x3 > dense > softmax model with six classes, whose bias makes the last one the top
    class of its one PPM, and that PPM."""
    root = tmp_path_factory.mktemp("six")
    rng = np.random.default_rng(6)
    model = NetworkModel(
        input_shape=(2, 2, 3),
        layers=(LayerSpec("dense", {"in": 12, "out": 6, "bias": 1}), LayerSpec("softmax")),
        params=(LayerParams(0.001 * rng.normal(size=(6, 12)), np.r_[np.zeros(5), 10.0]), None),
        preprocessing=Preprocessing(means=np.zeros(3), pixel_range=(0.0, 255.0)),
    )
    save_model(model, root / "model.txt", root / "model.bin")
    write_ppm(rng.integers(0, 256, size=(2, 2, 3), dtype=np.uint8), root / "img.ppm")
    return [str(root / name) for name in ("model.txt", "model.bin", "img.ppm")]


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def dir_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


class TestPredict:
    def test_row_format_and_ordering(self, workspace, capsys):
        code, out, _ = run_cli(
            [
                "predict",
                workspace["manifest"],
                workspace["weights"],
                str(workspace["root"] / "img0.ppm"),
                "--top",
                "3",
            ],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        probs = []
        for rank, line in enumerate(lines, start=1):
            m = re.fullmatch(r"(\d+) (\d+) ([01]\.\d{6})", line)
            assert m, line
            assert int(m.group(1)) == rank
            probs.append(float(m.group(3)))
        assert probs == sorted(probs, reverse=True)
        assert abs(sum(probs) - 1.0) <= 2e-6  # printed at 6 decimals

    def test_default_top_is_five_or_every_class(self, workspace, six_classes, capsys):
        """Without --top, predict prints min(5, classes) rows: five of six classes, three of three."""
        three = [workspace["manifest"], workspace["weights"], str(workspace["root"] / "img0.ppm")]
        for argv, rows in ((six_classes, 5), (three, 3)):
            code, out, _ = run_cli(["predict", *argv], capsys)
            assert code == 0 and len(out.splitlines()) == rows

    def test_top_out_of_range(self, workspace, capsys):
        for bad in ("0", "4"):
            code, _, err = run_cli(
                [
                    "predict",
                    workspace["manifest"],
                    workspace["weights"],
                    str(workspace["root"] / "img0.ppm"),
                    "--top",
                    bad,
                ],
                capsys,
            )
            assert code == 2
            assert "relprop:" in err

    def test_missing_image_is_runtime_error(self, workspace, capsys):
        code, _, err = run_cli(
            [
                "predict",
                workspace["manifest"],
                workspace["weights"],
                str(workspace["root"] / "nope.ppm"),
            ],
            capsys,
        )
        assert code == 1 and err

    def test_malformed_image_is_runtime_error(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.ppm"
        bad.write_bytes(b"P3\n1 1\n255\n0 0 0\n")
        code, _, _ = run_cli(
            ["predict", workspace["manifest"], workspace["weights"], str(bad)], capsys
        )
        assert code == 1

    def test_missing_manifest_is_runtime_error(self, workspace, capsys):
        code, _, _ = run_cli(
            [
                "predict",
                str(workspace["root"] / "absent.txt"),
                workspace["weights"],
                str(workspace["root"] / "img0.ppm"),
            ],
            capsys,
        )
        assert code == 1

    def test_relu_less_manifest_is_runtime_error(self, workspace, tmp_path, capsys):
        """Without its relu the workspace model cannot be explained, so predict
        rejects it at load, naming the dense layer on line 6."""
        lines = Path(workspace["manifest"]).read_text().splitlines(keepends=True)
        manifest = tmp_path / "norelu.txt"
        manifest.write_text("".join(line for line in lines if line != "layer relu\n"))
        code, out, err = run_cli(
            ["predict", str(manifest), workspace["weights"], str(workspace["root"] / "img0.ppm")],
            capsys,
        )
        assert code == 1 and not out
        assert f"{manifest}:6:" in err

    def test_no_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        capsys.readouterr()
        assert exc.value.code == 2


class TestExplain:
    def _argv(self, workspace, out_prefix, method="sglrp", target="top"):
        return [
            "explain",
            workspace["manifest"],
            workspace["weights"],
            str(workspace["root"] / "img1.ppm"),
            "--method",
            method,
            "--target",
            target,
            "--out",
            str(out_prefix),
        ]

    def test_writes_heatmap_and_values(self, workspace, tmp_path, capsys):
        out = tmp_path / "heat"
        code, _, _ = run_cli(self._argv(workspace, out), capsys)
        assert code == 0
        rendered = read_pgm(tmp_path / "heat.pgm")
        assert rendered.shape == (8, 8)
        payload = (tmp_path / "heat.f32").read_bytes()
        h, w = struct.unpack("<II", payload[:8])
        assert (h, w) == (8, 8)
        values = np.frombuffer(payload[8:], dtype="<f8").reshape(h, w)
        assert values.size == 64
        assert np.all(values >= 0.0)

    def test_rerun_byte_identical(self, workspace, tmp_path, capsys):
        a, b = tmp_path / "a" / "heat", tmp_path / "b" / "heat"
        for out in (a, b):
            code, _, _ = run_cli(self._argv(workspace, out, method="clrp"), capsys)
            assert code == 0
        assert dir_bytes(tmp_path / "a") == dir_bytes(tmp_path / "b")

    def test_explicit_class_target(self, workspace, tmp_path, capsys):
        out = tmp_path / "heat"
        code, _, _ = run_cli(self._argv(workspace, out, target="2"), capsys)
        assert code == 0
        assert (tmp_path / "heat.pgm").exists()

    def test_second_target_explains_the_runner_up(self, workspace, tmp_path, capsys):
        """--target second writes the map of the second most probable class."""
        code, _, _ = run_cli(self._argv(workspace, tmp_path / "heat", target="second"), capsys)
        assert code == 0
        model = load_model(workspace["manifest"], workspace["weights"])
        trace = forward(model, preprocess(read_ppm(workspace["root"] / "img1.ppm"), model))
        runner_up = predict_topk(trace, 2)[1][0]
        want = explain(model, trace, runner_up, "sglrp").values.astype("<f8").tobytes()
        assert (tmp_path / "heat.f32").read_bytes()[8:] == want

    def test_top_target_can_be_the_last_class(self, six_classes, tmp_path, capsys):
        """--target top explains the most probable class when it is the last one: its map is the
        --target 5 map, byte for byte, and not the runner-up's."""
        maps = {}
        for target in ("top", "5", "second"):
            argv = ["explain", *six_classes, "--method", "lrp", "--target", target, "--out", str(tmp_path / target)]
            assert run_cli(argv, capsys)[0] == 0
            maps[target] = (tmp_path / f"{target}.f32").read_bytes()
        assert maps["top"] == maps["5"] != maps["second"]

    def test_target_out_of_range_writes_nothing(self, workspace, tmp_path, capsys):
        out = tmp_path / "fresh" / "heat"
        code, _, err = run_cli(self._argv(workspace, out, target="99"), capsys)
        assert code == 2 and err
        assert not (tmp_path / "fresh").exists() or not list((tmp_path / "fresh").iterdir())

    def test_non_numeric_target_is_usage_error(self, workspace, tmp_path, capsys):
        code, _, _ = run_cli(
            self._argv(workspace, tmp_path / "heat", target="best"), capsys
        )
        assert code == 2

    def test_dotted_prefixes_keep_their_own_files(self, workspace, tmp_path, capsys):
        """--out gets .pgm and .f32 appended, so prefixes that differ after a dot write
        different files and the second run leaves the first one's alone."""
        maps = tmp_path / "maps"
        for method in ("lrp", "sglrp"):
            code, out, _ = run_cli(self._argv(workspace, maps / f"m.{method}", method=method), capsys)
            assert code == 0 and out == f"wrote {maps}/m.{method}.pgm and {maps}/m.{method}.f32\n"
        files = dir_bytes(maps)
        assert sorted(files) == ["m.lrp.f32", "m.lrp.pgm", "m.sglrp.f32", "m.sglrp.pgm"]
        assert files["m.lrp.f32"] != files["m.sglrp.f32"]

    @pytest.mark.parametrize("prefix", ["", "maps/"], ids=["empty", "directory"])
    def test_out_without_a_file_prefix_is_usage_error(self, workspace, tmp_path, capsys, prefix):
        argv = self._argv(workspace, "")
        argv[-1] = f"{tmp_path}/{prefix}" if prefix else prefix
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == "" and err.startswith("relprop: --out ")
        assert not list(tmp_path.rglob("*"))

    def test_unknown_method_rejected_by_parser(self, workspace, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(self._argv(workspace, tmp_path / "heat", method="gradcam"))
        capsys.readouterr()
        assert exc.value.code == 2


class TestMaskEval:
    def _argv(self, workspace, out_dir, *extra):
        return [
            "mask-eval",
            workspace["manifest"],
            workspace["weights"],
            str(workspace["root"] / "images.txt"),
            "--out-dir",
            str(out_dir),
            *extra,
        ]

    def test_default_run_writes_reports(self, workspace, tmp_path, capsys):
        code, _, _ = run_cli(self._argv(workspace, tmp_path, "--seed", "7"), capsys)
        assert code == 0
        with (tmp_path / "masking.csv").open() as fh:
            records = list(csv.DictReader(fh))
        assert set(records[0]) == {
            "image_id",
            "method",
            "patch_size",
            "target",
            "prob_before",
            "prob_after",
            "drop",
            "point_x",
            "point_y",
        }
        # 3 images x 4 default methods x 5 default patch sizes
        assert len(records) == 60
        assert sorted({r["patch_size"] for r in records}, key=int) == ["1", "3", "5", "7", "9"]
        assert {r["method"] for r in records} == {"lrp", "clrp", "sglrp", "random"}
        meta = json.loads((tmp_path / "masking_meta.json").read_text())
        assert meta["images"] == 3 and meta["seed"] == 7

    def test_aggregate_matches_per_image_mean(self, workspace, tmp_path, capsys):
        run_cli(self._argv(workspace, tmp_path, "--seed", "3"), capsys)
        with (tmp_path / "masking.csv").open() as fh:
            records = list(csv.DictReader(fh))
        with (tmp_path / "masking_aggregate.csv").open() as fh:
            aggregates = list(csv.DictReader(fh))
        assert len(aggregates) == 20
        for agg in aggregates:
            drops = [
                float(r["drop"])
                for r in records
                if r["method"] == agg["method"] and r["patch_size"] == agg["patch_size"]
            ]
            assert abs(float(agg["mean_drop"]) - np.mean(drops)) <= 1e-12

    def test_random_methods_require_seed(self, workspace, tmp_path, capsys):
        code, _, err = run_cli(self._argv(workspace, tmp_path), capsys)
        assert code == 2 and "--seed" in err

    def test_deterministic_methods_run_without_seed(self, workspace, tmp_path, capsys):
        code, _, _ = run_cli(
            self._argv(workspace, tmp_path, "--methods", "lrp,sglrp", "--patches", "1,3"),
            capsys,
        )
        assert code == 0

    def test_rerun_byte_identical(self, workspace, tmp_path, capsys):
        for sub in ("a", "b"):
            code, _, _ = run_cli(
                self._argv(workspace, tmp_path / sub, "--seed", "5"), capsys
            )
            assert code == 0
        assert dir_bytes(tmp_path / "a") == dir_bytes(tmp_path / "b")

    @pytest.mark.parametrize("threads", ["3", "0", "abc"])
    def test_thread_count_does_not_change_outputs(
        self, workspace, tmp_path, capsys, monkeypatch, threads
    ):
        """RELPROP_THREADS is not read: any value, valid or not, leaves every byte alone."""
        code, _, _ = run_cli(self._argv(workspace, tmp_path / "unset", "--seed", "5"), capsys)
        assert code == 0
        monkeypatch.setenv("RELPROP_THREADS", threads)
        code, _, _ = run_cli(self._argv(workspace, tmp_path / "set", "--seed", "5"), capsys)
        assert code == 0
        assert dir_bytes(tmp_path / "unset") == dir_bytes(tmp_path / "set")

    def test_list_without_images_is_runtime_error(self, workspace, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("# no images yet\n\n")
        argv = self._argv(workspace, tmp_path / "out", "--seed", "7")
        argv[3] = str(empty)
        code, _, err = run_cli(argv, capsys)
        assert code == 1 and f"{empty}: no images listed" in err
        assert not (tmp_path / "out" / "masking.csv").exists()

    def test_ground_truth_requires_labels(self, workspace, tmp_path, capsys):
        code, _, err = run_cli(
            [
                "mask-eval",
                workspace["manifest"],
                workspace["weights"],
                str(workspace["root"] / "images_nolabel.txt"),
                "--out-dir",
                str(tmp_path),
                "--methods",
                "lrp",
            ],
            capsys,
        )
        assert code == 1 and "label" in err

    def test_label_outside_the_classes_names_its_image(self, workspace, tmp_path, capsys):
        """A label the model has no class for fails its run with the image's id, and no
        report is written."""
        listed = tmp_path / "list.txt"
        root = workspace["root"]
        listed.write_text(f"{root / 'img0.ppm'} 0\n{root / 'img1.ppm'} 3\n")
        argv = self._argv(workspace, tmp_path / "out", "--methods", "lrp")
        argv[3] = str(listed)
        code, _, err = run_cli(argv, capsys)
        assert code == 1 and err == "relprop: img1: label 3 outside 0..2\n"
        assert not (tmp_path / "out" / "masking.csv").exists()

    @pytest.mark.parametrize("label", ["x", "1_0", "+1", "\uff11"])
    def test_non_integer_label_names_its_line(self, workspace, tmp_path, capsys, label):
        """A label is ASCII digits after an optional minus; any other token, even one
        int() reads, fails the run naming the list's line, and no report is written."""
        listed = tmp_path / "list.txt"
        root = workspace["root"]
        listed.write_text(f"{root / 'img0.ppm'} 0\n{root / 'img1.ppm'} {label}\n")
        argv = self._argv(workspace, tmp_path / "out", "--methods", "lrp")
        argv[3] = str(listed)
        code, _, err = run_cli(argv, capsys)
        assert code == 1 and err == f"relprop: {listed}:2: non-integer label {label!r}\n"
        assert not (tmp_path / "out").exists()

    def test_negative_seed_is_a_data_error(self, workspace, tmp_path, capsys):
        """--seed -1 exits 1 with one line, even when no method draws from it."""
        code, out, err = run_cli(self._argv(workspace, tmp_path / "out", "--methods", "lrp", "--seed", "-1"), capsys)
        assert (code, out, err) == (1, "", "relprop: seed -1 must be non-negative\n")
        assert not (tmp_path / "out").exists()

    def test_second_probable_works_without_labels(self, workspace, tmp_path, capsys):
        code, _, _ = run_cli(
            [
                "mask-eval",
                workspace["manifest"],
                workspace["weights"],
                str(workspace["root"] / "images_nolabel.txt"),
                "--out-dir",
                str(tmp_path),
                "--methods",
                "lrp",
                "--target",
                "second-probable",
                "--patches",
                "1",
            ],
            capsys,
        )
        assert code == 0

    def test_unknown_method_rejected_by_parser(self, workspace, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(self._argv(workspace, tmp_path, "--methods", "lrp,saliency"))
        capsys.readouterr()
        assert exc.value.code == 2

    def test_even_patch_rejected_by_parser(self, workspace, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(self._argv(workspace, tmp_path, "--patches", "1,2"))
        capsys.readouterr()
        assert exc.value.code == 2

    def test_repeated_method_rejected_by_parser(self, workspace, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(self._argv(workspace, tmp_path, "--methods", "lrp,lrp"))
        _, err = capsys.readouterr()
        assert exc.value.code == 2 and "more than once: lrp" in err
        assert not list(tmp_path.rglob("*.csv"))

    def test_repeated_patch_rejected_by_parser(self, workspace, tmp_path, capsys):
        """A repeated patch size would add a second row per method and image."""
        with pytest.raises(SystemExit) as exc:
            main(self._argv(workspace, tmp_path, "--patches", "3,1,3", "--seed", "1"))
        _, err = capsys.readouterr()
        assert exc.value.code == 2 and "more than once: 3" in err
        assert not list(tmp_path.rglob("*.csv"))

    def test_random_only_run(self, workspace, tmp_path, capsys):
        code, _, _ = run_cli(
            self._argv(workspace, tmp_path, "--methods", "random", "--seed", "4"), capsys
        )
        assert code == 0
        with (tmp_path / "masking.csv").open() as fh:
            records = list(csv.DictReader(fh))
        # 3 images x 5 default patch sizes
        assert len(records) == 15 and {r["method"] for r in records} == {"random"}


class TestPointing:
    def _argv(self, workspace, out_dir, *extra):
        return [
            "pointing",
            workspace["manifest"],
            workspace["weights"],
            str(workspace["root"] / "images.txt"),
            str(workspace["root"] / "boxes.txt"),
            "--out-dir",
            str(out_dir),
            *extra,
        ]

    def test_run_writes_reports(self, workspace, tmp_path, capsys):
        code, _, _ = run_cli(self._argv(workspace, tmp_path, "--seed", "9"), capsys)
        assert code == 0
        with (tmp_path / "pointing.csv").open() as fh:
            records = list(csv.DictReader(fh))
        assert set(records[0]) == {
            "image_id",
            "method",
            "energy",
            "tau",
            "hits",
            "misses",
            "accuracy",
            "status",
        }
        # 3 boxes x 4 default methods x 10 default energies
        assert len(records) == 120
        for r in records:
            if r["status"] == "ok":
                hits, misses = int(r["hits"]), int(r["misses"])
                assert float(r["accuracy"]) == hits / (hits + misses)
        meta = json.loads((tmp_path / "pointing_meta.json").read_text())
        assert meta["boxes"] == 3 and meta["images"] == 3

    def test_aggregate_matches_per_image_mean(self, workspace, tmp_path, capsys):
        run_cli(
            self._argv(workspace, tmp_path, "--methods", "sglrp", "--energies", "0.5,1.0"),
            capsys,
        )
        with (tmp_path / "pointing.csv").open() as fh:
            records = [r for r in csv.DictReader(fh) if r["status"] == "ok"]
        with (tmp_path / "pointing_aggregate.csv").open() as fh:
            aggregates = list(csv.DictReader(fh))
        for agg in aggregates:
            accs = [
                float(r["accuracy"])
                for r in records
                if r["method"] == agg["method"] and r["energy"] == agg["energy"]
            ]
            assert int(agg["n"]) == len(accs)
            if accs:
                assert abs(float(agg["mean_accuracy"]) - np.mean(accs)) <= 1e-12

    def test_rerun_byte_identical(self, workspace, tmp_path, capsys):
        for sub in ("a", "b"):
            code, _, _ = run_cli(
                self._argv(workspace, tmp_path / sub, "--seed", "13"), capsys
            )
            assert code == 0
        assert dir_bytes(tmp_path / "a") == dir_bytes(tmp_path / "b")

    def test_missing_box_is_runtime_error(self, workspace, tmp_path, capsys):
        partial = tmp_path / "partial.txt"
        partial.write_text("img0 0 1 1 5 5\n")
        code, _, err = run_cli(
            [
                "pointing",
                workspace["manifest"],
                workspace["weights"],
                str(workspace["root"] / "images.txt"),
                str(partial),
                "--out-dir",
                str(tmp_path),
                "--methods",
                "lrp",
            ],
            capsys,
        )
        assert code == 1 and "img1" in err

    def test_malformed_box_line_is_runtime_error(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("img0 0 1 1 5\n")
        code, _, err = run_cli(
            [
                "pointing",
                workspace["manifest"],
                workspace["weights"],
                str(workspace["root"] / "images.txt"),
                str(bad),
                "--out-dir",
                str(tmp_path),
                "--methods",
                "lrp",
            ],
            capsys,
        )
        assert code == 1 and ":1:" in err

    def test_random_methods_require_seed(self, workspace, tmp_path, capsys):
        code, _, _ = run_cli(self._argv(workspace, tmp_path), capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "box, message",
        [
            ("img1 1 8 0 9 4", "img1: box starts outside a 8x8 image"),
            ("img1 5 2 0 6 4", "img1: box class 5 outside model's 3 classes"),
        ],
        ids=["box-outside", "box-class"],
    )
    def test_bad_box_names_its_image(self, workspace, tmp_path, capsys, box, message):
        """A box that starts outside its image, or names a class the model lacks, fails
        the run with the image's id, and no report is written."""
        boxes = tmp_path / "boxes.txt"
        boxes.write_text(f"img0 0 1 1 5 5\n{box}\nimg2 2 0 2 4 7\n")
        argv = self._argv(workspace, tmp_path / "out", "--methods", "lrp")
        argv[4] = str(boxes)
        code, _, err = run_cli(argv, capsys)
        assert code == 1 and err == f"relprop: {message}\n"
        assert not (tmp_path / "out" / "pointing.csv").exists()

    def test_energy_out_of_range_rejected_by_parser(self, workspace, tmp_path, capsys):
        for bad in ("0", "1.5"):
            with pytest.raises(SystemExit) as exc:
                main(self._argv(workspace, tmp_path, "--energies", bad))
            capsys.readouterr()
            assert exc.value.code == 2

    def test_repeated_method_rejected_by_parser(self, workspace, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(self._argv(workspace, tmp_path, "--methods", "sglrp,random,sglrp", "--seed", "1"))
        _, err = capsys.readouterr()
        assert exc.value.code == 2 and "more than once: sglrp" in err
        assert not list(tmp_path.rglob("*.csv"))

    def test_repeated_energy_rejected_by_parser(self, workspace, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(self._argv(workspace, tmp_path, "--energies", "0.5,1,0.5", "--seed", "1"))
        _, err = capsys.readouterr()
        assert exc.value.code == 2 and "more than once: 0.5" in err
        assert not list(tmp_path.rglob("*.csv"))

    def test_random_only_run(self, workspace, tmp_path, capsys):
        code, _, _ = run_cli(
            self._argv(workspace, tmp_path, "--methods", "random", "--seed", "4"), capsys
        )
        assert code == 0
        with (tmp_path / "pointing.csv").open() as fh:
            records = list(csv.DictReader(fh))
        # 3 boxes x 10 default energies, all scored: a noise map is never empty
        assert len(records) == 30 and {r["method"] for r in records} == {"random"}
        assert {r["status"] for r in records} == {"ok"}


class TestInputHygiene:
    def test_explain_rejects_pixels_outside_declared_range(self, workspace, tmp_path, capsys):
        """0..255 pixels against `pixel_range 0 1` would break the bounded input
        rule; explain exits 1 and writes no heatmap."""
        manifest = tmp_path / "narrow.txt"
        text = (workspace["root"] / "model.txt").read_text()
        assert "pixel_range 0 255" in text
        manifest.write_text(text.replace("pixel_range 0 255", "pixel_range 0 1"))
        out = tmp_path / "maps" / "heat"
        code, _, err = run_cli(
            [
                "explain",
                str(manifest),
                workspace["weights"],
                str(workspace["root"] / "img1.ppm"),
                "--method",
                "lrp",
                "--target",
                "top",
                "--out",
                str(out),
            ],
            capsys,
        )
        assert code == 1 and "pixel range" in err
        assert not out.with_suffix(".pgm").exists() and not out.with_suffix(".f32").exists()

    @pytest.fixture
    def duplicate_list(self, workspace, tmp_path):
        """`a/img0.ppm` and `b/img0.ppm` both carry the image id `img0`."""
        image = (workspace["root"] / "img0.ppm").read_bytes()
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            (tmp_path / sub / "img0.ppm").write_bytes(image)
        listing = tmp_path / "dup.txt"
        listing.write_text("# two directories, one stem\na/img0.ppm 0\nb/img0.ppm 1\n")
        return listing

    def test_mask_eval_rejects_duplicate_ids(self, workspace, duplicate_list, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code, _, err = run_cli(
            [
                "mask-eval",
                workspace["manifest"],
                workspace["weights"],
                str(duplicate_list),
                "--out-dir",
                str(out_dir),
                "--methods",
                "lrp",
            ],
            capsys,
        )
        assert code == 1 and "dup.txt:3:" in err and "img0" in err
        assert not list(tmp_path.rglob("*.csv"))

    def test_pointing_rejects_duplicate_ids(self, workspace, duplicate_list, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code, _, err = run_cli(
            [
                "pointing",
                workspace["manifest"],
                workspace["weights"],
                str(duplicate_list),
                str(workspace["root"] / "boxes.txt"),
                "--out-dir",
                str(out_dir),
                "--methods",
                "lrp",
            ],
            capsys,
        )
        assert code == 1 and "dup.txt:3:" in err and "img0" in err
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize(
        "directive, edited, lineno",
        [
            ("pixel_range 0 255", "pixel_range 0 inf", 10),
            ("pixel_range 0 255", "pixel_range -inf 255", 10),
            ("mean 10 20 30", "mean nan 20 30", 9),
        ],
    )
    def test_non_finite_preprocessing_rejected_at_load(
        self, workspace, tmp_path, capsys, directive, edited, lineno
    ):
        """A non-finite mean or pixel range would make the input rule's bound
        terms non-finite; load rejects it, naming the line, before explain or
        predict writes anything."""
        manifest = tmp_path / "model.txt"
        text = (workspace["root"] / "model.txt").read_text()
        assert text.splitlines()[lineno - 1] == directive
        manifest.write_text(text.replace(directive, edited))
        model = [str(manifest), workspace["weights"], str(workspace["root"] / "img1.ppm")]
        out = tmp_path / "maps" / "heat"
        for argv in (
            ["explain", *model, "--method", "sglrp", "--target", "top", "--out", str(out)],
            ["predict", *model],
        ):
            code, stdout, err = run_cli(argv, capsys)
            assert code == 1 and f"{manifest}:{lineno}:" in err and "non-finite" in err
            assert stdout == ""
        assert not list(tmp_path.rglob("*.pgm")) and not list(tmp_path.rglob("*.f32"))

    @pytest.mark.skipif(sys.platform != "linux", reason="needs Linux's RLIMIT_AS semantics")
    def test_out_of_memory_is_one_line_and_exit_1(self, tmp_path):
        """A model that loads, because its trace is only 153 MiB, but whose first conv's
        im2col needs 10.8 GiB: predict in a child whose address space is capped at about
        3 GB exits 1 with numpy's allocation message on one `relprop:` line, not a traceback."""
        layers = (
            LayerSpec("conv2d", {"in": 3, "out": 1, "kh": 11, "kw": 11, "stride": 1, "pad": 5, "bias": 1}),
            LayerSpec("relu"),
            LayerSpec("maxpool", {"kh": 500, "kw": 500, "stride": 500}),
            LayerSpec("flatten"),
            LayerSpec("dense", {"in": 16, "out": 2, "bias": 1}),
            LayerSpec("softmax"),
        )
        params = (
            LayerParams(np.full((1, 3, 11, 11), 0.001), np.zeros(1)),
            None,
            None,
            None,
            LayerParams(np.full((2, 16), 0.01), np.zeros(2)),
            None,
        )
        model = NetworkModel((2000, 2000, 3), layers, params, Preprocessing(np.zeros(3), (0.0, 255.0)))
        save_model(model, tmp_path / "m.txt", tmp_path / "m.bin")
        write_ppm(np.zeros((2000, 2000, 3), dtype=np.uint8), tmp_path / "big.ppm")

        def cap_address_space():
            import resource

            resource.setrlimit(resource.RLIMIT_AS, (3_000_000 * 1024,) * 2)

        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": str(Path(relprop.__file__).parents[1])}
        files = [str(tmp_path / name) for name in ("m.txt", "m.bin", "big.ppm")]
        done = subprocess.run(
            [sys.executable, "-m", "relprop.cli", "predict", *files],
            env=env, preexec_fn=cap_address_space, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 1 and done.stdout == ""
        assert done.stderr.startswith("relprop: Unable to allocate ") and done.stderr.count("\n") == 1

    def test_bare_memory_error_is_named(self, workspace, capsys, monkeypatch):
        """Python's own allocation failures raise a MemoryError with no message;
        the line then names the error instead of ending after `relprop: `."""

        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr("relprop.cli.load_model", exhausted)
        code, out, err = run_cli(["predict", workspace["manifest"], workspace["weights"], "x.ppm"], capsys)
        assert (code, out, err) == (1, "", "relprop: MemoryError\n")


@pytest.mark.parametrize(
    "command, flag, text, parsed",
    [
        ("mask-eval", "--methods", "lrp,,clrp", ("lrp", "clrp")),
        ("pointing", "--methods", "lrp, clrp", ("lrp", "clrp")),
        ("mask-eval", "--patches", "1, 3", (1, 3)),
        ("mask-eval", "--methods", "", None),
        ("mask-eval", "--patches", "3,,5", None),
        ("mask-eval", "--patches", "2", None),
        ("mask-eval", "--patches", "0", None),
        ("mask-eval", "--patches", "abc", None),
        ("pointing", "--energies", "0", None),
        ("pointing", "--energies", "1.5", None),
        ("pointing", "--energies", "x", None),
    ],
)
def test_list_arguments(command, flag, text, parsed, capsys):
    """The comma-list options: blank method items are dropped and spaces around an item
    are ignored; an empty, malformed or out-of-range list is a usage error (exit 2)."""
    boxes = ["boxes.txt"] if command == "pointing" else []
    argv = [command, "model.txt", "model.bin", "images.txt", *boxes, "--out-dir", "out", flag, text]
    if parsed is None:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2 and flag in capsys.readouterr().err
    else:
        assert getattr(build_parser().parse_args(argv), flag[2:]) == parsed


def test_every_exported_name_resolves():
    """Each name in relprop.__all__ is bound in the package, so `from relprop import *`
    works, and the README's Python API is among them."""
    namespace = {}
    exec("from relprop import *", namespace)
    assert set(relprop.__all__) <= set(namespace)
    documented = {"load_model", "save_model", "read_ppm", "read_pgm", "write_ppm", "write_pgm", "preprocess",
                  "forward", "predict_topk", "explain", "explain_all", "RelevanceMap", "seed_rows",
                  "patch_masking_eval", "run_masking", "pointing_game", "run_pointing", "energy_threshold",
                  "BoundingBox", "MaskSample", "PointSample", "mask_patch"}
    assert documented <= set(relprop.__all__)
