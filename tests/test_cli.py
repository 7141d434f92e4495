import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import capgest
from capgest import dataio
from capgest.cli import main
from capgest.signals import N_FEATURES, assemble_sliding


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A small on-disk dataset and a trained bundle, built through the CLI."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    bundle = root / "model.capgest"
    assert main(["synth", "--out", str(data), "--users", "15", "--per-class", "4"]) == 0
    assert main(["train", "--data", str(data), "--out", str(bundle)]) == 0
    return {"data": data, "bundle": bundle}


class TestHappyPaths:
    def test_synth_output_layout(self, workspace):
        assert (workspace["data"] / "calibration.csv").is_file()
        assert any((workspace["data"] / "recordings").glob("*.csv"))

    def test_eval_json(self, workspace, capsys):
        code = main(
            ["eval", "--data", str(workspace["data"]), "--bundle",
             str(workspace["bundle"]), "--split", "test", "--json"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert 0.0 <= report["base_accuracy"] <= 1.0
        assert 0.0 <= report["corrected_accuracy"] <= 1.0

    def test_eval_text(self, workspace, capsys):
        assert main(
            ["eval", "--data", str(workspace["data"]), "--bundle", str(workspace["bundle"])]
        ) == 0
        assert "overall accuracy" in capsys.readouterr().out

    def test_bench_within_budget(self, workspace, capsys):
        code = main(
            ["bench", "--data", str(workspace["data"]), "--bundle",
             str(workspace["bundle"]), "--budget-ms", "1000"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "p95_ms" in out
        assert "backend: numpy" in out
        # every window of the directory is timed once
        n_windows = len(assemble_sliding(*dataio.read_dataset(workspace["data"])))
        assert f"n_timed: {n_windows}\n" in out

    def test_bench_budget_violation_exits_3(self, workspace, capsys):
        code = main(
            ["bench", "--data", str(workspace["data"]), "--bundle",
             str(workspace["bundle"]), "--budget-ms", "0.0000001"]
        )
        assert code == 3
        # main prints the violation, once, and nothing else on stderr
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert re.fullmatch(r"budget violation: p95 \d+\.\d{3} ms >= 1e-07 ms", err[0]), err

    def test_predict_from_features(self, workspace, tmp_path, capsys):
        path = tmp_path / "f.csv"
        row = ",".join(["0.25"] * N_FEATURES)
        path.write_text(f"# probe\n{row}\n{row}\n", encoding="utf-8")
        assert main(
            ["predict", "--bundle", str(workspace["bundle"]), "--features", str(path)]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0] in ("index_bend", "shoot", "flick_index", "flick_middle", "none")

    def test_predict_from_comment_only_features(self, workspace, tmp_path, capsys):
        # no rows, no labels: as --recordings on a directory with no windows
        path = tmp_path / "empty.csv"
        path.write_text("# probe\n\n  \n", encoding="utf-8")
        assert main(
            ["predict", "--bundle", str(workspace["bundle"]), "--features", str(path)]
        ) == 0
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == ""

    def test_inspect(self, workspace, capsys):
        assert main(["inspect", "--bundle", str(workspace["bundle"]), "--json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert isinstance(records, list)

    def test_cv(self, workspace, capsys):
        code = main(
            ["cv", "--data", str(workspace["data"]), "--combos", "1", "--json"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["n_combos"] == 1

    def test_show_config(self, capsys):
        assert main(["show-config"]) == 0
        assert "n_pcs = 3" in capsys.readouterr().out

    def test_train_with_config_file(self, workspace, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("corrector_kernels = pca:9\nknn_k = 3\n", encoding="utf-8")
        out = tmp_path / "m.capgest"
        code = main(
            ["train", "--data", str(workspace["data"]), "--out", str(out),
             "--config", str(cfg)]
        )
        assert code == 0
        from capgest.pipeline import load_bundle

        assert load_bundle(out).config.knn_k == 3


class TestExitCodes:
    def test_usage_error_is_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 1
        with pytest.raises(SystemExit) as exc:
            main(["train", "--data", "x"])  # missing --out
        assert exc.value.code == 1

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("bench", "--budget-ms", "nan"),
            ("bench", "--budget-ms", "inf"),
            ("bench", "--budget-ms", "0"),
            ("bench", "--budget-ms", "-1"),
            ("synth", "--users", "0"),
            ("synth", "--users", "-2"),
            ("synth", "--per-class", "0"),
            ("cv", "--combos", "0"),
            ("cv", "--combos", "x"),
        ],
    )
    def test_bad_cli_number_is_1(self, tmp_path, capsys, command, flag, value):
        args = {
            "bench": ["--data", str(tmp_path), "--bundle", str(tmp_path / "m.capgest")],
            "synth": ["--out", str(tmp_path / "d")],
            "cv": ["--data", str(tmp_path)],
        }[command]
        with pytest.raises(SystemExit) as exc:
            main([command, *args, f"{flag}={value}"])
        assert exc.value.code == 1
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_removed_none_ratio_flag_is_1(self, tmp_path):
        # synth never read it: capgest train windows with assemble_sliding's
        # default NONE ratio
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--out", str(tmp_path / "d"), "--none-ratio", "9"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("command", ["train", "cv"])
    def test_removed_split_seed_flag_is_1(self, tmp_path, command):
        # the config's split_seed key is the one source of the split seed
        args = ["--data", str(tmp_path)]
        if command == "train":
            args += ["--out", str(tmp_path / "m.capgest")]
        with pytest.raises(SystemExit) as exc:
            main([command, *args, "--split-seed", "1"])
        assert exc.value.code == 1

    def test_removed_config_key_is_2(self, workspace, tmp_path, capsys):
        # the KNN references are always the validation partition
        cfg = tmp_path / "c.cfg"
        cfg.write_text("base_knn_fit = train\n", encoding="utf-8")
        code = main(
            ["train", "--data", str(workspace["data"]), "--out", str(tmp_path / "m.capgest"),
             "--config", str(cfg)]
        )
        assert code == 2
        assert "unknown config key 'base_knn_fit'" in capsys.readouterr().err

    @pytest.mark.parametrize("counts", ["8; 3; 2", "8; 3; 2; 2; 1", "8; 3; -2; 2"])
    def test_bad_user_counts_is_2(self, workspace, tmp_path, capsys, counts):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"user_counts = {counts}\n", encoding="utf-8")
        code = main(
            ["train", "--data", str(workspace["data"]), "--out", str(tmp_path / "m.capgest"),
             "--config", str(cfg)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "user_counts must be four ints >= 0" in err and counts in err
        assert not (tmp_path / "m.capgest").exists()

    def test_config_error_names_the_file(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "rep.cfg"
        cfg.write_text("knn_k = 5\nknn_k = 7\n", encoding="utf-8")
        code = main(
            ["train", "--data", str(workspace["data"]), "--out", str(tmp_path / "m.capgest"),
             "--config", str(cfg)]
        )
        assert code == 2
        TestUnreadableFiles.one_error_line(
            capsys, f"{cfg}: line 2: config key 'knn_k' repeats line 1"
        )

    def test_old_bundle_format_is_2(self, workspace, tmp_path, capsys):
        # a format-8 bundle wrapped the base projection in a PCA model
        blob = workspace["bundle"].read_bytes()
        old = tmp_path / "old.capgest"
        old.write_bytes(blob[:4] + (8).to_bytes(4, "little") + blob[8:])
        path = tmp_path / "good.csv"
        path.write_text(",".join(["0.25"] * N_FEATURES) + "\n", encoding="utf-8")
        assert main(["predict", "--bundle", str(old), "--features", str(path)]) == 2
        captured = capsys.readouterr()
        assert "format version 8" in captured.err
        assert captured.out == ""

    def test_data_error_is_2(self, tmp_path, capsys):
        assert main(["eval", "--data", str(tmp_path), "--bundle", "nope"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_features_is_2(self, workspace, tmp_path, capsys, bad):
        path = tmp_path / "nan.csv"
        row = ["0.25"] * N_FEATURES
        # the bad row is the second data row, on line 4
        path.write_text(
            ",".join(row) + "\n# probe\n\n" + ",".join([bad] + row[1:]) + "\n", encoding="utf-8"
        )
        assert main(
            ["predict", "--bundle", str(workspace["bundle"]), "--features", str(path)]
        ) == 2
        TestUnreadableFiles.one_error_line(capsys, f"{path}: line 4: NaN or inf")

    @pytest.mark.parametrize("bad, shown", [("1e6", "1000000.0"), ("-5", "-5.0")])
    def test_out_of_range_feature_is_2(self, workspace, tmp_path, capsys, bad, shown):
        path = tmp_path / "range.csv"
        row = ["0.25"] * N_FEATURES
        path.write_text(
            ",".join(row) + "\n# probe\n\n" + ",".join([bad] + row[1:]) + "\n", encoding="utf-8"
        )
        assert main(
            ["predict", "--bundle", str(workspace["bundle"]), "--features", str(path)]
        ) == 2
        TestUnreadableFiles.one_error_line(
            capsys, f"{path}: line 4: value {shown} outside [0, 1]"
        )

    def test_non_numeric_feature_is_2(self, workspace, tmp_path, capsys):
        path = tmp_path / "text.csv"
        path.write_text("# probe\n" + ",".join(["0.25"] * 99 + ["x"]) + "\n", encoding="utf-8")
        assert main(
            ["predict", "--bundle", str(workspace["bundle"]), "--features", str(path)]
        ) == 2
        TestUnreadableFiles.one_error_line(
            capsys, f"{path}: line 2: feature values must be numbers"
        )

    def test_bad_feature_width_is_2(self, workspace, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("0.1,0.2\n", encoding="utf-8")
        assert main(
            ["predict", "--bundle", str(workspace["bundle"]), "--features", str(path)]
        ) == 2
        TestUnreadableFiles.one_error_line(
            capsys, f"{path}: line 1: expected 100 features, got 2"
        )


class TestUnreadableFiles:
    """An input that cannot be read as UTF-8 text and an output path that
    cannot be written are data errors: exit 2 and one line on stderr."""

    @staticmethod
    def one_error_line(capsys, *parts):
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
        assert all(part in lines[0] for part in parts), lines[0]
        assert captured.out == ""

    def test_config_not_utf8(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_bytes(b"knn_k = 3 # \xe9t\xe9\n")
        out = tmp_path / "m.capgest"
        code = main(["train", "--data", str(workspace["data"]), "--out", str(out),
                     "--config", str(cfg)])
        assert code == 2
        self.one_error_line(capsys, str(cfg), "utf-8")
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["recording", "marks", "calibration"])
    def test_dataset_file_not_utf8(self, workspace, tmp_path, capsys, kind):
        data = tmp_path / "data"
        shutil.copytree(workspace["data"], data)
        path = {
            "recording": data / "recordings" / "u01_r0000.csv",
            "marks": data / "recordings" / "u01_r0000.marks.csv",
            "calibration": data / "calibration.csv",
        }[kind]
        path.write_bytes(path.read_bytes() + b"\xff\n")
        code = main(["train", "--data", str(data), "--out", str(tmp_path / "m.capgest")])
        assert code == 2
        self.one_error_line(capsys, str(path), "utf-8")

    def test_features_not_utf8(self, workspace, tmp_path, capsys):
        path = tmp_path / "f.csv"
        path.write_bytes(b"# r\xe9sum\xe9\n" + ",".join(["0.25"] * N_FEATURES).encode() + b"\n")
        assert main(["predict", "--bundle", str(workspace["bundle"]), "--features", str(path)]) == 2
        self.one_error_line(capsys, str(path), "utf-8")

    @pytest.mark.parametrize("name", ["missing.csv", "."])
    def test_features_missing_or_directory(self, workspace, tmp_path, capsys, name):
        path = tmp_path / name
        assert main(["predict", "--bundle", str(workspace["bundle"]), "--features", str(path)]) == 2
        self.one_error_line(capsys, f"cannot read {path}")

    def test_train_out_not_writable(self, workspace, tmp_path, capsys):
        # a directory where the bundle file should go, and a path below a file
        (tmp_path / "file").write_text("x", encoding="utf-8")
        for out in (tmp_path, tmp_path / "file" / "m.capgest"):
            assert main(["train", "--data", str(workspace["data"]), "--out", str(out)]) == 2
            self.one_error_line(capsys, str(out))

    def test_synth_out_not_writable(self, tmp_path, capsys):
        (tmp_path / "file").write_text("x", encoding="utf-8")
        for out in (tmp_path / "file", tmp_path / "file" / "d"):
            code = main(["synth", "--out", str(out), "--users", "1", "--per-class", "1"])
            assert code == 2
            self.one_error_line(capsys, str(out))

    def test_synth_into_a_dataset(self, tmp_path, capsys):
        # a second, smaller dataset would mix with the first one
        out = tmp_path / "d"
        assert main(["synth", "--out", str(out), "--users", "1", "--per-class", "2"]) == 0
        capsys.readouterr()
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert main(["synth", "--out", str(out), "--users", "1", "--per-class", "1"]) == 2
        self.one_error_line(capsys, f"{out / 'recordings'} already holds recordings")
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

    @pytest.mark.parametrize("command", ["train", "eval", "predict", "bench"])
    def test_dataset_without_calibration(self, workspace, tmp_path, capsys, command):
        # the recordings alone do not give the calibration ranges
        data = tmp_path / "data"
        data.mkdir()
        (data / "recordings").symlink_to(workspace["data"] / "recordings")
        bundle = str(workspace["bundle"])
        args = {
            "train": ["--data", str(data), "--out", str(tmp_path / "m.capgest")],
            "eval": ["--data", str(data), "--bundle", bundle],
            "predict": ["--recordings", str(data), "--bundle", bundle],
            "bench": ["--data", str(data), "--bundle", bundle],
        }[command]
        assert main([command, *args]) == 2
        self.one_error_line(capsys, f"cannot read {data / 'calibration.csv'}")
        assert not (tmp_path / "m.capgest").exists()

    @pytest.mark.parametrize("command", ["train", "eval", "cv", "predict", "bench"])
    def test_recording_without_marks(self, workspace, tmp_path, capsys, command):
        # the marks file is the one source of a recording's labels
        data = tmp_path / "data"
        shutil.copytree(workspace["data"], data)
        marks = data / "recordings" / "u01_r0000.marks.csv"
        marks.unlink()
        bundle = str(workspace["bundle"])
        args = {
            "train": ["--data", str(data), "--out", str(tmp_path / "m.capgest")],
            "eval": ["--data", str(data), "--bundle", bundle],
            "cv": ["--data", str(data), "--combos", "1"],
            "predict": ["--recordings", str(data), "--bundle", bundle],
            "bench": ["--data", str(data), "--bundle", bundle],
        }[command]
        assert main([command, *args]) == 2
        self.one_error_line(capsys, f"cannot read {marks}")
        assert not (tmp_path / "m.capgest").exists()


@pytest.mark.parametrize("command", ["predict", "show-config"])
def test_closed_stdout_exits_0_quietly(workspace, command):
    """A reader that stops reading is not a failure.  The read end of the
    pipe is closed before the first write, so every write fails (a
    ``| head -1`` reader would race the writer).  stdout is block buffered:
    predict's labels fill the buffer, so a print fails; show-config's text
    fails at the final flush."""
    args = {
        "predict": ["--bundle", str(workspace["bundle"]), "--recordings", str(workspace["data"])],
        "show-config": [],
    }[command]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    src = str(Path(capgest.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "capgest.cli", command, *args],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=300,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr.decode()) == (0, "")
