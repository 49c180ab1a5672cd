import json
import os
import socket
import subprocess
import sys

import numpy as np
import pytest

from glemiml.cli import config_hash, main, resolve_config, build_parser
from glemiml.data import SplitSpec, SyntheticConfig, generate_synthetic, split_dataset
from glemiml.enhancer import load_enhancer
from glemiml.graph import mutual_knn_median
from glemiml.nets import forward_batch

FAST = [
    "--synth", "--num-bags", "20", "--feature-dim", "4", "--label-count", "3",
    "--epochs", "1", "--batch-size", "8",
]


def run_train(out_dir, extra=()):
    return main(["train", *FAST, "--out", str(out_dir), *extra])


class TestConfigResolution:
    def test_defaults_applied(self):
        args = build_parser().parse_args(["train", "--synth"])
        cfg = resolve_config(args)
        assert cfg["epochs"] == 50 and cfg["batch_size"] == 32
        assert cfg["rho"] == 0.5 and cfg["gamma_neg"] == 4.0

    def test_flag_overrides_file(self, tmp_path):
        ini = tmp_path / "cfg.ini"
        ini.write_text("[train]\nepochs = 7\nseed = 11\n")
        args = build_parser().parse_args(
            ["train", "--synth", "--config", str(ini), "--epochs", "9"])
        cfg = resolve_config(args)
        assert cfg["epochs"] == 9   # flag wins
        assert cfg["seed"] == 11    # file beats default

    def test_missing_config_file_is_data_error(self, capsys):
        assert main(["train", "--synth", "--config", "/nonexistent.ini"]) == 2

    def test_bad_config_value_is_config_error(self, tmp_path):
        ini = tmp_path / "cfg.ini"
        ini.write_text("[train]\nepochs = banana\n")
        assert main(["train", "--synth", "--config", str(ini)]) == 1

    @pytest.mark.parametrize("text, named", [
        ("[trainig]\nepochs = 5\n", "[trainig]"),
        ("[train]\nepoch = 5\n", "[train] epoch"),
        ("[train]\ndataset = x.jsonl\n", "belongs in [data]"),
        ("[DEFAULT]\nepoch = 5\n[train]\nseed = 1\n", "[DEFAULT] epoch"),
    ], ids=["section", "key", "wrong-section", "default-section"])
    def test_unknown_config_entry_is_config_error(self, tmp_path, capsys, text, named):
        ini = tmp_path / "cfg.ini"
        ini.write_text(text)
        assert main(["train", "--synth", "--config", str(ini), "--print-config"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and named in err

    def test_default_section_keys_still_apply(self, tmp_path):
        ini = tmp_path / "cfg.ini"
        ini.write_text("[DEFAULT]\nepochs = 4\n[train]\nseed = 2\n")
        args = build_parser().parse_args(["train", "--synth", "--config", str(ini)])
        cfg = resolve_config(args)
        assert cfg["epochs"] == 4 and cfg["seed"] == 2

    def test_dataset_and_synth_conflict(self):
        assert main(["train", "--dataset", "x.jsonl", "--synth"]) == 1

    def test_config_hash_sensitive_to_values(self):
        a = dict(x=1, y="z")
        assert config_hash(a) != config_hash({**a, "x": 2})
        assert config_hash(a) == config_hash(dict(y="z", x=1))

    def test_print_config(self, capsys):
        assert main(["train", "--synth", "--epochs", "5", "--print-config"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["epochs"] == 5 and doc["synth"] == "default"


class TestTrainCommand:
    def test_smoke_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_train(out) == 0
        for name in ("manifest.json", "enhancer.json", "classifier.json",
                     "history.csv", "report.json", "report.txt"):
            assert (out / name).exists(), name
        report = json.loads((out / "report.json").read_text())
        assert set(report["metrics"]) >= {
            "hamming_loss", "ranking_loss", "macro_avg_precision", "macro_f1"}
        manifest = json.loads((out / "manifest.json").read_text())
        assert report["config_hash"] == manifest["config_hash"]
        assert "HLv" in capsys.readouterr().out

    def test_missing_dataset_exit_2(self, tmp_path):
        assert main(["train", "--dataset", str(tmp_path / "nope.jsonl")]) == 2

    def test_non_finite_dataset_exit_2(self, tmp_path, capsys):
        path = tmp_path / "nan.jsonl"
        bags = [{"instances": [[0.1 * i, 1.0]], "labels": [1, 0]} for i in range(12)]
        bags[5]["instances"][0][1] = float("nan")
        path.write_text("\n".join(json.dumps(doc) for doc in (
            {"name": "nan", "feature_dim": 2, "label_count": 2}, *bags)) + "\n")
        assert main(["train", "--dataset", str(path), "--epochs", "1",
                     "--out", str(tmp_path / "run")]) == 2
        assert "line 7" in capsys.readouterr().err

    def test_identical_runs_byte_identical_outputs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_train(a) == 0 and run_train(b) == 0
        for name in ("enhancer.json", "classifier.json", "history.csv", "report.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
        ra = json.loads((a / "report.json").read_text())
        rb = json.loads((b / "report.json").read_text())
        # the config hash covers the output path, so compare the metrics
        assert ra["metrics"] == rb["metrics"]

    def test_lockfile_blocks_concurrent_run(self, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        (out / ".lock").touch()
        assert run_train(out) == 1

    @staticmethod
    def write_lock(out, pid, host=None):
        out.mkdir()
        (out / ".lock").write_text(json.dumps({"host": host or socket.gethostname(), "pid": pid}))

    def test_lock_of_dead_process_is_taken_over(self, tmp_path):
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()  # reaped, so its PID names no process
        out = tmp_path / "run"
        self.write_lock(out, proc.pid)
        assert run_train(out) == 0
        assert (out / "report.json").exists()
        assert not (out / ".lock").exists()

    @pytest.mark.parametrize("host", [None, "another-host.invalid"], ids=["live-pid", "foreign-host"])
    def test_lock_of_live_or_foreign_owner_blocks(self, tmp_path, capsys, host):
        out = tmp_path / "run"
        self.write_lock(out, os.getpid(), host)
        assert run_train(out) == 1
        assert str(os.getpid()) in capsys.readouterr().err
        assert (out / ".lock").exists() and not (out / "manifest.json").exists()

    def test_lock_without_owner_blocks_and_says_delete(self, tmp_path, capsys):
        out = tmp_path / "run"
        out.mkdir()
        (out / ".lock").write_text("")
        assert run_train(out) == 1
        assert "delete it" in capsys.readouterr().err

    def test_lock_records_owner_while_held(self, tmp_path, monkeypatch):
        import glemiml.cli as cli_mod
        seen = []
        real_train = cli_mod.train

        def train_reading_lock(*args, **kwargs):
            seen.append(json.loads((tmp_path / "run" / ".lock").read_text()))
            return real_train(*args, **kwargs)

        monkeypatch.setattr(cli_mod, "train", train_reading_lock)
        assert run_train(tmp_path / "run") == 0
        assert seen == [{"host": socket.gethostname(), "pid": os.getpid()}]

    def test_lock_released_after_run(self, tmp_path):
        out = tmp_path / "run"
        assert run_train(out) == 0
        assert not (out / ".lock").exists()
        assert run_train(out) == 0  # reruns cleanly

    def test_checkpoint_every(self, tmp_path):
        out = tmp_path / "run"
        assert run_train(out, ["--epochs", "2", "--checkpoint-every", "1"]) == 0
        assert (out / "enhancer_epoch0001.json").exists()
        assert (out / "classifier_epoch0002.json").exists()

    def test_export_and_graph_dump(self, tmp_path):
        out = tmp_path / "run"
        assert run_train(out, ["--export-distributions", "--dump-graph"]) == 0
        assert (out / "distributions_train.csv").exists()
        # the instance graph the trained enhancer builds for the first train bag
        ds, _ = generate_synthetic(SyntheticConfig(num_bags=20, feature_dim=4, label_count=3))
        X0 = split_dataset(ds, SplitSpec())[0].bags[0].instances
        enh = load_enhancer(out / "enhancer.json")
        expect = mutual_knn_median(forward_batch(enh.sigma_net, X0)[0][None], [len(X0)],
                                   enh.instance_k)[0][0]
        adj = np.loadtxt(out / "graph_adjacency.csv", delimiter=",", ndmin=2)
        assert adj.tobytes() == expect.tobytes()
        lap = np.loadtxt(out / "graph_laplacian.csv", delimiter=",", ndmin=2)
        assert np.abs(lap.sum(axis=1)).max() < 1e-10

    @pytest.mark.parametrize("flags", [["--instance-k", "0"], ["--k-label", "-2"]],
                             ids=["instance-k-0", "k-label-negative"])
    def test_graph_size_below_one_is_config_error(self, tmp_path, capsys, flags):
        out = tmp_path / "run"
        assert run_train(out, [*flags, "--dump-graph"]) == 1
        assert "must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags,message", [
        (["--embed-dim", "0"], "embed_dim must be >= 1"),
        (["--classifier-depth", "4"], "classifier_depth must be 1, 2 or 3"),
        (["--sim-mode", "bogus"], "unknown sim_mode 'bogus'"),
    ], ids=["embed-dim-0", "classifier-depth-4", "sim-mode-bogus"])
    def test_bad_model_setting_is_config_error(self, tmp_path, capsys, flags, message):
        out = tmp_path / "run"
        assert run_train(out, flags) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_output_root_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GLEMIML_OUTPUT_ROOT", str(tmp_path / "root"))
        assert main(["train", *FAST]) == 0
        assert (tmp_path / "root" / "run" / "report.json").exists()


class TestAblateCommand:
    def test_only_single_variant(self, tmp_path, capsys):
        out = tmp_path / "abl"
        assert main(["ablate", *FAST, "--out", str(out), "--only", "A"]) == 0
        doc = json.loads((out / "ablation.json").read_text())
        assert set(doc["variants"]) == {"GLEMIML-A"}
        txt = (out / "ablation.txt").read_text()
        assert txt.startswith("config " + doc["config_hash"])

    def test_full_grid(self, tmp_path):
        out = tmp_path / "abl"
        assert main(["ablate", *FAST, "--out", str(out)]) == 0
        doc = json.loads((out / "ablation.json").read_text())
        assert set(doc["variants"]) == {
            "GLEMIML", "GLEMIML-A", "GLEMIML-B", "GLEMIML-C"}


class TestSynthAndEvaluate:
    def test_synth_then_evaluate_roundtrip(self, tmp_path, capsys):
        data = tmp_path / "data.jsonl"
        truth = tmp_path / "truth.csv"
        assert main(["synth", *FAST, str(data), "--truth-out", str(truth)]) == 0
        assert data.exists()
        assert len(truth.read_text().strip().splitlines()) == 21  # header + 20 rows

        # train from the saved dataset, then evaluate the checkpoints on it
        out2 = tmp_path / "run2"
        assert main(["train", "--dataset", str(data), "--epochs", "1",
                     "--batch-size", "8", "--out", str(out2)]) == 0
        rep = tmp_path / "eval.json"
        assert main(["evaluate", "--dataset", str(data),
                     "--enhancer", str(out2 / "enhancer.json"),
                     "--classifier", str(out2 / "classifier.json"),
                     "--split", "test", "--report-out", str(rep)]) == 0
        doc = json.loads(rep.read_text())
        assert doc["method"] == "GLEMIML"
        assert 0.0 <= doc["metrics"]["hamming_loss"] <= 1.0

    def test_evaluate_missing_checkpoint_exit_2(self, tmp_path):
        assert main(["evaluate", "--synth",
                     "--enhancer", str(tmp_path / "e.json"),
                     "--classifier", str(tmp_path / "c.json")]) == 2

    def test_evaluate_malformed_checkpoint_exit_2(self, tmp_path, capsys):
        enh, clf = tmp_path / "e.json", tmp_path / "c.json"
        enh.write_text(json.dumps({"kind": "enhancer"}))
        clf.write_text(json.dumps({"kind": "classifier"}))
        assert main(["evaluate", "--synth", "--enhancer", str(enh),
                     "--classifier", str(clf)]) == 2
        err = capsys.readouterr().err
        assert str(enh) in err and "'sigma'" in err

    def test_checkpoint_with_k_below_one_exit_2(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_train(out) == 0
        enh = out / "enhancer.json"
        doc = json.loads(enh.read_text())
        doc["k_label"] = 0
        enh.write_text(json.dumps(doc))
        assert main(["evaluate", *FAST, "--enhancer", str(enh),
                     "--classifier", str(out / "classifier.json")]) == 2
        err = capsys.readouterr().err
        assert str(enh) in err and "k_label must be >= 1" in err

    def test_checkpoint_schema(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_train(out) == 0
        enh, clf = out / "enhancer.json", out / "classifier.json"
        assert json.loads(enh.read_text())["schema"] == 1
        assert json.loads(clf.read_text())["schema"] == 1
        evaluate = ["evaluate", *FAST, "--enhancer", str(enh), "--classifier", str(clf)]

        doc = json.loads(clf.read_text())
        del doc["schema"]  # written before checkpoints carried one: schema 1
        clf.write_text(json.dumps(doc))
        assert main(evaluate) == 0
        capsys.readouterr()

        doc["schema"] = 2
        clf.write_text(json.dumps(doc))
        assert main(evaluate) == 2
        err = capsys.readouterr().err
        assert str(clf) in err and "schema 2" in err


class TestReportCommand:
    def make_report(self, path, method, dataset, metrics):
        path.write_text(json.dumps({
            "method": method, "dataset": dataset, "metrics": metrics}))

    def test_singleton_rank_one(self, tmp_path, capsys):
        r = tmp_path / "r.json"
        self.make_report(r, "GLEMIML", "synth", {
            "hamming_loss": 0.1, "ranking_loss": 0.2,
            "macro_avg_precision": 0.8, "macro_f1": 0.7})
        assert main(["report", str(r)]) == 0
        out = capsys.readouterr().out
        assert "GLEMIML" in out and "1.00" in out

    def test_two_methods_directions(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        # method B has lower error AND higher precision: rank 1 on all columns
        self.make_report(a, "worse", "d", {
            "hamming_loss": 0.3, "ranking_loss": 0.4,
            "macro_avg_precision": 0.5, "macro_f1": 0.5})
        self.make_report(b, "better", "d", {
            "hamming_loss": 0.1, "ranking_loss": 0.2,
            "macro_avg_precision": 0.9, "macro_f1": 0.8})
        assert main(["report", str(a), str(b)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[1].startswith("better") and lines[1].rstrip().endswith("1.00")
        assert lines[2].startswith("worse") and lines[2].rstrip().endswith("2.00")

    def test_missing_metric_shows_na(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self.make_report(a, "m1", "d1", {"hamming_loss": 0.1, "ranking_loss": 0.1,
                                         "macro_avg_precision": 0.9, "macro_f1": 0.9})
        self.make_report(b, "m2", "d2", {"hamming_loss": 0.2, "ranking_loss": 0.2,
                                         "macro_avg_precision": 0.8, "macro_f1": 0.8})
        assert main(["report", str(a), str(b)]) == 0
        assert "N/A" in capsys.readouterr().out

    def test_no_reports_is_config_error(self):
        assert main(["report"]) == 1
