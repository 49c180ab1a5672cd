import dataclasses
import json
import os
import socket
import subprocess
import sys

import numpy as np
import pytest

from glemiml import cli
from glemiml.cli import config_hash, main, resolve_config, build_parser
from glemiml.data import SplitSpec, SyntheticConfig, generate_synthetic, split_dataset
from glemiml.enhancer import load_enhancer
from glemiml.graph import mutual_knn_median
from glemiml.losses import LossWeights
from glemiml.metrics import METRIC_DIRECTIONS
from glemiml.nets import forward_batch
from glemiml.training import TrainConfig

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
        # a setting a config dataclass holds takes its default from it
        train, synth, split = TrainConfig(), SyntheticConfig(), SplitSpec()
        assert cfg["learning_rate"] == train.learning_rate and cfg["beta1"] == train.loss_weights.beta1
        assert cfg["data_seed"] == synth.seed and cfg["split_seed"] == split.seed

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

    @pytest.mark.parametrize("argv", [
        ["synth", "--num-bags", "9", "{tmp}/data.jsonl"],
        ["evaluate", "--num-bags", "9", "--enhancer", "{tmp}/e.json", "--classifier", "{tmp}/c.json"],
    ], ids=["synth", "evaluate"])
    def test_print_config_runs_nothing(self, tmp_path, capsys, argv):
        argv = [a.format(tmp=tmp_path) for a in argv]
        assert main([*argv, "--print-config"]) == 0
        assert json.loads(capsys.readouterr().out)["num_bags"] == 9
        assert list(tmp_path.iterdir()) == []  # no dataset written, no checkpoint read


# every setting a config dataclass holds: (the dataclass, its field, a non-default value)
HELD = {
    "num_bags": (SyntheticConfig, "num_bags", 40),
    "feature_dim": (SyntheticConfig, "feature_dim", 4),
    "label_count": (SyntheticConfig, "label_count", 3),
    "instances_min": (SyntheticConfig, "instances_min", 3),
    "instances_max": (SyntheticConfig, "instances_max", 6),
    "data_seed": (SyntheticConfig, "seed", 11),
    "train_frac": (SplitSpec, "train_frac", 0.6),
    "test_frac": (SplitSpec, "test_frac", 0.25),
    "val_frac": (SplitSpec, "val_frac", 0.15),
    "split_seed": (SplitSpec, "seed", 3),
    "epochs": (TrainConfig, "epochs", 2),
    "batch_size": (TrainConfig, "batch_size", 8),
    "learning_rate": (TrainConfig, "learning_rate", 0.01),
    "optimizer": (TrainConfig, "optimizer", "sgd"),
    "instance_k": (TrainConfig, "instance_k", 2),
    "k_label": (TrainConfig, "k_label", 4),
    "embed_dim": (TrainConfig, "embed_dim", 5),
    "classifier_depth": (TrainConfig, "classifier_depth", 3),
    "sim_mode": (TrainConfig, "sim_mode", "eq9-literal"),
    "seed": (TrainConfig, "seed", 9),
    "beta1": (LossWeights, "beta1", 0.5),
    "beta2": (LossWeights, "beta2", 0.25),
    "beta3": (LossWeights, "beta3", 0.25),
    "rho": (LossWeights, "rho", 0.75),
    "gamma_pos": (LossWeights, "gamma_pos", 1.0),
    "gamma_neg": (LossWeights, "gamma_neg", 2.0),
}


def test_every_held_setting_reaches_its_dataclass_field(monkeypatch):
    unheld = {"dataset", "synth", "checkpoint_every", "out", "method_name",
              "export_distributions", "dump_graph"}
    assert HELD.keys() == cli._SETTINGS.keys() - unheld
    flags = [f for key, (_, _, value) in HELD.items()
             for f in ("--" + key.replace("_", "-"), str(value))]
    cfg = resolve_config(build_parser().parse_args(["train", "--synth", *flags]))
    built = {}
    monkeypatch.setattr(cli, "generate_synthetic",
                        lambda spec: (built.setdefault(SyntheticConfig, spec), None))
    monkeypatch.setattr(cli, "split_dataset", lambda ds, spec: built.setdefault(SplitSpec, spec))
    cli._split(cli._load_data(cfg), cfg)
    built[TrainConfig] = cli._train_config(cfg)
    built[LossWeights] = built[TrainConfig].loss_weights
    for key, (config, name, value) in HELD.items():
        assert getattr(config(), name) != value, key
        assert getattr(built[config], name) == value, key


# fields of a config dataclass that no setting sets, each with what sets it instead
UNSET_FIELDS = {
    "TrainConfig.loss_weights": "built from the [loss] settings",
    "TrainConfig.ablation": "set per variant by run_ablation",
}


def test_every_config_field_is_set_by_a_setting_or_allowed():
    """A config field that no setting sets holds one value in every run: a
    constant, unless it is allow-listed with what sets it."""
    unset = {f"{config.__name__}.{field.name}" for config, held in cli._FIELDS.items()
             for field in dataclasses.fields(config) if field.name not in held.values()}
    assert unset == set(UNSET_FIELDS)


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

    @pytest.mark.parametrize("header, bag", [
        ({"feature_dim": "abc"}, None),
        ({}, [1, 2]),
        ({}, {"instances": [["a"]], "labels": [1, 0]}),
        ({}, {"instances": 5, "labels": [1, 0]}),
        ({}, {"instances": [[1.0]], "labels": [1, "z"]}),
        ({}, {"instances": [[1.0]], "labels": [1.5, 0.9]}),
    ], ids=["header-dim", "bag-list", "instance-text", "instances-number", "label-text",
            "label-fraction"])
    def test_malformed_dataset_exit_2_without_traceback(self, tmp_path, header, bag):
        path = tmp_path / "bad.jsonl"
        good = {"instances": [[0.5]], "labels": [1, 0]}
        lines = [{"name": "bad", "feature_dim": 1, "label_count": 2, **header}, bag or good]
        path.write_text("\n".join(json.dumps(doc) for doc in lines + [good] * 11) + "\n")
        out = tmp_path / "run"
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-m", "glemiml.cli", "train", "--dataset", str(path), "--epochs", "1",
             "--out", str(out)], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("data error:") and str(path) in proc.stderr
        assert ("line 1:" if header else "line 2:") in proc.stderr
        assert not out.exists()

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

    # every float setting at each non-finite value, and each seed just outside
    # what np.uint64 holds
    OUT_OF_RANGE = [(key, value) for key, (_, typ, _) in cli._SETTINGS.items() if typ is float
                    for value in ("nan", "inf", "-inf")] + [
        (key, value) for key in ("seed", "data_seed", "split_seed") for value in ("-1", str(2**64))]

    @pytest.mark.parametrize("key, value", OUT_OF_RANGE,
                             ids=[f"{key}={value}" for key, value in OUT_OF_RANGE])
    def test_out_of_range_setting_is_config_error_before_the_output_directory(
            self, tmp_path, capsys, key, value):
        out = tmp_path / "run"
        assert run_train(out, [f"--{key.replace('_', '-')}={value}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err
        assert not out.exists()

    def test_empty_split_is_config_error_before_the_output_directory(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", "--synth", "--num-bags", "10", "--train-frac", "0.75",
                     "--test-frac", "0.2", "--val-frac", "0.05", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "config error: the val split is empty: val_frac 0.05 of 10 bags is less " \
                      "than one bag\n"
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

    def test_ablation_ranks_with_train_report(self, tmp_path, capsys):
        # each variant is one method row on the test split, the split whose
        # metrics train's report.json holds, so both share one column set
        abl, run = tmp_path / "abl", tmp_path / "run"
        assert main(["ablate", *FAST, "--out", str(abl), "--only", "C"]) == 0
        assert run_train(run, ["--method-name", "trained"]) == 0
        ablation = json.loads((abl / "ablation.json").read_text())
        trained = json.loads((run / "report.json").read_text())
        assert ablation["dataset"] == trained["dataset"]
        assert ablation["dataset"].endswith("/test")
        capsys.readouterr()
        assert main(["report", str(abl / "ablation.json"), str(run / "report.json")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == (["Method"] + sorted(
            f"{trained['dataset']}:{m}" for m in METRIC_DIRECTIONS) + ["AvgRank"])
        assert sorted(line.split()[0] for line in lines[1:]) == ["GLEMIML-C", "trained"]
        assert "N/A" not in "".join(lines)


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

    def test_train_report_ranks_with_test_split_evaluation(self, tmp_path, capsys):
        # train's report.json holds test-split metrics, so it names the test
        # split as `evaluate --split test` does and both share one column set
        run = tmp_path / "run"
        assert run_train(run) == 0
        rep = tmp_path / "eval.json"
        assert main(["evaluate", *FAST, "--method-name", "evaluated",
                     "--enhancer", str(run / "enhancer.json"),
                     "--classifier", str(run / "classifier.json"),
                     "--split", "test", "--report-out", str(rep)]) == 0
        trained = json.loads((run / "report.json").read_text())
        evaluated = json.loads(rep.read_text())
        assert trained["dataset"] == evaluated["dataset"]
        assert trained["dataset"].endswith("/test")
        assert trained["metrics"] == evaluated["metrics"]
        capsys.readouterr()
        assert main(["report", str(run / "report.json"), str(rep)]) == 0
        header = capsys.readouterr().out.splitlines()[0].split()
        assert header == (["Method"] + sorted(f"{trained['dataset']}:{m}" for m in METRIC_DIRECTIONS)
                          + ["AvgRank"])

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

    @pytest.mark.parametrize("text", [
        "{}", "[]", "not json", '{"method": "m", "dataset": "d"}',
        '{"method": "m", "dataset": "d", "metrics": {"hamming_loss": "low"}}',
        '{"method": "m", "dataset": "d", "metrics": {"hamming_loss": NaN}}',
    ], ids=["empty-object", "list", "not-json", "no-metrics", "text-metric", "nan-metric"])
    def test_malformed_report_is_data_error(self, tmp_path, capsys, text):
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        self.make_report(good, "m", "d", {"hamming_loss": 0.1})
        bad.write_text(text)
        assert main(["report", str(good), str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("data error:")
        assert str(bad) in captured.err

    def test_ranked_output_golden(self, tmp_path, capsys):
        """Ties share the minimum rank, a null metric and a dataset a method
        lacks read N/A and rank worst; equal average ranks keep file order."""
        rows = [
            ("GLEMIML", "d1", [0.1, 0.2, 0.8, 0.7]), ("tied", "d1", [0.1, 0.25, 0.8, 0.6]),
            ("gaps", "d1", [0.3, 0.2, None, 0.75]), ("GLEMIML", "d2", [0.15, 0.1, 0.9, 0.8]),
        ]
        paths = []
        for i, (method, dataset, values) in enumerate(rows):
            paths.append(str(tmp_path / f"r{i}.json"))
            self.make_report(tmp_path / f"r{i}.json", method, dataset, dict(zip(
                ("hamming_loss", "ranking_loss", "macro_avg_precision", "macro_f1"), values)))
        assert main(["report", *paths]) == 0
        assert capsys.readouterr().out == (
            'Method                 d1:hamming_loss  d1:macro_avg_precision'
            '             d1:macro_f1         d1:ranking_loss         d2:hamming_loss'
            '  d2:macro_avg_precision             d2:macro_f1         d2:ranking_loss'
            '   AvgRank\n'
            'GLEMIML                         0.1000                  0.8000'
            '                  0.7000                  0.2000                  0.1500'
            '                  0.9000                  0.8000                  0.1000'
            '      1.12\n'
            'tied                            0.1000                  0.8000'
            '                  0.6000                  0.2500                     N/A'
            '                     N/A                     N/A                     N/A'
            '      2.50\n'
            'gaps                            0.3000                     N/A'
            '                  0.7500                  0.2000                     N/A'
            '                     N/A                     N/A                     N/A'
            '      2.50\n')
        assert main(["report", paths[0]]) == 0
        assert capsys.readouterr().out == (
            'Method                 d1:hamming_loss  d1:macro_avg_precision'
            '             d1:macro_f1         d1:ranking_loss   AvgRank\n'
            'GLEMIML                         0.1000                  0.8000'
            '                  0.7000                  0.2000      1.00\n')
