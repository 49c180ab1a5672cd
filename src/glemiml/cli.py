"""Command-line surface: train, ablate, evaluate, synth, report.

Exit codes: 0 success, 1 config error, 2 data error, 3 numeric divergence.
Config files are INI-style key/value sections, and a section or key that no
setting reads is a config error; flags override file values. Artifacts are
written atomically (glemiml.atomic).
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import json
import math
import os
import socket
import sys

import numpy as np

from . import __version__
from .atomic import atomic_open
from .classifier import load_classifier, save_classifier
from .data import (
    MIMLDataset,
    SplitSpec,
    SyntheticConfig,
    generate_synthetic,
    load_dataset,
    save_dataset,
    split_dataset,
)
from .enhancer import enhance_batch, load_enhancer, save_enhancer
from .errors import ConfigError, DataFormatError, DegenerateInputError, NumericError, ShapeError
from .graph import mutual_knn_median
from .losses import LossWeights
from .metrics import METRIC_DIRECTIONS, average_rank, format_report_table
from .nets import forward_batch
from .training import LOSS_COLUMNS, TrainConfig, evaluate, run_ablation, train

OUTPUT_ROOT_ENV = "GLEMIML_OUTPUT_ROOT"


# config dataclass: {setting key: the field it sets}, filled in by _held
_FIELDS = {}


def _held(section: str, config, names: str, **renamed) -> dict:
    """Settings that a config dataclass holds, with its defaults: `names` are
    its field names, and `renamed` maps a setting key to the field it sets."""
    fields = _FIELDS[config] = {**{name: name for name in names.split()}, **renamed}
    return {key: (section, type(getattr(config, name)), getattr(config, name))
            for key, name in fields.items()}


def _build(config, cfg: dict, **extra):
    """The `config` dataclass, each field it holds set from its setting in `cfg`."""
    return config(**{name: cfg[key] for key, name in _FIELDS[config].items()}, **extra)


_SETTINGS = {
    # key: (section, type, default)
    "dataset": ("data", str, None), "synth": ("data", str, None),
    **_held("data", SyntheticConfig, "num_bags feature_dim label_count instances_min instances_max",
            data_seed="seed"),
    **_held("split", SplitSpec, "train_frac test_frac val_frac", split_seed="seed"),
    **_held("train", TrainConfig, "epochs batch_size learning_rate optimizer instance_k k_label "
            "embed_dim classifier_depth sim_mode seed"),
    "checkpoint_every": ("train", int, 0),
    **_held("loss", LossWeights, "beta1 beta2 beta3 rho gamma_pos gamma_neg"),
    "out": ("output", str, None), "method_name": ("output", str, "GLEMIML"),
    "export_distributions": ("output", bool, False), "dump_graph": ("output", bool, False),
}


def _reject_unknown_config(parser: configparser.ConfigParser) -> None:
    """Names a section or key that no setting reads (a typo) instead of ignoring it."""
    sections = {section for section, _, _ in _SETTINGS.values()}
    defaults = parser.defaults()
    for key in defaults:
        if key not in _SETTINGS:
            raise ConfigError(f"config [{parser.default_section}] {key}: unknown key")
    for section in parser.sections():
        if section not in sections:
            raise ConfigError(f"config [{section}]: unknown section")
        for key in parser.options(section):
            home = _SETTINGS[key][0] if key in _SETTINGS else None
            if key not in defaults and home != section:
                hint = f" (it belongs in [{home}])" if home else ""
                raise ConfigError(f"config [{section}] {key}: unknown key{hint}")


def resolve_config(args) -> dict:
    """Layer defaults < config file < command-line flags."""
    cfg = {key: default for key, (_, _, default) in _SETTINGS.items()}
    if getattr(args, "config", None):
        parser = configparser.ConfigParser()
        read = parser.read(args.config)
        if not read:
            raise DataFormatError(f"config file not found: {args.config}")
        _reject_unknown_config(parser)
        for key, (section, typ, _) in _SETTINGS.items():
            if parser.has_option(section, key):
                raw = parser.get(section, key)
                try:
                    cfg[key] = parser.getboolean(section, key) if typ is bool else typ(raw)
                except ValueError as exc:
                    raise ConfigError(f"config [{section}] {key}: {exc}") from exc
    for key in _SETTINGS:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    if cfg["dataset"] is not None and cfg["synth"] is not None:
        raise ConfigError("choose exactly one data source: --dataset or --synth")
    return cfg


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, default=str)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def _train_config(cfg: dict) -> TrainConfig:
    return _build(TrainConfig, cfg, loss_weights=_build(LossWeights, cfg))


def _split(ds: MIMLDataset, cfg: dict) -> tuple:
    """The (train, test, val) split of `ds` that the split settings name."""
    return split_dataset(ds, _build(SplitSpec, cfg))


def _load_data(cfg: dict) -> MIMLDataset:
    if cfg["dataset"] is not None:
        if not os.path.exists(cfg["dataset"]):
            raise DataFormatError(f"dataset file not found: {cfg['dataset']}")
        return load_dataset(cfg["dataset"])
    return generate_synthetic(_build(SyntheticConfig, cfg))[0]


def _output_dir(cfg: dict) -> str:
    if cfg["out"]:
        return cfg["out"]
    root = os.environ.get(OUTPUT_ROOT_ENV, "glemiml-out")
    return os.path.join(root, "run")


def _pid_alive(pid: int) -> bool:
    """Whether process `pid` exists on this host. Off POSIX, signal 0 would
    interrupt the process rather than probe it, so every owner counts as alive."""
    if os.name != "posix":
        return True
    try:
        os.kill(pid, 0)
    except (ProcessLookupError, OverflowError):
        return False
    except PermissionError:  # it exists, under another user
        return True
    return True


class _OutputLock:
    """One experiment at a time per output directory.

    The lock file records its owner's PID and host. A lock left on this host
    by a process that no longer exists is taken over. A live owner, an owner
    on another host (whose liveness cannot be checked here) and a lock that
    names no owner still block.
    """

    def __init__(self, out_dir: str):
        self.path = os.path.join(out_dir, ".lock")
        self.fd = None

    def __enter__(self):
        try:
            self.fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            self._remove_if_stale()
            try:
                self.fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:  # another run took it over first
                raise ConfigError(f"output directory is locked by another run: {self.path}")
        owner = {"host": socket.gethostname(), "pid": os.getpid()}
        os.write(self.fd, json.dumps(owner, sort_keys=True).encode())
        return self

    def _remove_if_stale(self) -> None:
        """Deletes the lock if its owner is a dead process on this host; raises otherwise."""
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                owner = json.load(fh)
        except FileNotFoundError:  # released since the first attempt
            return
        except ValueError:  # empty, or not JSON
            owner = {}
        if not isinstance(owner, dict):
            owner = {}
        pid, host = owner.get("pid"), owner.get("host")
        if type(pid) is not int or pid <= 0 or not isinstance(host, str):
            raise ConfigError(
                f"output directory is locked: {self.path} names no owner (it was written before "
                "locks recorded one, or by a run that stopped while writing it); "
                "delete it if no run is using this directory")
        if host != socket.gethostname():
            raise ConfigError(f"output directory is locked by process {pid} on host {host!r}: "
                              f"{self.path}; delete it if that run has ended")
        if _pid_alive(pid):
            raise ConfigError(f"output directory is locked by running process {pid}: {self.path}")
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            pass

    def __exit__(self, *exc):
        if self.fd is not None:
            os.close(self.fd)
            os.unlink(self.path)
        return False


def _write_json(path: str, doc: dict) -> None:
    with atomic_open(path) as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_manifest(out_dir: str, cfg: dict) -> str:
    h = config_hash(cfg)
    _write_json(os.path.join(out_dir, "manifest.json"), {
        "config": cfg, "config_hash": h, "seed": cfg["seed"], "version": __version__,
    })
    return h


def _write_history_csv(path: str, history) -> None:
    if not history.records:
        return
    keys = ["epoch"] + list(LOSS_COLUMNS) + [
        k for k in history.records[0] if k.startswith("val_")
    ]
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(keys)
        for rec in history.records:
            writer.writerow([repr(float(rec[k])) if k != "epoch" else rec[k] for k in keys])


def _export_distributions(enh, splits, out_dir: str) -> None:
    for name, ds in zip(("train", "test", "val"), splits):
        batch = enhance_batch(enh, ds.bags)
        path = os.path.join(out_dir, f"distributions_{name}.csv")
        with atomic_open(path, newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["bag"] + [f"label_{j}" for j in range(ds.label_count)])
            for i, row in enumerate(batch.distributions):
                writer.writerow([i] + [repr(float(v)) for v in row])


def _dump_graph_debug(enh, ds: MIMLDataset, out_dir: str) -> None:
    """The instance graph the trained enhancer builds for the first bag of `ds`,
    and its Laplacian diag(A 1) - A."""
    emb, _ = forward_batch(enh.sigma_net, ds.bags[0].instances, grad=False)
    adj = mutual_knn_median(emb[None], [len(emb)], enh.instance_k, grad=False)[0][0]
    lap = np.diag(adj.sum(axis=1)) - adj
    for name, mat in (("adjacency", adj), ("laplacian", lap)):
        with atomic_open(os.path.join(out_dir, f"graph_{name}.csv")) as fh:
            np.savetxt(fh, mat, delimiter=",")


def cmd_train(args) -> int:
    cfg = resolve_config(args)
    ds = _load_data(cfg)
    splits = _split(ds, cfg)
    train_ds, test_ds, val_ds = splits
    tcfg = _train_config(cfg)

    out_dir = _output_dir(cfg)
    os.makedirs(out_dir, exist_ok=True)
    with _OutputLock(out_dir):
        h = _write_manifest(out_dir, cfg)
        callback = None
        if cfg["checkpoint_every"] > 0:
            def callback(enh_m, clf_m, epoch):
                if epoch % cfg["checkpoint_every"] == 0:
                    save_enhancer(enh_m, os.path.join(out_dir, f"enhancer_epoch{epoch:04d}.json"))
                    save_classifier(clf_m, os.path.join(out_dir, f"classifier_epoch{epoch:04d}.json"))
        enh, clf, history = train(train_ds, val_ds, tcfg, epoch_callback=callback)
        report = evaluate(enh, clf, test_ds)

        save_enhancer(enh, os.path.join(out_dir, "enhancer.json"))
        save_classifier(clf, os.path.join(out_dir, "classifier.json"))
        _write_history_csv(os.path.join(out_dir, "history.csv"), history)
        _write_json(os.path.join(out_dir, "report.json"), {
            "method": cfg["method_name"], "dataset": test_ds.name,
            "metrics": report.as_dict(), "config_hash": h, "version": __version__,
        })
        with atomic_open(os.path.join(out_dir, "report.txt")) as fh:
            fh.write(format_report_table({cfg["method_name"]: report}))
        if cfg["export_distributions"]:
            _export_distributions(enh, splits, out_dir)
        if cfg["dump_graph"]:
            _dump_graph_debug(enh, train_ds, out_dir)
    print(format_report_table({cfg["method_name"]: report}), end="")
    return 0


def cmd_ablate(args) -> int:
    cfg = resolve_config(args)
    ds = _load_data(cfg)
    splits = _split(ds, cfg)
    tcfg = _train_config(cfg)

    out_dir = _output_dir(cfg)
    os.makedirs(out_dir, exist_ok=True)
    with _OutputLock(out_dir):
        h = _write_manifest(out_dir, cfg)
        reports = run_ablation(splits, tcfg, only=args.only)
        table = f"config {h}\n" + format_report_table(reports)
        with atomic_open(os.path.join(out_dir, "ablation.txt")) as fh:
            fh.write(table)
        # the variants are evaluated on the test split
        _write_json(os.path.join(out_dir, "ablation.json"), {
            "dataset": splits[1].name, "config_hash": h, "version": __version__,
            "variants": {name: rep.as_dict() for name, rep in reports.items()},
        })
    print(table, end="")
    return 0


def cmd_evaluate(args) -> int:
    cfg = resolve_config(args)
    for path in (args.enhancer, args.classifier):
        if not os.path.exists(path):
            raise DataFormatError(f"checkpoint not found: {path}")
    enh = load_enhancer(args.enhancer)
    clf = load_classifier(args.classifier)
    ds = _load_data(cfg)
    if args.split:
        ds = dict(zip(("train", "test", "val"), _split(ds, cfg)))[args.split]
    report = evaluate(enh, clf, ds)
    doc = {
        "method": cfg["method_name"], "dataset": ds.name,
        "metrics": report.as_dict(), "version": __version__,
    }
    if args.report_out:
        _write_json(args.report_out, doc)
    print(format_report_table({cfg["method_name"]: report}), end="")
    return 0


def cmd_synth(args) -> int:
    ds, truths = generate_synthetic(_build(SyntheticConfig, resolve_config(args)))
    save_dataset(ds, args.out_file)
    if args.truth_out:
        with atomic_open(args.truth_out, newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"label_{j}" for j in range(ds.label_count)])
            for dist in truths:
                writer.writerow([repr(float(v)) for v in dist])
    print(f"wrote {len(ds)} bags to {args.out_file}")
    return 0


def _read_report(path: str) -> list:
    """The (method, dataset, metrics) rows of a report JSON file; a data error names the file.

    A train or evaluate report is one row. An ablation file is one row per
    variant (GLEMIML, GLEMIML-A, ...), all on its dataset.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8 or not JSON
        raise DataFormatError(f"cannot read report {path}: {exc}") from exc
    if not isinstance(doc, dict):
        doc = {}
    if isinstance(doc.get("variants"), dict) and doc["variants"]:
        rows = [(name, doc.get("dataset"), metrics) for name, metrics in doc["variants"].items()]
    else:
        rows = [(doc.get("method"), doc.get("dataset"), doc.get("metrics"))]
    for method, dataset, metrics in rows:
        if not (isinstance(method, str) and isinstance(dataset, str)
                and isinstance(metrics, dict)):
            raise DataFormatError(f"report {path}: expected an object with string 'method' and "
                                  "'dataset' and a 'metrics' object, or an ablation's string "
                                  "'dataset' and 'variants' of metrics objects")
        for metric in METRIC_DIRECTIONS:
            value = metrics.get(metric)
            if value is not None and not (isinstance(value, (int, float))
                                          and math.isfinite(value)):
                raise DataFormatError(f"report {path}: metric {metric!r} of {method!r} is not "
                                      f"a finite number: {value!r}")
    return rows


def cmd_report(args) -> int:
    if not args.reports:
        raise ConfigError("report needs at least one report JSON file")
    table: dict = {}
    directions = {}
    for path in args.reports:
        for method, dataset, metrics in _read_report(path):
            row = table.setdefault(method, {})
            for metric, direction in METRIC_DIRECTIONS.items():
                col = f"{dataset}:{metric}"
                row[col] = metrics.get(metric)
                directions[col] = direction
    ranks = average_rank(table, directions)
    methods = sorted(table, key=lambda m: ranks[m])
    columns = sorted({c for scores in table.values() for c in scores})
    width = max(18, max(len(c) for c in columns) + 2)
    lines = [f"{'Method':<14}" + "".join(f"{c:>{width}}" for c in columns) + f"{'AvgRank':>10}"]
    for m in methods:
        cells = []
        for c in columns:
            v = table[m].get(c)
            cells.append("N/A" if v is None else f"{v:.4f}")
        lines.append(f"{m:<14}" + "".join(f"{s:>{width}}" for s in cells)
                     + f"{ranks[m]:>10.2f}")
    print("\n".join(lines))
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="INI config file; flags override its values")
    parser.add_argument("--print-config", action="store_true",
                        help="print the fully resolved configuration and exit")
    parser.add_argument("--dataset", help="JSON-lines dataset file")
    parser.add_argument("--synth", nargs="?", const="default",
                        help="use the synthetic generator (default settings unless overridden)")
    for key, (_, typ, _) in _SETTINGS.items():
        if key in ("dataset", "synth", "export_distributions", "dump_graph"):
            continue
        flag = "--" + key.replace("_", "-")
        if typ is bool:
            parser.add_argument(flag, action="store_const", const=True, default=None)
        else:
            parser.add_argument(flag, type=typ, default=None)
    parser.add_argument("--export-distributions", action="store_const", const=True,
                        default=None, help="write enhanced distributions per split as CSV")
    parser.add_argument("--dump-graph", action="store_const", const=True, default=None,
                        help="write the trained instance graph of the first train bag and its "
                             "Laplacian as CSV")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="glemiml", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="split, train, evaluate on the test split")
    _add_common(p_train)
    p_train.set_defaults(func=cmd_train)

    p_ablate = sub.add_parser("ablate", help="run the full/A/B/C ablation grid")
    _add_common(p_ablate)
    p_ablate.add_argument("--only", choices=("full", "A", "B", "C"),
                          help="run a single variant")
    p_ablate.set_defaults(func=cmd_ablate)

    p_eval = sub.add_parser("evaluate", help="evaluate saved checkpoints on a dataset")
    _add_common(p_eval)
    p_eval.add_argument("--enhancer", required=True)
    p_eval.add_argument("--classifier", required=True)
    p_eval.add_argument("--split", choices=("train", "test", "val"))
    p_eval.add_argument("--report-out", help="also write the report JSON here")
    p_eval.set_defaults(func=cmd_evaluate)

    p_synth = sub.add_parser("synth", help="generate and save a synthetic dataset")
    _add_common(p_synth)
    p_synth.add_argument("out_file")
    p_synth.add_argument("--truth-out", help="CSV of ground-truth distributions")
    p_synth.set_defaults(func=cmd_synth)

    p_report = sub.add_parser("report", help="rank methods across report JSON files")
    p_report.add_argument("reports", nargs="*")
    p_report.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "print_config", False):
            print(json.dumps(resolve_config(args), sort_keys=True, indent=2, default=str))
            return 0
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (DataFormatError, ShapeError, DegenerateInputError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
