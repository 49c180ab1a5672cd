"""glemiml benchmark: synthetic training workloads run end to end through the public API.

One workload per process, a closed loop with a single caller:
generate_synthetic -> split_dataset -> train -> evaluate / predict_dataset / enhance_batch.

    python3 benchmarks/run.py --workload default --seed 0 --seconds 40 --trace 0
    python3 benchmarks/run.py --workload all --seed 0 --seconds 40

--trace 0 reports the end-to-end metrics from an untraced run, their times in
reference seconds (see ReferenceKernel); --trace 1 reports
per-layer call counts and self times from a run that records spans around the
program's functions (see tracer.py). `all` runs every workload, untraced and
then traced, each in its own process. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. The process exits 1
when an output check fails and 2 when the program cannot be loaded.
"""

import os

# Pin BLAS to one thread before NumPy is imported anywhere in this process.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
sys.path.insert(0, str(BENCH_DIR))

from tracer import Tracer, durations, per_name, write_spans  # noqa: E402

clock = time.perf_counter


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    num_bags: int
    instances_min: int
    instances_max: int
    label_count: int
    batch_size: int
    epochs: int  # per training round; the quality metrics come from one round
    ablation: str = "full"


WORKLOADS = {w.name: w for w in (
    Workload(
        "default",
        "the CLI defaults: small bags, so per-call Python overhead in enhancer, classifier, graph and nets sets the time",
        num_bags=500, instances_min=2, instances_max=5, label_count=6, batch_size=32, epochs=50),
    Workload(
        "wide-bags",
        "20-50 instances per bag, so instance-graph arithmetic (distances, argsort, median) sets the time and memory peaks",
        num_bags=500, instances_min=20, instances_max=50, label_count=6, batch_size=32, epochs=30),
    Workload(
        "many-labels-c",
        "2000 bags, 30 labels, batch 128, ablation C: no instance graph; classifier nets, B x B similarity loss and label graph",
        num_bags=2000, instances_min=2, instances_max=5, label_count=30, batch_size=128, epochs=30,
        ablation="C"),
)}

MIN_ROUNDS = 2  # the determinism check compares two same-seed rounds
TRACED_REPEATS = 5  # set-ups and inference passes of the traced run
TAIL_LADDER = (50, 75, 90, 95, 99)

# Bounded in BENCHMARK.json. Their times are medians in reference seconds.
END_TO_END_UNITS = {
    "setup_s": "s",
    "train_instances_per_s": "instances/s",
    "predict_bags_per_s": "bags/s",
    "enhance_bags_per_s": "bags/s",
    "peak_rss_mb": "MiB",
    "recovery_cosine": "1",
    "test_hamming_score": "1",
    "test_ranking_score": "1",
    "test_macro_map": "1",
    "test_macro_f1": "1",
}
# Measured by the untraced run and printed, but not bounded: wall-clock times,
# whose spread between runs follows the host's speed, and quality figures that
# lie near 0 or change sign (see README.md).
UNBOUNDED_UNITS = {
    "setup_wall_s": "s",
    "train_epoch_s.p50": "s",
    "train_epoch_s.tail": "s",
    "train_instances_per_wall_s": "instances/s",
    "predict_bags_per_wall_s": "bags/s",
    "enhance_bags_per_wall_s": "bags/s",
    "ref_kernel_s.p50": "s",
    "test_hamming_loss": "1",
    "test_ranking_loss": "1",
    "recovery_cosine_baseline": "1",
    "recovery_cosine_margin": "1",
}

# Per-epoch call counts and self times of the traced training round.
CALL_NAMES = (
    "nets.forward_batch", "nets.backward_batch",
    "graph.mutual_knn_median", "graph.mutual_knn_median_backward",
    "enhancer.enhancer_forward", "enhancer.enhancer_backward",
    "classifier.classifier_forward", "classifier.classifier_backward",
    "metrics.compute_report",
)
SELF_NAMES = CALL_NAMES + (
    "losses.interaction", "losses.similarity", "losses.threshold",
    "losses.distribution", "losses.bce", "training.evaluate", "training.loop",
)
# Median seconds per call, outside the training epochs.
CALL_TIME_NAMES = (
    "data.generate_synthetic", "data.split_dataset",
    "enhancer.enhance_batch", "classifier.predict_dataset",
)

PER_LAYER_UNITS = {
    **{f"{n}.calls": "count" for n in CALL_NAMES},
    **{f"{n}.self_s": "s" for n in SELF_NAMES},
    **{f"{n}.s": "s" for n in CALL_TIME_NAMES},
    "graph.instance_builds": "count",
    "graph.pairs": "count",
    "training.batches": "count",
    "trace.epoch_s": "s",
    "trace.overhead_frac": "1",
}


# A reference host runs the reference kernel in exactly this many seconds.
REF_KERNEL_S = 0.005


class ReferenceKernel:
    """A fixed computation of the benchmark's own, timed right after every sample.

    The host's speed drifts by tens of percent over tens of seconds with the
    load of other tenants, and wall times drift with it. A time in reference
    seconds is the wall time scaled by REF_KERNEL_S over the kernel's wall time
    measured next to it, so a slower host slows both and the ratio stays.
    The kernel does what the program spends its time on: a Python loop over
    small bags, small matrix products, pairwise distances, a stable argsort
    and a median. It runs none of the program's code, so no change to the
    program moves it.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.bags = [rng.standard_normal((n, 10)) for n in rng.integers(2, 6, size=160)]
        self.weights = rng.standard_normal((10, 16))
        self()
        self()

    def __call__(self) -> float:
        """Run the kernel once, garbage collector paused; returns its seconds."""
        gc.disable()
        try:
            start = clock()
            total = 0.0
            for x in self.bags:
                hidden = np.tanh(x @ self.weights)
                dist = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)
                order = np.argsort(dist, axis=1, kind="stable")
                total += float(hidden.max(axis=0).sum()) + float(np.median(order))
            return clock() - start
        finally:
            gc.enable()


class Samples:
    """Wall times of one kind of operation, each with the kernel time after it."""

    def __init__(self):
        self.wall, self.kernel = [], []

    def add(self, wall: float, kernel: float) -> None:
        self.wall.append(wall)
        self.kernel.append(kernel)

    def ref_s(self) -> np.ndarray:
        return np.array(self.wall) * REF_KERNEL_S / np.array(self.kernel)


class ProgramNotFound(Exception):
    pass


def load_program():
    """Import glemiml from this checkout's src/ directory, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "glemiml" / "__init__.py").is_file():
        raise ProgramNotFound(f"no glemiml package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import glemiml
    from glemiml import classifier, data, enhancer, training

    if Path(glemiml.__file__).resolve().parent != (src / "glemiml").resolve():
        raise ProgramNotFound(f"glemiml was imported from {glemiml.__file__}, not from {src}")
    return data, enhancer, classifier, training


class _TimeUp(Exception):
    """Raised between epochs to end a round once the run's time is up."""


class Checks:
    """Output checks. Each failure counts as one failed operation."""

    def __init__(self):
        self.passed = 0
        self.failures = []

    def __call__(self, name: str, ok: bool, detail: str) -> None:
        if ok:
            self.passed += 1
        else:
            self.failures.append(f"{name}: {detail}")


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class Run:
    """One workload at one seed in this process."""

    def __init__(self, workload: Workload, seed: int, seconds: float, out_dir: Path):
        self.w = workload
        self.out_dir = out_dir
        self.seconds = seconds
        self.data, self.enhancer, self.classifier, self.training = load_program()
        self.synth_cfg = self.data.SyntheticConfig(
            num_bags=workload.num_bags, label_count=workload.label_count,
            instances_min=workload.instances_min, instances_max=workload.instances_max, seed=seed)
        self.split_spec = self.data.SplitSpec(seed=seed)
        self.train_cfg = self.training.TrainConfig(
            epochs=workload.epochs, batch_size=workload.batch_size, seed=seed,
            ablation=workload.ablation)
        self.checks = Checks()
        self.attempted = 0
        self.kernel = ReferenceKernel()

    # ---------------------------------------------------------------- phases

    def setup_once(self):
        """Generate from the seed, split 7:2:1 and build the models.

        Returns (seconds, dataset, ground-truth distributions, splits).
        """
        start = clock()
        ds, truths = self.data.generate_synthetic(self.synth_cfg)
        splits = self.data.split_dataset(ds, self.split_spec)
        self.training.build_models(ds.feature_dim, ds.label_count, self.train_cfg)
        return clock() - start, ds, np.asarray(truths), splits

    def setup(self) -> float:
        elapsed, self.ds, self.truths, splits = self.setup_once()
        self.train_ds, self.test_ds, self.val_ds = splits
        return elapsed

    def batches_per_epoch(self) -> int:
        n, b = len(self.train_ds), self.train_cfg.batch_size
        return sum(1 for start in range(0, n, b) if min(b, n - start) >= 2)

    def train_round(self, tracer: Tracer | None = None, between_epochs=None, stop_at=None,
                    samples: Samples | None = None):
        """Train fresh models for the workload's epochs.

        Returns (enhancer, classifier, epoch times), or None when training
        raised a NumericError. With `samples`, each epoch time is added there
        with a kernel time. `between_epochs` runs after each epoch, outside
        the epoch's time. A round still running at `stop_at` (a clock() time)
        ends after its current epoch and returns (None, None, epoch times).
        With a tracer, each epoch is a `training.loop` root span.
        """
        training = self.training
        enh, clf = training.build_models(self.ds.feature_dim, self.ds.label_count, self.train_cfg)
        epoch_times = []
        epoch_start = 0.0

        def on_epoch(_enh, _clf, epoch):
            nonlocal epoch_start
            epoch_times.append(clock() - epoch_start)
            if samples is not None:
                samples.add(epoch_times[-1], self.kernel())
            if tracer is not None:
                tracer.end()
            if between_epochs is not None:
                between_epochs()
            if stop_at is not None and clock() >= stop_at:
                raise _TimeUp
            if tracer is not None and epoch < self.train_cfg.epochs:
                tracer.begin("training.loop")
            epoch_start = clock()

        epoch_start = clock()
        if tracer is not None:
            tracer.begin("training.loop")
        try:
            enh, clf, history = training.train(self.train_ds, self.val_ds, self.train_cfg,
                                               enh=enh, clf=clf, epoch_callback=on_epoch)
        except training.NumericError as exc:
            self.attempted += len(epoch_times) * self.batches_per_epoch() + 1
            self.checks("training", False, f"NumericError: {exc}")
            return None
        except _TimeUp:
            self.attempted += len(epoch_times) * self.batches_per_epoch()
            return None, None, np.array(epoch_times)
        self.attempted += len(epoch_times) * self.batches_per_epoch()
        bad = [(r["epoch"], k) for r in history.records for k, v in r.items()
               if k != "epoch" and not np.isfinite(v)]
        self.checks("losses finite", not bad, f"non-finite {bad[:3]}")
        return enh, clf, np.array(epoch_times)

    def params(self, enh, clf):
        return (self.enhancer.enhancer_params(enh), self.classifier.classifier_params(clf))

    def check_same_params(self, name: str, first, other) -> None:
        same = all(_same_bits(a, b) for a, b in zip(first, other))
        self.checks(name, same, "trained parameters differ")

    def predict_pass(self, clf) -> float:
        start = clock()
        _, probs = self.classifier.predict_dataset(clf, self.ds)
        elapsed = clock() - start
        self.attempted += 1
        self.checks("probabilities in [0, 1]",
                    bool(np.all((probs >= 0.0) & (probs <= 1.0))), "out of range")
        return elapsed

    def enhance_pass(self, enh):
        start = clock()
        batch = self.enhancer.enhance_batch(enh, self.ds.bags)
        elapsed = clock() - start
        self.attempted += 1
        row_err = float(np.max(np.abs(batch.distributions.sum(axis=1) - 1.0)))
        self.checks("distribution rows sum to 1", row_err <= 1e-12, f"max error {row_err!r}")
        conf = batch.confidences
        self.checks("confidences in [0, 1]",
                    bool(np.all((conf >= 0.0) & (conf <= 1.0))), "out of range")
        return elapsed, batch

    def quality(self, enh, clf, distributions) -> dict:
        """The paper's four test metrics and the recovery of the ground truth."""
        report = self.training.evaluate(enh, clf, self.test_ds)
        self.attempted += 1
        cos_model = _mean_cosine(distributions, self.truths)
        cos_base = _mean_cosine(self.data.normalized_logical_baseline(self.ds), self.truths)
        return {
            "test_hamming_loss": report.hamming_loss,
            "test_ranking_loss": report.ranking_loss,
            "test_macro_map": report.macro_avg_precision,
            "test_macro_f1": report.macro_f1,
            "recovery_cosine": cos_model,
            "recovery_cosine_baseline": cos_base,
            "recovery_cosine_margin": cos_model - cos_base,
        }

    # ------------------------------------------------------------ two modes

    def untraced(self) -> tuple[dict, dict]:
        """End-to-end metrics. Returns (metrics, details).

        The first round trains the models the quality metrics and inference
        passes use. Later rounds repeat it with the same seed until the time is
        up; the last one may stop between epochs. Between their epochs they run
        one predict pass, one enhance pass and one set-up each, so that every
        timing samples most of the run. The reference kernel runs after every
        epoch, pass and set-up.
        """
        start = clock()
        samples = {name: Samples() for name in ("setup", "epoch", "predict", "enhance")}
        samples["setup"].add(self.setup(), self.kernel())
        first = self.train_round(samples=samples["epoch"])
        if first is None:
            return {}, {}
        enh, clf, _ = first
        reference = self.params(enh, clf)
        outputs = []

        def side_tasks():
            samples["predict"].add(self.predict_pass(clf), self.kernel())
            elapsed, batch = self.enhance_pass(enh)
            samples["enhance"].add(elapsed, self.kernel())
            if not outputs:
                outputs.append(batch.distributions)
            samples["setup"].add(self.setup_once()[0], self.kernel())

        rounds = [first]
        while len(rounds) < MIN_ROUNDS or clock() - start < self.seconds:
            stop_at = start + self.seconds if len(rounds) >= MIN_ROUNDS else None
            r = self.train_round(between_epochs=side_tasks, stop_at=stop_at,
                                 samples=samples["epoch"])
            if r is None:
                return {}, {}
            rounds.append(r)
            if r[0] is None:
                break
            self.check_same_params("same-seed rounds bit-identical", reference,
                                   self.params(r[0], r[1]))
        quality = self.quality(enh, clf, outputs[0])

        epoch_times = np.concatenate([r[2] for r in rounds])
        tail_p, tail, beyond = tail_percentile(epoch_times, MIN_ROUNDS * self.train_cfg.epochs)
        instances = sum(b.num_instances for b in self.train_ds.bags)
        ref = {name: float(np.median(s.ref_s())) for name, s in samples.items()}
        wall = {name: float(np.mean(s.wall)) for name, s in samples.items()}
        metrics = {
            "setup_s": ref["setup"],
            "train_instances_per_s": instances / ref["epoch"],
            "predict_bags_per_s": len(self.ds) / ref["predict"],
            "enhance_bags_per_s": len(self.ds) / ref["enhance"],
            "setup_wall_s": float(np.median(samples["setup"].wall)),
            "train_epoch_s.p50": float(np.median(epoch_times)),
            "train_epoch_s.tail": tail,
            "train_instances_per_wall_s": instances / wall["epoch"],
            "predict_bags_per_wall_s": len(self.ds) / wall["predict"],
            "enhance_bags_per_wall_s": len(self.ds) / wall["enhance"],
            "ref_kernel_s.p50": float(np.median(
                [k for s in samples.values() for k in s.kernel])),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "test_hamming_score": 1.0 - quality["test_hamming_loss"],
            "test_ranking_score": 1.0 - quality["test_ranking_loss"],
            **quality,
        }
        details = {
            "train_epoch_s.tail": {"percentile": tail_p, "samples": int(epoch_times.size),
                                   "beyond": beyond},
            "rounds": len(rounds),
            "last_round_complete": rounds[-1][0] is not None,
            "epochs_per_round": self.train_cfg.epochs,
            "train_instances": instances,
            "samples_s": {name: {"wall": s.wall, "kernel": s.kernel}
                          for name, s in samples.items()},
            "run_s": clock() - start,
        }
        return metrics, details

    def traced(self) -> tuple[dict, dict]:
        """Per-layer metrics. Returns (metrics, details); writes the span dump.

        An untraced round, then the same round traced: their parameters must
        agree bit for bit, and their median epochs give the tracing overhead.
        """
        setup_tracer = Tracer()
        with setup_tracer.installed() as missing:
            self.setup()
            for _ in range(TRACED_REPEATS - 1):
                self.setup_once()

        plain = self.train_round()
        if plain is None:
            return {}, {}
        train_tracer = Tracer()
        builds_before = self.enhancer.instance_graph_build_count()
        with train_tracer.installed():
            traced = self.train_round(train_tracer)
        if traced is None:
            return {}, {}
        builds = self.enhancer.instance_graph_build_count() - builds_before
        self.check_same_params("traced round equals untraced round",
                               self.params(plain[0], plain[1]), self.params(traced[0], traced[1]))

        inference_tracer = Tracer()
        with inference_tracer.installed():
            for _ in range(TRACED_REPEATS):
                self.predict_pass(traced[1])
                self.enhance_pass(traced[0])

        epochs = self.train_cfg.epochs
        totals = per_name(train_tracer.spans)

        def per_epoch(value):
            return value // epochs if value % epochs == 0 else value / epochs

        def total(name, column):
            return totals[name][column] if name in totals else 0

        metrics = {}
        for name in CALL_NAMES:
            metrics[f"{name}.calls"] = per_epoch(total(name, 0))
        for name in SELF_NAMES:
            metrics[f"{name}.self_s"] = total(name, 1) / epochs
        for tracer, names in ((setup_tracer, CALL_TIME_NAMES[:2]),
                              (inference_tracer, CALL_TIME_NAMES[2:])):
            for name in names:
                times = durations(tracer.spans, name)
                metrics[f"{name}.s"] = float(np.median(times)) if times else 0.0
        metrics["graph.instance_builds"] = per_epoch(builds)
        metrics["graph.pairs"] = per_epoch(total("graph.mutual_knn_median", 2))
        metrics["training.batches"] = per_epoch(total("enhancer.enhancer_backward", 0))
        metrics["trace.epoch_s"] = float(np.mean(durations(train_tracer.spans, "training.loop")))
        untraced_p50 = float(np.median(plain[2]))
        metrics["trace.overhead_frac"] = (float(np.median(traced[2])) - untraced_p50) / untraced_p50

        self.out_dir.mkdir(parents=True, exist_ok=True)
        spans_path = self.out_dir / f"spans-{self.w.name}.tsv.gz"
        write_spans(spans_path, [("setup", setup_tracer.spans), ("train", train_tracer.spans),
                                 ("inference", inference_tracer.spans)])
        other = {name: {"calls": calls, "self_s": self_s}
                 for name, (calls, self_s, _) in totals.items() if name not in SELF_NAMES}
        details = {
            "epochs_traced": epochs,
            "untraced_epoch_s.p50": untraced_p50,
            "missing_sites": missing,
            "other_spans_per_run": other,
            "span_dump": str(spans_path),
        }
        return metrics, details


def _mean_cosine(a, b) -> float:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    num = (a * b).sum(axis=1)
    den = np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
    return float(np.mean(num / den))


def tail_percentile(samples, guaranteed: int) -> tuple[int, float, int]:
    """Highest ladder percentile with at least ten of `guaranteed` samples beyond it.

    Returns (percentile, value, samples beyond). A run makes at least
    `guaranteed` samples and often more; choosing by that floor keeps the
    percentile of a workload the same in every run.
    """
    samples = np.asarray(samples)
    pct = max([p for p in TAIL_LADDER if guaranteed * (100 - p) / 100 >= 10],
              default=TAIL_LADDER[0])
    value = float(np.percentile(samples, pct))
    return pct, value, int(np.sum(samples > value))


def environment(seed: int) -> dict:
    blas = {}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: deps.get("blas", {}).get(k) for k in ("name", "version")}
    except (TypeError, AttributeError):  # NumPy < 1.25 has no dict mode
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30, check=False)
            commit = proc.stdout.strip() or None
        except OSError:  # no git executable
            pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "loadavg_start": list(os.getloadavg()),
        "git_commit": commit,
        "seed": seed,
    }


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        out_dir: Path = OUT_DIR) -> dict:
    """Run one workload; returns the result record (see main for its output)."""
    env = environment(seed)
    bench = Run(workload, seed, seconds, out_dir)
    metrics, details = bench.traced() if trace else bench.untraced()
    env["loadavg_end"] = list(os.getloadavg())
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    unbounded = {} if trace else UNBOUNDED_UNITS
    failed = min(bench.attempted, len(bench.checks.failures))
    return {
        "workload": workload.name,
        "trace": int(trace),
        "env": env,
        "correct": failed == 0 and bool(metrics),
        "attempted": max(bench.attempted, 1),
        "failed": failed if metrics else max(failed, 1),
        "checks_passed": bench.checks.passed,
        "check_failures": bench.checks.failures,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
        "unbounded": {name: {"value": metrics[name], "unit": unit}
                      for name, unit in unbounded.items() if name in metrics},
        "details": details,
    }


def _format_metric(name, entry, details) -> str:
    line = f"  {name:<42} {entry['value']:>14.6g} {entry['unit']}"
    extra = details.get(name)
    if extra:
        line += (f"  (p{extra['percentile']} of {extra['samples']} epochs,"
                 f" {extra['beyond']} beyond)")
    return line


def report(result: dict) -> None:
    print(f"env {json.dumps(result['env'], sort_keys=True)}")
    print(f"workload {result['workload']} trace {result['trace']}:")
    for name, entry in result["metrics"].items():
        print(_format_metric(name, entry, result["details"]))
    if result["unbounded"]:
        print("  measured, not bounded:")
    for name, entry in result["unbounded"].items():
        print(_format_metric(name, entry, result["details"]))
    print(f"checks: {result['checks_passed']} passed, {len(result['check_failures'])} failed")
    for failure in result["check_failures"]:
        print(f"  FAILED {failure}")


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process, one at a time."""
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, check=False)
            status = status or proc.returncode
    print(f"all workloads: exit status {status}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except ProgramNotFound as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report(result)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
