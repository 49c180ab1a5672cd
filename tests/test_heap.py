"""The glibc heap policy that importing glemiml sets."""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import glemiml
from glemiml import _heap

# Trains on a 2,000-bag, 30-label set and, after each epoch, runs a warm-up
# enhance_batch and predict_dataset pass, then one more of each with
# getrusage's minor-fault count around it. Prints the counts as JSON.
_WARM_PASS_FAULTS = """
import json, resource
from glemiml.classifier import predict_dataset
from glemiml.data import SplitSpec, SyntheticConfig, generate_synthetic, split_dataset
from glemiml.enhancer import enhance_batch
from glemiml.training import TrainConfig, train

ds, _ = generate_synthetic(SyntheticConfig(num_bags=2000, label_count=30, seed=5))
train_ds, _, val_ds = split_dataset(ds, SplitSpec(seed=5))
faults = {"enhance": [], "predict": []}

def passes(enh, clf, _epoch):
    enhance_batch(enh, ds.bags)
    predict_dataset(clf, ds)
    for name, run in (("enhance", lambda: enhance_batch(enh, ds.bags)),
                      ("predict", lambda: predict_dataset(clf, ds))):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        run()
        faults[name].append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)

train(train_ds, val_ds, TrainConfig(epochs=3, batch_size=128, seed=5), epoch_callback=passes)
print(json.dumps(faults))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap policy applies to glibc only")
def test_warm_passes_take_no_minor_faults():
    """A pass after a training epoch reuses the heap memory that the passes before it freed.

    With glibc's default thresholds each such enhance pass took about 4,000
    minor faults and each predict pass about 200. The passes run in a child
    process with PYTHONMALLOC=malloc, so Python's own small-object arenas,
    which it maps and unmaps itself and which the policy does not govern,
    come from the same glibc heap; under pymalloc they add a few faults to
    an occasional pass.
    """
    src = str(Path(glemiml.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONMALLOC": "malloc",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _WARM_PASS_FAULTS], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    faults = json.loads(done.stdout.splitlines()[-1])
    assert faults == {"enhance": [0, 0, 0], "predict": [0, 0, 0]}


class _Libc:
    """A stand-in C library whose mallopt records its calls."""

    def __init__(self, glibc=True, mallopt=True):
        self.calls = []
        if glibc:
            self.gnu_get_libc_version = lambda: b"2.36"
        if mallopt:
            self.mallopt = lambda param, value: self.calls.append((param, value)) or 1


@pytest.mark.parametrize("libc", [None, _Libc(mallopt=False), _Libc(glibc=False)],
                         ids=["no-libc", "no-mallopt", "not-glibc"])
def test_policy_does_nothing_without_glibc_mallopt(monkeypatch, libc):
    def cdll(_name):
        if libc is None:
            raise OSError("no C library")
        return libc

    monkeypatch.setattr(_heap.ctypes, "CDLL", cdll)
    assert _heap.set_heap_policy() is False
    assert libc is None or not libc.calls


def test_policy_sets_both_thresholds(monkeypatch):
    libc = _Libc()
    monkeypatch.setattr(_heap.ctypes, "CDLL", lambda name: libc)
    assert _heap.set_heap_policy() is True
    assert sorted(libc.calls) == [(-3, _heap.MMAP_THRESHOLD), (-1, _heap.TRIM_THRESHOLD)]
