"""MIML data model: bags, datasets, JSON-lines I/O, splitting, synthetic generation."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .atomic import atomic_open
from .errors import ConfigError, DataFormatError, ShapeError, check_finite, check_seed


@dataclass(frozen=True)
class Bag:
    """One sample: a set of instance feature vectors plus a binary label vector."""

    instances: np.ndarray  # (n_i, d) float64
    logical_labels: np.ndarray  # (t,) int, entries in {0, 1}

    def __post_init__(self):
        inst = np.asarray(self.instances, dtype=np.float64)
        lab = np.asarray(self.logical_labels)
        if inst.ndim != 2 or inst.shape[0] < 1:
            raise DataFormatError("bag must hold a 2-D instance matrix with >= 1 row")
        if not np.isfinite(inst).all():
            raise DataFormatError("non-finite instance value (NaN or Inf)")
        if lab.ndim != 1:
            raise DataFormatError("logical labels must be a flat vector")
        # checked before the int conversion, which would truncate 1.5 to 1
        if not ((lab == 0) | (lab == 1)).all():
            raise DataFormatError("logical labels must be 0 or 1")
        object.__setattr__(self, "instances", inst)
        object.__setattr__(self, "logical_labels", lab.astype(np.int64, copy=False))

    @property
    def num_instances(self) -> int:
        return self.instances.shape[0]


@dataclass
class MIMLDataset:
    bags: list[Bag]
    feature_dim: int
    label_count: int
    name: str = "unnamed"

    def __post_init__(self):
        if self.feature_dim < 1 or self.label_count < 1:
            raise DataFormatError("feature_dim and label_count must be positive")
        if not self.bags:
            raise DataFormatError("dataset must contain at least one bag")
        for i, bag in enumerate(self.bags):
            if bag.instances.shape[1] != self.feature_dim:
                raise DataFormatError(
                    f"bag {i}: instance width {bag.instances.shape[1]} != feature_dim {self.feature_dim}"
                )
            if bag.logical_labels.shape[0] != self.label_count:
                raise DataFormatError(
                    f"bag {i}: label length {bag.logical_labels.shape[0]} != label_count {self.label_count}"
                )

    def __len__(self) -> int:
        return len(self.bags)

    def subset(self, indices, name: str | None = None) -> "MIMLDataset":
        return MIMLDataset(
            bags=[self.bags[i] for i in indices],
            feature_dim=self.feature_dim,
            label_count=self.label_count,
            name=name or self.name,
        )

    def logical_matrix(self) -> np.ndarray:
        """Stacked (B, t) float matrix of logical labels, converted in one step."""
        return np.array([b.logical_labels for b in self.bags], dtype=np.float64)


@dataclass
class PackedBags:
    """Bags packed for batched computation.

    Instance rows are stacked in bag order, each bag's rows in its own order:
    bag i owns rows starts[i] : starts[i] + counts[i]. A pack with bag
    features also holds each bag's float logical labels and mean raw instance,
    which the enhancer and the similarity loss read; the classifier needs
    neither, so inference packs without them.
    """

    instances: np.ndarray  # (sum n_i, d)
    counts: np.ndarray  # (B,) int64
    logical: np.ndarray | None = None  # (B, t) float64
    means: np.ndarray | None = None  # (B, d)
    starts: np.ndarray = field(init=False)  # (B,) first row of each bag

    def __post_init__(self):
        self.starts = np.cumsum(self.counts) - self.counts

    def __len__(self) -> int:
        return len(self.counts)

    def take(self, idx) -> "PackedBags":
        """The bags at positions `idx`, in that order, gathered with one index per array."""
        counts = self.counts[idx]
        shift = self.starts[idx] - (np.cumsum(counts) - counts)
        rows = np.arange(counts.sum()) + np.repeat(shift, counts)
        return PackedBags(
            self.instances[rows], counts,
            None if self.logical is None else self.logical[idx],
            None if self.means is None else self.means[idx],
        )


def pack_bags(bags, bag_features: bool = False) -> PackedBags:
    """Packs a sequence of bags; with `bag_features`, their labels and means too."""
    arrays = [bag.instances for bag in bags]
    try:
        stacked = np.concatenate(arrays)
    except ValueError as exc:
        raise ShapeError(f"cannot stack the bags' instances: {exc}") from exc
    packed = PackedBags(stacked, np.fromiter(map(len, arrays), dtype=np.int64, count=len(arrays)))
    if bag_features:
        packed.logical = np.array([b.logical_labels for b in bags], dtype=np.float64)
        packed.means = np.add.reduceat(stacked, packed.starts, axis=0) / packed.counts[:, None]
    return packed


@dataclass(frozen=True)
class SplitSpec:
    train_frac: float = 0.7
    test_frac: float = 0.2
    val_frac: float = 0.1
    seed: int = 0

    def __post_init__(self):
        check_finite(self)
        check_seed("split seed", self.seed)
        fracs = (self.train_frac, self.test_frac, self.val_frac)
        if any(f <= 0 for f in fracs):
            raise ConfigError("split fractions must be positive")
        if abs(sum(fracs) - 1.0) > 1e-12:
            raise ConfigError(f"split fractions must sum to 1, got {sum(fracs)!r}")


def load_dataset(path) -> MIMLDataset:
    """Parse a JSON-lines dataset file (header line, then one bag per line)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise DataFormatError(f"{path}: empty file")
    lineno, bags = 1, []
    try:  # JSON syntax and type errors; JSONDecodeError is a ValueError
        header = json.loads(lines[0])
        for key in ("name", "feature_dim", "label_count"):
            if key not in header:
                raise DataFormatError(f"{path}: header missing field {key!r}")
        if not isinstance(header["name"], str):
            raise DataFormatError(f"{path}: malformed line 1: header field 'name' must be a "
                                  f"string, got {header['name']!r}")
        for key in ("feature_dim", "label_count"):
            if type(header[key]) is not int:  # bool is an int subclass
                raise DataFormatError(f"{path}: malformed line 1: header field {key!r} must be "
                                      f"an integer, got {header[key]!r}")
        d, t = header["feature_dim"], header["label_count"]
        for lineno, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            rec = json.loads(line)
            bag_idx = len(bags)
            if not isinstance(rec, dict) or rec.get("instances") is None or rec.get("labels") is None:
                raise DataFormatError(f"{path}: line {lineno}: bag record needs 'instances' and 'labels'")
            inst, lab = rec["instances"], rec["labels"]
            if any(len(row) != d for row in inst):
                raise DataFormatError(f"{path}: bag {bag_idx}: instance row width != feature_dim {d}")
            if len(lab) != t:
                raise DataFormatError(f"{path}: bag {bag_idx}: label vector length != label_count {t}")
            try:
                bags.append(Bag(inst, lab))
            except DataFormatError as exc:
                raise DataFormatError(f"{path}: line {lineno}: bag {bag_idx}: {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataFormatError(f"{path}: malformed line {lineno}: {exc}") from exc
    return MIMLDataset(bags=bags, feature_dim=d, label_count=t, name=header["name"])


def save_dataset(ds: MIMLDataset, path) -> None:
    """Write the canonical JSON-lines form; load(save(ds)) is structurally identical."""
    with atomic_open(path) as fh:
        fh.write(json.dumps(
            {"name": ds.name, "feature_dim": ds.feature_dim, "label_count": ds.label_count}
        ) + "\n")
        for bag in ds.bags:
            fh.write(json.dumps({
                "instances": [[float(v) for v in row] for row in bag.instances],
                "labels": [int(v) for v in bag.logical_labels],
            }) + "\n")


def split_dataset(ds: MIMLDataset, spec: SplitSpec):
    """Deterministic shuffled partition; floor sizes, remainder goes to train.

    A split that would get no bag is a ConfigError naming it.
    """
    n = len(ds)
    if n < 10:
        raise ConfigError(f"dataset too small to split ({n} bags, need >= 10)")
    n_train = int(np.floor(n * spec.train_frac))
    n_test = int(np.floor(n * spec.test_frac))
    n_val = int(np.floor(n * spec.val_frac))
    n_train += n - (n_train + n_test + n_val)
    for name, size in (("train", n_train), ("test", n_test), ("val", n_val)):
        if size == 0:
            frac = getattr(spec, f"{name}_frac")
            raise ConfigError(f"the {name} split is empty: {name}_frac {frac!r} of {n} bags "
                              "is less than one bag")
    perm = np.random.default_rng(np.uint64(spec.seed)).permutation(n)
    train_idx = perm[:n_train]
    test_idx = perm[n_train:n_train + n_test]
    val_idx = perm[n_train + n_test:]
    return (
        ds.subset(train_idx, name=f"{ds.name}/train"),
        ds.subset(test_idx, name=f"{ds.name}/test"),
        ds.subset(val_idx, name=f"{ds.name}/val"),
    )


@dataclass(frozen=True)
class SyntheticConfig:
    num_bags: int = 500
    feature_dim: int = 10
    label_count: int = 6
    instances_min: int = 2
    instances_max: int = 5
    seed: int = 7

    def __post_init__(self):
        check_finite(self)
        check_seed("data seed", self.seed)
        if self.instances_min < 1:
            raise ConfigError("instances_min must be >= 1")
        if self.instances_max < self.instances_min:
            raise ConfigError("instances_max must be >= instances_min")
        if self.label_count < 2:
            raise ConfigError("label_count must be >= 2")
        if self.num_bags < 1:
            raise ConfigError("num_bags must be >= 1")
        if self.feature_dim < 1:
            raise ConfigError("feature_dim must be >= 1")


def generate_synthetic(cfg: SyntheticConfig):
    """Generate bags with known ground-truth label distributions.

    Each label owns a latent feature prototype. A bag's ground-truth
    distribution is the normalized exponential of Gaussian draws; its
    instances are that distribution's prototype mixture plus Gaussian noise of
    scale 0.1.
    Logical label j is 1 iff the distribution entry exceeds 1/(2t); bags
    without at least one positive and one negative label are resampled.
    """
    rng = np.random.default_rng(np.uint64(cfg.seed))
    t, d = cfg.label_count, cfg.feature_dim
    prototypes = rng.normal(size=(t, d))
    threshold = 1.0 / (2 * t)

    bags = []
    truths = []
    while len(bags) < cfg.num_bags:
        z = rng.normal(size=t)
        dist = np.exp(z - z.max())
        dist /= dist.sum()
        labels = (dist > threshold).astype(np.int64)
        if labels.sum() == 0 or labels.sum() == t:
            continue
        n_i = int(rng.integers(cfg.instances_min, cfg.instances_max + 1))
        base = dist @ prototypes
        inst = base[None, :] + 0.1 * rng.normal(size=(n_i, d))
        bags.append(Bag(inst, labels))
        truths.append(dist)

    ds = MIMLDataset(bags=bags, feature_dim=d, label_count=t,
                     name=f"synthetic-seed{cfg.seed}")
    return ds, truths


def normalized_logical_baseline(ds: MIMLDataset) -> np.ndarray:
    """Row-normalized logical labels: the naive distribution a recovery must beat."""
    L = ds.logical_matrix()
    sums = L.sum(axis=1, keepdims=True)
    sums[sums == 0] = 1.0
    return L / sums
