import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glemiml.data import (
    Bag,
    MIMLDataset,
    SplitSpec,
    SyntheticConfig,
    generate_synthetic,
    load_dataset,
    normalized_logical_baseline,
    pack_bags,
    save_dataset,
    split_dataset,
)
from glemiml.errors import ConfigError, DataFormatError

from per_bag_reference import logical_matrix


def tiny_dataset(n=12, d=2, t=3, seed=0):
    rng = np.random.default_rng(seed)
    bags = [
        Bag(rng.normal(size=(int(rng.integers(1, 4)), d)),
            np.array([1] + list(rng.integers(0, 2, t - 1))))
        for _ in range(n)
    ]
    return MIMLDataset(bags=bags, feature_dim=d, label_count=t, name="tiny")


class TestBag:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_instance_rejected(self, value):
        with pytest.raises(DataFormatError, match="finite"):
            Bag(np.array([[value, 1.0]]), np.array([1, 0]))

    @pytest.mark.parametrize("value", [1.5, 0.9, "1", np.nan])
    def test_label_other_than_0_or_1_rejected(self, value):
        """Checked on the given values: an int conversion first would make
        1.5 and 0.9 into 1 and 0, read "1" as 1 and fail on NaN."""
        with pytest.raises(DataFormatError, match="0 or 1"):
            Bag(np.ones((1, 2)), [value, 0.0])

    @pytest.mark.parametrize("labels", [[True, False], [1.0, 0.0],
                                        np.array([1, 0], dtype=np.uint8)])
    def test_labels_equal_to_0_or_1_are_kept_as_int64(self, labels):
        lab = Bag(np.ones((1, 2)), labels).logical_labels
        assert lab.dtype == np.int64 and lab.tolist() == [1, 0]


class TestLoadSave:
    def test_single_record_roundtrip(self, tmp_path):
        path = tmp_path / "ds.jsonl"
        path.write_text(
            json.dumps({"name": "x", "feature_dim": 3, "label_count": 2}) + "\n"
            + json.dumps({"instances": [[1, 0, 0]], "labels": [1, 0]}) + "\n"
        )
        ds = load_dataset(path)
        assert len(ds) == 1
        assert ds.feature_dim == 3 and ds.label_count == 2
        assert ds.bags[0].num_instances == 1
        np.testing.assert_array_equal(ds.bags[0].instances, [[1.0, 0.0, 0.0]])

    def test_write_then_load_identical(self, tmp_path):
        ds = tiny_dataset()
        p1 = tmp_path / "a.jsonl"
        save_dataset(ds, p1)
        ds2 = load_dataset(p1)
        assert len(ds2) == len(ds)
        for b1, b2 in zip(ds.bags, ds2.bags):
            np.testing.assert_array_equal(b1.instances, b2.instances)
            np.testing.assert_array_equal(b1.logical_labels, b2.logical_labels)

    def test_canonical_form_byte_stable(self, tmp_path):
        ds = tiny_dataset()
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_dataset(ds, p1)
        save_dataset(load_dataset(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_dimension_error_names_bag(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"name": "x", "feature_dim": 3, "label_count": 2}) + "\n"
            + json.dumps({"instances": [[1, 0, 0]], "labels": [1, 0]}) + "\n"
            + json.dumps({"instances": [[1, 0]], "labels": [1, 0]}) + "\n"
        )
        with pytest.raises(DataFormatError, match="bag 1"):
            load_dataset(path)

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"name": "x", "feature_dim": 3, "label_count": 2}) + "\n"
            + "{not json\n"
        )
        with pytest.raises(DataFormatError, match="line 2"):
            load_dataset(path)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_instance_names_line(self, tmp_path, value):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"name": "x", "feature_dim": 2, "label_count": 2}) + "\n"
            + json.dumps({"instances": [[1, 0]], "labels": [1, 0]}) + "\n"
            + json.dumps({"instances": [[1, 0], [value, 0]], "labels": [1, 0]}) + "\n"
        )
        with pytest.raises(DataFormatError, match="line 3: bag 1: non-finite"):
            load_dataset(path)

    @pytest.mark.parametrize("key", ["feature_dim", "label_count"])
    @pytest.mark.parametrize("value", [2.9, 2.0, True, "2"])
    def test_non_integer_header_size_names_file_and_field(self, tmp_path, key, value):
        """A size is refused even where the bags fit what int() would make of it."""
        sizes = {"feature_dim": 2, "label_count": 2, key: int(value)}
        header = {"name": "x", **sizes, key: value}
        bag = {"instances": [[0.5] * sizes["feature_dim"]],
               "labels": [1] + [0] * (sizes["label_count"] - 1)}
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(header) + "\n" + json.dumps(bag) + "\n")
        with pytest.raises(DataFormatError) as info:
            load_dataset(path)
        assert str(info.value) == (f"{path}: malformed line 1: header field {key!r} must be an "
                                   f"integer, got {value!r}")


    @pytest.mark.parametrize("value", [None, 5, ["x"]])
    def test_non_string_header_name_names_file_and_field(self, tmp_path, value):
        """A null name would otherwise load as the dataset "None"."""
        header = {"name": value, "feature_dim": 2, "label_count": 2}
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(header) + "\n"
                        + json.dumps({"instances": [[0.5, 0.5]], "labels": [1, 0]}) + "\n")
        with pytest.raises(DataFormatError) as info:
            load_dataset(path)
        assert str(info.value) == (f"{path}: malformed line 1: header field 'name' must be a "
                                   f"string, got {value!r}")


class TestSplit:
    def test_2000_bags_7_2_1(self):
        ds = tiny_dataset(n=2000)
        tr, te, va = split_dataset(ds, SplitSpec(seed=1))
        assert (len(tr), len(te), len(va)) == (1400, 400, 200)

    def test_10_bags_exact(self):
        ds = tiny_dataset(n=10)
        tr, te, va = split_dataset(ds, SplitSpec(seed=1))
        assert (len(tr), len(te), len(va)) == (7, 2, 1)

    def test_same_seed_identical_assignment(self):
        ds = tiny_dataset(n=50)
        a = split_dataset(ds, SplitSpec(seed=9))
        b = split_dataset(ds, SplitSpec(seed=9))
        for x, y in zip(a, b):
            for bx, by in zip(x.bags, y.bags):
                np.testing.assert_array_equal(bx.instances, by.instances)

    def test_bad_fractions_rejected(self):
        with pytest.raises(ConfigError):
            SplitSpec(train_frac=0.5, test_frac=0.5, val_frac=0.5)

    def test_too_small_rejected(self):
        with pytest.raises(ConfigError):
            split_dataset(tiny_dataset(n=9), SplitSpec(seed=0))

    @pytest.mark.parametrize("fracs, named", [
        ((0.75, 0.2, 0.05), "the val split is empty: val_frac 0.05 of 12 bags"),
        ((0.85, 0.05, 0.1), "the test split is empty: test_frac 0.05 of 12 bags"),
    ], ids=["val", "test"])
    def test_empty_split_rejected(self, fracs, named):
        with pytest.raises(ConfigError, match=named):
            split_dataset(tiny_dataset(n=12), SplitSpec(*fracs))

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(10, 60))
    @settings(max_examples=25, deadline=None)
    def test_partition_property(self, seed, n):
        ds = tiny_dataset(n=n)
        tr, te, va = split_dataset(ds, SplitSpec(seed=seed))
        ids = [id(b) for part in (tr, te, va) for b in part.bags]
        assert len(ids) == n
        assert set(ids) == {id(b) for b in ds.bags}


class TestSynthetic:
    def test_default_spec_shape(self):
        ds, truths = generate_synthetic(SyntheticConfig())
        assert len(ds) == 500 and len(truths) == 500
        assert ds.feature_dim == 10 and ds.label_count == 6
        for dist in truths:
            assert abs(dist.sum() - 1.0) < 1e-9
            assert (dist >= 0).all()
        for bag in ds.bags:
            assert 2 <= bag.num_instances <= 5

    def test_label_rule(self):
        ds, truths = generate_synthetic(SyntheticConfig(num_bags=100, seed=3))
        thr = 1.0 / (2 * ds.label_count)
        for bag, dist in zip(ds.bags, truths):
            np.testing.assert_array_equal(bag.logical_labels, (dist > thr).astype(int))

    def test_every_bag_has_pos_and_neg(self):
        ds, _ = generate_synthetic(SyntheticConfig(num_bags=200, seed=5))
        for bag in ds.bags:
            s = bag.logical_labels.sum()
            assert 1 <= s <= ds.label_count - 1

    def test_same_seed_bit_identical(self):
        a, ta = generate_synthetic(SyntheticConfig(num_bags=40, seed=13))
        b, tb = generate_synthetic(SyntheticConfig(num_bags=40, seed=13))
        for ba, bb in zip(a.bags, b.bags):
            assert (ba.instances == bb.instances).all()
            assert (ba.logical_labels == bb.logical_labels).all()
        assert all((x == y).all() for x, y in zip(ta, tb))

    def test_infeasible_cfg(self):
        with pytest.raises(ConfigError):
            SyntheticConfig(instances_min=5, instances_max=2)
        with pytest.raises(ConfigError):
            SyntheticConfig(label_count=1)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_label_consistency_property(self, seed):
        ds, truths = generate_synthetic(
            SyntheticConfig(num_bags=5, feature_dim=3, label_count=4, seed=seed))
        thr = 1.0 / (2 * ds.label_count)
        for bag, dist in zip(ds.bags, truths):
            assert (np.sign(dist - thr) > 0).astype(int).tolist() == bag.logical_labels.tolist()


def test_normalized_logical_baseline():
    ds = tiny_dataset()
    base = normalized_logical_baseline(ds)
    np.testing.assert_allclose(base.sum(axis=1), 1.0)


@pytest.mark.parametrize("n", [1, 2000])
def test_float_label_matrix_equals_stack_then_convert(n):
    """The pack and the dataset build the float label matrix in one conversion;
    it equals the former stack-then-astype byte for byte, as a C-ordered
    float64 (bags, labels) array."""
    ds, _ = generate_synthetic(SyntheticConfig(num_bags=n, feature_dim=3, label_count=30,
                                               seed=n))
    expected = logical_matrix(ds.bags)
    for got in (pack_bags(ds.bags, bag_features=True).logical, ds.logical_matrix()):
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert got.shape == (n, 30)
        assert got.tobytes() == expected.tobytes()
