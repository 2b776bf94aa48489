"""Dataset table validation and CSV round-trips."""

import numpy as np
import pytest

from herdweight.dataset import (
    HerdDataset,
    load_dataset_csv,
    load_features_csv,
    load_weights_csv,
    save_dataset_csv,
)
from herdweight.errors import NonPositiveTarget, ParseError
from herdweight.features import FEATURE_NAMES


def _dataset(n=4):
    rng = np.random.default_rng(0)
    return HerdDataset(ids=[f"a{i}" for i in range(n)],
                       features=rng.normal(size=(n, len(FEATURE_NAMES))),
                       weights=rng.uniform(300, 700, n))


def test_roundtrip_bit_exact(tmp_path):
    ds = _dataset()
    p = tmp_path / "d.csv"
    save_dataset_csv(ds, p)
    back = load_dataset_csv(p)
    assert back.ids == ds.ids
    np.testing.assert_array_equal(back.features, ds.features)
    np.testing.assert_array_equal(back.weights, ds.weights)


def test_validation():
    ds = _dataset()
    with pytest.raises(ValueError):
        HerdDataset(ids=["x", "x"], features=ds.features[:2], weights=ds.weights[:2])
    with pytest.raises(NonPositiveTarget):
        HerdDataset(ids=["x", "y"], features=ds.features[:2], weights=np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        HerdDataset(ids=["x"], features=np.zeros((1, 5)), weights=np.array([1.0]))


def test_header_mismatch(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("id,foo\n1,2\n")
    with pytest.raises(ParseError):
        load_dataset_csv(p)


def test_features_csv_lenient_width(tmp_path):
    p = tmp_path / "narrow.csv"
    p.write_text("animal_id,f1,f2\nx,1.5,2.5\n")
    ids, feats = load_features_csv(p)
    assert ids == ["x"]
    np.testing.assert_array_equal(feats, [[1.5, 2.5]])


def test_weights_csv(tmp_path):
    p = tmp_path / "w.csv"
    p.write_text("animal_id,weight_kg\ncow1,512.5\ncow2,498\n")
    assert load_weights_csv(p) == {"cow1": 512.5, "cow2": 498.0}
    bad = tmp_path / "bad.csv"
    bad.write_text("id,kg\ncow1,512.5\n")
    with pytest.raises(ParseError):
        load_weights_csv(bad)


def test_weights_csv_duplicate_id_names_both_lines(tmp_path):
    p = tmp_path / "dup.csv"
    p.write_text("animal_id,weight_kg\ncow1,512.5\ncow2,498\n\ncow1,600\n")
    with pytest.raises(ParseError, match=r"dup.csv:5: animal_id 'cow1' repeats line 2"):
        load_weights_csv(p)
