"""Model files written by an earlier version still load, predict the same
bits and re-serialise to the same bytes.

``golden_models/<family>.json`` is the ``model.json`` that ``herdweight
train`` wrote for a one-spec config of that family: a
``make_herd(16, 200, seed=11)`` dataset, models seed 1, inner_k 3,
m_top 1, small trees (depth 3 or 4, three trees or rounds), knn k = 3.
``predictions.json`` holds four fixed feature rows (``make_herd(4, 200,
seed=12)``) and each file's stack predictions for them. The files are
fixtures: regenerating them would hide the drift this test exists to
catch.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from herdweight.files import write_json
from herdweight.regressors import FAMILIES
from herdweight.stacking import ensemble_from_dict, ensemble_to_dict, predict_stack

GOLDEN = Path(__file__).parent / "golden_models"
EXPECTED = json.loads((GOLDEN / "predictions.json").read_text())


def test_every_family_has_a_golden_file():
    assert sorted(EXPECTED["predictions"]) == sorted(FAMILIES)


@pytest.mark.parametrize("family", FAMILIES)
def test_golden_model_predicts_and_reserialises_unchanged(family, tmp_path):
    original = (GOLDEN / f"{family}.json").read_bytes()
    payload = json.loads(original)
    ensemble = ensemble_from_dict(payload)

    got = predict_stack(ensemble, np.array(EXPECTED["rows"]))
    assert got.tolist() == EXPECTED["predictions"][family]

    again = ensemble_to_dict(ensemble)
    again["n_features"], again["tool_version"] = payload["n_features"], payload["tool_version"]
    write_json(tmp_path / "model.json", again)
    assert (tmp_path / "model.json").read_bytes() == original
