"""End-to-end CLI behaviour: exit codes, artefacts, determinism."""

import argparse
import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from herdweight import stacking
from herdweight.cli import _write_ranking_csv, build_parser, main
from herdweight.config import _SECTIONS, build_config, load_config, write_resolved_config
from herdweight.dataset import HerdDataset, load_dataset_csv, save_dataset_csv
from herdweight.errors import ConfigError
from herdweight.evaluation import kfold_split
from herdweight.features import FEATURE_NAMES, extract_feature_vector
from herdweight.pointcloud import PLY_BINARY_LE, XYZ_ASCII, PointCloud, save_point_cloud
from herdweight.regressors import ModelSpec, fit
from herdweight.synthetic import ellipsoid_cloud, make_herd, stall_scene

CUBE = np.array([[x, y, z] for x in (-0.5, 0.5) for y in (-0.5, 0.5) for z in (-0.5, 0.5)])


@pytest.fixture()
def scene_dir(tmp_path):
    d = tmp_path / "scans"
    d.mkdir()
    for i in range(3):
        cloud, _ = stall_scene(seed=i, n_floor=600, n_wall=300, n_blob=500)
        save_point_cloud(cloud, d / f"cow_{i}.xyz", XYZ_ASCII)
    return d


@pytest.fixture()
def herd_csv(tmp_path):
    ids, clouds, weights = make_herd(n_animals=20, points_per_animal=300, seed=5)
    rows = np.vstack([extract_feature_vector(c).values for c in clouds])
    dataset = HerdDataset(ids=ids, features=rows, weights=weights)
    path = tmp_path / "herd.csv"
    save_dataset_csv(dataset, path)
    return path


@pytest.fixture()
def small_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "models": {"specs": ["ols", "knn", "decision_tree"]},
        "evaluation": {"k": 3, "inner_k": 3, "seed": 0},
        "stacking": {"m_top": 3},
    }))
    return cfg


def _read_csv(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


def test_clean_three_files(scene_dir, tmp_path):
    out = tmp_path / "out"
    assert main(["clean", str(scene_dir), "--out", str(out), "--seed", "3"]) == 0
    rows = _read_csv(out / "summary.csv")
    assert rows[0] == ["animal_id", "points_before", "points_after", "planes_removed"]
    assert len(rows) == 4
    for row in rows[1:]:
        assert int(row[2]) < int(row[1])
        assert int(row[3]) == 3
    assert sorted(p.name for p in (out / "cleaned").iterdir()) == [
        "cow_0.xyz", "cow_1.xyz", "cow_2.xyz"]
    assert (out / "config.resolved.json").exists()


def test_clean_empty_glob_is_usage_error(tmp_path):
    assert main(["clean", str(tmp_path / "nothing" / "*.xyz"),
                 "--out", str(tmp_path / "o")]) == 2


def test_clean_partial_failure(scene_dir, tmp_path, capsys):
    (scene_dir / "broken.xyz").write_text("not a number at all\n")
    out = tmp_path / "out"
    assert main(["clean", str(scene_dir), "--out", str(out)]) == 1
    rows = _read_csv(out / "summary.csv")
    assert len(rows) == 4  # header + the three good files
    assert "broken.xyz" in capsys.readouterr().err


def test_clean_rerun_removes_failed_scans_output(scene_dir, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["clean", str(scene_dir), "--out", str(out)]) == 0
    bad = scene_dir / "cow_1.xyz"
    bad.write_text("1 2 x\n")
    assert main(["clean", str(scene_dir), "--out", str(out)]) == 1
    assert sorted(p.name for p in (out / "cleaned").iterdir()) == ["cow_0.xyz", "cow_2.xyz"]
    assert [r[0] for r in _read_csv(out / "summary.csv")[1:]] == ["cow_0", "cow_2"]
    # the loader's message starts with the path, so the line names it once
    assert capsys.readouterr().err == f"error: {bad}:1: cannot parse 'x' as a number\n"


def test_clean_into_its_input_directory_keeps_failed_inputs(scene_dir, tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    scene_dir.rename(out / "cleaned")
    bad = out / "cleaned" / "cow_1.xyz"
    bad.write_text("1 2 x\n")
    loop = out / "cleaned" / "loop.xyz"
    loop.symlink_to(loop.name)
    assert main(["clean", str(out / "cleaned"), "--out", str(out)]) == 1
    assert bad.read_text() == "1 2 x\n"
    assert loop.is_symlink()
    assert sorted(p.name for p in (out / "cleaned").iterdir()) == [
        "cow_0.xyz", "cow_1.xyz", "cow_2.xyz", "loop.xyz"]
    assert capsys.readouterr().err.count(str(bad)) == 1


@pytest.mark.parametrize("header_line", ["element vertex abc", "element vertex", "property float"])
def test_clean_bad_ply_header_fails_alone(tmp_path, capsys, header_line):
    scans = tmp_path / "scans"
    scans.mkdir()
    cloud, _ = stall_scene(seed=0, n_floor=600, n_wall=300, n_blob=500)
    save_point_cloud(cloud, scans / "good.ply", PLY_BINARY_LE)
    lines = ["ply", "format ascii 1.0", "element vertex 1", "property float x", "property float y",
             "property float z", "end_header", "0 0 0"]
    lines[2 if header_line.startswith("element") else 5] = header_line
    (scans / "bad.ply").write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert main(["clean", str(scans), "--out", str(out)]) == 1
    rows = _read_csv(out / "summary.csv")
    assert [r[0] for r in rows[1:]] == ["good"]
    assert "bad.ply" in capsys.readouterr().err


def test_clean_takes_a_ply_format_from_its_header(tmp_path, misleading_plys, capsys):
    out = tmp_path / "out"
    assert main(["clean", str(tmp_path / "plys"), "--out", str(out)]) == 0, capsys.readouterr().err
    assert sorted(p.name for p in (out / "cleaned").iterdir()) == ["ascii.ply", "binary.ply"]


def test_clean_repeated_output_name_fails_alone(tmp_path, capsys):
    """a/cow.xyz and b/cow.xyz would both write cleaned/cow.xyz: the later
    fails, and the earlier's output stays."""
    rng = np.random.default_rng(6)
    for sub, n in (("a", 50), ("b", 40)):
        (tmp_path / sub).mkdir()
        save_point_cloud(PointCloud(rng.normal(size=(n, 3))), tmp_path / sub / "cow.xyz", XYZ_ASCII)
    out = tmp_path / "out"
    for jobs in ("1", "2"):
        assert main(["clean", str(tmp_path / "*" / "cow.xyz"), "--out", str(out), "--jobs", jobs]) == 1
        err = capsys.readouterr().err
        later, earlier = tmp_path / "b" / "cow.xyz", tmp_path / "a" / "cow.xyz"
        assert err == f"error: {later}: output name 'cow.xyz' repeats {earlier}\n"
        [row] = _read_csv(out / "summary.csv")[1:]
        assert row[:2] == ["cow", "50"]
        assert (out / "cleaned" / "cow.xyz").read_text().count("\n") == int(row[2])


def test_clean_repeated_animal_id_fails_alone(tmp_path, capsys):
    """cow.ply and cow.xyz would both give the animal id cow: the later
    fails, summary.csv lists cow once, and the later's output from an
    earlier run goes."""
    rng = np.random.default_rng(7)
    scans, out = tmp_path / "scans", tmp_path / "out"
    scans.mkdir()
    save_point_cloud(PointCloud(rng.normal(size=(40, 3))), scans / "cow.xyz", XYZ_ASCII)
    assert main(["clean", str(scans), "--out", str(out)]) == 0
    save_point_cloud(PointCloud(rng.normal(size=(50, 3))), scans / "cow.ply", PLY_BINARY_LE)
    for jobs in ("1", "2"):
        assert main(["clean", str(scans), "--out", str(out), "--jobs", jobs]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {scans / 'cow.xyz'}: animal_id 'cow' repeats {scans / 'cow.ply'}\n"
        [row] = _read_csv(out / "summary.csv")[1:]
        assert row[:2] == ["cow", "50"]
        assert [p.name for p in (out / "cleaned").iterdir()] == ["cow.ply"]


def test_clean_jobs_independent(scene_dir, tmp_path):
    out1, out2 = tmp_path / "j1", tmp_path / "j2"
    assert main(["clean", str(scene_dir), "--out", str(out1), "--jobs", "1"]) == 0
    assert main(["clean", str(scene_dir), "--out", str(out2), "--jobs", "2"]) == 0
    assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()


def test_clean_and_cv_start_at_most_one_worker_per_task(scene_dir, herd_csv, small_config,
                                                        tmp_path, pool_sizes):
    """--jobs 100000 on 3 scans or 3 outer folds asks for 3 workers; the
    stand-in pool starts no process."""
    assert main(["clean", str(scene_dir), "--out", str(tmp_path / "c"), "--jobs", "100000"]) == 0
    assert main(["cv", str(herd_csv), "--config", str(small_config), "--out", str(tmp_path / "cv"),
                 "--jobs", "100000"]) == 0
    single = tmp_path / "one"
    single.mkdir()
    (single / "cow_0.xyz").write_bytes((scene_dir / "cow_0.xyz").read_bytes())
    assert main(["clean", str(single), "--out", str(tmp_path / "c1"), "--jobs", "4"]) == 0
    assert pool_sizes == [3, 3]   # one scan runs in this process


@pytest.mark.parametrize("jobs", ["0", "-3", "two"])
@pytest.mark.parametrize("command", ["clean", "features", "cv", "sweep"])
def test_jobs_below_one_is_a_usage_error(command, jobs, tmp_path, capsys, pool_sizes):
    inputs = {"clean": ["scans"], "features": ["scans", "w.csv"]}.get(command, ["herd.csv"])
    argv = [command, *(str(tmp_path / a) for a in inputs), "--out", str(tmp_path / "out")]
    assert main([*argv, "--jobs", jobs]) == 2
    assert f"argument --jobs: must be an integer of 1 or more, got '{jobs}'" in capsys.readouterr().err
    assert pool_sizes == [] and not (tmp_path / "out").exists()


def test_subdirectory_named_like_a_scan_is_skipped(tmp_path):
    d = tmp_path / "scans"
    d.mkdir()
    cloud, _ = stall_scene(seed=0, n_floor=600, n_wall=300, n_blob=500)
    save_point_cloud(cloud, d / "cow.xyz", XYZ_ASCII)
    (d / "dir.ply").mkdir()
    for i, source in enumerate((d, d / "*")):
        out = tmp_path / f"clean{i}"
        assert main(["clean", str(source), "--out", str(out)]) == 0
        assert [r[0] for r in _read_csv(out / "summary.csv")[1:]] == ["cow"]
    weights = tmp_path / "w.csv"
    weights.write_text("animal_id,weight_kg\ncow,500\n")
    assert main(["features", str(d), str(weights), "--out", str(tmp_path / "f")]) == 0
    assert [r[0] for r in _read_csv(tmp_path / "f" / "dataset.csv")[1:]] == ["cow"]
    # a dangling link is no directory: it still fails alone
    (d / "gone.xyz").symlink_to(tmp_path / "missing.xyz")
    assert main(["clean", str(d), "--out", str(tmp_path / "c")]) == 1
    assert [r[0] for r in _read_csv(tmp_path / "c" / "summary.csv")[1:]] == ["cow"]


@pytest.mark.parametrize("command, flags", [("clean", []), ("clean", ["--absolute"]), ("features", [])])
def test_huge_coordinates_fail_alone(tmp_path, capsys, command, flags):
    """A scan whose finite coordinates overflow its bounding-box diagonal and
    covariance fails with one error line naming it, not a traceback; the
    good scan's row is still written."""
    d = tmp_path / "scans"
    d.mkdir()
    good, _ = stall_scene(seed=0, n_floor=600, n_wall=300, n_blob=500)
    save_point_cloud(good, d / "good.xyz", XYZ_ASCII)
    sphere = ellipsoid_cloud((1.0, 1.0, 1.0), 500, np.random.default_rng(0)).points
    save_point_cloud(PointCloud(sphere * 1e200), d / "huge.xyz", XYZ_ASCII)
    out = tmp_path / "out"
    weights = tmp_path / "w.csv"
    weights.write_text("animal_id,weight_kg\ngood,500\nhuge,620\n")
    args = [command, str(d), *([str(weights)] if command == "features" else []), "--out", str(out), *flags]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {d / 'huge.xyz'}: ") and err.count("\n") == 1 and "overflows" in err
    table = out / ("summary.csv" if command == "clean" else "dataset.csv")
    assert [r[0] for r in _read_csv(table)[1:]] == ["good"]


def test_features_two_clouds(tmp_path):
    d = tmp_path / "clouds"
    d.mkdir()
    rng = np.random.default_rng(0)
    for name in ("a", "b"):
        save_point_cloud(PointCloud(rng.normal(size=(50, 3))), d / f"{name}.xyz", XYZ_ASCII)
    weights = tmp_path / "w.csv"
    weights.write_text("animal_id,weight_kg\na,500\nb,620\n")
    out = tmp_path / "out"
    assert main(["features", str(d), str(weights), "--out", str(out)]) == 0
    rows = _read_csv(out / "dataset.csv")
    assert rows[0] == ["animal_id", *FEATURE_NAMES, "weight_kg"]
    assert [r[0] for r in rows[1:]] == ["a", "b"]
    assert [r[-1] for r in rows[1:]] == ["500.0", "620.0"]


def test_features_jobs_independent(tmp_path):
    d = tmp_path / "clouds"
    d.mkdir()
    rng = np.random.default_rng(3)
    for name in ("a", "b", "c"):
        save_point_cloud(PointCloud(rng.normal(size=(40, 3))), d / f"{name}.xyz", XYZ_ASCII)
    weights = tmp_path / "w.csv"
    weights.write_text("animal_id,weight_kg\na,500\nb,620\nc,710\n")
    out1, out2 = tmp_path / "j1", tmp_path / "j2"
    assert main(["features", str(d), str(weights), "--out", str(out1), "--jobs", "1"]) == 0
    assert main(["features", str(d), str(weights), "--out", str(out2), "--jobs", "2"]) == 0
    assert (out1 / "dataset.csv").read_bytes() == (out2 / "dataset.csv").read_bytes()


def test_features_missing_weight(tmp_path, capsys):
    d = tmp_path / "clouds"
    d.mkdir()
    save_point_cloud(PointCloud(np.random.default_rng(1).normal(size=(30, 3))),
                     d / "only.xyz", XYZ_ASCII)
    weights = tmp_path / "w.csv"
    weights.write_text("animal_id,weight_kg\nsomeone_else,500\n")
    assert main(["features", str(d), str(weights), "--out", str(tmp_path / "o")]) == 1
    assert "no weight row" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["0.0", "-3", "nan", "inf"])
def test_features_bad_weight_fails_alone(tmp_path, capsys, bad):
    d = tmp_path / "clouds"
    d.mkdir()
    rng = np.random.default_rng(2)
    for name in ("a", "b", "c"):
        save_point_cloud(PointCloud(rng.normal(size=(40, 3))), d / f"{name}.xyz", XYZ_ASCII)
    weights = tmp_path / "w.csv"
    weights.write_text(f"animal_id,weight_kg\na,500\nb,{bad}\nc,710\n")
    out = tmp_path / "out"
    assert main(["features", str(d), str(weights), "--out", str(out)]) == 1
    assert [r[0] for r in _read_csv(out / "dataset.csv")[1:]] == ["a", "c"]
    assert capsys.readouterr().err == (f"error: {d / 'b.xyz'}: weight of id 'b' must be finite "
                                       f"and > 0 kg, got {float(bad)!r}\n")


def test_features_repeated_stem_fails_alone(tmp_path, capsys):
    """cow1.ply and cow1.xyz give one id: the later file fails, the rest is written."""
    d = tmp_path / "clouds"
    d.mkdir()
    rng = np.random.default_rng(4)
    clouds = [PointCloud(rng.normal(size=(40, 3))) for _ in range(3)]
    save_point_cloud(clouds[0], d / "cow1.ply", PLY_BINARY_LE)
    save_point_cloud(clouds[1], d / "cow1.xyz", XYZ_ASCII)
    save_point_cloud(clouds[2], d / "cow2.xyz", XYZ_ASCII)
    weights = tmp_path / "w.csv"
    weights.write_text("animal_id,weight_kg\ncow1,500\ncow2,620\n")
    out = tmp_path / "out"
    assert main(["features", str(d), str(weights), "--out", str(out)]) == 1
    rows = _read_csv(out / "dataset.csv")[1:]
    assert [r[0] for r in rows] == ["cow1", "cow2"]
    np.testing.assert_allclose([float(v) for v in rows[0][1:-1]],
                               extract_feature_vector(clouds[0]).values, rtol=1e-5)  # float32 PLY
    err = capsys.readouterr().err
    assert err == f"error: {d / 'cow1.xyz'}: animal_id 'cow1' repeats {d / 'cow1.ply'}\n"


def test_features_cube_fixture_matches_library(tmp_path):
    d = tmp_path / "clouds"
    d.mkdir()
    save_point_cloud(PointCloud(CUBE), d / "cube.ply", PLY_BINARY_LE)
    weights = tmp_path / "w.csv"
    weights.write_text("animal_id,weight_kg\ncube,1000\n")
    out = tmp_path / "out"
    assert main(["features", str(d), str(weights), "--out", str(out)]) == 0
    row = _read_csv(out / "dataset.csv")[1]
    expected = extract_feature_vector(PointCloud(CUBE)).values
    np.testing.assert_allclose([float(v) for v in row[1:-1]], expected, atol=1e-9)


def test_cv_outputs_and_determinism(herd_csv, small_config, tmp_path):
    out1, out2 = tmp_path / "cv1", tmp_path / "cv2"
    args = ["cv", str(herd_csv), "--config", str(small_config)]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    for name in ("report.json", "ranking.csv", "config.resolved.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    report = json.loads((out1 / "report.json").read_text())
    for metric in ("r2", "mae_kg", "mape_pct"):
        stats = report["metrics"][metric]
        assert len(stats["per_fold"]) == 3
        assert np.isfinite(stats["mean"]) and np.isfinite(stats["std"])
    ranking = _read_csv(out1 / "ranking.csv")
    assert ranking[0] == ["rank", "model", "r2", "mae_kg", "mape_pct"]
    assert len(ranking) == 4
    resolved = json.loads((out1 / "config.resolved.json").read_text())
    assert resolved["tool_version"]
    assert resolved["evaluation"] == {"k": 3, "inner_k": 3, "seed": 0}


def test_cv_sweep_rows(herd_csv, small_config, tmp_path):
    out = tmp_path / "sweep"
    assert main(["cv", str(herd_csv), "--config", str(small_config),
                 "--out", str(out), "--sweep", "2..3"]) == 0
    rows = _read_csv(out / "sweep.csv")
    assert rows[0] == ["m", "r2_mean", "r2_std", "mae_mean", "mae_std", "mape_mean", "mape_std"]
    assert [r[0] for r in rows[1:]] == ["2", "3"]


def test_sweep_defaults_to_the_spec_count(herd_csv, small_config, tmp_path):
    """sweep without --sweep runs 2 up to the number of specs, or 1 for one spec."""
    one = tmp_path / "one.json"
    one.write_text(json.dumps({"models": {"specs": ["ols"]}, "evaluation": {"k": 3, "inner_k": 3}}))
    for config, sizes in ((small_config, ["2", "3"]), (one, ["1"])):
        out = tmp_path / config.stem
        assert main(["sweep", str(herd_csv), "--config", str(config), "--out", str(out)]) == 0
        assert [r[0] for r in _read_csv(out / "sweep.csv")[1:]] == sizes


def test_train_with_a_fold_of_equal_weights(tmp_path):
    """An inner fold whose targets are all equal scores R^2 = NaN, and
    training goes on."""
    ids, clouds, weights = make_herd(n_animals=12, points_per_animal=300, seed=5)
    weights = np.array(weights, dtype=np.float64)
    weights[kfold_split(12, 3, 0).test_indices(0)] = 450.0
    path = tmp_path / "herd.csv"
    save_dataset_csv(HerdDataset(ids, np.vstack([extract_feature_vector(c).values for c in clouds]),
                                 weights), path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"models": {"specs": ["ols", "ridge", "knn"]}, "evaluation": {"inner_k": 3}}))
    assert main(["train", str(path), "--config", str(cfg), "--out", str(tmp_path / "t")]) == 0
    assert [r[2] for r in _read_csv(tmp_path / "t" / "ranking.csv")[1:]] == ["nan"] * 3


@pytest.fixture()
def fit_calls(monkeypatch):
    """Counts every base-model fit the stacking layer makes: one per row
    set of a ``fit_many`` batch."""
    calls = []
    real_fit_many = stacking.fit_many

    def counting_fit_many(spec, X, y, row_sets):
        calls.extend(spec.name for _ in row_sets)
        return real_fit_many(spec, X, y, row_sets)

    monkeypatch.setattr(stacking, "fit_many", counting_fit_many)
    return calls


@pytest.mark.parametrize("m_top", [3, 2])
def test_cv_sweep_and_train_fit_each_model_once_per_fold(herd_csv, small_config, tmp_path,
                                                         fit_calls, m_top):
    """S = 3 specs, k = inner_k = 3: cv --sweep fits k * (inner_k * S + S)
    models, train inner_k * S + s, where s <= m_top is the number of
    members the combiner uses and model.json holds."""
    argv = ["--config", str(small_config), "--m-top", str(m_top)]
    assert main(["cv", str(herd_csv), "--out", str(tmp_path / "cv"), "--sweep", "1..3", *argv]) == 0
    assert len(fit_calls) == 3 * (3 * 3 + 3)
    fit_calls.clear()
    assert main(["train", str(herd_csv), "--out", str(tmp_path / "model"), *argv]) == 0
    model = json.loads((tmp_path / "model" / "model.json").read_text())
    s = len(model["models"])
    assert 1 <= s < m_top and len(model["weights"]) == s  # this herd needs fewer than m_top
    assert len(fit_calls) == 3 * 3 + s


def test_cv_ranking_equals_direct_ranking(herd_csv, small_config, tmp_path):
    """ranking.csv comes from the outer folds' refits, with no fits of its
    own, and equals ranking the specs on the outer folds directly."""
    out = tmp_path / "cv"
    assert main(["cv", str(herd_csv), "--config", str(small_config), "--out", str(out)]) == 0
    X, y = load_dataset_csv(herd_csv).matrices()
    specs = load_config(small_config).specs
    direct = stacking.inner_pass(X, y, specs, kfold_split(len(y), 3, 0)).ranking
    _write_ranking_csv(direct, tmp_path / "direct.csv")
    assert (out / "ranking.csv").read_bytes() == (tmp_path / "direct.csv").read_bytes()


def test_rerun_replaces_outputs(scene_dir, herd_csv, small_config, tmp_path):
    """A rerun into the same --out writes new files: a hard link to a
    first-run output keeps its bytes, and a symlink is not written through."""
    out = tmp_path / "out"
    commands = [["clean", str(scene_dir), "--out", str(out)],
                ["cv", str(herd_csv), "--config", str(small_config), "--out", str(out),
                 "--sweep", "2..3"],
                ["train", str(herd_csv), "--config", str(small_config), "--out", str(out)]]
    for argv in commands:
        assert main(argv) == 0
    outputs = sorted(p for p in out.rglob("*") if p.is_file())
    first = {p: p.read_bytes() for p in outputs}
    links = tmp_path / "links"
    links.mkdir()
    for i, p in enumerate(outputs):
        os.link(p, links / str(i))
    elsewhere = tmp_path / "elsewhere.json"
    elsewhere.write_text("keep\n")
    (out / "report.json").unlink()
    (out / "report.json").symlink_to(elsewhere)

    for argv in commands:
        assert main(argv) == 0
    assert sorted(p for p in out.rglob("*") if p.is_file()) == outputs
    for i, p in enumerate(outputs):
        assert (links / str(i)).read_bytes() == first[p], p
        assert p.read_bytes() == first[p], p
        assert not os.path.samefile(links / str(i), p), p
    assert not (out / "report.json").is_symlink()
    assert elsewhere.read_text() == "keep\n"


def test_rerun_removes_outputs_it_does_not_write(herd_csv, small_config, tmp_path):
    """cv without --sweep removes an earlier sweep.csv, and features with no
    usable scan an earlier dataset.csv, so no output describes another run."""
    out = tmp_path / "cv"
    cv = ["cv", str(herd_csv), "--config", str(small_config), "--out", str(out)]
    assert main([*cv, "--sweep", "1..2"]) == 0
    assert (out / "sweep.csv").exists()
    assert main([*cv, "--seed", "7"]) == 0
    assert not (out / "sweep.csv").exists()
    assert json.loads((out / "config.resolved.json").read_text())["evaluation"]["seed"] == 7

    scans = tmp_path / "scans"
    scans.mkdir()
    save_point_cloud(PointCloud(CUBE), scans / "cube.xyz", XYZ_ASCII)
    weights = tmp_path / "w.csv"
    weights.write_text("animal_id,weight_kg\ncube,500\n")
    feat = tmp_path / "feat"
    assert main(["features", str(scans), str(weights), "--out", str(feat)]) == 0
    assert (feat / "dataset.csv").exists()
    weights.write_text("animal_id,weight_kg\nsomeone_else,500\n")
    assert main(["features", str(scans), str(weights), "--out", str(feat)]) == 1
    assert not (feat / "dataset.csv").exists()


def test_cv_audit_flag(herd_csv, small_config, tmp_path):
    out = tmp_path / "audit"
    assert main(["cv", str(herd_csv), "--config", str(small_config),
                 "--out", str(out), "--audit"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["audit"]["violations"] == []
    assert report["audit"]["n_fits"] > 0


def test_train_predict_roundtrip(herd_csv, small_config, tmp_path):
    train_out = tmp_path / "model"
    assert main(["train", str(herd_csv), "--config", str(small_config),
                 "--out", str(train_out)]) == 0
    pred_out = tmp_path / "preds"
    assert main(["predict", str(train_out / "model.json"), str(herd_csv),
                 "--out", str(pred_out)]) == 0
    rows = _read_csv(pred_out / "predictions.csv")
    assert rows[0] == ["animal_id", "predicted_weight_kg"]
    assert len(rows) == 21
    preds = np.array([float(r[1]) for r in rows[1:]])
    assert np.isfinite(preds).all() and (preds > 0).all()

    # serialisation fidelity: a second predict run is byte-identical
    pred_out2 = tmp_path / "preds2"
    assert main(["predict", str(train_out / "model.json"), str(herd_csv),
                 "--out", str(pred_out2)]) == 0
    assert (pred_out / "predictions.csv").read_bytes() == (pred_out2 / "predictions.csv").read_bytes()


def test_predict_wrong_feature_count(herd_csv, small_config, tmp_path, capsys):
    train_out = tmp_path / "model"
    assert main(["train", str(herd_csv), "--config", str(small_config),
                 "--out", str(train_out)]) == 0
    narrow = tmp_path / "narrow.csv"
    narrow.write_text("animal_id,f1,f2\nx,1.0,2.0\n")
    assert main(["predict", str(train_out / "model.json"), str(narrow),
                 "--out", str(tmp_path / "p")]) == 1
    assert "expected 32 features" in capsys.readouterr().err


def _model_json(**fields):
    """A one-member model.json with ``fields`` replaced."""
    X, y = np.array([[1.0], [2.0], [3.0]]), np.array([10.0, 20.0, 30.0])
    spec = ModelSpec(name="ols", family="ols")
    ranking = stacking.ModelRanking(entries=(stacking.RankedModel("ols", 0.0, 1.0, 0.0),))
    ensemble = stacking.StackedEnsemble(specs=[spec], models=[fit(spec, X, y)],
                                        weights=np.array([1.0]), intercept=0.0, alpha=1.0,
                                        ranking=ranking)
    return json.dumps({**stacking.ensemble_to_dict(ensemble), **fields}).encode()


@pytest.mark.parametrize("content", [
    b"{not json", b"\xff\xfe", b"[]", b'{"format_version": 2}',
    b'{"format_version": 1, "weights": []}',
    pytest.param(_model_json(specs=[], models=[], weights=[]), id="no-members"),
    pytest.param(_model_json(weights=[float("nan")]), id="nan-weight"),
    pytest.param(_model_json(weights=[float("inf")]), id="inf-weight"),
    pytest.param(_model_json(intercept=float("nan")), id="nan-intercept"),
    pytest.param(_model_json(specs=[]), id="specs-models-mismatch"),
    pytest.param(_model_json(weights=["1.0"]), id="string-weight"),
    pytest.param(_model_json(intercept="0"), id="string-intercept"),
    pytest.param(_model_json(alpha="1"), id="string-alpha"),
    pytest.param(_model_json(intercept=10**400), id="intercept-400-digits"),
    pytest.param(_model_json(specs=[{"name": "ols", "family": "ols", "params": 5, "seed": 0}]),
                 id="spec-params-number"),
    pytest.param(_model_json(n_features=7), id="n-features-differs"),
    pytest.param(b"\xff{}", id="not-utf8"),
    pytest.param(b"[" * 200_000, id="nested-too-deep"),
])
def test_predict_bad_model_json_is_data_error(tmp_path, capsys, content):
    model = tmp_path / "model.json"
    model.write_bytes(content)
    features = tmp_path / "features.csv"
    features.write_text("animal_id,f1\nx,1.0\n")
    assert main(["predict", str(model), str(features), "--out", str(tmp_path / "p")]) == 1
    err = capsys.readouterr().err
    # A file that is not JSON text is named for why; any other for its content.
    reason = {b"{not json": "invalid JSON", b"\xff\xfe": "not UTF-8", b"\xff{}": "not UTF-8",
              b"[" * 200_000: "JSON nested too deep"}.get(content, "not a valid model file")
    assert err.startswith(f"error: {model}: {reason}") and err.count("\n") == 1


GOLDEN_TREE = Path(__file__).parent / "golden_models" / "decision_tree.json"


def _env_with_package() -> dict:
    """The environment, with the package under test first on PYTHONPATH."""
    src = Path(stacking.__file__).resolve().parent.parent
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}


def _one_feature_row(tmp_path) -> Path:
    features = tmp_path / "features.csv"
    features.write_text(",".join(["animal_id", *FEATURE_NAMES]) + "\n"
                        + ",".join(["x", *["1.0"] * len(FEATURE_NAMES)]) + "\n")
    return features


def _set_node(node, **lists):
    """An edit of a tree dict that sets ``node``'s entry in each named list."""
    return lambda tree: [tree[key].__setitem__(node, value) for key, value in lists.items()]


@pytest.mark.parametrize("edit, message", [
    (_set_node(0, left=0, right=0), "tree node 0 has children"),
    (_set_node(1, left=3, right=10**6), "tree node 1 has children"),
    (_set_node(0, left=-1, right=2), "tree node 0 has children"),
    (_set_node(0, left=3, right=3), "tree node 1 is the child of 0 splits, not of one"),
    (_set_node(0, feature=1.5), "tree 0 feature must hold only finite integers"),
    (_set_node(7, feature=-5), "tree node 7 has children -1 and -1 and feature -5"),
], ids=["self-loop", "out-of-range", "leaf-child-under-split", "shared-child", "fractional-feature",
        "leaf-feature-not-minus-one"])
def test_predict_malformed_tree_is_data_error(tmp_path, edit, message):
    """A tree whose descent could loop or leave the table, or a table that
    holds no tree, is refused at load time: exit 1 with one error line, not
    a hang, a traceback or a prediction."""
    payload = json.loads(GOLDEN_TREE.read_text())
    edit(payload["models"][0]["state"]["tree"])
    model = tmp_path / "model.json"
    model.write_text(json.dumps(payload))
    features = _one_feature_row(tmp_path)
    done = subprocess.run([sys.executable, "-m", "herdweight.cli", "predict", str(model), str(features),
                           "--out", str(tmp_path / "p")], capture_output=True, text=True,
                          env=_env_with_package(), timeout=60)
    assert done.returncode == 1
    assert done.stderr.startswith(f"error: {model}: not a valid model file") and done.stderr.count("\n") == 1
    assert f"member 'decision_tree': {message}" in done.stderr


def _set_state(**fields):
    """An edit of a member that replaces fields of its state."""
    return lambda member: member["state"].update(fields)


def _set_item(key, i, value):
    """An edit of a member that sets entry ``i`` of its list ``key``."""
    return lambda member: member[key].__setitem__(i, value)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("family, edit, message", [
    ("ols", _set_state(coef=[1.0, 2.0, 3.0]), "coef has shape (3,), expected (32,)"),
    ("adaboost", _set_state(betas=0.5), "betas has shape (), expected (3,)"),
    ("gradient_boosting", _set_state(init=[400.0, 500.0]), "init has shape (2,), expected ()"),
    ("knn", _set_state(targets=[[500.0]]), "targets has shape (1, 1), expected (1,)"),
    ("knn", _set_state(k=0), "k is 0 with 16 targets; both must be >= 1"),
    ("decision_tree", lambda m: m["state"]["tree"]["feature"].__setitem__(0, 32),
     "a tree splits on feature 32, but the model has 32 features"),
    ("adaboost", _set_state(betas=[-0.5, -0.5, -0.5]), "betas must lie in (0, 1)"),
    ("adaboost", _set_state(betas=[2.0, 3.0, 4.0]), "betas must lie in (0, 1)"),
    ("ols", lambda m: m["state"]["coef"].__setitem__(0, NAN), "coef must hold only finite numbers"),
    ("ols", _set_item("feature_mean", 0, INF), "feature_mean must hold only finite numbers"),
    ("ols", _set_item("feature_scale", 0, 0.0), "feature_scale must be > 0"),
    ("gradient_boosting", _set_state(init=NAN), "init must hold only finite numbers"),
    ("gradient_boosting", _set_state(learning_rate="0.3"),
     "learning_rate must hold only finite numbers"),
    ("knn", lambda m: m["state"]["targets"].__setitem__(0, NAN),
     "targets must hold only finite numbers"),
    ("knn", _set_state(k=2.7), "k must hold only finite integers"),
    ("random_forest", _set_state(extra=1.0), "state key 'extra' is unknown"),
    ("ols", lambda m: m["spec"].update(seed=2.7), "seed must be an integer, got 2.7"),
    ("ridge", lambda m: m["spec"].update(seed="3"), "seed must be an integer, got '3'"),
    ("random_forest", _set_state(trees=[]), "trees is empty; a forest needs one tree or more"),
    ("adaboost", _set_state(trees=[], betas=[]), "trees is empty; adaboost needs one tree or more"),
], ids=["ols-coef", "adaboost-betas", "gradient_boosting-init", "knn-targets", "knn-k-0",
        "tree-feature", "adaboost-betas-negative", "adaboost-betas-above-1", "ols-coef-nan",
        "ols-feature_mean-inf", "ols-feature_scale-0", "gradient_boosting-init-nan",
        "gradient_boosting-learning_rate-string", "knn-targets-nan", "knn-k-fraction",
        "random_forest-extra-key", "ols-spec-seed-fraction", "ridge-spec-seed-string",
        "random_forest-no-trees", "adaboost-no-trees"])
def test_predict_malformed_member_state_is_data_error(tmp_path, capsys, family, edit, message):
    """A member whose state does not fit the feature or tree count, holds
    anything but finite numbers, or breaks its kind's own rule is refused
    at load time, naming the member and the field."""
    payload = json.loads((GOLDEN_TREE.parent / f"{family}.json").read_text())
    edit(payload["models"][0])
    model = tmp_path / "model.json"
    model.write_text(json.dumps(payload))
    features = _one_feature_row(tmp_path)
    assert main(["predict", str(model), str(features), "--out", str(tmp_path / "p")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {model}: not a valid model file") and err.count("\n") == 1
    assert f"member {family!r}: {message}" in err


def test_cli_import_loads_no_scipy_spatial():
    """Only hull building needs scipy.spatial; importing the CLI must not
    load it, since every command pays for what the import loads."""
    done = subprocess.run([sys.executable, "-c",
                           "import herdweight.cli, sys; print('scipy.spatial' in sys.modules)"],
                          capture_output=True, text=True, env=_env_with_package(), timeout=60,
                          check=True)
    assert done.stdout == "False\n"


def test_cv_and_train_load_no_scipy(tmp_path):
    """Commands that build no hull import no scipy module: cv and train on
    a dataset of random features, with every family, Huber's Newton steps
    included."""
    rng = np.random.default_rng(3)
    features = rng.uniform(0.5, 2.0, size=(100, len(FEATURE_NAMES)))
    weights = 400.0 + features @ rng.uniform(0.0, 20.0, size=len(FEATURE_NAMES)) + rng.normal(size=100)
    dataset = tmp_path / "herd.csv"
    save_dataset_csv(HerdDataset(ids=[f"a{i}" for i in range(100)], features=features, weights=weights), dataset)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "models": {"specs": ["ols", "ridge", "lasso", "elastic_net", "huber", "knn", "decision_tree",
                             *({"name": f, "family": f, "params": {key: 3}} for f, key in (
                                 ("random_forest", "n_trees"), ("extra_trees", "n_trees"),
                                 ("adaboost", "n_rounds"), ("gradient_boosting", "n_rounds")))]},
        "evaluation": {"k": 2, "inner_k": 2, "seed": 0},
    }))
    script = ("import sys\n"
              "from herdweight.cli import main\n"
              "for command in ('cv', 'train'):\n"
              f"    assert main([command, {str(dataset)!r}, '--config', {str(config)!r},"
              f" '--out', {str(tmp_path / 'out')!r}]) == 0\n"
              "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=_env_with_package(), timeout=120, check=True)
    assert done.stdout == "[]\n"


@pytest.mark.parametrize("argv, n_animals", [
    (["train", "--inner-k", "2"], 3),
    (["cv", "--k", "2", "--inner-k", "2"], 4),
], ids=["train", "cv"])
def test_herd_too_small_for_its_folds_is_data_error(herd_csv, small_config, tmp_path, argv, n_animals):
    """An inner fold that leaves one training row is one error line, not a traceback."""
    small = tmp_path / "small.csv"
    small.write_text("\n".join(herd_csv.read_text().splitlines()[:n_animals + 1]) + "\n")
    done = subprocess.run([sys.executable, "-m", "herdweight.cli", argv[0], str(small), *argv[1:],
                           "--config", str(small_config), "--out", str(tmp_path / "o")],
                          capture_output=True, text=True, env=_env_with_package(), timeout=60)
    assert done.returncode == 1
    assert done.stderr == "error: model 'ols': need at least 2 training samples\n"


@pytest.mark.parametrize("content, message", [
    (b"animal_id,weight_kg\n\xff,500\n", "not UTF-8 text (invalid start byte at byte 20)"),
    (b"animal_id,weight_kg\n" + b"x" * 200_000 + b",500\n", ":2: field larger than field limit"),
], ids=["not-utf8", "csv-error"])
@pytest.mark.parametrize("command", ["features", "cv", "train", "predict"])
def test_unreadable_csv_is_data_error(herd_csv, small_config, tmp_path, capsys, command, content,
                                      message):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(content)
    if command == "features":
        scans = tmp_path / "scans"
        scans.mkdir()
        save_point_cloud(PointCloud(CUBE), scans / "cube.xyz", XYZ_ASCII)
        argv = ["features", str(scans), str(bad)]
    elif command == "predict":
        model = tmp_path / "model"
        assert main(["train", str(herd_csv), "--config", str(small_config), "--out", str(model)]) == 0
        argv = ["predict", str(model / "model.json"), str(bad)]
    else:
        argv = [command, str(bad), "--config", str(small_config)]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}") and message in err


@pytest.mark.parametrize("command", ["cv", "train"])
def test_repeated_animal_id_is_data_error(herd_csv, small_config, tmp_path, capsys, command):
    lines = herd_csv.read_text().splitlines()
    dup = tmp_path / "dup.csv"
    dup.write_text("\n".join([*lines, lines[3]]) + "\n")
    assert main([command, str(dup), "--config", str(small_config), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    animal_id = lines[3].split(",")[0]
    assert err == f"error: {dup}:{len(lines) + 1}: animal_id {animal_id!r} repeats line 4\n"


def test_fuse_sim_zero_noise(tmp_path):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({
        "simulation": {"steps": 5, "schedule": {"kind": "constant", "sigma0": 0.0}},
        "fusion": {"beta": 1.0, "epsilon": 1e-08},
    }))
    out = tmp_path / "sim"
    assert main(["fuse-sim", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "trace.csv").read_text().splitlines()
    data = [ln.split(",") for ln in lines if not ln.startswith("#")][1:]
    expected = float(np.exp(-1.0 * np.sqrt(1e-8)))
    assert all(abs(float(row[2]) - expected) < 1e-12 for row in data)


def test_fuse_sim_determinism_and_bias(tmp_path):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({
        "simulation": {"steps": 25, "seed": 7, "view_bias": [0.6, 0.0, 0.0],
                        "schedule": {"kind": "constant", "sigma0": 0.02}},
    }))
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["fuse-sim", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["fuse-sim", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
    weights0 = [float(ln.split(",")[3]) for ln in (out1 / "trace.csv").read_text().splitlines()
                if ln and not ln.startswith("#") and ln.split(",")[0].isdigit() and ln.split(",")[1] == "0"]
    assert weights0 and all(w < 1 / 3 for w in weights0)


def test_fuse_sim_trace_digest(tmp_path):
    """trace.csv of a small seeded run is byte-identical to the one written
    before the simulator stopped keeping per-step results (numpy 2.4, x86-64
    with AVX-512; numpy's SIMD exp may round differently elsewhere)."""
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({
        "simulation": {"locations": 32, "channels": 8, "view_bias": [0.25, 0.0, 0.0, -0.1]},
    }))
    out = tmp_path / "sim"
    assert main(["fuse-sim", "--config", str(cfg), "--out", str(out), "--views", "4",
                 "--steps", "12", "--seed", "3", "--beta", "2.0"]) == 0
    digest = hashlib.sha256((out / "trace.csv").read_bytes()).hexdigest()
    assert digest == "0d153d13e2b6f7fcb4fc3f184def98b54c60b1ec581b89fd3866e5e2bde7bc82"


@pytest.mark.parametrize("simulation, code", [
    ({"views": 2.5}, 2),
    ({"steps": True}, 2),
    ({"seed": -1}, 2),
    ({"seed": 1.5}, 2),
    ({"target_scale": float("nan")}, 2),
    ({"view_bias": [float("inf"), 0.0, 0.0]}, 2),
    ({"target_scale": 1e308}, 1),
    ({"view_bias": [1e308, 0.0, 0.0]}, 1),
    ({"schedule": {"kind": "constant", "sigma0": 1e308}}, 1),
], ids=["views-2.5", "steps-true", "seed-negative", "seed-1.5", "target_scale-nan",
        "view_bias-inf", "target_scale-1e308", "view_bias-1e308", "sigma0-1e308"])
def test_fuse_sim_hostile_config_exits_cleanly(tmp_path, capsys, simulation, code):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({"simulation": {"locations": 4, "channels": 2, "steps": 3,
                                              **simulation}}))
    assert main(["fuse-sim", "--config", str(cfg), "--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("config error: simulation")
    else:
        assert err.startswith("error: simulation step ")


@pytest.mark.parametrize("views", [10**12, 10**18])
def test_fuse_sim_too_large_to_allocate_is_data_error(tmp_path, capsys, views):
    """Sizes whose buffers exceed any address space, so that the first
    allocation fails outright (10**18 views is past numpy's byte count)."""
    assert main(["fuse-sim", "--out", str(tmp_path / "o"), "--views", str(views)]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: simulation of {views} views x 64 locations x 8 channels "
                   "does not fit in memory\n")


# Settings that must be numbers, given a bool or a string.
_NOT_NUMBERS = [
    ("fusion", {"beta": True}), ("fusion", {"epsilon": True}), ("fusion", {"beta": "1"}),
    ("fusion", {"epsilon": "1e-8"}),
    ("simulation", {"contraction": True}), ("simulation", {"contraction": "0.5"}),
    ("simulation", {"schedule": {"sigma0": True}}), ("simulation", {"schedule": {"decay": True}}),
    ("simulation", {"schedule": {"sigma0": "1"}}), ("simulation", {"schedule": {"decay": "0.5"}}),
    ("simulation", {"schedule": {"kind": "constant", "sigma0": True}}),
    ("cleaning", {"min_plane_fraction": "0.3"}),
    ("simulation", {"view_bias": ["1", "2", "3"]}), ("simulation", {"view_bias": [True, False, True]}),
    ("simulation", {"schedule": {"kind": "explicit", "values": ["1"] * 60}}),
    ("simulation", {"schedule": {"kind": "explicit", "values": [True] * 60}}),
]


@pytest.mark.parametrize("section, values", [
    ("evaluation", {"seed": -1}), ("evaluation", {"seed": 1.5}), ("evaluation", {"seed": True}),
    ("models", {"seed": -1}), ("models", {"seed": 1.5}),
    ("stacking", {"alpha": float("nan")}), ("stacking", {"alpha": float("inf")}),
    ("stacking", {"alpha": True}), ("stacking", {"m_top": True}),
    ("cleaning", {"max_iterations": 2.5}), ("cleaning", {"max_iterations": True}),
    ("cleaning", {"seed": -1}), ("cleaning", {"seed": 1.5}),
    ("cleaning", {"inlier_threshold": float("nan")}), ("cleaning", {"max_planes": 1.5}),
    ("cleaning", {"threshold_is_relative": "no"}),
    pytest.param("stacking", {"alpha": 10**400}, id="stacking-alpha=400-digits"),
    pytest.param("cleaning", {"max_iterations": 10**400}, id="cleaning-max_iterations=400-digits"),
    ("models", {"specs": [{"name": "m", "family": "ols", "params": 5}]}),
    ("models", {"specs": [{"name": "m", "family": "ols", "params": "ab"}]}),
    ("models", {"specs": [{"name": "m", "family": "ols", "seed": 2.7}]}),
    ("models", {"specs": [{"name": "m", "family": "ols", "seed": "3"}]}),
    ("models", {"seed": True, "specs": [{"name": "m", "family": "ols"}]}),
    *_NOT_NUMBERS,
], ids=lambda v: v if isinstance(v, str) else "-".join(f"{k}={v[k]}" for k in v))
def test_hostile_config_value_exits_cleanly(herd_csv, scene_dir, tmp_path, capsys, section, values):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({section: values}))
    argv = ["clean", str(scene_dir)] if section == "cleaning" else ["cv", str(herd_csv)]
    assert main([*argv, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err


@pytest.mark.parametrize("section, values", _NOT_NUMBERS,
                         ids=lambda v: v if isinstance(v, str) else json.dumps(v))
def test_non_number_setting_names_its_section(section, values):
    with pytest.raises(ConfigError) as raised:
        build_config({section: values})
    assert str(raised.value).startswith(section) and "not supported" not in str(raised.value)


@pytest.mark.parametrize("kind, message", [
    ("not-utf8", "not UTF-8"), ("nested-too-deep", "JSON nested too deep"),
    ("directory", "cannot read config"),
])
def test_unreadable_config_is_usage_error(tmp_path, capsys, kind, message):
    cfg = tmp_path / "cfg.json"
    if kind == "directory":
        cfg.mkdir()
    else:
        cfg.write_bytes(b"\xff{}" if kind == "not-utf8" else b"[" * 100_000)
    assert main(["fuse-sim", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {cfg}: {message}") and "Traceback" not in err


@pytest.mark.parametrize("kind", ["model-nested-too-deep", "model-is-a-directory",
                                  "dataset-is-a-directory", "resolved-config-is-a-directory",
                                  "out-is-a-file"])
def test_unreadable_input_or_unwritable_output_is_data_error(herd_csv, tmp_path, capsys, kind):
    out, model = tmp_path / "out", tmp_path / "model.json"
    argv, named = ["predict", str(model), str(herd_csv)], model
    if kind == "model-nested-too-deep":
        model.write_bytes(b"[" * 200_000)
    elif kind == "model-is-a-directory":
        model.mkdir()
    elif kind == "dataset-is-a-directory":
        named = tmp_path / "herd_dir"
        named.mkdir()
        argv = ["cv", str(named)]
    elif kind == "resolved-config-is-a-directory":
        named = out / "config.resolved.json"
        named.mkdir(parents=True)
        argv = ["fuse-sim"]
    else:
        out.write_text("")
        argv, named = ["fuse-sim"], out
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(named) in err
    assert "Traceback" not in err


_OS_ERROR_REASONS = {"dataset-is-a-directory": "Is a directory",
                     "missing-dataset": "No such file or directory",
                     "missing-weights": "No such file or directory",
                     "out-is-a-file": "File exists",
                     "dangling-scan-symlink": "No such file or directory"}


@pytest.mark.parametrize("kind", list(_OS_ERROR_REASONS))
def test_os_error_line_names_the_path_once(tmp_path, capsys, kind):
    out, named = tmp_path / "out", tmp_path / "named"
    if kind == "dataset-is-a-directory":
        named.mkdir()
        argv = ["cv", str(named)]
    elif kind == "missing-dataset":
        argv = ["cv", str(named)]
    elif kind == "missing-weights":
        scans = tmp_path / "scans"
        scans.mkdir()
        save_point_cloud(PointCloud(CUBE), scans / "cube.xyz", XYZ_ASCII)
        argv = ["features", str(scans), str(named)]
    elif kind == "out-is-a-file":
        out = named
        out.write_text("")
        argv = ["fuse-sim"]
    else:
        scans = tmp_path / "scans"
        scans.mkdir()
        named = scans / "c.xyz"
        named.symlink_to(tmp_path / "nowhere.xyz")
        argv = ["clean", str(scans)]
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {named}: {_OS_ERROR_REASONS[kind]}\n"


def test_unknown_config_key_is_usage_error(herd_csv, tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"modelz": {}}))
    assert main(["cv", str(herd_csv), "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "unknown keys" in capsys.readouterr().err


# Every flag that overrides a config value: (command, flag) -> (its dotted
# config key, the argument given, the value config.resolved.json then holds).
_STACK_FLAGS = {"--inner-k": ("evaluation.inner_k", "2", 2), "--seed": ("evaluation.seed", "4", 4),
                "--m-top": ("stacking.m_top", "2", 2), "--alpha": ("stacking.alpha", "0.5", 0.5)}
FLAG_SETTINGS = {
    ("clean", "--threshold"): ("cleaning.inlier_threshold", "0.02", 0.02),
    ("clean", "--absolute"): ("cleaning.threshold_is_relative", None, False),
    ("clean", "--max-iterations"): ("cleaning.max_iterations", "300", 300),
    ("clean", "--min-plane-fraction"): ("cleaning.min_plane_fraction", "0.3", 0.3),
    ("clean", "--max-planes"): ("cleaning.max_planes", "2", 2),
    ("clean", "--seed"): ("cleaning.seed", "4", 4),
    **{(command, flag): setting for command in ("cv", "sweep")
       for flag, setting in {"--k": ("evaluation.k", "4", 4), **_STACK_FLAGS}.items()},
    **{("train", flag): setting for flag, setting in _STACK_FLAGS.items()},
    ("fuse-sim", "--views"): ("simulation.views", "2", 2),
    ("fuse-sim", "--steps"): ("simulation.steps", "4", 4),
    ("fuse-sim", "--seed"): ("simulation.seed", "3", 3),
    ("fuse-sim", "--beta"): ("fusion.beta", "2.0", 2.0),
    ("fuse-sim", "--epsilon"): ("fusion.epsilon", "1e-06", 1e-06),
}
_SUBCOMMANDS = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
SETTING_ACTIONS = [(command, action) for command, parser in _SUBCOMMANDS.items()
                   for action in parser._actions if "." in action.dest]


@pytest.mark.parametrize("command, action", SETTING_ACTIONS,
                         ids=[f"{c}{a.option_strings[0]}" for c, a in SETTING_ACTIONS])
def test_flag_sets_its_config_key(request, tmp_path, command, action):
    flag, = action.option_strings
    key, arg, expected = FLAG_SETTINGS[command, flag]
    assert action.dest == key
    section, name = key.split(".")
    assert name in _SECTIONS[section]

    config = None
    if command == "clean":
        argv = ["clean", str(request.getfixturevalue("scene_dir"))]
    elif command == "fuse-sim":
        config = tmp_path / "sim.json"
        config.write_text(json.dumps({"simulation": {"locations": 4, "channels": 2, "steps": 3}}))
        argv = ["fuse-sim"]
    else:
        config = request.getfixturevalue("small_config")
        argv = [command, str(request.getfixturevalue("herd_csv"))]
        argv += ["--sweep", "2..3"] if command == "sweep" else []
    assert load_config(config).resolved_dict()[section][name] != expected
    if config is not None:
        argv += ["--config", str(config)]
    out = tmp_path / "out"
    assert main([*argv, flag, *([arg] if arg else []), "--out", str(out)]) == 0
    assert json.loads((out / "config.resolved.json").read_text())[section][name] == expected


def test_flag_table_and_help():
    """The flag-to-key map above is the parser's whole, and every
    subcommand's --help exits 0."""
    assert {(c, a.option_strings[0]) for c, a in SETTING_ACTIONS} == set(FLAG_SETTINGS)
    for command in _SUBCOMMANDS:
        assert main([command, "--help"]) == 0


def test_resolved_config_is_a_fixed_point(tmp_path):
    """A config that sets every key of every section to a value other than
    its default reloads from config.resolved.json to the same settings."""
    raw = {
        "cleaning": {"inlier_threshold": 0.02, "threshold_is_relative": False,
                     "max_iterations": 300, "min_plane_fraction": 0.3, "max_planes": 2, "seed": 4},
        "models": {"specs": ["ols", "gbA", {"name": "shallow", "family": "decision_tree",
                                            "params": {"max_depth": 2}, "seed": 9}],
                   "seed": 3},
        "stacking": {"m_top": 2, "alpha": 0.5},
        "evaluation": {"k": 3, "inner_k": 4, "seed": 6},
        "fusion": {"beta": 2.0, "epsilon": 1e-06, "center": "median"},
        "simulation": {"views": 2, "locations": 5, "channels": 3, "steps": 4, "seed": 2,
                       "contraction": 0.5, "schedule": {"kind": "constant", "sigma0": 0.3},
                       "view_bias": [0.1, -0.1], "target_scale": 2.0},
    }
    assert {section: set(keys) for section, keys in raw.items()} == _SECTIONS
    config = build_config(raw)
    resolved, default = config.resolved_dict(), build_config({}).resolved_dict()
    for section in raw:
        for key, value in resolved[section].items():
            assert value != default[section][key], f"{section}.{key}"

    first = write_resolved_config(config, tmp_path)
    reloaded = load_config(first)
    assert reloaded.resolved_dict() == resolved
    (tmp_path / "again").mkdir()
    assert write_resolved_config(reloaded, tmp_path / "again").read_bytes() == first.read_bytes()


def test_readme_config_example_is_the_default():
    """The README's config example spells out the default of every key."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    example = readme.split("## Config file", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    assert build_config(json.loads(example)).resolved_dict() == build_config({}).resolved_dict()


def test_resolved_config_reloads(herd_csv, small_config, tmp_path):
    out = tmp_path / "cv"
    assert main(["cv", str(herd_csv), "--config", str(small_config), "--out", str(out)]) == 0
    out2 = tmp_path / "cv_again"
    assert main(["cv", str(herd_csv), "--config", str(out / "config.resolved.json"),
                 "--out", str(out2)]) == 0
    assert (out / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


def test_usage_errors(tmp_path):
    assert main([]) == 2
    assert main(["clean"]) == 2
    assert main(["--version"]) == 0
