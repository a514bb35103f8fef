"""`eval` reuses the models `train` wrote for the same gallery and settings,
retrains on any difference, and never writes model_dir."""

import json
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

import biofuse.pipeline as pipeline
from biofuse.cli import main
from biofuse.gmm import GmmModel, save_model
from biofuse.pgm import load_pgm, write_pgm

# one EM start per fit keeps the many trainings below cheap
BASE = {"gmm_face": {"restarts": 1}, "gmm_ear": {"restarts": 1}}
OUTPUTS = ("report.csv", "roc_face.csv", "roc_ear.csv", "roc_fusion.csv")


def _config(work, manifest, model_dir=None, sections=BASE):
    text = (f"[paths]\nmanifest = {manifest}\n"
            f"model_dir = {model_dir or os.path.join(work, 'models')}\n"
            f"output_dir = {os.path.join(work, 'out')}\n")
    for name, keys in sections.items():
        text += f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in
                                         keys.items())
    path = os.path.join(work, "cfg.ini")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _files(directory, names=None):
    return {name: Path(directory, name).read_bytes()
            for name in names or sorted(os.listdir(directory))}


def _train(work, manifest, sections=BASE, seed=()):
    """prep + train into work/models; returns the config path."""
    cfg = _config(work, manifest, sections=sections)
    prepped = os.path.join(work, "prepped")
    assert main([*seed, "--config", cfg, "prep", "--out-dir", prepped]) == 0
    assert main([*seed, "--config", cfg, "train", "--manifest",
                 os.path.join(prepped, "manifest.json")]) == 0
    return cfg


def _eval(cfg, model_dir, monkeypatch, seed=()):
    """Run `eval`; (its CSVs, the modalities it trained). Every file in
    model_dir must be byte-identical afterwards."""
    trained = []
    fit = pipeline.train_modality

    def counting(modality, *args, **kwargs):
        trained.append(modality)
        return fit(modality, *args, **kwargs)

    before = _files(model_dir) if os.path.isdir(model_dir) else None
    with monkeypatch.context() as patch:
        patch.setattr(pipeline, "train_modality", counting)
        assert main([*seed, "--config", cfg, "eval"]) == 0
    after = _files(model_dir) if os.path.isdir(model_dir) else None
    assert after == before
    return _files(os.path.join(os.path.dirname(cfg), "out"), OUTPUTS), trained


def _fresh(tmp_path, manifest, sections=BASE, seed=()):
    """Outputs of a fresh prep -> train -> eval cycle."""
    work = str(tmp_path / "fresh")
    os.makedirs(work)
    cfg = _train(work, manifest, sections, seed)
    assert main([*seed, "--config", cfg, "eval"]) == 0
    return _files(os.path.join(work, "out"), OUTPUTS)


@pytest.fixture(scope="module")
def base(tmp_path_factory, toy_corpus):
    """The toy gallery trained once, and the output of an eval on it."""
    work = str(tmp_path_factory.mktemp("reuse"))
    cfg = _train(work, toy_corpus["manifest"])
    with pytest.MonkeyPatch.context() as patch:
        outputs, trained = _eval(cfg, os.path.join(work, "models"), patch)
    assert trained == []
    return {"outputs": outputs, "model_dir": os.path.join(work, "models"),
            "manifest": toy_corpus["manifest"]}


def _stale_eval(tmp_path, base, monkeypatch, manifest=None, sections=BASE,
                seed=()):
    """eval against base's models with another manifest, config or seed."""
    cfg = _config(str(tmp_path), manifest or base["manifest"],
                  model_dir=base["model_dir"], sections=sections)
    return _eval(cfg, base["model_dir"], monkeypatch, seed)


def test_reuse_equals_forced_retrain(base, tmp_path, monkeypatch):
    missing = str(tmp_path / "never")
    cfg = _config(str(tmp_path), base["manifest"], model_dir=missing)
    outputs, trained = _eval(cfg, missing, monkeypatch)
    assert trained == ["face", "ear"]
    assert outputs == base["outputs"]
    assert not os.path.exists(missing)


@pytest.mark.parametrize("path", ["reuse", "retrain"])
def test_eval_leaves_model_dir_byte_identical(base, tmp_path, monkeypatch,
                                              path):
    before = _files(base["model_dir"])
    seed = () if path == "reuse" else ("--seed", "5")
    _, trained = _stale_eval(tmp_path, base, monkeypatch, seed=seed)
    assert trained == ([] if path == "reuse" else ["face", "ear"])
    assert _files(base["model_dir"]) == before


def test_changed_seed_retrains(base, tmp_path, monkeypatch):
    seed = ("--seed", "7")
    outputs, trained = _stale_eval(tmp_path, base, monkeypatch, seed=seed)
    assert trained == ["face", "ear"]
    assert outputs == _fresh(tmp_path, base["manifest"], seed=seed)


def test_changed_gallery_pixel_retrains(base, tmp_path, monkeypatch):
    records = json.loads(Path(base["manifest"]).read_text())
    rec = next(r for r in records
               if r["modality"] == "face" and r["session"] == 1)
    img = load_pgm(rec["image_path"]).copy()
    img[110, 100] = (int(img[110, 100]) + 128) % 256
    rec["image_path"] = str(tmp_path / "changed.pgm")
    write_pgm(img, rec["image_path"])
    manifest = tmp_path / "changed.json"
    manifest.write_text(json.dumps(records))
    outputs, trained = _stale_eval(tmp_path, base, monkeypatch,
                                   manifest=str(manifest))
    assert trained == ["face"]
    assert outputs == _fresh(tmp_path, str(manifest))


def test_changed_gmm_key_retrains_that_modality(base, tmp_path, monkeypatch):
    sections = {**BASE, "gmm_face": {"restarts": 1, "n_components": 4}}
    outputs, trained = _stale_eval(tmp_path, base, monkeypatch,
                                   sections=sections)
    assert trained == ["face"]
    assert outputs == _fresh(tmp_path, base["manifest"], sections)


@pytest.mark.parametrize("gabor", [{"stride": 11}, {"sigma": 6.0}],
                         ids=["stride", "sigma"])
def test_changed_gabor_setting_retrains(base, tmp_path, monkeypatch, gabor):
    sections = {**BASE, "gabor": gabor}
    outputs, trained = _stale_eval(tmp_path, base, monkeypatch,
                                   sections=sections)
    assert trained == ["face", "ear"]
    assert outputs == _fresh(tmp_path, base["manifest"], sections)


def test_changed_fit_version_retrains(base, tmp_path, monkeypatch):
    # models fitted by another EM arithmetic are fitted again, not reused
    monkeypatch.setattr(pipeline, "FIT_VERSION", pipeline.FIT_VERSION - 1)
    outputs, trained = _stale_eval(tmp_path, base, monkeypatch)
    assert trained == ["face", "ear"]
    assert outputs == base["outputs"]


def test_swapped_subject_ids_retrain(base, tmp_path, monkeypatch):
    swap = {"alice": "bob", "bob": "alice"}
    records = json.loads(Path(base["manifest"]).read_text())
    for rec in records:
        rec["subject_id"] = swap[rec["subject_id"]]
    manifest = tmp_path / "swapped.json"
    manifest.write_text(json.dumps(records))
    outputs, trained = _stale_eval(tmp_path, base, monkeypatch,
                                   manifest=str(manifest))
    assert trained == ["face", "ear"]
    assert outputs == _fresh(tmp_path, str(manifest))


def _write_v1(path):
    """Rewrite the stats file as format version 1 wrote it."""
    doc = json.loads(path.read_text())
    del doc["fingerprint"]
    path.write_text(json.dumps(dict(doc, format_version=1)))


def _write_v2(path):
    """Rewrite the stats file as format version 2 wrote it."""
    doc = json.loads(path.read_text())
    del doc["features"]
    path.write_text(json.dumps(dict(doc, format_version=2)))


@pytest.mark.parametrize("damage", [
    lambda path: path.unlink(),
    lambda path: path.write_text("{not json"),
    _write_v1,
    _write_v2,
], ids=["missing", "malformed", "v1", "v2"])
def test_unusable_stats_file_retrains(base, tmp_path, monkeypatch, damage):
    models = str(tmp_path / "models")
    shutil.copytree(base["model_dir"], models)
    damage(tmp_path / "models" / "face_stats.json")
    cfg = _config(str(tmp_path), base["manifest"], model_dir=models)
    outputs, trained = _eval(cfg, models, monkeypatch)
    assert trained == ["face"]
    assert outputs == base["outputs"]


def test_missing_client_model_retrains(base, tmp_path, monkeypatch):
    models = str(tmp_path / "models")
    shutil.copytree(base["model_dir"], models)
    os.remove(os.path.join(models, "ear_bob.json"))
    cfg = _config(str(tmp_path), base["manifest"], model_dir=models)
    outputs, trained = _eval(cfg, models, monkeypatch)
    assert trained == ["ear"]
    assert outputs == base["outputs"]


def test_client_of_another_component_count_retrains(base, tmp_path,
                                                     monkeypatch):
    models = str(tmp_path / "models")
    shutil.copytree(base["model_dir"], models)
    client = os.path.join(models, "ear_bob.json")
    with open(client, encoding="utf-8") as fh:
        dim = len(json.load(fh)["means"][0])
    save_model(GmmModel(np.full(4, 0.25), np.zeros((4, dim)),
                        np.ones((4, dim))), client, "ear", "bob")
    cfg = _config(str(tmp_path), base["manifest"], model_dir=models)
    outputs, trained = _eval(cfg, models, monkeypatch)
    assert trained == ["ear"]
    assert outputs == base["outputs"]


def test_train_failing_midway_leaves_no_stats_file(base, tmp_path,
                                                   monkeypatch):
    # a train with another seed dies after writing one model, so model_dir
    # mixes old and new models; with no stats file to vouch for them, eval
    # with the old settings trains again instead of reusing them
    models = str(tmp_path / "models")
    shutil.copytree(base["model_dir"], models)
    cfg = _config(str(tmp_path), base["manifest"], model_dir=models)
    prepped = os.path.join(os.path.dirname(base["model_dir"]), "prepped",
                           "manifest.json")
    save = pipeline.save_model
    written = []

    def fail_after_first(*args):
        if written:
            raise OSError("disk full")
        written.append(args[1])
        save(*args)

    with monkeypatch.context() as patch:
        patch.setattr(pipeline, "save_model", fail_after_first)
        assert main(["--seed", "7", "--config", cfg, "train",
                     "--manifest", prepped]) == 2
    names = set(os.listdir(models))
    assert names == set(os.listdir(base["model_dir"])) - {
        "face_stats.json", "ear_stats.json"}
    first = os.path.basename(written[0])
    assert _files(models, [first]) != _files(base["model_dir"], [first])
    outputs, trained = _eval(cfg, models, monkeypatch)
    assert trained == ["face", "ear"]
    assert outputs == base["outputs"]
