"""`eval` reuses the models `train` wrote for the same gallery and settings,
retrains on any difference, and never writes model_dir."""

import importlib.util
import json
import os
import random
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
            "manifest": toy_corpus["manifest"],
            "prepped_manifest": os.path.join(work, "prepped",
                                             "manifest.json")}


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


def test_eval_of_preps_manifest_reuses_the_models_and_preps_nothing(
        base, tmp_path, monkeypatch):
    # prep marked its records, so eval reads their images as they are
    prepped = []
    prep = pipeline.prep_image

    def counting(*args, **kwargs):
        prepped.append(args)
        return prep(*args, **kwargs)

    monkeypatch.setattr(pipeline, "prep_image", counting)
    outputs, trained = _stale_eval(tmp_path, base, monkeypatch,
                                   manifest=base["prepped_manifest"])
    assert trained == []
    assert prepped == []
    assert outputs == base["outputs"]


def test_train_of_the_raw_manifest_writes_the_models_of_preps(base,
                                                              tmp_path):
    # the raw records are prepped in memory, so the models are those that
    # train of prep's manifest wrote, byte for byte
    cfg = _config(str(tmp_path), base["manifest"])
    assert main(["--config", cfg, "train", "--manifest",
                 base["manifest"]]) == 0
    assert _files(tmp_path / "models") == _files(base["model_dir"])


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


def _probes(base, subject):
    """The prepped session-2 (face, ear) images of subject in base."""
    prepped = os.path.join(os.path.dirname(base["model_dir"]), "prepped",
                           "manifest.json")
    picks = {rec["modality"]: rec["image_path"]
             for rec in json.loads(Path(prepped).read_text())
             if rec["subject_id"] == subject and rec["session"] == 2}
    return picks["face"], picks["ear"]


def _verify(cfg, base, subject="alice"):
    face, ear = _probes(base, subject)
    return main(["--config", cfg, "verify", "--face", face, "--ear", ear,
                 "--claim", subject])


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


def _write_v3(path):
    """Rewrite the stats file as format version 3 wrote it."""
    doc = json.loads(path.read_text())
    del doc["model_sha256"]
    path.write_text(json.dumps(dict(doc, format_version=3)))


def _calibrate(lo, hi):
    """Damage: set the stats file's calibration to [lo, hi]."""
    def damage(path):
        doc = json.loads(path.read_text())
        path.write_text(json.dumps(dict(doc, calibration=[lo, hi])))
    return damage


@pytest.mark.parametrize("damage", [
    lambda path: path.unlink(),
    lambda path: path.write_text("{not json"),
    _write_v1,
    _write_v2,
    _calibrate(5.0, -5.0),
    _calibrate(3.0, 3.0),
    lambda path: path.write_bytes(b"\xff" + path.read_bytes()),
], ids=["missing", "malformed", "v1", "v2", "decreasing-calibration",
        "flat-calibration", "not-utf8"])
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


def test_client_model_that_is_not_utf8_retrains(base, tmp_path,
                                                monkeypatch):
    models = str(tmp_path / "models")
    shutil.copytree(base["model_dir"], models)
    client = Path(models, "face_alice.json")
    client.write_bytes(b"\xff" + client.read_bytes())
    cfg = _config(str(tmp_path), base["manifest"], model_dir=models)
    outputs, trained = _eval(cfg, models, monkeypatch)
    assert trained == ["face"]
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


def test_format_3_model_dir_retrains(base, tmp_path, monkeypatch, capsys):
    # format 3 recorded no model digests, so its stats vouch for nothing
    models = str(tmp_path / "models")
    shutil.copytree(base["model_dir"], models)
    for modality in ("face", "ear"):
        _write_v3(tmp_path / "models" / f"{modality}_stats.json")
    cfg = _config(str(tmp_path), base["manifest"], model_dir=models)
    outputs, trained = _eval(cfg, models, monkeypatch)
    assert trained == ["face", "ear"]
    assert outputs == base["outputs"]
    capsys.readouterr()
    assert _verify(cfg, base) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"{os.path.join(models, 'face_stats.json')}: bad stats "
            f"document") in captured.err
    assert "format_version 3, expected 4; run `train` again" in captured.err


def test_swapped_model_is_refused(base, tmp_path, monkeypatch, capsys):
    # a model that another train wrote under the same name: its header is
    # right and the stats file's fingerprint matches this gallery, but the
    # stats file does not vouch for its bytes
    other = str(tmp_path / "other")
    os.makedirs(other)
    _train(other, base["manifest"], seed=("--seed", "7"))
    models = str(tmp_path / "models")
    shutil.copytree(base["model_dir"], models)
    swapped = os.path.join(models, "face_alice.json")
    shutil.copyfile(os.path.join(other, "models", "face_alice.json"),
                    swapped)
    assert _files(models) != _files(base["model_dir"])
    cfg = _config(str(tmp_path), base["manifest"], model_dir=models)
    outputs, trained = _eval(cfg, models, monkeypatch)
    assert trained == ["face"]
    assert outputs == base["outputs"]
    capsys.readouterr()
    assert _verify(cfg, base) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {swapped}: sha256 " in captured.err
    assert "run `train` again" in captured.err



def _build_corpus(root, n_subjects, seed):
    """perfbench/corpus.py's build_corpus, loaded from its file so that
    the tests need not run from the repository root; returns the raw
    manifest's path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("_perfbench_corpus", path)
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    return corpus.build_corpus(str(root), n_subjects, seed)[0]


def _eval_afresh(work, manifest, monkeypatch):
    """The CSVs of an eval over an empty model_dir, which trains both
    modalities."""
    os.makedirs(work)
    missing = os.path.join(work, "never")
    outputs, trained = _eval(_config(work, manifest, model_dir=missing),
                             missing, monkeypatch)
    assert trained == ["face", "ear"]
    return outputs


@pytest.fixture(scope="module", params=["toy", "s4"])
def afresh(request, tmp_path_factory, toy_corpus):
    """The toy corpus, or the perfbench corpus at 4 subjects and seed 3,
    and the output of an eval over it with an empty model_dir."""
    root = tmp_path_factory.mktemp(request.param)
    manifest = toy_corpus["manifest"] if request.param == "toy" \
        else _build_corpus(root / "corpus", 4, 3)
    with pytest.MonkeyPatch.context() as patch:
        outputs = _eval_afresh(str(root / "built"), manifest, patch)
    return {"manifest": manifest, "outputs": outputs}


def _rewrite(manifest, path, shuffle=None, rename=None):
    """A copy of manifest at path, its records shuffled by the seeded
    random.Random(shuffle) and each subject id mapped by rename."""
    records = json.loads(Path(manifest).read_text())
    if shuffle is not None:
        random.Random(shuffle).shuffle(records)
    for rec in records:
        rec["subject_id"] = (rename or str)(rec["subject_id"])
    Path(path).write_text(json.dumps(records))
    return str(path)


def _gallery_order(manifest, modality):
    """The subject ids of the modality's gallery, in manifest order."""
    return [rec["subject_id"] for rec in json.loads(Path(manifest).read_text())
            if rec["modality"] == modality and rec["session"] == 1]


@pytest.mark.parametrize("variant", ["shuffle-1", "shuffle-2", "prefixed"])
def test_protocol_is_blind_to_record_order_and_order_keeping_relabels(
        afresh, tmp_path, monkeypatch, variant):
    # the fit depends on the subjects' sorted order and on each subject's
    # images, not on where the manifest lists them or what the ids spell
    if variant == "prefixed":
        manifest = _rewrite(afresh["manifest"], tmp_path / "m.json",
                            rename=lambda sid: f"t{sid}")
    else:
        manifest = _rewrite(afresh["manifest"], tmp_path / "m.json",
                            shuffle=int(variant[-1]))
        assert any(_gallery_order(manifest, m) != _gallery_order(
            afresh["manifest"], m) for m in ("face", "ear"))
    outputs = _eval_afresh(str(tmp_path / "work"), manifest, monkeypatch)
    assert outputs == afresh["outputs"]


def test_relabel_that_reorders_the_subjects_changes_the_models(base,
                                                               tmp_path):
    # client i is seeded by its index in sorted-id order, and the
    # background pools the gallery in that order
    manifest = _rewrite(base["manifest"], tmp_path / "m.json",
                        rename={"alice": "zoe", "bob": "bob"}.get)
    _train(str(tmp_path), manifest)
    for name in ("face_bob.json", "face_background.json", "ear_bob.json",
                 "ear_background.json"):
        assert _files(tmp_path / "models", [name]) != _files(
            base["model_dir"], [name]), name


@pytest.mark.parametrize("shuffle", [1, 2])
def test_reordered_manifest_reuses_the_models(base, tmp_path, monkeypatch,
                                              shuffle):
    manifest = _rewrite(base["manifest"], tmp_path / "m.json",
                        shuffle=shuffle)
    assert any(_gallery_order(manifest, m) != _gallery_order(
        base["manifest"], m) for m in ("face", "ear"))
    outputs, trained = _stale_eval(tmp_path, base, monkeypatch,
                                   manifest=manifest)
    assert trained == []
    assert outputs == base["outputs"]


def test_verify_of_a_subject_a_later_train_left_out_exits_2(tmp_path,
                                                            capsys):
    # the second train removes s02's model files, which the first train's
    # stats files listed
    cfg = _train(str(tmp_path), _build_corpus(tmp_path / "corpus", 3, 1))
    prepped = tmp_path / "prepped" / "manifest.json"
    kept = [rec for rec in json.loads(prepped.read_text())
            if rec["subject_id"] != "s02"]
    without = tmp_path / "without_s02.json"
    without.write_text(json.dumps(kept))
    assert main(["--config", cfg, "train", "--manifest", str(without)]) == 0
    models = tmp_path / "models"
    assert not list(models.glob("*_s02.json"))
    probes = {rec["modality"]: rec["image_path"]
              for rec in json.loads(prepped.read_text())
              if rec["subject_id"] == "s02" and rec["session"] == 2}
    capsys.readouterr()
    assert main(["--config", cfg, "verify", "--face", probes["face"],
                 "--ear", probes["ear"], "--claim", "s02"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: no face model for id 's02' ({models / 'face_s02.json'} "
        f"missing); run `train` first\n")
    assert "KeyError" not in captured.err
