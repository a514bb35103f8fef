import itertools
import json
import math
import os
import random
import re
from dataclasses import replace

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import biofuse.pipeline as pipeline
from biofuse.atomic import read_json
from biofuse.cli import main
from biofuse.config import PipelineConfig
from biofuse.gabor import (ChannelScaler, GaborParams, build_bank,
                           sampled_responses)
from biofuse.errors import (BiofuseError, DimensionMismatch,
                            EmptyObservationSet, ModelFormatError)
from biofuse.gmm import (MIN_VARIANCE, GmmModel, MixtureStack, em_fit,
                        match_score, save_model)
from biofuse.pgm import write_pgm
from biofuse.pipeline import (MODALITIES, ModalityArtifacts,
                              image_observations, load_artifacts,
                              probe_score, save_artifacts, train_gallery)
from biofuse.preprocess import ManifestEntry
from conftest import EAR_MARKS, FACE_MARKS, grating_image

CONFIG = PipelineConfig(gabor=GaborParams(num_frequencies=1,
                                          num_orientations=2,
                                          kernel_radius=3), stride=5)
BANK = build_bank(CONFIG.gabor)


def _image(seed=0, shape=(30, 40)):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, shape, dtype=np.uint8)


def test_cache_key_covers_the_image_shape(tmp_path):
    # the same bytes read as 30x40 and as 40x30 are different images
    pixels = _image().ravel()
    cache = str(tmp_path / "cache")
    for shape in ((30, 40), (40, 30)):
        img = pixels.reshape(shape)
        got = image_observations(img, BANK, CONFIG, cache_dir=cache)
        want = sampled_responses(img, BANK, 5)
        assert np.array_equal(got, want)
    assert len(list((tmp_path / "cache").iterdir())) == 2


def test_hit_skips_the_convolution(tmp_path, monkeypatch):
    img = _image()
    cache = str(tmp_path / "cache")
    first = image_observations(img, BANK, CONFIG, cache_dir=cache)

    def no_convolve(*args, **kwargs):
        raise AssertionError("a cache hit must not convolve")

    monkeypatch.setattr(pipeline, "sampled_responses", no_convolve)
    hit = image_observations(img, BANK, CONFIG, cache_dir=cache)
    assert np.array_equal(hit, first)


@pytest.mark.parametrize("change", ["stride", "feature_version"])
def test_key_change_misses(tmp_path, monkeypatch, change):
    img = _image()
    cache = str(tmp_path / "cache")
    image_observations(img, BANK, CONFIG, cache_dir=cache)
    config = CONFIG
    if change == "stride":
        config = replace(CONFIG, stride=7)
    else:
        monkeypatch.setattr(pipeline, "FEATURE_VERSION",
                            pipeline.FEATURE_VERSION + 1)
    got = image_observations(img, BANK, config, cache_dir=cache)
    want = sampled_responses(img, BANK, config.stride)
    assert np.array_equal(got, want)
    assert len(list((tmp_path / "cache").iterdir())) == 2



def _random_model(rng, m=3, d=4):
    return GmmModel(rng.dirichlet(np.ones(m)), rng.normal(0.0, 1.0, (m, d)),
                    rng.uniform(0.3, 2.0, (m, d)))


def test_probe_score_scores_every_client_in_sorted_order():
    rng = np.random.default_rng(5)
    clients = {sid: _random_model(rng) for sid in ("carol", "alice", "bob")}
    background = _random_model(rng)
    scaler = ChannelScaler.fit(rng.normal(2.0, 3.0, (50, 4)))
    artifacts = ModalityArtifacts(clients, background, scaler, (0.0, 1.0))
    obs = rng.normal(2.0, 3.0, (30, 4))
    got = probe_score(artifacts, obs)
    want = [match_score(clients[sid], background, scaler.transform(obs))
            for sid in ("alice", "bob", "carol")]
    assert got.tolist() == want


def _outcome(score):
    """score()'s list of floats, or the type and text of what it raised."""
    try:
        return list(score())
    except (BiofuseError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       n_clients=st.integers(min_value=1, max_value=6),
       m=st.integers(min_value=1, max_value=5),
       d=st.integers(min_value=1, max_value=6),
       n=st.integers(min_value=1, max_value=60),
       offset=st.floats(min_value=0.0, max_value=1e3),
       defect=st.sampled_from([None, "empty", "dimension", "nan"]))
def test_probe_score_equals_match_score_per_client(seed, n_clients, m, d, n,
                                                   offset, defect):
    rng = np.random.default_rng(seed)
    clients = {f"s{i}": _random_model(rng, m, d)
               for i in rng.permutation(n_clients)}
    background = _random_model(rng, m, d)
    dim = d + 1 if defect == "dimension" else d
    scaler = ChannelScaler(mean=rng.normal(0.0, 5.0, dim),
                           std=rng.uniform(0.1, 3.0, dim))
    # up to 1e3 scaler standard deviations away from the scaler's mean
    shift = offset * rng.uniform(-1.0, 1.0, dim)
    obs = scaler.mean + scaler.std * (rng.normal(0.0, 1.0, (n, dim)) + shift)
    if defect == "empty":
        obs = obs[:0]
    elif defect == "nan":
        obs[rng.integers(n), rng.integers(dim)] = np.nan
    artifacts = ModalityArtifacts(clients, background, scaler, (0.0, 1.0))

    got = _outcome(lambda: probe_score(artifacts, obs))
    want = _outcome(lambda: [
        match_score(clients[sid], background, scaler.transform(obs))
        for sid in sorted(clients)])
    assert got == want
    if defect is None:
        assert isinstance(got, list)
    else:
        assert got[0] is {"empty": EmptyObservationSet,
                          "dimension": DimensionMismatch,
                          "nan": ValueError}[defect]
    if defect == "nan":
        assert re.search(r"row \d+ holds nan", got[1])


def test_mixtures_of_another_shape_cannot_be_stacked():
    rng = np.random.default_rng(4)
    scaler = ChannelScaler(mean=np.zeros(4), std=np.ones(4))
    for odd in (_random_model(rng, m=4), _random_model(rng, d=3)):
        artifacts = ModalityArtifacts({"alice": _random_model(rng),
                                       "bob": odd},
                                      _random_model(rng), scaler, (0.0, 1.0))
        with pytest.raises(ValueError, match="share their component count"):
            probe_score(artifacts, rng.normal(0.0, 1.0, (5, 4)))


def test_client_of_another_component_count_is_refused(tmp_path):
    rng = np.random.default_rng(3)
    scaler = ChannelScaler(mean=np.zeros(4), std=np.ones(4))
    stored = ModalityArtifacts({"alice": _random_model(rng)},
                               _random_model(rng), scaler, (0.0, 1.0),
                               "f" * 64)
    save_artifacts(str(tmp_path), {"face": stored}, CONFIG)
    path = tmp_path / "face_alice.json"
    save_model(_random_model(rng, m=4), str(path), "face", "alice")
    with pytest.raises(ModelFormatError, match=f"{path}: 4 components of "
                                               f"dim 4, but the background "
                                               f"has 3 of dim 4"):
        load_artifacts(str(tmp_path), "face", ["alice"], CONFIG)


def test_artifacts_without_a_fingerprint_are_not_saved(tmp_path):
    # artifacts built by hand may carry none; load_artifacts would refuse
    # a stats file holding "fingerprint": null
    rng = np.random.default_rng(6)
    scaler = ChannelScaler(mean=np.zeros(4), std=np.ones(4))
    stored = ModalityArtifacts({"alice": _random_model(rng)},
                               _random_model(rng), scaler, (0.0, 1.0),
                               "f" * 64)
    save_artifacts(str(tmp_path), {"face": stored}, CONFIG)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    unsaved = {"face": stored, "ear": replace(stored, fingerprint=None)}
    with pytest.raises(ValueError, match="ear artifacts carry no gallery "
                                         "fingerprint"):
        save_artifacts(str(tmp_path), unsaved, CONFIG)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    with pytest.raises(ValueError, match="ear artifacts"):
        save_artifacts(str(tmp_path / "new"), unsaved, CONFIG)
    assert not (tmp_path / "new").exists()


def _shuffled_gallery():
    """(entries, {image path: image}): subjects c, a and b with two
    gallery images and one probe per modality, the records shuffled
    across subjects."""
    entries, images = [], {}
    for k, (sid, modality, session) in enumerate(itertools.product(
            ("c", "a", "b"), MODALITIES, (1, 1, 2))):
        path = f"{sid}_{modality}_{k}.pgm"
        entries.append(ManifestEntry(path, modality, sid, session, None))
        images[path] = _image(k)
    random.Random(4).shuffle(entries)
    return entries, images


def _vstack_route(entries, images, modality):
    """(scaler, background, {sid: client}, every gallery image's matrix)
    fitted from per-image matrices the way the gallery was fitted before
    its observations became one block: pooled by np.vstack, each client
    on the vstack of its subject's images, each standardized on its
    own."""
    gallery = sorted((e for e in entries
                      if (e.session, e.modality) == (1, modality)),
                     key=lambda e: e.subject_id)
    by_subject = {}
    for e in gallery:
        by_subject.setdefault(e.subject_id, []).append(
            image_observations(images[e.image_path], BANK, CONFIG))
    matrices = [m for subject in by_subject.values() for m in subject]
    pooled = np.vstack(matrices)
    scaler = ChannelScaler.fit(pooled)
    seed_base = CONFIG.eval.seed + (0 if modality == "face" else 1_000_000)
    fits = [em_fit(scaler.transform(data),
                   replace(CONFIG.gmm[modality],
                           seed=pipeline._fit_seed(seed_base, i)))[0]
            for i, data in enumerate(
                [pooled, *map(np.vstack, by_subject.values())])]
    return scaler, fits[0], dict(zip(by_subject, fits[1:])), matrices


def _same_model(got, want):
    return all(getattr(got, name).tolist() == getattr(want, name).tolist()
               for name in ("weights", "means", "variances"))


def test_gallery_block_fits_as_the_per_image_matrices_did(monkeypatch):
    entries, images = _shuffled_gallery()
    scored = []  # what the calibration scores, in order
    score = MixtureStack.mean_log_likelihoods

    def recording(self, obs):
        scored.append(np.array(obs))
        return score(self, obs)

    monkeypatch.setattr(pipeline, "entry_image",
                        lambda e, config: images[e.image_path])
    with monkeypatch.context() as patch:
        patch.setattr(MixtureStack, "mean_log_likelihoods", recording)
        trained = train_gallery(entries, CONFIG, BANK)
    assert len(scored) == 12
    for modality, calibrated in zip(MODALITIES, (scored[:6], scored[6:])):
        scaler, background, clients, matrices = _vstack_route(
            entries, images, modality)
        got = trained[modality]
        assert got.scaler.mean.tolist() == scaler.mean.tolist()
        assert got.scaler.std.tolist() == scaler.std.tolist()
        assert _same_model(got.background, background)
        assert list(got.clients) == ["a", "b", "c"]
        for sid, client in clients.items():
            assert _same_model(got.clients[sid], client), (modality, sid)
        assert [m.tolist() for m in calibrated] == [
            scaler.transform(m).tolist() for m in matrices]
        scores = np.concatenate([probe_score(got, m) for m in matrices])
        assert got.calibration == (scores.min(), scores.max())


def test_gallery_is_standardized_once_per_modality_trained(
        tmp_path, monkeypatch):
    entries, images = _shuffled_gallery()
    shapes = []
    transform = ChannelScaler.transform

    def counting(self, data):
        shapes.append(np.shape(data))
        return transform(self, data)

    def train():
        shapes.clear()
        return train_gallery(entries, CONFIG, BANK, model_dir=str(tmp_path))

    monkeypatch.setattr(pipeline, "entry_image",
                        lambda e, config: images[e.image_path])
    monkeypatch.setattr(ChannelScaler, "transform", counting)
    trained = train()  # nothing stored: both modalities are fitted
    # once each, as the (6 images, n, dim) block
    assert [shape[0] for shape in shapes] == [6, 6]
    assert all(len(shape) == 3 for shape in shapes)
    save_artifacts(str(tmp_path), trained, CONFIG)
    train()  # both served from model_dir
    assert shapes == []
    os.remove(tmp_path / "ear_stats.json")
    train()
    assert [shape[0] for shape in shapes] == [6]


def _artifacts(rng, *ids):
    scaler = ChannelScaler(mean=np.zeros(4), std=np.ones(4))
    return ModalityArtifacts({sid: _random_model(rng) for sid in ids},
                             _random_model(rng), scaler, (0.0, 1.0),
                             "f" * 64)


def test_models_of_a_subject_left_out_are_removed(tmp_path):
    rng = np.random.default_rng(8)
    save_artifacts(str(tmp_path), {"face": _artifacts(rng, "a", "b", "c"),
                                   "ear": _artifacts(rng, "a", "b", "c")},
                   CONFIG)
    (tmp_path / "face_d.json").write_text("not listed")
    save_artifacts(str(tmp_path), {"face": _artifacts(rng, "a", "c")},
                   CONFIG)
    # the ear stats still vouch for ear_b.json; no stats listed face_d.json
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "ear_a.json", "ear_b.json", "ear_background.json", "ear_c.json",
        "ear_stats.json", "face_a.json", "face_background.json",
        "face_c.json", "face_d.json", "face_stats.json"]
    load_artifacts(str(tmp_path), "face", ["a", "c"], CONFIG)
    load_artifacts(str(tmp_path), "ear", ["a", "b", "c"], CONFIG)


@pytest.mark.parametrize("stats", [
    "{", "[]", "{}", '{"model_sha256": ["b"]}', '{"model_sha256": "b"}',
    '{"model_sha256": {"b": "x", "../face_b": "x"}}',
    # the written document, still listing face_b.json, with one field
    # that load_artifacts refuses
    pytest.param({"format_version": 3}, id="format-3"),
    pytest.param({"modality": "ear"}, id="ear-stats"),
    pytest.param({"scaler": {"mean": [0.0] * 4, "std": [0.0] * 4}},
                 id="zero-std-scaler"),
    pytest.param({"calibration": [0.0, math.inf]}, id="infinite-calibration"),
    pytest.param({"fingerprint": None}, id="null-fingerprint")])
def test_nothing_is_removed_on_the_word_of_an_unreadable_stats_file(
        tmp_path, stats):
    rng = np.random.default_rng(9)
    save_artifacts(str(tmp_path), {"face": _artifacts(rng, "a", "b")},
                   CONFIG)
    path = tmp_path / "face_stats.json"
    if isinstance(stats, dict):
        stats = json.dumps({**json.loads(path.read_text()), **stats})
    path.write_text(stats)
    with pytest.raises(ValueError, match="face_stats.json: bad stats "
                                         "document"):
        load_artifacts(str(tmp_path), "face", ["a", "b"], CONFIG)
    save_artifacts(str(tmp_path), {"face": _artifacts(rng, "a")}, CONFIG)
    assert (tmp_path / "face_b.json").exists()


def _awkward(rng, shape):
    """float64 values whose shortest repr needs all 17 digits, spread over
    600 decades, with a subnormal among them."""
    x = rng.random(shape) * 10.0 ** rng.integers(-300, 300, shape)
    x.flat[0] = 5e-324
    return x


def test_model_and_stats_files_round_trip_bit_exactly(tmp_path):
    rng = np.random.default_rng(11)
    weights = rng.dirichlet(np.ones(3))
    # a mixture's smallest variance, MIN_VARIANCE, is itself subnormal
    models = {sid: GmmModel(weights, _awkward(rng, (3, 4)) - 1e-3,
                            np.maximum(_awkward(rng, (3, 4)), MIN_VARIANCE))
              for sid in ("alice", "background")}
    scaler = ChannelScaler(mean=_awkward(rng, 4) - 0.5,
                           std=_awkward(rng, 4))
    stored = ModalityArtifacts({"alice": models["alice"]},
                               models["background"], scaler,
                               (0.1 + 0.2, 1.0 / 3.0), "f" * 64)
    save_artifacts(str(tmp_path), {"ear": stored}, CONFIG)
    loaded = load_artifacts(str(tmp_path), "ear", ["alice"], CONFIG)

    def bits(artifacts):
        return [a.tobytes() for m in (*artifacts.clients.values(),
                                      artifacts.background)
                for a in (m.weights, m.means, m.variances)] + [
            artifacts.scaler.mean.tobytes(), artifacts.scaler.std.tobytes(),
            np.array(artifacts.calibration).tobytes()]

    assert bits(loaded) == bits(stored)
    assert loaded.fingerprint == stored.fingerprint


def _typed(doc):
    """doc with every float replaced by its repr and every value tagged
    with its type, so that == compares types, -0.0 and every bit."""
    if isinstance(doc, dict):
        return {key: _typed(value) for key, value in doc.items()}
    if isinstance(doc, list):
        return [_typed(value) for value in doc]
    return type(doc).__name__, repr(doc) if isinstance(doc, float) else doc


def test_orjson_reads_every_file_of_a_trained_gallery_as_json_does(
        tmp_path):
    # 16 subjects, as many as the enroll benchmark trains, one gallery
    # image per subject and modality
    records = []
    for i in range(16):
        for j, (modality, marks) in enumerate((("face", FACE_MARKS),
                                               ("ear", EAR_MARKS))):
            path = str(tmp_path / f"s{i:02d}_{modality}.pgm")
            write_pgm(grating_image((i + 0.5 * j) * math.pi / 16, 0.0,
                                    2 * i + j), path)
            records.append({"image_path": path, "modality": modality,
                            "subject_id": f"s{i:02d}", "session": 1,
                            "landmarks": marks})
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(records))
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(f"[paths]\nmanifest = {manifest}\n"
                   f"model_dir = {tmp_path / 'models'}\n"
                   f"output_dir = {tmp_path / 'out'}\n")
    assert main(["--config", str(cfg), "train"]) == 0
    names = sorted(os.listdir(tmp_path / "models"))
    assert len(names) == 2 * (16 + 2)
    for name in names:
        data = (tmp_path / "models" / name).read_bytes()
        want = _typed(json.loads(data.decode("utf-8")))
        assert _typed(orjson.loads(data)) == want, name
        assert _typed(read_json(data)) == want, name
