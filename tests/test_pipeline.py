import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import biofuse.pipeline as pipeline
from biofuse.config import PipelineConfig
from biofuse.gabor import (ChannelScaler, GaborParams, build_bank,
                           sampled_responses)
from biofuse.errors import (BiofuseError, DimensionMismatch,
                            EmptyObservationSet, ModelFormatError)
from biofuse.gmm import MIN_VARIANCE, GmmModel, match_score, save_model
from biofuse.pipeline import (ModalityArtifacts, image_observations,
                              load_artifacts, probe_score, save_artifacts)

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
    '{"model_sha256": {"b": "x", "../face_b": "x"}}'])
def test_nothing_is_removed_on_the_word_of_an_unreadable_stats_file(
        tmp_path, stats):
    rng = np.random.default_rng(9)
    save_artifacts(str(tmp_path), {"face": _artifacts(rng, "a", "b")},
                   CONFIG)
    (tmp_path / "face_stats.json").write_text(stats)
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
