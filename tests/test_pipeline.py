from dataclasses import replace

import numpy as np
import pytest

import biofuse.pipeline as pipeline
from biofuse.config import PipelineConfig
from biofuse.gabor import (ChannelScaler, GaborParams, build_bank,
                           sampled_responses)
from biofuse.gmm import GmmModel, match_score
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
        assert np.array_equal(got.observations, want.observations)
    assert len(list((tmp_path / "cache").iterdir())) == 2


def test_hit_skips_the_convolution(tmp_path, monkeypatch):
    img = _image()
    cache = str(tmp_path / "cache")
    first = image_observations(img, BANK, CONFIG, cache_dir=cache)

    def no_convolve(*args, **kwargs):
        raise AssertionError("a cache hit must not convolve")

    monkeypatch.setattr(pipeline, "sampled_responses", no_convolve)
    hit = image_observations(img, BANK, CONFIG, cache_dir=cache)
    assert np.array_equal(hit.observations, first.observations)
    assert hit.stride == CONFIG.stride


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
    assert np.array_equal(got.observations, want.observations)
    assert got.stride == config.stride
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


def _awkward(rng, shape):
    """float64 values whose shortest repr needs all 17 digits, spread over
    600 decades, with a subnormal among them."""
    x = rng.random(shape) * 10.0 ** rng.integers(-300, 300, shape)
    x.flat[0] = 5e-324
    return x


def test_model_and_stats_files_round_trip_bit_exactly(tmp_path):
    rng = np.random.default_rng(11)
    weights = rng.dirichlet(np.ones(3))
    models = {sid: GmmModel(weights, _awkward(rng, (3, 4)) - 1e-3,
                            _awkward(rng, (3, 4)))
              for sid in ("alice", "background")}
    scaler = ChannelScaler(mean=_awkward(rng, 4) - 0.5,
                           std=_awkward(rng, 4))
    stored = ModalityArtifacts({"alice": models["alice"]},
                               models["background"], scaler,
                               (0.1 + 0.2, 1.0 / 3.0), "f" * 64)
    save_artifacts(str(tmp_path), {"ear": stored})
    loaded = load_artifacts(str(tmp_path), "ear", ["alice"])

    def bits(artifacts):
        return [a.tobytes() for m in (*artifacts.clients.values(),
                                      artifacts.background)
                for a in (m.weights, m.means, m.variances)] + [
            artifacts.scaler.mean.tobytes(), artifacts.scaler.std.tobytes(),
            np.array(artifacts.calibration).tobytes()]

    assert bits(loaded) == bits(stored)
    assert loaded.fingerprint == stored.fingerprint
