import numpy as np

from biofuse.gabor import GaborParams, build_bank, convolve, downsample
from biofuse.pipeline import image_observations

PARAMS = GaborParams(num_frequencies=1, num_orientations=2, kernel_radius=3)


def test_cache_key_covers_the_image_shape(tmp_path):
    # the same bytes read as 30x40 and as 40x30 are different images
    bank = build_bank(PARAMS)
    pixels = np.random.default_rng(0).integers(0, 256, 1200, dtype=np.uint8)
    cache = str(tmp_path / "cache")
    for shape in ((30, 40), (40, 30)):
        img = pixels.reshape(shape)
        got = image_observations(img, bank, 5, params=PARAMS, cache_dir=cache)
        want = downsample(convolve(img, bank), 5)
        assert np.array_equal(got.observations, want.observations)
    assert len(list((tmp_path / "cache").iterdir())) == 2
