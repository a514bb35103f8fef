import math
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from hypothesis import given, settings
from hypothesis import strategies as st

import biofuse.gabor as gabor
from biofuse.errors import EmptyBank, InvalidParams
from biofuse.gabor import (ChannelScaler, GaborBank, GaborParams,
                           build_bank, convolve, downsample,
                           sampled_responses)


@pytest.fixture(scope="module")
def default_bank():
    return build_bank(GaborParams())


def _build_bank_reference(params):
    """build_bank as it was before the separable build: one 2-D complex
    exp per kernel, over the meshgrid of the support."""
    r = params.kernel_radius
    coords = np.arange(-r, r + 1, dtype=np.float64)
    xs, ys = np.meshgrid(coords, coords)  # xs varies along columns
    rsq = xs * xs + ys * ys

    kernels = []
    for nu in range(params.num_frequencies):
        k = params.k_max / params.freq_spacing ** nu
        envelope = (k * k / (params.sigma ** 2)) * np.exp(
            -k * k * rsq / (2.0 * params.sigma ** 2))
        env_total = envelope.sum()
        for mu in range(params.num_orientations):
            phi = math.pi * mu / params.num_orientations
            harmonic = np.exp(1j * k * (xs * math.cos(phi) + ys * math.sin(phi)))
            dc = np.sum(envelope * harmonic) / env_total
            taps = envelope * (harmonic - dc)
            kernels.append(taps)
    return GaborBank(np.stack(kernels))


# the default bank, and 3 scales x 6 orientations on a radius-8 support
BANK_PARAMS = [GaborParams(), GaborParams(num_frequencies=3,
                                          num_orientations=6,
                                          kernel_radius=8)]


class TestSeparableBank:
    """build_bank from 1-D factors against the 2-D reference. The two
    differ in rounding only: measured, the largest |delta tap| of a
    kernel is 1.05e-15 of its largest |tap| (0.94e-15 for the 3 x 6
    bank), and features differ by at most 1.36e-15 of the largest
    feature; both bounds below are 5e-15."""

    @pytest.mark.parametrize("params", BANK_PARAMS, ids=["5x8", "3x6"])
    def test_taps_agree_with_reference(self, params):
        bank = build_bank(params)
        reference = _build_bank_reference(params)
        assert bank.taps.shape == reference.taps.shape
        for c, (got, want) in enumerate(zip(bank.taps, reference.taps)):
            rel = np.max(np.abs(got - want)) / np.max(np.abs(want))
            assert rel <= 5e-15, (c, rel)

    @pytest.mark.parametrize("params", BANK_PARAMS, ids=["5x8", "3x6"])
    @pytest.mark.parametrize("stride", [1, 7, 10])
    def test_features_agree_with_reference_bank(self, params, stride):
        img = np.random.default_rng(21).integers(
            0, 256, (220, 200)).astype(np.uint8)
        got = sampled_responses(img, build_bank(params), stride)
        want = sampled_responses(img, _build_bank_reference(params), stride)
        rel = np.max(np.abs(got - want)) / np.max(want)
        assert rel <= 5e-15, rel

    @pytest.mark.parametrize("stride", [1, 7, 10])
    def test_plain_sequences_give_the_same_features(self, default_bank,
                                                    stride):
        # a bank of a slice of the taps, or of a writable copy of them,
        # gets its operand from the same code; its channels equal the
        # whole bank's, bit for bit
        img = np.random.default_rng(22).integers(
            0, 256, (220, 200)).astype(np.uint8)
        whole = sampled_responses(img, default_bank, stride)
        sliced = sampled_responses(img, GaborBank(default_bank.taps[::10]),
                                   stride)
        assert np.array_equal(sliced, whole[:, ::10])
        plain = sampled_responses(img, GaborBank(np.array(default_bank.taps)),
                                  stride)
        assert np.array_equal(plain, whole)

    def test_operand_is_built_once_per_bank(self):
        # built once, in the constructor, as the one array the bank holds:
        # the taps are a read-only view of it. sampled_responses multiplies
        # by the bank's own operand and forms none from the taps, so
        # doubling that operand doubles every magnitude, exactly
        bank = build_bank(GaborParams(num_frequencies=2))
        assert bank.operand.shape == (33 * 33, 2 * 16)
        assert np.shares_memory(bank.taps, bank.operand)
        assert not bank.taps.flags.writeable
        assert not bank.operand.flags.writeable
        img = np.random.default_rng(23).random((12, 10))
        want = {stride: sampled_responses(img, bank, stride)
                for stride in (3, 5)}
        object.__setattr__(bank, "operand", 2.0 * bank.operand)
        for stride, features in want.items():
            assert np.array_equal(sampled_responses(img, bank, stride),
                                  2.0 * features)

    def test_bank_and_taps_are_immutable(self, default_bank):
        # the operand was built from these taps, so they may not change
        with pytest.raises(ValueError, match="read-only"):
            default_bank.taps[0, 0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            default_bank.operand[0, 0] = 1.0
        for name in ("taps", "operand"):
            with pytest.raises(AttributeError):
                setattr(default_bank, name, getattr(default_bank, name)[:1])

    def test_taps_that_could_change_are_copied(self, default_bank):
        # every bank copies its taps: another bank's read-only view, a
        # writable array, and a read-only view of one
        bank = GaborBank(default_bank.taps)
        assert np.array_equal(bank.taps, default_bank.taps)
        assert not bank.taps.flags.writeable
        assert not np.shares_memory(bank.taps, default_bank.taps)
        writable = np.array(default_bank.taps[:2])
        view = writable.view()
        view.flags.writeable = False
        banks = [GaborBank(writable), GaborBank(view)]
        writable[:] = 0.0
        for bank in banks:
            assert not np.shares_memory(bank.taps, writable)
            assert np.array_equal(bank.taps, default_bank.taps[:2])
            assert np.array_equal(bank.operand, GaborBank(
                default_bank.taps[:2]).operand)
        # and 1x1 kernels, whose flipped, transposed view is already
        # contiguous
        taps = np.arange(3, dtype=np.complex128).reshape(3, 1, 1)
        bank = GaborBank(taps)
        assert not np.shares_memory(bank.operand, taps)
        taps[:] = 7.0
        assert np.array_equal(bank.taps.ravel(), [0.0, 1.0, 2.0])


def _split_operand(bank):
    """The GEMM operand of feature version 3: [Re | Im], the K real
    columns and then the K imaginary ones."""
    flipped = bank.taps[:, ::-1, ::-1]
    flipped = flipped.reshape(len(bank), -1)
    return np.ascontiguousarray(
        np.concatenate([flipped.real, flipped.imag]).T)


def _window_blocks(img, bank, stride):
    """The blocks of windows sampled_responses multiplies, in its order."""
    kh, kw = bank.taps.shape[1:]
    a = np.asarray(img, dtype=np.float64)
    padded = np.pad(a, ((kh // 2, kh // 2), (kw // 2, kw // 2)),
                    mode="symmetric")
    windows = sliding_window_view(padded, (kh, kw))[
        :a.shape[0]:stride, :a.shape[1]:stride]
    rows = max(1, gabor._WINDOW_BLOCK_BYTES
               // (windows.shape[1] * kh * kw * 8))
    for top in range(0, windows.shape[0], rows):
        yield windows[top:top + rows].reshape(-1, kh * kw)


def _hypot_responses(img, bank, stride):
    """sampled_responses as feature version 3 computed it: np.hypot of
    the [Re | Im] halves of each block's product."""
    operand = _split_operand(bank)
    k = len(bank)
    return np.concatenate([
        np.hypot(resp[:, :k], resp[:, k:])
        for resp in (block @ operand
                     for block in _window_blocks(img, bank, stride))])


class TestComplexMagnitude:
    """The operand with each kernel's Re and Im columns side by side and
    numpy's complex abs, against feature version 3's [Re | Im] operand and
    np.hypot. The GEMM's columns are the same bits; measured, about 35% of
    the magnitudes move, by at most 2 ulp at either bank and every stride
    below, the bound the features are held to."""

    @pytest.mark.parametrize("params", BANK_PARAMS, ids=["5x8", "3x6"])
    @pytest.mark.parametrize("stride", [1, 7, 10])
    def test_gemm_columns_equal_the_split_operands(self, params, stride):
        img = np.random.default_rng(24).integers(
            0, 256, (220, 200)).astype(np.uint8)
        bank = build_bank(params)
        k = len(bank)
        split = _split_operand(bank)
        assert bank.operand.shape == split.shape
        assert bank.operand.flags.c_contiguous
        for block in _window_blocks(img, bank, stride):
            got, want = block @ bank.operand, block @ split
            assert np.array_equal(got[:, 0::2], want[:, :k])
            assert np.array_equal(got[:, 1::2], want[:, k:])

    @pytest.mark.parametrize("params", BANK_PARAMS, ids=["5x8", "3x6"])
    @pytest.mark.parametrize("stride", [1, 7, 10])
    def test_features_within_2_ulp_of_hypot(self, params, stride):
        img = np.random.default_rng(24).integers(
            0, 256, (220, 200)).astype(np.uint8)
        bank = build_bank(params)
        got = sampled_responses(img, bank, stride)
        want = _hypot_responses(img, bank, stride)
        assert got.shape == want.shape
        ulps = np.abs(got - want) / np.spacing(np.maximum(got, want))
        assert ulps.max() <= 2, ulps.max()


class TestBank:
    def test_default_bank_has_40_kernels(self, default_bank):
        assert len(default_bank) == 40
        assert default_bank.taps.shape == (40, 33, 33)
        assert default_bank.taps.dtype == np.complex128
        assert default_bank.operand.shape == (33 * 33, 80)

    def test_kernels_are_dc_free(self, default_bank):
        for taps in default_bank.taps:
            assert abs(taps.sum()) <= 1e-6 * np.abs(taps).sum()

    def test_single_kernel_dft_peaks_at_center_frequency(self):
        # k_max = pi/2 -> 0.25 cycles/pixel -> bin 32 of a 128-point DFT
        params = GaborParams(num_frequencies=1, num_orientations=1)
        (taps,) = build_bank(params).taps
        spectrum = np.abs(np.fft.fft2(taps, (128, 128)))
        peak = np.unravel_index(np.argmax(spectrum), spectrum.shape)
        assert peak == (0, 32)

    def test_scale_spacing(self):
        bank = build_bank(GaborParams())
        # scale nu=2 kernel oscillates at k_max/2: bin 16 of 128; its
        # orientation-0 kernel is channel nu * 8 + mu = 16
        spectrum = np.abs(np.fft.fft2(bank.taps[16], (128, 128)))
        peak = np.unravel_index(np.argmax(spectrum), spectrum.shape)
        assert peak == (0, 16)

    @pytest.mark.parametrize("bad", [
        dict(freq_spacing=0.5),
        dict(freq_spacing=1.0),
        dict(num_frequencies=0),
        dict(num_orientations=0),
        dict(k_max=-1.0),
        dict(sigma=0.0),
        dict(kernel_radius=0),
        dict(sigma=math.nan),
        dict(k_max=math.inf),
        dict(k_max=math.nan),
        dict(freq_spacing=math.nan),
        dict(freq_spacing=math.inf),
    ])
    def test_invalid_params(self, bad):
        with pytest.raises(InvalidParams):
            build_bank(GaborParams(**bad))


class TestConvolve:
    def test_response_count_at_canonical_size(self, default_bank):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, (220, 200)).astype(np.uint8)
        field = convolve(img, default_bank)
        assert field.shape == (220, 200, 40)
        assert field.size == 1_760_000

    def test_constant_image_gives_zero_response(self, default_bank):
        img = np.full((64, 64), 128, dtype=np.uint8)
        field = convolve(img, default_bank)
        assert float(field.max()) <= 1e-6

    def test_impulse_reproduces_kernel_magnitude(self, default_bank):
        img = np.zeros((64, 64))
        img[32, 32] = 1.0
        resp = convolve(img, GaborBank(default_bank.taps[:1]))[:, :, 0]
        patch = resp[32 - 16:32 + 17, 32 - 16:32 + 17]
        assert np.allclose(patch, np.abs(default_bank.taps[0]), atol=1e-9)

    def test_empty_bank(self):
        # an empty bank never reaches convolve: making one raises
        with pytest.raises(EmptyBank):
            convolve(np.zeros((8, 8)), GaborBank(np.empty((0, 33, 33))))

    def test_fft_and_direct_paths_agree(self, default_bank):
        rng = np.random.default_rng(42)
        subset = GaborBank(default_bank.taps[[0, 17, 39]])
        for _ in range(3):
            img = rng.integers(0, 256, (32, 32)).astype(np.uint8)
            via_fft = convolve(img, subset, method="fft")
            via_direct = convolve(img, subset, method="direct")
            rel = np.max(np.abs(via_fft - via_direct)) / np.max(np.abs(via_direct))
            assert rel <= 1e-6

    def test_magnitudes_scale_linearly(self, default_bank):
        rng = np.random.default_rng(5)
        img = rng.random((40, 40))
        first4 = GaborBank(default_bank.taps[:4])
        base = convolve(img, first4)
        scaled = convolve(3.5 * img, first4)
        assert np.allclose(scaled, 3.5 * base, rtol=1e-9, atol=1e-12)

    def test_rotating_grating_shifts_orientation_channel(self, default_bank):
        # gratings at pi*mu/8 excite orientation channel mu of scale 1;
        # rotating the grating by pi/8 advances the dominant index by one
        freq = (math.pi / 2.0) / math.sqrt(2.0)  # scale-1 center frequency
        scale1 = GaborBank(default_bank.taps[8:16])  # c = nu * 8 + mu

        def dominant(theta):
            ys, xs = np.mgrid[0:80, 0:80]
            img = 128.0 + 80.0 * np.cos(
                freq * (xs * math.cos(theta) + ys * math.sin(theta)))
            field = convolve(img, scale1)
            return int(np.argmax(field[40, 40, :]))

        for mu in range(8):
            theta = math.pi * mu / 8.0
            assert dominant(theta) == mu
            assert dominant(theta + math.pi / 8.0) == (mu + 1) % 8


class TestDownsample:
    def test_counts_match_ceil_arithmetic(self):
        rng = np.random.default_rng(1)
        field = rng.random((220, 200, 40))
        assert len(downsample(field, 1)) == 44_000
        assert len(downsample(field, 20)) == 110  # 11 * 10
        assert len(downsample(field, 500)) == 1

    def test_values_come_from_grid_points(self):
        field = np.arange(5 * 6 * 2, dtype=float).reshape(5, 6, 2)
        obs = downsample(field, 2)
        assert obs.observations.shape == (9, 2)
        assert np.array_equal(obs.observations[0], field[0, 0])
        assert np.array_equal(obs.observations[1], field[0, 2])
        assert np.array_equal(obs.observations[3], field[2, 0])

    @settings(max_examples=30, deadline=None)
    @given(h=st.integers(1, 25), w=st.integers(1, 25), stride=st.integers(1, 30))
    def test_count_formula(self, h, w, stride):
        field = np.zeros((h, w, 3))
        expected = math.ceil(w / stride) * math.ceil(h / stride)
        assert len(downsample(field, stride)) == expected

    def test_observations_nonnegative(self, default_bank):
        rng = np.random.default_rng(2)
        img = rng.integers(0, 256, (40, 40)).astype(np.uint8)
        obs = downsample(convolve(img, GaborBank(default_bank.taps[:5])), 7)
        assert np.all(obs.observations >= 0.0)

    def test_invalid_stride(self):
        with pytest.raises(ValueError):
            downsample(np.zeros((4, 4, 1)), 0)


class TestSampledResponses:
    @pytest.fixture(scope="class")
    def references(self, default_bank):
        """(img, bank, convolve(img, bank, method)) for every shape, bank
        and route, except the slow direct route of 40 kernels at 220x200.
        A Gabor kernel rotated by 180 degrees is its conjugate, which gives
        the same magnitudes, so random taps pin the flip as well."""
        rng = np.random.default_rng(11)
        noise = GaborBank(np.stack([rng.normal(size=(7, 7))
                                    + 1j * rng.normal(size=(7, 7))
                                    for _ in (0, 1)]))
        refs = []
        for shape in ((220, 200), (37, 23), (5, 4)):
            img = rng.integers(0, 256, shape).astype(np.uint8)
            for bank in (default_bank, GaborBank(default_bank.taps[::10]),
                         noise):
                for method in ("fft", "direct"):
                    if method == "direct" and img.size * len(bank) > 1e6:
                        continue
                    refs.append((img, bank, convolve(img, bank, method)))
        return refs

    @pytest.mark.parametrize("stride", [1, 3, 7, 10])
    def test_agrees_with_downsampled_convolution(self, references, stride):
        # rounding differs only; a wrong flip or offset is off by O(1)
        for img, bank, field in references:
            want = downsample(field, stride)
            got = sampled_responses(img, bank, stride)
            assert got.shape == want.observations.shape
            diff = np.max(np.abs(got - want.observations))
            assert diff <= 1e-10 * np.max(want.observations), \
                (img.shape, len(bank), stride, diff)

    def test_empty_bank(self):
        # an empty bank never reaches sampled_responses: making one raises
        with pytest.raises(EmptyBank):
            sampled_responses(np.zeros((8, 8)), GaborBank(np.empty((0, 7, 7))),
                              1)

    def test_rejects_a_3d_image(self, default_bank):
        with pytest.raises(ValueError, match="2D"):
            sampled_responses(np.zeros((8, 8, 3)),
                              GaborBank(default_bank.taps[:1]), 1)

    def test_rejects_taps_of_mixed_shapes(self, default_bank):
        # the constructor refuses taps that are not one (K, kh, kw) array:
        # kernels of two shapes, a single kernel's 2-D taps, or no taps
        small = default_bank.taps[0, 1:-1, 1:-1]
        with pytest.raises(ValueError):
            GaborBank([default_bank.taps[0], small])
        with pytest.raises(ValueError, match=r"\(kernels, height, width\)"):
            GaborBank(default_bank.taps[0])
        for empty in ([], np.empty((0, 33, 33)), np.empty((2, 0, 33))):
            with pytest.raises(EmptyBank):
                GaborBank(empty)

    @pytest.mark.parametrize("stride", [0, -1])
    def test_invalid_stride(self, default_bank, stride):
        with pytest.raises(ValueError, match="stride must be at least 1"):
            sampled_responses(np.zeros((8, 8)),
                              GaborBank(default_bank.taps[:1]), stride)

    def test_stride_1_memory_is_bounded(self, default_bank):
        # unblocked, the 220x200 windows alone would take 383 MB
        img = np.random.default_rng(12).random((220, 200))
        tracemalloc.start()
        try:
            sampled_responses(img, GaborBank(default_bank.taps[:2]), 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestChannelScaler:
    def test_standardizes_training_data(self):
        rng = np.random.default_rng(3)
        data = rng.normal(5.0, 2.0, (500, 4))
        scaler = ChannelScaler.fit(data)
        out = scaler.transform(data)
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(out.std(axis=0), 1.0, atol=1e-12)

    def test_constant_channel_floored(self):
        data = np.ones((10, 2))
        scaler = ChannelScaler.fit(data)
        assert np.all(scaler.std > 0)
        assert np.all(np.isfinite(scaler.transform(data)))

    def test_dict_roundtrip(self):
        scaler = ChannelScaler.fit(np.random.default_rng(4).random((20, 3)))
        clone = ChannelScaler.from_dict(scaler.to_dict())
        assert np.array_equal(clone.mean, scaler.mean)
        assert np.array_equal(clone.std, scaler.std)

    @pytest.mark.parametrize("key, value", [
        ("mean", math.nan), ("mean", math.inf), ("std", math.nan),
        ("std", math.inf), ("std", 0.0)])
    def test_from_dict_rejects_non_finite_values(self, key, value):
        payload = {"mean": [0.0, 1.0], "std": [1.0, 2.0]}
        payload[key][1] = value
        with pytest.raises(ValueError, match="invalid scaler payload"):
            ChannelScaler.from_dict(payload)
