"""Gabor wavelet filter bank, image convolution, and observation sampling.

A bank of complex kernels (default 5 frequencies x 8 orientations = 40)
is applied to a normalized image, and the response magnitudes at the
points of a regular grid form the observation vectors for mixture
modeling. sampled_responses computes the magnitudes at the grid points
only; convolve computes the full per-pixel field, from which downsample
keeps the same grid points.

Each kernel is a Gaussian-enveloped complex harmonic with the envelope-
weighted mean of the harmonic subtracted, so the kernel has exactly zero
response to a constant image. Envelope and harmonic both factor into an
x-factor times a y-factor, so build_bank samples 1-D factors and forms
all the taps from their outer products, in place, as one array. A
GaborBank is that read-only array with the GEMM operand sampled_responses
multiplies by, built once per bank rather than once per image. Both
routes take a response's magnitude with numpy's complex abs.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimensionMismatch, EmptyBank, InvalidParams


@dataclass(frozen=True)
class GaborParams:
    """Bank geometry. k_max is the peak frequency (radians/pixel) of scale 0;
    successive scales divide it by freq_spacing."""

    num_frequencies: int = 5
    num_orientations: int = 8
    k_max: float = math.pi / 2.0
    freq_spacing: float = math.sqrt(2.0)
    sigma: float = 2.0 * math.pi
    kernel_radius: int = 16

    def __post_init__(self):
        for key in ("num_frequencies", "num_orientations", "kernel_radius"):
            if getattr(self, key) < 1:
                raise InvalidParams(
                    f"{key} must be at least 1, got {getattr(self, key)}")
        # `not x > bound` also refuses NaN
        for key, bound in (("k_max", 0.0), ("sigma", 0.0),
                           ("freq_spacing", 1.0)):
            value = getattr(self, key)
            if not (value > bound and math.isfinite(value)):
                raise InvalidParams(
                    f"{key} must be finite and exceed {bound:g}, got {value}")


@dataclass(frozen=True, eq=False)
class GaborBank:
    """A bank's complex128 taps, (K, kh, kw) in channel order c = nu * O +
    mu, and the (kh*kw, 2K) float64 operand of sampled_responses' GEMM,
    both read-only. Column pair 2c, 2c + 1 of the operand holds kernel c's
    taps, flipped and raveled, as Re and Im: the complex (kh*kw, K) array
    of flipped taps viewed as float64. Taps that nothing can write, such
    as build_bank's (complex128, read-only down to the array that owns
    their memory), are taken as they are; any others are copied first, so
    the operand cannot go stale."""

    taps: np.ndarray

    def __post_init__(self):
        taps = base = self.taps
        while isinstance(base, np.ndarray) and not base.flags.writeable:
            base = base.base
        if base is not None or taps.dtype != np.complex128:
            taps = np.array(taps, dtype=np.complex128)
            taps.flags.writeable = False
            object.__setattr__(self, "taps", taps)
        if not taps.size:
            raise EmptyBank(f"a Gabor bank needs taps, got shape "
                            f"{taps.shape}")
        if taps.ndim != 3:
            raise ValueError(f"expected (kernels, height, width) taps, got "
                             f"shape {taps.shape}")
        # flipping both axes of a kernel reverses its raveled taps
        operand = np.ascontiguousarray(
            taps.reshape(len(taps), -1)[:, ::-1].T).view(np.float64)
        operand.flags.writeable = False
        object.__setattr__(self, "operand", operand)

    def __len__(self) -> int:
        return len(self.taps)


def build_bank(params: GaborParams) -> GaborBank:
    """Sample every (scale, orientation) kernel of the bank.

    Kernel (nu, mu) has center frequency k = k_max / freq_spacing**nu at
    orientation phi = pi * mu / num_orientations. From the 1-D Gaussian
    g(t) = exp(-k^2 t^2 / (2 sigma^2)), t = -r..r, and its harmonics
    hx = g exp(i k cos(phi) t) along x and hy = g exp(i k sin(phi) t)
    along y, the taps are (k^2 / sigma^2) (hy (x) hx - dc g (x) g) with
    dc = sum(hy) sum(hx) / sum(g)^2, the envelope-weighted mean of the
    harmonic: rows are y, columns x, and the sum of the taps is zero to
    machine precision. The taps array, read-only, becomes the returned
    bank's own, without a copy.
    """
    t = np.arange(-params.kernel_radius, params.kernel_radius + 1,
                  dtype=np.float64)
    k = params.k_max / params.freq_spacing ** np.arange(
        params.num_frequencies, dtype=np.float64)
    phi = math.pi * np.arange(params.num_orientations) \
        / params.num_orientations
    g = np.exp(np.multiply.outer(-k * k / (2.0 * params.sigma ** 2), t * t))
    # (scale, orientation, t) factors; axes -2/-1 of the taps are y/x
    hx, hy = (g[:, None, :] * np.exp(
        1j * np.multiply.outer(np.multiply.outer(k, trig(phi)), t))
        for trig in (np.cos, np.sin))
    total = g.sum(axis=1)[:, None]
    dc = hy.sum(axis=2) * hx.sum(axis=2) / (total * total)
    envelope = g[:, :, None] * g[:, None, :]
    # in place, with the docstring expression's operations in its order,
    # so the taps are its bits without its three temporaries
    taps = hy[..., :, None] * hx[..., None, :]
    taps -= dc[..., None, None] * envelope[:, None]
    np.multiply((k * k / params.sigma ** 2)[:, None, None, None], taps,
                out=taps)
    taps.flags.writeable = False
    return GaborBank(taps.reshape(-1, *taps.shape[2:]))


@lru_cache(maxsize=None)
def _fft_size(n: int) -> int:
    """Smallest 5-smooth integer >= n (keeps numpy FFTs fast)."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def _convolve_direct(padded, taps, out_shape):
    h, w = out_shape
    flipped = taps[::-1, ::-1]
    acc = np.zeros(out_shape, dtype=np.complex128)
    for u in range(taps.shape[0]):
        for v in range(taps.shape[1]):
            acc += flipped[u, v] * padded[u:u + h, v:v + w]
    return acc


def convolve(img: np.ndarray, bank: GaborBank,
             method: str = "fft") -> np.ndarray:
    """Complex-convolve img with every kernel; return magnitude planes.

    Output shape is (height, width, len(bank)). Boundaries are handled by
    symmetric reflection; the image is padded, and on the FFT route
    transformed, once for the whole bank. method selects the FFT or the
    direct route; the two agree within 1e-6 relative tolerance.
    """
    if method not in ("fft", "direct"):
        raise ValueError(f"unknown method {method!r}")
    a = np.asarray(img, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("expected a 2D grayscale image")
    h, w = a.shape
    kh, kw = bank.taps.shape[1:]

    padded = np.pad(a, ((kh // 2, kh // 2), (kw // 2, kw // 2)),
                    mode="symmetric")
    if method == "fft":
        fft_shape = (_fft_size(padded.shape[0] + kh - 1),
                     _fft_size(padded.shape[1] + kw - 1))
        padded_fft = np.fft.fft2(padded, fft_shape)
    out = np.empty((h, w, len(bank)), dtype=np.float64)
    for c, taps in enumerate(bank.taps):
        if method == "fft":
            full = np.fft.ifft2(padded_fft * np.fft.fft2(taps, fft_shape))
            resp = full[kh - 1:kh - 1 + h, kw - 1:kw - 1 + w]
        else:
            resp = _convolve_direct(padded, taps, (h, w))
        out[:, :, c] = np.abs(resp)
    return out


@dataclass(frozen=True)
class ObservationSet:
    """Feature vectors downsample kept from a response field.

    observations is (n, dim) float64; components are response magnitudes,
    hence nonnegative.
    """

    observations: np.ndarray

    def __len__(self) -> int:
        return self.observations.shape[0]


def downsample(field: np.ndarray, stride: int) -> ObservationSet:
    """Keep the channel vector at every (i*stride, j*stride) grid point.

    Yields ceil(height/stride) * ceil(width/stride) observations, scanned
    row-major.
    """
    if stride < 1:
        raise ValueError("stride must be at least 1")
    f = np.asarray(field, dtype=np.float64)
    if f.ndim != 3:
        raise ValueError("expected a (height, width, channels) response field")
    grid = f[::stride, ::stride, :]
    obs = grid.reshape(-1, f.shape[2]).copy()
    return ObservationSet(observations=obs)


# Upper bound on the window rows copied per GEMM in sampled_responses; at
# stride 1 the windows of a whole 220x200 image would take 383 MB.
_WINDOW_BLOCK_BYTES = 4 << 20


def sampled_responses(img: np.ndarray, bank: GaborBank,
                      stride: int) -> np.ndarray:
    """The (n, len(bank)) float64 response magnitudes of every kernel at
    the (i*stride, j*stride) grid points only.

    Equals downsample(convolve(img, bank), stride).observations up to
    float rounding: the same symmetric padding, the same observation
    count, row-major.
    Each grid point's window of the padded image is dotted with the flipped
    taps in one real GEMM, taken in blocks of grid rows, against the bank's
    operand, whose columns hold each kernel's Re and Im side by side. Each
    product row is then read as K complex responses, and numpy's complex
    abs gives the magnitudes.
    """
    if stride < 1:
        raise ValueError("stride must be at least 1")
    a = np.asarray(img, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("expected a 2D grayscale image")
    k, kh, kw = bank.taps.shape
    h, w = a.shape

    padded = np.pad(a, ((kh // 2, kh // 2), (kw // 2, kw // 2)),
                    mode="symmetric")
    windows = sliding_window_view(padded, (kh, kw))[:h:stride, :w:stride]
    grid_h, grid_w = windows.shape[:2]
    out = np.empty((grid_h, grid_w, k), dtype=np.float64)
    rows = max(1, _WINDOW_BLOCK_BYTES // (grid_w * kh * kw * 8))
    for top in range(0, grid_h, rows):
        block = windows[top:top + rows].reshape(-1, kh * kw)
        resp = block @ bank.operand
        np.abs(resp.view(np.complex128),
               out=out[top:top + rows].reshape(-1, k))
    return out.reshape(-1, k)


# ChannelScaler.fit's smallest std: a constant channel is not divided by 0
STD_FLOOR = 1e-6


@dataclass(frozen=True)
class ChannelScaler:
    """Per-channel standardization fitted on training observations.

    Mixtures with diagonal covariance are scale-sensitive, so observation
    channels are shifted to zero mean and unit variance before fitting.
    """

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, data: np.ndarray) -> "ChannelScaler":
        x = np.asarray(data, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] == 0:
            raise ValueError("need a nonempty (n, dim) observation matrix")
        return cls(mean=x.mean(axis=0),
                   std=np.maximum(x.std(axis=0), STD_FLOOR))

    def transform(self, data: np.ndarray) -> np.ndarray:
        x = np.asarray(data, dtype=np.float64)
        if x.shape[-1:] != self.mean.shape:
            raise DimensionMismatch(
                f"observations of shape {x.shape} do not match the "
                f"scaler's dim {self.mean.shape[0]}")
        return (x - self.mean) / self.std

    def to_dict(self) -> dict:
        return {"mean": self.mean.tolist(), "std": self.std.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "ChannelScaler":
        mean = np.asarray(d["mean"], dtype=np.float64)
        std = np.asarray(d["std"], dtype=np.float64)
        if mean.shape != std.shape or mean.ndim != 1 \
                or not np.all(np.isfinite(mean)) \
                or not np.all((std > 0) & np.isfinite(std)):
            raise ValueError("invalid scaler payload")
        return cls(mean=mean, std=std)
