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
each kernel's taps from their outer products, in place. The bank it
returns also holds the GEMM operand sampled_responses multiplies by,
built once per bank rather than once per image. Both routes take a
response's magnitude with numpy's complex abs.
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


@dataclass(frozen=True)
class GaborKernel:
    scale_index: int
    orientation_index: int
    taps: np.ndarray  # complex128, (2*radius+1, 2*radius+1)


def _gemm_operand(kernels) -> np.ndarray:
    """The (kh*kw, 2K) real operand of sampled_responses' GEMM: the
    complex128 (kh*kw, K) array whose column c holds kernel c's taps,
    flipped and raveled, viewed as float64, so columns 2c and 2c + 1 are
    kernel c's Re and Im. All kernels must have taps of one shape."""
    shapes = {kernel.taps.shape for kernel in kernels}
    if len(shapes) != 1:
        raise ValueError(f"kernel taps differ in shape: {sorted(shapes)}")
    flipped = np.stack([kernel.taps for kernel in kernels])[:, ::-1, ::-1]
    return np.ascontiguousarray(
        flipped.reshape(len(kernels), -1).T).view(np.float64)


class GaborBank(tuple):
    """The kernels of build_bank in channel order, c = nu * O + mu, with
    their GEMM operand (_gemm_operand) built once. Immutable, taps
    included, so the operand cannot go stale; a slice or any other
    sequence of kernels is a plain one, whose operand sampled_responses
    builds per call."""

    def __new__(cls, kernels):
        bank = super().__new__(cls, kernels)
        bank.operand = _gemm_operand(bank)
        return bank


def build_bank(params: GaborParams) -> GaborBank:
    """Sample every (scale, orientation) kernel of the bank.

    Kernel (nu, mu) has center frequency k = k_max / freq_spacing**nu at
    orientation phi = pi * mu / num_orientations. From the 1-D Gaussian
    g(t) = exp(-k^2 t^2 / (2 sigma^2)), t = -r..r, and its harmonics
    hx = g exp(i k cos(phi) t) along x and hy = g exp(i k sin(phi) t)
    along y, the taps are (k^2 / sigma^2) (hy (x) hx - dc g (x) g) with
    dc = sum(hy) sum(hx) / sum(g)^2, the envelope-weighted mean of the
    harmonic: rows are y, columns x, and the sum of the taps is zero to
    machine precision. The returned bank holds its GEMM operand too.
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
    return GaborBank(GaborKernel(nu, mu, taps[nu, mu])
                     for nu in range(params.num_frequencies)
                     for mu in range(params.num_orientations))


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


def _convolve_fft(padded_fft, fft_shape, taps, out_shape):
    kh, kw = taps.shape
    spectrum = padded_fft * np.fft.fft2(taps, fft_shape)
    full = np.fft.ifft2(spectrum)
    return full[kh - 1:kh - 1 + out_shape[0], kw - 1:kw - 1 + out_shape[1]]


def _convolve_direct(padded, taps, out_shape):
    h, w = out_shape
    flipped = taps[::-1, ::-1]
    acc = np.zeros(out_shape, dtype=np.complex128)
    for u in range(taps.shape[0]):
        for v in range(taps.shape[1]):
            acc += flipped[u, v] * padded[u:u + h, v:v + w]
    return acc


def convolve(img: np.ndarray, bank, method: str = "fft") -> np.ndarray:
    """Complex-convolve img with every kernel; return magnitude planes.

    Output shape is (height, width, len(bank)). Boundaries are handled by
    symmetric reflection. method selects the FFT or the direct route; the
    two agree within 1e-6 relative tolerance.
    """
    if not bank:
        raise EmptyBank("no kernels to convolve with")
    if method not in ("fft", "direct"):
        raise ValueError(f"unknown method {method!r}")
    a = np.asarray(img, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("expected a 2D grayscale image")
    h, w = a.shape

    out = np.empty((h, w, len(bank)), dtype=np.float64)
    pad_cache = {}
    for c, kernel in enumerate(bank):
        kh, kw = kernel.taps.shape
        ry, rx = kh // 2, kw // 2
        key = (ry, rx)
        if key not in pad_cache:
            padded = np.pad(a, ((ry, ry), (rx, rx)), mode="symmetric")
            if method == "fft":
                shape = (_fft_size(padded.shape[0] + kh - 1),
                         _fft_size(padded.shape[1] + kw - 1))
                pad_cache[key] = (padded, shape, np.fft.fft2(padded, shape))
            else:
                pad_cache[key] = (padded, None, None)
        padded, fft_shape, padded_fft = pad_cache[key]
        if method == "fft":
            resp = _convolve_fft(padded_fft, fft_shape, kernel.taps, (h, w))
        else:
            resp = _convolve_direct(padded, kernel.taps, (h, w))
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


def sampled_responses(img: np.ndarray, bank, stride: int) -> np.ndarray:
    """The (n, len(bank)) float64 response magnitudes of every kernel at
    the (i*stride, j*stride) grid points only.

    Equals downsample(convolve(img, bank), stride).observations up to
    float rounding: the same symmetric padding, the same observation
    count, row-major.
    Each grid point's window of the padded image is dotted with the flipped
    taps in one real GEMM, taken in blocks of grid rows, against an operand
    whose columns hold each kernel's Re and Im side by side: a GaborBank's
    own, or one built for this call from any other sequence of kernels,
    which must all have taps of one shape. Each product row is then read
    as K complex responses, and numpy's complex abs gives the magnitudes.
    """
    if not bank:
        raise EmptyBank("no kernels to convolve with")
    if stride < 1:
        raise ValueError("stride must be at least 1")
    a = np.asarray(img, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("expected a 2D grayscale image")
    taps = bank.operand if isinstance(bank, GaborBank) \
        else _gemm_operand(bank)
    kh, kw = bank[0].taps.shape
    h, w = a.shape
    k = len(bank)

    padded = np.pad(a, ((kh // 2, kh // 2), (kw // 2, kw // 2)),
                    mode="symmetric")
    windows = sliding_window_view(padded, (kh, kw))[:h:stride, :w:stride]
    grid_h, grid_w = windows.shape[:2]
    out = np.empty((grid_h, grid_w, k), dtype=np.float64)
    rows = max(1, _WINDOW_BLOCK_BYTES // (grid_w * kh * kw * 8))
    for top in range(0, grid_h, rows):
        block = windows[top:top + rows].reshape(-1, kh * kw)
        resp = block @ taps
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
