"""Diagonal-covariance Gaussian mixture models fitted with EM.

The mixture density is p(x) = sum_m w_m N(x; mu_m, diag(var_m)). Fitting
alternates an E-step (posterior responsibilities) with an M-step
(responsibility-weighted parameter updates); the data log-likelihood is
nondecreasing across iterations. The k-means initialisation is the same
M-step applied to hard (one-hot) cluster assignments. Per-image match
scores are average log-likelihood ratios against a pooled background
model; MixtureStack scores one image against many mixtures at once.
"""

import functools
import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .atomic import write_json
from .errors import (DimensionMismatch, EmptyObservationSet, ModelFormatError,
                     NumericalCollapse, TooFewObservations)

MODEL_FORMAT_VERSION = 1
# the fit's arithmetic: bumped whenever a change moves the float rounding of
# fitted models, so that galleries trained before it are fitted again
FIT_VERSION = 3

_LOG_2PI = math.log(2.0 * math.pi)
# the smallest normal double and its log: exp(x) is normal exactly when
# x >= _LOG_TINY
_TINY = np.finfo(np.float64).tiny
_LOG_TINY = math.log(_TINY)
# the smallest double whose inverse is finite, 2**-1024 plus one subnormal
# step: a mixture holds no smaller variance, and no smaller cov_floor
MIN_VARIANCE = float.fromhex("0x0.4000000000001p-1022")


# the arrays _log_joint reads besides the means, in _log_joint_terms' order
_TERMS = ("inv_var", "neg_half_inv_var", "logw", "sum_log_var")


def _log_joint_terms(weights: np.ndarray, variances: np.ndarray):
    """1/var, -1/(2 var), log w and sum_j log var_j: the one formula for
    the arrays that a GmmModel and an EM iterate hand _log_joint."""
    inv_var = 1.0 / variances
    # a zero weight's log is -inf
    with np.errstate(divide="ignore"):
        logw = np.log(weights)
    return inv_var, -0.5 * inv_var, logw, np.log(variances).sum(axis=1)


@dataclass(frozen=True)
class GmmModel:
    """weights (M,), means (M, d), variances (M, d); weights on the simplex,
    means finite, variances finite and at least MIN_VARIANCE. The arrays that
    _log_joint reads, 1/var, -1/(2 var), log w and sum_j log var_j, are
    derived once, at construction."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        mu = np.asarray(self.means, dtype=np.float64)
        var = np.asarray(self.variances, dtype=np.float64)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "variances", var)
        if w.ndim != 1 or mu.ndim != 2 or var.shape != mu.shape \
                or w.shape[0] != mu.shape[0]:
            raise ValueError("inconsistent parameter shapes")
        # written as `not all(good)`, so that a NaN fails every check
        if not np.all(w >= 0) or not abs(float(w.sum()) - 1.0) <= 1e-9:
            raise ValueError("weights must be nonnegative and sum to 1")
        if not np.all(np.isfinite(mu)):
            raise ValueError("means must be finite")
        if not np.all((var > 0) & np.isfinite(var)):
            raise ValueError("variances must be strictly positive and finite")
        if not np.all(var >= MIN_VARIANCE):
            raise ValueError(f"variances must be at least {MIN_VARIANCE!r}, "
                             f"so that their inverse is finite; got "
                             f"{float(var.min())!r}")
        for name, value in zip(_TERMS, _log_joint_terms(w, var)):
            object.__setattr__(self, name, value)

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]


@dataclass(frozen=True)
class EmConfig:
    n_components: int = 8
    max_iters: int = 200
    tol: float = 1e-6          # relative log-likelihood improvement
    cov_floor: float = 1e-4    # per-dimension variance floor
    seed: int = 0
    restarts: int = 3

    def validate(self) -> None:
        for key in ("n_components", "max_iters", "restarts"):
            if getattr(self, key) < 1:
                raise ValueError(
                    f"{key} must be at least 1, got {getattr(self, key)}")
        for key in ("tol", "cov_floor"):
            value = getattr(self, key)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(
                    f"{key} must be positive and finite, got {value}")
        if self.cov_floor < MIN_VARIANCE:
            raise ValueError(f"cov_floor must be at least {MIN_VARIANCE!r}, "
                             f"the smallest variance a mixture holds, got "
                             f"{self.cov_floor!r}")


def _as_data(obs) -> np.ndarray:
    x = np.asarray(getattr(obs, "observations", obs), dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("expected an (n, dim) observation matrix")
    return x


class _Design:
    """Observations x centred once about their mean c, as the design
    z = [(x-c)^2, x-c] with one row per observation. Every squared
    distance to a mixture's means is then linear in a row of z, so an
    E-step is one GEMM with z, an M-step's sufficient statistics are
    resp^T z, and an offset shared by the data and the means cancels
    before anything is squared. z is kept as its transpose zt, one
    contiguous (2d, n) array, so that the products with it and every
    reduction over components run along n. Observations that are not
    finite, or whose square about c overflows, are refused with a
    ValueError naming their row."""

    def __init__(self, x: np.ndarray):
        n, d = x.shape
        self.x, self.dim = x, d
        self.zt = np.empty((2 * d, n))
        self.lin = self.zt[d:]
        with np.errstate(over="ignore", invalid="ignore"):
            self.centre = x.mean(axis=0) if n else np.zeros(d)
            np.subtract(x.T, self.centre[:, None], out=self.lin)
            np.square(self.lin, out=self.zt[:d])
        # a non-finite observation leaves a non-finite square too
        if not np.isfinite(self.zt[:d]).all():
            self._refuse()

    def _refuse(self):
        bad = ~np.isfinite(self.x)
        if bad.any():
            row = int(np.argmax(bad.any(axis=1)))
            raise ValueError(f"observations must be finite; row {row} holds "
                             f"{self.x[row][bad[row]][0]}")
        # an outlier drags c along, so the row furthest from c is named
        spread = np.abs(self.lin)
        row = int(np.argmax(spread.max(axis=0)))
        raise ValueError(f"observations overflow when squared about their "
                         f"mean; row {row} holds "
                         f"{self.x[row, np.argmax(spread[:, row])]}")

    @functools.cached_property
    def row_norms(self) -> np.ndarray:
        """(n,) squared distances |x - c|^2."""
        return self.zt[:self.dim].sum(axis=0)


def _log_joint(design: _Design, mixture) -> np.ndarray:
    """log w_m + log N(x_n; mu_m, diag var_m), as
    [-1/(2 var), (mu-c)/var] @ z^T plus a per-component constant: (M, n)
    for a GmmModel, (K, M, n) for a MixtureStack of K mixtures. A stack is
    one batched product, which hands BLAS each mixture's (M, 2d) block on
    its own; a single (K*M, 2d) GEMM would round differently where M = 1,
    which BLAS takes as a vector product."""
    if mixture.dim != design.dim:
        raise DimensionMismatch(
            f"observation dim {design.dim} != model dim {mixture.dim}")
    mu = mixture.means - design.centre
    const = mixture.logw - 0.5 * ((mu * mu * mixture.inv_var).sum(axis=-1)
                                  + mixture.sum_log_var
                                  + design.dim * _LOG_2PI)
    lj = np.concatenate([mixture.neg_half_inv_var, mu * mixture.inv_var],
                        axis=-1) @ design.zt
    lj += const[..., None]
    return lj


def _shifted_exp(e: np.ndarray, axis: int):
    """Shift log joints e in place by their maximum over the components
    on `axis` and exponentiate them; returns the log-sum-exp and the sum
    of the exponentials, both without `axis`. An observation at -inf under
    every component keeps a zero shift, so no finite input underflows to
    -inf.

    An entry whose shifted log joint lies below log(tiny) is written as an
    exact 0 without passing through exp: its exp would be subnormal or 0,
    which numpy's exp, and BLAS downstream, compute far off their fast
    path. Such a term is below 2^-1022 and joins a sum that holds an exact
    1.0, so the sums are those of a plain exp (but for a last-bit tie
    among the other terms). The entry is set to 0
    before the exp and again after it, rather than masked by a product,
    which would turn the -inf of a zero-weight component into NaN."""
    top = np.max(e, axis=axis, keepdims=True)
    shift = np.where(np.isfinite(top), top, 0.0)
    e -= shift
    under = e < _LOG_TINY
    np.copyto(e, 0.0, where=under)
    np.exp(e, out=e)
    np.copyto(e, 0.0, where=under)
    total = e.sum(axis=axis)
    with np.errstate(divide="ignore"):
        return np.squeeze(shift, axis=axis) + np.log(total), total


def _e_step(design: _Design, model: GmmModel):
    """(n, M) responsibilities (a transposed view) and the (n,) per-row
    log-likelihoods, from one exp of the log joint shifted by its maximum
    over the components. Every responsibility is 0 or at least tiny: one
    that only the division by its row total takes below tiny is written
    as 0 too."""
    e = _log_joint(design, model)
    lse, total = _shifted_exp(e, axis=0)
    e /= total
    np.copyto(e, 0.0, where=e < _TINY)
    return e.T, lse


def log_likelihood_many(model: GmmModel, data) -> np.ndarray:
    """log p(x) for each row of data, computed with log-sum-exp so no
    finite input underflows to -inf."""
    return _e_step(_Design(_as_data(data)), model)[1]


def log_likelihood(model: GmmModel, x) -> float:
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] != model.dim:
        raise DimensionMismatch(
            f"expected a vector of dim {model.dim}, got shape {v.shape}")
    return float(log_likelihood_many(model, v[None, :])[0])


def responsibilities(model: GmmModel, data) -> np.ndarray:
    """(n, M) posterior component probabilities; rows sum to 1."""
    return _e_step(_Design(_as_data(data)), model)[0]


def _m_step(design: _Design, resp: np.ndarray):
    """Mass, means and variances (not yet floored) of the weighted data.
    One GEMM resp^T z gives each component's weighted means of (x-c)^2
    and x-c about the data mean c; the variance is their difference
    resp^T (x-c)^2 / n_k - (mu-c)^2, so the cancellation is only as large
    as the spread of the data. A component without mass gets mean c."""
    nk = resp.sum(axis=0)
    stats = (resp.T @ design.zt.T) / np.where(nk > 0.0, nk, 1.0)[:, None]
    mu = stats[:, design.dim:]
    return nk, design.centre + mu, stats[:, :design.dim] - mu * mu


def _sq_dists(design: _Design, centers: np.ndarray) -> np.ndarray:
    """(k, n) squared distances |x - center|^2 from the row norms, as
    |x-c|^2 - 2 (x-c).(center-c) + |center-c|^2. The sums are formed in
    the product's array, as -2 (x-c).(center-c) + |x-c|^2: a negated
    product added is the product subtracted, bit for bit, and it spares
    three (k, n) temporaries."""
    mu = centers - design.centre
    d2 = mu @ design.lin
    d2 *= -2.0
    d2 += design.row_norms
    d2 += (mu * mu).sum(axis=1)[:, None]
    return d2


def _kmeans_pp(design: _Design, k: int, rng) -> np.ndarray:
    n = design.x.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = np.inf
    for _ in range(1, k):
        # clamped: the expansion puts the picked point itself at about
        # -1e-16, which rng.choice refuses as a probability
        last = np.maximum(_sq_dists(design, design.x[chosen[-1:]])[0], 0.0)
        d2 = np.minimum(d2, last)
        total = float(d2.sum())
        chosen.append(int(rng.choice(n, p=d2 / total)) if total > 0.0
                      else int(rng.integers(n)))
    return design.x[chosen]


def _lloyd_step(design: _Design, centers: np.ndarray, assign=None):
    """One Lloyd iteration from centers: (assign, counts, centers,
    variances), the nearest centre of each observation (the first on a
    tie) and the M-step of that hard (one-hot) assignment; or None when the
    assignment equals `assign`. An empty cluster's centre is re-seeded at
    the worst-covered point. The centres are the M-step's means, from its
    full-width product: a half-width product of the linear terms alone may
    take another BLAS kernel and round otherwise (OpenBLAS's small-matrix
    kernel does at some shapes)."""
    d2 = _sq_dists(design, centers)
    nearest = np.argmin(d2, axis=0)
    if assign is not None and np.array_equal(nearest, assign):
        return None
    onehot = (np.arange(centers.shape[0])[:, None] == nearest).astype(
        np.float64)
    counts, centers, variances = _m_step(design, onehot.T)
    empty = counts == 0.0
    if empty.any():
        centers[empty] = design.x[int(np.argmax(np.min(d2, axis=0)))]
    return nearest, counts, centers, variances


def kmeans_init(data, n_components: int, seed: int,
                cov_floor: float) -> GmmModel:
    """k-means++ seeding plus Lloyd iterations; the M-step of the final
    hard (one-hot) assignment becomes the initial mixture, with each
    cluster's Lloyd centre as its mean. Deterministic given seed."""
    # em_fit passes the design it built, shared by all of its restarts
    design = data if isinstance(data, _Design) else _Design(_as_data(data))
    n = design.x.shape[0]
    if n < n_components:
        raise TooFewObservations(
            f"{n} observations cannot seed {n_components} components")
    rng = np.random.default_rng(seed)
    assign, counts, centers, variances = _lloyd_step(
        design, _kmeans_pp(design, n_components, rng))
    for _ in range(49):
        step = _lloyd_step(design, centers, assign)
        if step is None:
            break
        assign, counts, centers, variances = step
    # an empty cluster keeps its re-seeded centre, weight 0 and the floor
    return GmmModel(weights=counts / n, means=centers,
                    variances=np.maximum(variances, cov_floor))


class _Iterate:
    """An EM iterate: its parameters and the arrays _log_joint reads,
    derived by the formula a GmmModel uses, without a GmmModel's checks."""

    __slots__ = ("weights", "means", "variances", "dim", *_TERMS)

    def __init__(self, weights, means, variances):
        self.weights, self.means, self.variances = weights, means, variances
        self.dim = means.shape[1]
        for name, value in zip(_TERMS, _log_joint_terms(weights, variances)):
            setattr(self, name, value)


def _em_run(design: _Design, config: EmConfig, init: GmmModel):
    """EM from init; returns (model, trace). Every iterate after init is an
    _Iterate, and only the model returned is built, and so checked, as a
    GmmModel. Each iterate passes those checks by construction: its
    weights are nk / sum(nk), nk >= 0, with a collapsed component
    re-seeded to nk = 1; its variances are floored at cov_floor, which
    EmConfig.validate keeps at MIN_VARIANCE or above; its means are
    weighted averages of rows that _Design checked. Two faults escape
    this: a responsibility can be NaN (0/0, for an observation at -inf
    under every component), and a variance can overflow (a sum of
    squares). Either leaves the scalar nk . sum_log_var not finite; the
    iterate is then built as a GmmModel at once, which raises the
    ValueError naming the fault."""
    model = init
    trace = []
    reseeded = False
    for _ in range(config.max_iters):
        resp, lse = _e_step(design, model)
        loglik = float(lse.sum())
        trace.append(loglik)
        if len(trace) > 1:
            prev = trace[-2]
            if loglik - prev < config.tol * max(1.0, abs(prev)):
                break
        nk, means, variances = _m_step(design, resp)

        # a component whose every responsibility fell below tiny (and so
        # was written as 0) has no statistics left; re-seed it once at the
        # worst-explained point.
        # (variances merely estimated under the floor are clamped by the
        # floor itself -- the constrained M-step keeps EM monotone.)
        collapsed = np.flatnonzero(nk == 0.0)
        if collapsed.size:
            if reseeded:
                raise NumericalCollapse(
                    f"components {collapsed.tolist()} lost all "
                    f"responsibility mass after a re-seed")
            reseeded = True
            worst = np.argsort(lse)
            means[collapsed] = design.x[worst[:collapsed.size]]
            variances[collapsed] = np.maximum(design.x.var(axis=0),
                                              config.cov_floor)
            nk[collapsed] = 1.0

        variances = np.maximum(variances, config.cov_floor)
        model = _Iterate(nk / nk.sum(), means, variances)
        if not math.isfinite(nk.dot(model.sum_log_var)):
            GmmModel(weights=model.weights, means=means, variances=variances)
    return GmmModel(weights=model.weights, means=model.means,
                    variances=model.variances), trace


def em_fit(data, config: EmConfig, init: GmmModel | None = None):
    """Fit a mixture by EM; returns (model, log-likelihood trace).

    Runs config.restarts independent k-means++ initializations (or a single
    run from `init` when given) and keeps the best final log-likelihood.
    The returned trace is nondecreasing up to 1e-9 slack per step.
    """
    config.validate()
    x = _as_data(data)
    if x.shape[0] < config.n_components:
        raise TooFewObservations(
            f"{x.shape[0]} observations cannot fit "
            f"{config.n_components} components")
    design = _Design(x)

    if init is not None:
        return _em_run(design, config, init)

    best = None
    failure = None
    for ss in np.random.SeedSequence(config.seed).spawn(config.restarts):
        seed = int(ss.generate_state(1)[0])
        try:
            start = kmeans_init(design, config.n_components, seed,
                                cov_floor=config.cov_floor)
            model, trace = _em_run(design, config, start)
        except NumericalCollapse as exc:
            failure = exc
            continue
        if best is None or trace[-1] > best[1][-1]:
            best = (model, trace)
    if best is None:
        raise NumericalCollapse(str(failure))
    return best


def match_score(client: GmmModel, background: GmmModel | None, obs) -> float:
    """Average log-likelihood under the client model, minus the same under
    the background model when one is supplied. Higher means more genuine."""
    x = _as_data(obs)
    if x.shape[0] == 0:
        raise EmptyObservationSet("no observations to score")
    design = _Design(x)
    score = float(np.mean(_e_step(design, client)[1]))
    if background is not None:
        score -= float(np.mean(_e_step(design, background)[1]))
    return score


class MixtureStack:
    """Mixtures of one component count M and dimension d, stacked once so
    that observations are scored against all of them together: entry k of
    each array's leading axis belongs to mixture k."""

    def __init__(self, models):
        shape = models[0].means.shape
        for model in models:
            if model.means.shape != shape:
                raise ValueError(
                    f"stacked mixtures must share their component count "
                    f"and dimension: {model.means.shape} != {shape}")
        self.dim = shape[1]
        for name in ("means", *_TERMS):
            setattr(self, name, np.array([getattr(m, name) for m in models]))

    def mean_log_likelihoods(self, obs) -> np.ndarray:
        """(K,) average log-likelihoods of obs under each stacked mixture:
        one design about the observations' centre, _log_joint of the whole
        stack and one log-sum-exp, so entry k equals
        np.mean(log_likelihood_many(models[k], obs)) bit for bit. Errors
        are match_score's: EmptyObservationSet, a ValueError naming a
        non-finite row, then DimensionMismatch."""
        x = _as_data(obs)
        if x.shape[0] == 0:
            raise EmptyObservationSet("no observations to score")
        lse, _ = _shifted_exp(_log_joint(_Design(x), self), axis=1)
        return np.mean(lse, axis=1)


def model_to_dict(model: GmmModel, modality: str, subject_id: str) -> dict:
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "modality": modality,
        "subject_id": subject_id,
        "M": model.n_components,
        "weights": model.weights.tolist(),
        "means": model.means.tolist(),
        "variances": model.variances.tolist(),
    }


def model_from_dict(doc: dict):
    """Rebuild (model, modality, subject_id); validates every invariant."""
    try:
        if int(doc["format_version"]) != MODEL_FORMAT_VERSION:
            raise ModelFormatError(
                f"unsupported format_version {doc['format_version']!r}")
        modality = doc["modality"]
        subject_id = doc["subject_id"]
        m = int(doc["M"])
        weights = np.asarray(doc["weights"], dtype=np.float64)
        means = np.asarray(doc["means"], dtype=np.float64)
        variances = np.asarray(doc["variances"], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"bad model document: {exc}") from exc
    if weights.shape != (m,) or means.ndim != 2 or means.shape[0] != m:
        raise ModelFormatError("component count disagrees with M")
    try:
        model = GmmModel(weights=weights, means=means, variances=variances)
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from exc
    return model, modality, subject_id


def save_model(model: GmmModel, path, modality: str, subject_id: str) -> str:
    """Write the model file; returns the sha256 hex digest of its bytes."""
    data = write_json(path, model_to_dict(model, modality, subject_id))
    return hashlib.sha256(data).hexdigest()


def load_model(path):
    """(model, modality, subject_id, digest) from a model file, where
    digest is the sha256 hex digest of the bytes parsed; a bad file raises
    ModelFormatError naming its path."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        doc = json.loads(data.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{path}: not valid JSON") from exc
    try:
        model, modality, subject_id = model_from_dict(doc)
    except ModelFormatError as exc:
        raise ModelFormatError(f"{path}: {exc}") from exc
    return model, modality, subject_id, hashlib.sha256(data).hexdigest()
