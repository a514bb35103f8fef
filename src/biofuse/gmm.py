"""Diagonal-covariance Gaussian mixture models fitted with EM.

The mixture density is p(x) = sum_m w_m N(x; mu_m, diag(var_m)). Fitting
alternates an E-step (posterior responsibilities) with an M-step
(responsibility-weighted parameter updates); the data log-likelihood is
nondecreasing across iterations. The k-means initialisation is the same
M-step applied to hard (one-hot) cluster assignments. Per-image match
scores are average log-likelihood ratios against a pooled background
model.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .atomic import write_json
from .errors import (DimensionMismatch, EmptyObservationSet, ModelFormatError,
                     NumericalCollapse, TooFewObservations)

MODEL_FORMAT_VERSION = 1

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class GmmModel:
    """weights (M,), means (M, d), variances (M, d); weights on the simplex,
    means finite, variances strictly positive and finite."""

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


def _as_data(obs, dim=None) -> np.ndarray:
    x = np.asarray(getattr(obs, "observations", obs), dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("expected an (n, dim) observation matrix")
    if dim is not None and x.shape[1] != dim:
        raise DimensionMismatch(
            f"observation dim {x.shape[1]} != model dim {dim}")
    return x


def _quad_form(data: np.ndarray, means: np.ndarray,
               inv_var: np.ndarray) -> np.ndarray:
    """(n, M) matrix of sum_d (x_nd - mu_md)^2 inv_var_md as matrix
    products, taken about the mean of the means so that an offset shared
    by the data and the means cancels before anything is squared."""
    centre = means.mean(axis=0)
    x = data - centre
    mu = means - centre
    return ((x * x) @ inv_var.T - 2.0 * (x @ (mu * inv_var).T)
            + np.sum(mu * mu * inv_var, axis=1))


def _log_joint(data: np.ndarray, model: GmmModel) -> np.ndarray:
    """(n, M) matrix of log w_m + log N(x_n; mu_m, diag var_m)."""
    with np.errstate(divide="ignore"):
        logw = np.log(model.weights)
    logdet = np.sum(np.log(model.variances), axis=1)
    quad = _quad_form(data, model.means, 1.0 / model.variances)
    return logw - 0.5 * (quad + logdet + data.shape[1] * _LOG_2PI)


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """Row-wise log(sum(exp)), safe against underflow and -inf rows."""
    amax = np.max(a, axis=1)
    shift = np.where(np.isfinite(amax), amax, 0.0)
    with np.errstate(divide="ignore"):
        return shift + np.log(np.sum(np.exp(a - shift[:, None]), axis=1))


def log_likelihood_many(model: GmmModel, data) -> np.ndarray:
    """log p(x) for each row of data, computed with log-sum-exp so no
    finite input underflows to -inf."""
    x = _as_data(data, model.dim)
    return _logsumexp_rows(_log_joint(x, model))


def log_likelihood(model: GmmModel, x) -> float:
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] != model.dim:
        raise DimensionMismatch(
            f"expected a vector of dim {model.dim}, got shape {v.shape}")
    return float(log_likelihood_many(model, v[None, :])[0])


def _e_step(data: np.ndarray, model: GmmModel):
    """(n, M) responsibilities and the (n,) per-row log-likelihoods."""
    lj = _log_joint(data, model)
    lse = _logsumexp_rows(lj)
    return np.exp(lj - lse[:, None]), lse


def responsibilities(model: GmmModel, data) -> np.ndarray:
    """(n, M) posterior component probabilities; rows sum to 1."""
    return _e_step(_as_data(data, model.dim), model)[0]


def _mass_means(data: np.ndarray, resp: np.ndarray):
    """(M,) responsibility mass and (M, d) weighted means; a component
    without mass gets a zero mean."""
    nk = resp.sum(axis=0)
    return nk, (resp.T @ data) / np.where(nk > 0.0, nk, 1.0)[:, None]


def _m_step(data: np.ndarray, resp: np.ndarray):
    """Mass, means and variances (not yet floored) of the weighted data,
    as resp^T (x-c)^2 / n_k - (mu-c)^2 about the data mean c, so that the
    cancellation is only as large as the spread of the data."""
    centre = data.mean(axis=0)
    x = data - centre
    nk, mu = _mass_means(x, resp)
    safe_nk = np.where(nk > 0.0, nk, 1.0)[:, None]
    return nk, centre + mu, (resp.T @ (x * x)) / safe_nk - mu * mu


def _kmeans_pp(data: np.ndarray, k: int, rng) -> np.ndarray:
    n = data.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = np.inf
    for _ in range(1, k):
        last = data[chosen[-1:]]
        d2 = np.minimum(d2, _quad_form(data, last, np.ones_like(last))[:, 0])
        total = float(d2.sum())
        chosen.append(int(rng.choice(n, p=d2 / total)) if total > 0.0
                      else int(rng.integers(n)))
    return data[chosen]


def kmeans_init(data, n_components: int, seed: int,
                cov_floor: float = 1e-4) -> GmmModel:
    """k-means++ seeding plus Lloyd iterations; the M-step of the final
    hard (one-hot) assignment becomes the initial mixture, with each
    cluster's Lloyd centre as its mean. Deterministic given seed."""
    x = _as_data(data)
    n = x.shape[0]
    if n < n_components:
        raise TooFewObservations(
            f"{n} observations cannot seed {n_components} components")
    rng = np.random.default_rng(seed)
    centers = _kmeans_pp(x, n_components, rng)

    assign = None
    for _ in range(50):
        d2 = _quad_form(x, centers, np.ones_like(centers))
        new_assign = np.argmin(d2, axis=1)
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        onehot = (assign[:, None] == np.arange(n_components)).astype(
            np.float64)
        counts, centers = _mass_means(x, onehot)
        # re-seed an empty cluster at the worst-covered point
        centers[counts == 0.0] = x[int(np.argmax(np.min(d2, axis=1)))]

    # an empty cluster keeps its re-seeded centre, weight 0 and the floor
    counts, _, variances = _m_step(x, onehot)
    return GmmModel(weights=counts / n, means=centers,
                    variances=np.maximum(variances, cov_floor))


def _em_run(data: np.ndarray, config: EmConfig, init: GmmModel):
    model = init
    trace = []
    reseeded = False
    for _ in range(config.max_iters):
        resp, lse = _e_step(data, model)
        loglik = float(np.sum(lse))
        trace.append(loglik)
        if len(trace) > 1:
            prev = trace[-2]
            if loglik - prev < config.tol * max(1.0, abs(prev)):
                break
        nk, means, variances = _m_step(data, resp)

        # a component whose responsibility mass underflowed to zero has no
        # statistics left; re-seed it once at the worst-explained point.
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
            means[collapsed] = data[worst[:collapsed.size]]
            variances[collapsed] = np.maximum(data.var(axis=0),
                                              config.cov_floor)
            nk[collapsed] = 1.0

        variances = np.maximum(variances, config.cov_floor)
        weights = nk / nk.sum()
        model = GmmModel(weights=weights, means=means, variances=variances)
    return model, trace


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

    if init is not None:
        if init.dim != x.shape[1]:
            raise DimensionMismatch("init model dim != data dim")
        return _em_run(x, config, init)

    best = None
    failure = None
    for ss in np.random.SeedSequence(config.seed).spawn(config.restarts):
        seed = int(ss.generate_state(1)[0])
        try:
            start = kmeans_init(x, config.n_components, seed,
                                cov_floor=config.cov_floor)
            model, trace = _em_run(x, config, start)
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
    score = float(np.mean(log_likelihood_many(client, x)))
    if background is not None:
        score -= float(np.mean(log_likelihood_many(background, x)))
    return score


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


def save_model(model: GmmModel, path, modality: str, subject_id: str) -> None:
    write_json(path, model_to_dict(model, modality, subject_id))


def load_model(path):
    """(model, modality, subject_id) from a model file; a bad file raises
    ModelFormatError naming its path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelFormatError(f"{path}: not valid JSON") from exc
    try:
        return model_from_dict(doc)
    except ModelFormatError as exc:
        raise ModelFormatError(f"{path}: {exc}") from exc
