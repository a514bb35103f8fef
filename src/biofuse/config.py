"""Pipeline configuration: one INI-style key/value file per experiment.

Sections mirror the pipeline stages; every omitted key falls back to the
built-in default, so an empty file is a complete configuration. Relative
paths are resolved against the config file's directory.
"""

import configparser
import math
import os
from collections.abc import Mapping
from dataclasses import dataclass, field, fields, replace

from .errors import InvalidParams
from .gabor import GaborParams
from .gmm import EmConfig
from .preprocess import CanonicalLayout


@dataclass(frozen=True)
class FusionSettings:
    alpha_face: float = 0.9
    alpha_ear: float = 0.9
    threshold: float = 0.5

    def __post_init__(self):
        """Alphas are source reliabilities in [0, 1]; the threshold may
        exceed 1 (then nothing is accepted) but must be a number."""
        for key in ("alpha_face", "alpha_ear"):
            alpha = getattr(self, key)
            if not 0.0 <= alpha <= 1.0:
                raise ValueError(f"{key} must lie in [0, 1], got {alpha}")
        if not math.isfinite(self.threshold):
            raise ValueError(
                f"threshold must be finite, got {self.threshold}")


@dataclass(frozen=True)
class EvalSettings:
    num_thresholds: int = 10001
    seed: int = 42
    n_genuine: int = 10000
    n_impostor: int = 10000

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.num_thresholds < 2:
            raise ValueError(f"num_thresholds must be at least 2, got "
                             f"{self.num_thresholds}")
        for key in ("n_genuine", "n_impostor"):
            if getattr(self, key) < 1:
                raise ValueError(
                    f"{key} must be at least 1, got {getattr(self, key)}")


@dataclass(frozen=True)
class SynthModality:
    """Score distributions of one synthetic matcher (normal per class)."""
    genuine_mean: float
    genuine_std: float = 1.0
    impostor_mean: float = 0.0
    impostor_std: float = 1.0

    def __post_init__(self):
        if self.genuine_std <= 0 or self.impostor_std <= 0:
            raise ValueError("synthetic score stddevs must be positive")


# Defaults put the unimodal equal-error rates near 8.0% and 6.7%
# (separations of 2.81 and 3.00 standard deviations).
DEFAULT_SYNTH = {
    "face": SynthModality(genuine_mean=2.81),
    "ear": SynthModality(genuine_mean=3.00),
}


@dataclass(frozen=True)
class Paths:
    manifest: str = "manifest.json"
    model_dir: str = "models"
    output_dir: str = "out"


@dataclass(frozen=True)
class PipelineConfig:
    gabor: GaborParams = GaborParams()
    stride: int = 10
    layout: CanonicalLayout = CanonicalLayout()
    gmm: dict = field(default_factory=lambda: {
        "face": EmConfig(), "ear": EmConfig()})
    fusion: FusionSettings = FusionSettings()
    eval: EvalSettings = EvalSettings()
    synth: dict = field(default_factory=lambda: dict(DEFAULT_SYNTH))
    paths: Paths = Paths()

    def with_seed(self, seed: int) -> "PipelineConfig":
        return replace(self, eval=replace(self.eval, seed=seed))


def _point(text):
    parts = [float(p) for p in text.replace(",", " ").split()]
    if len(parts) != 2:
        raise ValueError(f"expected 'x, y', got {text!r}")
    return (parts[0], parts[1])


def _keys(settings, exclude=()) -> dict:
    """Config keys of one settings dataclass, each mapped to its parser.

    A scalar field is cast to the type of its default; a dict of landmark
    points (the canonical layout) takes one `<field>_<point>` key per point.
    """
    keys = {}
    for f in fields(settings):
        value = getattr(settings, f.name)
        if isinstance(value, Mapping):
            keys.update({f"{f.name}_{point}": _point for point in value})
        elif f.name not in exclude:
            keys[f.name] = type(value)
    return keys


def _apply(settings, values: dict):
    """settings with the parsed values of its section's keys applied."""
    changes = {}
    for f in fields(settings):
        value = getattr(settings, f.name)
        if isinstance(value, Mapping):
            changes[f.name] = {point: values.get(f"{f.name}_{point}", xy)
                               for point, xy in value.items()}
        elif f.name in values:
            changes[f.name] = values[f.name]
    return replace(settings, **changes)


_DEFAULT = PipelineConfig()

# Section -> {key: parser}. The sampling stride sits in [gabor]; each
# EmConfig.seed is derived per fit, so it is not a key.
_KNOWN = {
    "gabor": {**_keys(_DEFAULT.gabor), "stride": int},
    "canonical": _keys(_DEFAULT.layout),
    **{f"gmm_{m}": _keys(em, exclude=("seed",))
       for m, em in _DEFAULT.gmm.items()},
    "fusion": _keys(_DEFAULT.fusion),
    "eval": _keys(_DEFAULT.eval),
    **{f"synth_{m}": _keys(spec) for m, spec in _DEFAULT.synth.items()},
    "paths": _keys(_DEFAULT.paths),
}


def load_config(path) -> PipelineConfig:
    """Parse an INI config file; malformed INI, unknown sections or keys,
    and values that do not parse raise ValueError (the last two naming the
    section and key), as do values that their settings type refuses when it
    is made (naming the section)."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
        # reading every value here surfaces interpolation errors too
        raw = {section: dict(parser[section])
               for section in parser.sections()}
    except configparser.Error as exc:
        raise ValueError(f"malformed config file {path}: {exc}") from exc

    for section, items in raw.items():
        if section not in _KNOWN:
            raise ValueError(f"unknown config section [{section}]")
        for key in items:
            if key not in _KNOWN[section]:
                raise ValueError(f"unknown config key {key!r} in [{section}]")

    def values(name):
        sec = raw.get(name, {})
        parsed = {}
        for key, cast in _KNOWN[name].items():
            if key in sec:
                try:
                    parsed[key] = cast(sec[key])
                except ValueError as exc:
                    raise ValueError(f"[{name}] {key}: {exc}") from exc
        return parsed

    def settings(name, default):
        parsed = values(name)
        try:
            return _apply(default, parsed)
        except (ValueError, InvalidParams) as exc:
            raise ValueError(f"[{name}] {exc}") from exc

    stride = values("gabor").get("stride", _DEFAULT.stride)
    if stride < 1:
        raise ValueError(f"[gabor] stride must be at least 1, got {stride}")
    paths = _apply(_DEFAULT.paths, values("paths"))
    base_dir = os.path.dirname(os.path.abspath(path))
    # join keeps an absolute path as it is
    paths = replace(paths, **{
        f.name: os.path.join(base_dir, getattr(paths, f.name))
        for f in fields(paths)})
    return PipelineConfig(
        gabor=settings("gabor", _DEFAULT.gabor),
        stride=stride,
        layout=settings("canonical", _DEFAULT.layout),
        gmm={m: settings(f"gmm_{m}", em) for m, em in _DEFAULT.gmm.items()},
        fusion=settings("fusion", _DEFAULT.fusion),
        eval=settings("eval", _DEFAULT.eval),
        synth={m: settings(f"synth_{m}", spec)
               for m, spec in _DEFAULT.synth.items()},
        paths=paths)
