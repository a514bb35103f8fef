"""Exception types shared across the toolkit."""


class BiofuseError(Exception):
    """Base class for all toolkit errors."""


# --- image I/O ---

class MalformedHeader(BiofuseError):
    """PGM header is unparseable (bad magic, dimensions, or sample values)."""


class TruncatedData(BiofuseError):
    """PGM raster holds fewer samples than the header promises."""


class UnsupportedMaxval(BiofuseError):
    """PGM maxval exceeds 255 (16-bit rasters are not supported)."""


# --- preprocessing ---

class DegenerateLandmarks(BiofuseError):
    """Two landmarks coincide, so the similarity transform has no scale."""


class ManifestError(BiofuseError):
    """Dataset manifest is invalid or references missing data."""


# --- Gabor bank ---

class InvalidParams(BiofuseError):
    """Filter-bank parameters violate their invariants."""


class EmptyBank(BiofuseError):
    """A Gabor bank was made with no taps."""


# --- mixture models ---

class TooFewObservations(BiofuseError):
    """Fewer observations than mixture components."""


class NumericalCollapse(BiofuseError):
    """A mixture component lost all its responsibility mass and could not
    be re-seeded."""


class DimensionMismatch(BiofuseError):
    """Vector dimension does not match the model dimension."""


class EmptyObservationSet(BiofuseError):
    """Scoring requires at least one observation."""


class ModelFormatError(BiofuseError):
    """Persisted model file fails schema or invariant validation."""


# --- evidence combination ---

class FrameMismatch(BiofuseError):
    """Mass functions live on different frames of discernment."""


class TotalConflict(BiofuseError):
    """Dempster combination is undefined: the conflict mass is 1."""


class DegenerateCalibration(BiofuseError):
    """Score calibration bounds coincide; normalization is undefined."""


# --- evaluation ---

class EmptyScoreList(BiofuseError):
    """ROC computation requires nonempty genuine and impostor score lists."""
