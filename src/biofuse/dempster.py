"""Dempster-Shafer evidence engine.

Mass functions assign nonnegative mass summing to 1 over nonempty subsets
of a finite frame of discernment (up to 16 hypotheses, subsets encoded as
bitmasks). Dempster's orthogonal sum combines two mass functions:

    m(C) = sum_{A & B == C} m1(A) m2(B) / (1 - K),
    K    = sum_{A & B == 0} m1(A) m2(B)

where K is the conflict between the two sources. Belief and plausibility
bound the probability of a subset from below and above; discounting scales
a source by its reliability, moving the remainder onto the full frame.

The biometric layer maps calibrated match scores to masses over
{genuine, impostor} and thresholds the combined genuine mass.

All values are immutable and all operations pure. Bucket sums use
math.fsum, so combination is exactly commutative.
"""

import math
from dataclasses import dataclass

from .errors import (DegenerateCalibration, FrameMismatch, TotalConflict)

CONFLICT_EPS = 1e-12
_SUM_TOL = 1e-9


@dataclass(frozen=True)
class Frame:
    """Ordered frame of discernment; subsets are bitmasks over hypotheses."""

    hypotheses: tuple

    def __post_init__(self):
        hyps = tuple(self.hypotheses)
        object.__setattr__(self, "hypotheses", hyps)
        if not 1 <= len(hyps) <= 16:
            raise ValueError("frame size must be within [1, 16]")
        if len(set(hyps)) != len(hyps):
            raise ValueError("hypotheses must be distinct")

    @property
    def size(self) -> int:
        return len(self.hypotheses)

    @property
    def theta(self) -> int:
        """The full frame as a subset (all bits set)."""
        return (1 << len(self.hypotheses)) - 1

    def subset(self, labels) -> int:
        mask = 0
        for label in labels:
            try:
                mask |= 1 << self.hypotheses.index(label)
            except ValueError:
                raise ValueError(f"unknown hypothesis {label!r}") from None
        return mask

    def labels(self, mask: int) -> tuple:
        return tuple(h for i, h in enumerate(self.hypotheses)
                     if mask >> i & 1)

    def complement(self, mask: int) -> int:
        return self.theta & ~mask


GENUINE = "genuine"
IMPOSTOR = "impostor"
VERIFICATION_FRAME = Frame((GENUINE, IMPOSTOR))
GENUINE_MASK = VERIFICATION_FRAME.subset([GENUINE])
IMPOSTOR_MASK = VERIFICATION_FRAME.subset([IMPOSTOR])


@dataclass(frozen=True)
class MassFunction:
    """Basic probability assignment: positive mass on nonempty subsets,
    summing to 1. Zero-mass entries are dropped; the empty set never
    carries mass."""

    frame: Frame
    masses: dict

    def __post_init__(self):
        cleaned = {}
        for mask, value in self.masses.items():
            mask = int(mask)
            value = float(value)
            if mask <= 0 or mask > self.frame.theta:
                raise ValueError(f"subset {mask:#x} outside the frame")
            if value < 0.0:
                raise ValueError(f"negative mass {value} on subset {mask:#x}")
            if value > 0.0:
                cleaned[mask] = value
        if abs(math.fsum(cleaned.values()) - 1.0) > _SUM_TOL:
            raise ValueError("masses must sum to 1")
        object.__setattr__(self, "masses", cleaned)

    def mass(self, subset: int) -> float:
        return self.masses.get(int(subset), 0.0)

    def focal_elements(self) -> tuple:
        return tuple(sorted(self.masses))

    def to_dict(self) -> dict:
        return {
            "frame": list(self.frame.hypotheses),
            "masses": {
                ",".join(sorted(self.frame.labels(mask))): value
                for mask, value in sorted(self.masses.items())
            },
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "MassFunction":
        frame = Frame(tuple(doc["frame"]))
        masses = {frame.subset(key.split(",")): value
                  for key, value in doc["masses"].items()}
        return cls(frame, masses)


def vacuous(frame: Frame) -> MassFunction:
    """Total ignorance: all mass on the full frame."""
    return MassFunction(frame, {frame.theta: 1.0})


def combine_dempster(m1: MassFunction, m2: MassFunction):
    """Dempster's orthogonal sum; returns (combined, conflict K).

    Raises TotalConflict when the normalizer 1 - K vanishes. The normalizer
    is the fsum of the non-conflicting products, not 1 - K, which cancels
    near total conflict; with fsum per subset too, the combined masses sum
    to 1 and do not depend on argument order.
    """
    if m1.frame != m2.frame:
        raise FrameMismatch("mass functions on different frames")
    conflict_terms = []
    buckets = {}
    for a, wa in m1.masses.items():
        for b, wb in m2.masses.items():
            product = wa * wb
            meet = a & b
            if meet == 0:
                conflict_terms.append(product)
            else:
                buckets.setdefault(meet, []).append(product)
    conflict = math.fsum(conflict_terms)
    norm = math.fsum(p for terms in buckets.values() for p in terms)
    if conflict >= 1.0 - CONFLICT_EPS or norm <= 0.0:
        raise TotalConflict(f"conflict K = {conflict} leaves no mass")
    combined = {mask: math.fsum(terms) / norm
                for mask, terms in buckets.items()}
    return MassFunction(m1.frame, combined), conflict


def belief(m: MassFunction, subset: int) -> float:
    """Bel(A) = sum of masses of nonempty subsets of A."""
    subset = int(subset)
    return math.fsum(v for mask, v in m.masses.items()
                     if mask & ~subset == 0)


def plausibility(m: MassFunction, subset: int) -> float:
    """Pl(A) = sum of masses of subsets intersecting A."""
    subset = int(subset)
    return math.fsum(v for mask, v in m.masses.items()
                     if mask & subset != 0)


def discount(m: MassFunction, alpha: float) -> MassFunction:
    """Scale by source reliability alpha in [0, 1]; the held-back mass
    moves to the full frame."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    theta = m.frame.theta
    masses = {mask: alpha * value
              for mask, value in m.masses.items() if mask != theta}
    masses[theta] = 1.0 - alpha + alpha * m.mass(theta)
    return MassFunction(m.frame, masses)


def bpa_from_score(score: float, calibration, alpha: float) -> MassFunction:
    """Turn a match score into a mass function over {genuine, impostor}.

    The score is min-max normalized with gallery calibration bounds and
    clamped to [0, 1]; alpha is the modality confidence, with 1 - alpha
    left as ignorance on the full frame.
    """
    lo, hi = float(calibration[0]), float(calibration[1])
    if not lo < hi:
        raise DegenerateCalibration(f"calibration bounds [{lo}, {hi}]")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    s = min(max((float(score) - lo) / (hi - lo), 0.0), 1.0)
    return MassFunction(VERIFICATION_FRAME, {
        GENUINE_MASK: alpha * s,
        IMPOSTOR_MASK: alpha * (1.0 - s),
        VERIFICATION_FRAME.theta: 1.0 - alpha,
    })


@dataclass(frozen=True)
class FusionDecision:
    combined: MassFunction
    conflict: float
    accepted: bool
    threshold: float


def decide(m_face: MassFunction, m_ear: MassFunction,
           threshold: float) -> FusionDecision:
    """Combine per-modality evidence and accept when the combined genuine
    mass reaches the threshold. Propagates TotalConflict."""
    for m in (m_face, m_ear):
        if m.frame != VERIFICATION_FRAME:
            raise FrameMismatch(
                "decision masses must live on the genuine/impostor frame")
    combined, conflict = combine_dempster(m_face, m_ear)
    genuine_mass = combined.mass(GENUINE_MASK)
    return FusionDecision(combined=combined, conflict=conflict,
                          accepted=genuine_mass >= threshold,
                          threshold=threshold)
