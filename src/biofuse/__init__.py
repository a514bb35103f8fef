"""biofuse: face/ear identity verification toolkit.

Pipeline: PGM images are landmark-aligned and equalized, convolved with a
Gabor wavelet bank into per-pixel magnitude vectors, scored against
per-subject Gaussian mixture models (likelihood ratio vs a pooled
background model), and the two modality scores are fused as Dempster-Shafer
evidence over {genuine, impostor}. An evaluation harness sweeps decision
thresholds into FAR/FRR/EER reports and ROC curves, with a seeded
synthetic-matcher path for reproducible experiments.
"""

__version__ = "0.1.0"

from .dempster import (Frame, FusionDecision, MassFunction, belief,
                       bpa_from_score, combine_dempster, decide, discount,
                       plausibility, vacuous)
from .evaluate import (ErrorReport, RocCurve, compute_roc, eer,
                       run_fusion_experiment, run_image_experiment,
                       synth_scores)
from .gabor import (ChannelScaler, GaborBank, GaborParams, ObservationSet,
                    build_bank, convolve, downsample, sampled_responses)
from .gmm import (EmConfig, GmmModel, em_fit, kmeans_init, log_likelihood,
                  log_likelihood_many, match_score, responsibilities)
from .pgm import load_pgm, write_pgm
from .preprocess import (CanonicalLayout, LandmarkSet, geometric_normalize,
                         histogram_equalize, load_manifest)

__all__ = [
    "Frame", "FusionDecision", "MassFunction", "belief", "bpa_from_score",
    "combine_dempster", "decide", "discount", "plausibility", "vacuous",
    "ErrorReport", "RocCurve", "compute_roc", "eer",
    "run_fusion_experiment", "run_image_experiment", "synth_scores",
    "ChannelScaler", "GaborBank", "GaborParams", "ObservationSet",
    "build_bank", "convolve", "downsample", "sampled_responses",
    "EmConfig", "GmmModel", "em_fit", "kmeans_init", "log_likelihood",
    "log_likelihood_many", "match_score", "responsibilities",
    "load_pgm", "write_pgm",
    "CanonicalLayout", "LandmarkSet", "geometric_normalize",
    "histogram_equalize", "load_manifest",
]
