import math
import re
from dataclasses import replace

import pytest

from biofuse.cli import main
from biofuse.config import (FusionSettings, EvalSettings, Paths,
                            PipelineConfig, SynthModality, load_config)
from biofuse.errors import InvalidParams
from biofuse.gabor import GaborParams
from biofuse.gmm import EmConfig
from biofuse.preprocess import CanonicalLayout

EVERY_KEY = """\
[gabor]
num_frequencies = 4
num_orientations = 6
k_max = 1.25
freq_spacing = 1.5
sigma = 5.5
kernel_radius = 12
stride = 7

[canonical]
width = 180
height = 240
face_left_eye = 50, 60
face_right_eye = 130 61
face_mouth_center = 90.5, 150
ear_triangular_fossa = 91, 50
ear_antitragus = 92, 151.25

[gmm_face]
n_components = 4
max_iters = 50
tol = 1e-5
cov_floor = 1e-3
restarts = 2

[gmm_ear]
n_components = 5
max_iters = 60
tol = 2e-5
cov_floor = 2e-3
restarts = 1

[fusion]
alpha_face = 0.8
alpha_ear = 0.7
threshold = 0.6

[eval]
num_thresholds = 501
seed = 7
n_genuine = 100
n_impostor = 200

[synth_face]
genuine_mean = 2.5
genuine_std = 1.5
impostor_mean = 0.5
impostor_std = 0.75

[synth_ear]
genuine_mean = 3.5
genuine_std = 0.5
impostor_mean = -0.5
impostor_std = 1.25

[paths]
manifest = data/m.json
model_dir = /abs/models
output_dir = o
"""


def _write(tmp_path, text):
    path = tmp_path / "cfg.ini"
    path.write_text(text)
    return path


def _same_types(a, b):
    """Field-by-field type equality, so an int key cannot land as a float."""
    for name in vars(a):
        x, y = getattr(a, name), getattr(b, name)
        assert type(x) is type(y), name
        if hasattr(x, "__dataclass_fields__"):
            _same_types(x, y)


def test_empty_file_is_the_default(tmp_path):
    cfg = load_config(_write(tmp_path, ""))
    assert cfg == replace(PipelineConfig(), paths=Paths(
        manifest=str(tmp_path / "manifest.json"),
        model_dir=str(tmp_path / "models"),
        output_dir=str(tmp_path / "out")))
    _same_types(cfg, PipelineConfig())


def test_every_key_lands_in_its_field(tmp_path):
    cfg = load_config(_write(tmp_path, EVERY_KEY))
    expected = PipelineConfig(
        gabor=GaborParams(num_frequencies=4, num_orientations=6, k_max=1.25,
                          freq_spacing=1.5, sigma=5.5, kernel_radius=12),
        stride=7,
        layout=CanonicalLayout(
            width=180, height=240,
            face={"left_eye": (50.0, 60.0), "right_eye": (130.0, 61.0),
                  "mouth_center": (90.5, 150.0)},
            ear={"triangular_fossa": (91.0, 50.0),
                 "antitragus": (92.0, 151.25)}),
        gmm={"face": EmConfig(n_components=4, max_iters=50, tol=1e-5,
                              cov_floor=1e-3, restarts=2),
             "ear": EmConfig(n_components=5, max_iters=60, tol=2e-5,
                             cov_floor=2e-3, restarts=1)},
        fusion=FusionSettings(alpha_face=0.8, alpha_ear=0.7, threshold=0.6),
        eval=EvalSettings(num_thresholds=501, seed=7, n_genuine=100,
                          n_impostor=200),
        synth={"face": SynthModality(genuine_mean=2.5, genuine_std=1.5,
                                     impostor_mean=0.5, impostor_std=0.75),
               "ear": SynthModality(genuine_mean=3.5, genuine_std=0.5,
                                    impostor_mean=-0.5, impostor_std=1.25)},
        paths=Paths(manifest=str(tmp_path / "data" / "m.json"),
                    model_dir="/abs/models",
                    output_dir=str(tmp_path / "o")))
    assert cfg == expected
    _same_types(cfg, expected)
    for modality in ("face", "ear"):
        _same_types(cfg.gmm[modality], expected.gmm[modality])
        _same_types(cfg.synth[modality], expected.synth[modality])


@pytest.mark.parametrize("text, message", [
    ("[bogus]\nx = 1\n", "unknown config section [bogus]"),
    ("[gabor]\nnum_wavelets = 40\n",
     "unknown config key 'num_wavelets' in [gabor]"),
    # the fit seed is derived per model, never configured
    ("[gmm_ear]\nseed = 3\n", "unknown config key 'seed' in [gmm_ear]"),
    ("[canonical]\near_left_eye = 1, 2\n",
     "unknown config key 'ear_left_eye' in [canonical]"),
    ("[fusion]\nstride = 5\n", "unknown config key 'stride' in [fusion]"),
])
def test_unknown_names_are_rejected(tmp_path, text, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        load_config(_write(tmp_path, text))


def test_bad_values_are_rejected(tmp_path):
    with pytest.raises(ValueError):
        load_config(_write(tmp_path, "[gabor]\nkernel_radius = 2.5\n"))
    with pytest.raises(ValueError, match="expected 'x, y'"):
        load_config(_write(tmp_path, "[canonical]\nface_left_eye = 1\n"))
    with pytest.raises(ValueError, match="stddevs must be positive"):
        load_config(_write(tmp_path, "[synth_ear]\nimpostor_std = 0\n"))


@pytest.mark.parametrize("text, message", [
    ("[eval]\nseed = 1.5\n",
     "[eval] seed: invalid literal for int() with base 10: '1.5'"),
    ("[gmm_face]\ntol = abc\n",
     "[gmm_face] tol: could not convert string to float: 'abc'"),
    ("[canonical]\nface_left_eye = 1\n",
     "[canonical] face_left_eye: expected 'x, y', got '1'"),
], ids=["int", "float", "point"])
def test_unparsable_value_names_section_and_key(tmp_path, capsys, text,
                                                message):
    path = _write(tmp_path, "[paths]\nmodel_dir = models\n" + text)
    assert main(["--config", str(path), "train"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {message}\n" == captured.err
    assert not (tmp_path / "models").exists()


@pytest.mark.parametrize("text", [
    "seed = 3\n[eval]\n",                       # line before any section
    "[eval]\nseed = %d\n",                       # bad interpolation
    "[eval]\nseed = 1\nseed = 2\n",              # duplicate key
    "[eval]\nseed = 1\n[eval]\nn_genuine = 5\n",  # duplicate section
], ids=["no-section", "percent", "duplicate-key", "duplicate-section"])
def test_malformed_file_exits_2(tmp_path, capsys, text):
    path = _write(tmp_path, text)
    assert main(["--config", str(path), "synth-eval"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"malformed config file {path}" in captured.err


@pytest.mark.parametrize("text, message", [
    ("alpha_face = 1.5\n", "[fusion] alpha_face must lie in [0, 1]"),
    ("alpha_ear = -0.1\n", "[fusion] alpha_ear must lie in [0, 1]"),
    ("alpha_face = nan\n", "[fusion] alpha_face must lie in [0, 1]"),
    ("threshold = nan\n", "[fusion] threshold must be finite"),
    ("threshold = inf\n", "[fusion] threshold must be finite"),
], ids=["alpha-above-1", "alpha-below-0", "alpha-nan", "threshold-nan",
        "threshold-inf"])
def test_bad_fusion_settings_exit_2_before_training(tmp_path, capsys, text,
                                                    message):
    path = _write(tmp_path, "[paths]\nmodel_dir = models\n[fusion]\n" + text)
    assert main(["--config", str(path), "train"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert not (tmp_path / "models").exists()


@pytest.mark.parametrize("text, message", [
    ("[gmm_face]\ncov_floor = nan\n",
     "[gmm_face] cov_floor must be positive and finite, got nan"),
    ("[gmm_face]\ncov_floor = 1e-320\n",
     "[gmm_face] cov_floor must be at least 5.56268464626801e-309"),
    ("[gmm_face]\ntol = nan\n",
     "[gmm_face] tol must be positive and finite, got nan"),
    ("[gmm_ear]\ntol = inf\n",
     "[gmm_ear] tol must be positive and finite, got inf"),
    ("[gmm_ear]\nrestarts = 0\n", "[gmm_ear] restarts must be at least 1"),
    ("[gabor]\nsigma = nan\n", "[gabor] sigma must be finite and exceed 0"),
    ("[gabor]\nk_max = inf\n", "[gabor] k_max must be finite and exceed 0"),
    ("[gabor]\nfreq_spacing = nan\n",
     "[gabor] freq_spacing must be finite and exceed 1"),
    ("[gabor]\nnum_orientations = 0\n",
     "[gabor] num_orientations must be at least 1"),
], ids=["cov_floor-nan", "cov_floor-subnormal", "tol-nan", "tol-inf",
        "restarts-0", "sigma-nan", "k_max-inf", "freq_spacing-nan",
        "orientations-0"])
def test_bad_fit_settings_exit_2_before_training(tmp_path, capsys, text,
                                                 message):
    path = _write(tmp_path, "[paths]\nmodel_dir = models\n" + text)
    assert main(["--config", str(path), "train"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert not (tmp_path / "models").exists()


@pytest.mark.parametrize("text, message", [
    ("[gabor]\nstride = 0\n", "[gabor] stride must be at least 1, got 0"),
    ("[gabor]\nstride = -1\n", "[gabor] stride must be at least 1, got -1"),
    ("[eval]\nseed = -3\n", "[eval] seed must be non-negative, got -3"),
    ("[eval]\nnum_thresholds = 1\n",
     "[eval] num_thresholds must be at least 2, got 1"),
    ("[eval]\nn_genuine = 0\n", "[eval] n_genuine must be at least 1, got 0"),
    ("[eval]\nn_impostor = -2\n",
     "[eval] n_impostor must be at least 1, got -2"),
], ids=["stride-0", "stride-negative", "seed-negative", "thresholds-1",
        "genuine-0", "impostor-negative"])
@pytest.mark.parametrize("command", ["train", "eval", "synth-eval"])
def test_bad_stride_and_eval_settings_exit_2_at_load(tmp_path, capsys, text,
                                                    message, command):
    # no manifest exists, so only a check at load can name the key
    path = _write(tmp_path, "[paths]\nmodel_dir = models\n" + text)
    assert main(["--config", str(path), command]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert not (tmp_path / "models").exists()


@pytest.mark.parametrize("text, message", [
    ("width = 0\n", "[canonical] width must be at least 1, got 0"),
    ("width = -5\n", "[canonical] width must be at least 1, got -5"),
    ("height = 0\n", "[canonical] height must be at least 1, got 0"),
    ("face_left_eye = nan, 70\n",
     "[canonical] face_left_eye must be finite, got nan, 70.0"),
    ("ear_antitragus = 100, inf\n",
     "[canonical] ear_antitragus must be finite, got 100.0, inf"),
    ("face_left_eye = 1e308, 70\n",
     "[canonical] face_left_eye is too far from the other face targets: "
     "their squared spread overflows"),
    ("face_left_eye = 9, 9\nface_right_eye = 9, 9\nface_mouth_center = 9, 9\n",
     "[canonical] face_left_eye and face_right_eye coincide at 9.0, 9.0"),
    ("ear_antitragus = 100, 60\n",
     "[canonical] ear_triangular_fossa and ear_antitragus coincide at "
     "100.0, 60.0"),
], ids=["width-0", "width-negative", "height-0", "point-nan", "point-inf",
        "point-overflow", "face-coincide", "ear-coincide"])
def test_bad_canonical_layout_exits_2_before_prep_writes(tmp_path, capsys,
                                                         toy_corpus, text,
                                                         message):
    path = _write(tmp_path, f"[paths]\nmanifest = {toy_corpus['manifest']}\n"
                            f"[canonical]\n{text}")
    out = tmp_path / "prepped"
    assert main(["--config", str(path), "prep", "--out-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "synth-eval"])
def test_negative_seed_flag_exits_2(tmp_path, capsys, command):
    path = _write(tmp_path, "[paths]\nmodel_dir = models\n")
    assert main(["--seed", "-4", "--config", str(path), command]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--seed must be non-negative, got -4" in captured.err


def test_threshold_above_one_is_legal(tmp_path):
    cfg = load_config(_write(tmp_path, "[fusion]\nthreshold = 1.5\n"))
    assert cfg.fusion.threshold == 1.5


@pytest.mark.parametrize("make, error, section, lines, message", [
    (lambda: GaborParams(num_frequencies=0), InvalidParams, "gabor",
     "num_frequencies = 0", "num_frequencies must be at least 1, got 0"),
    (lambda: EmConfig(cov_floor=1e-320), ValueError, "gmm_face",
     "cov_floor = 1e-320",
     "cov_floor must be at least 5.56268464626801e-309, the smallest "
     "variance a mixture holds, got 1e-320"),
    (lambda: CanonicalLayout(width=0), ValueError, "canonical", "width = 0",
     "width must be at least 1, got 0"),
    (lambda: FusionSettings(threshold=math.nan), ValueError, "fusion",
     "threshold = nan", "threshold must be finite, got nan"),
    (lambda: FusionSettings(alpha_face=1.5), ValueError, "fusion",
     "alpha_face = 1.5", "alpha_face must lie in [0, 1], got 1.5"),
    (lambda: FusionSettings(alpha_ear=-0.1), ValueError, "fusion",
     "alpha_ear = -0.1", "alpha_ear must lie in [0, 1], got -0.1"),
    (lambda: FusionSettings(alpha_face=math.nan), ValueError, "fusion",
     "alpha_face = nan", "alpha_face must lie in [0, 1], got nan"),
    (lambda: EvalSettings(num_thresholds=1), ValueError, "eval",
     "num_thresholds = 1", "num_thresholds must be at least 2, got 1"),
    (lambda: SynthModality(genuine_mean=1.0, genuine_std=0.0), ValueError,
     "synth_face", "genuine_mean = 1.0\ngenuine_std = 0.0",
     "synthetic score stddevs must be positive"),
], ids=["gabor", "gmm", "canonical", "fusion", "fusion-alpha-above-1",
        "fusion-alpha-below-0", "fusion-alpha-nan", "eval", "synth"])
def test_settings_refuse_bad_values_when_made(tmp_path, make, error, section,
                                              lines, message):
    # built in Python, a settings object refuses what load_config refuses,
    # with the message that load_config puts the section in front of
    with pytest.raises(error) as made:
        make()
    assert str(made.value) == message
    with pytest.raises(ValueError) as loaded:
        load_config(_write(tmp_path, f"[{section}]\n{lines}\n"))
    assert str(loaded.value) == f"[{section}] {message}"


def test_default_layout_targets_are_read_only():
    # every PipelineConfig() shares one default layout
    with pytest.raises(TypeError):
        PipelineConfig().layout.face["left_eye"] = (0.0, 0.0)
    with pytest.raises(TypeError):
        PipelineConfig().layout.ear["antitragus"] = (0.0, 0.0)
    assert PipelineConfig().layout.face["left_eye"] == (60.0, 70.0)
    assert PipelineConfig().layout.ear["antitragus"] == (100.0, 160.0)
