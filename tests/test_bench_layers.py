import json
import subprocess
import sys
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def test_layers_runs_at_the_smallest_size(tmp_path):
    # keys and sizes only; no timing is asserted
    out = tmp_path / "layers.json"
    run = subprocess.run([sys.executable, str(LAYERS), "--subjects", "2",
                          "--repeats", "2", "--out", str(out)],
                         capture_output=True, text=True, check=True)
    doc = json.loads(out.read_text())
    assert json.loads(run.stdout) == doc
    assert set(doc) == {"subjects", "seed", "repeats", "environment",
                        "layers"}
    assert set(doc["environment"]) == {"nproc", "cpu", "python", "numpy",
                                       "blas", "blas_threads"}
    assert set(doc["layers"]) == {
        f"{name}.{size}" for name in ("lloyd_iter", "e_step", "m_step")
        for size in ("client", "background")} | {
        "em_fit.client", "prep_image.image", "build_bank.bank",
        "sampled_responses.image",
        "write_json.model_file", "load_model.model_file",
        "load_config.file", "load_artifacts.modality",
        "mixture_stack.image", "fused_genuine_mass.trials",
        "compute_roc.curve", "to_csv.curve"}
    # a client's n is one image's 440 observations; the background's is
    # the two subjects' 880
    sizes = {"prep_image.image": 220 * 200, "build_bank.bank": 40,
             "load_artifacts.modality": 2,
             **{f"{name}.background": 880
                for name in ("lloyd_iter", "e_step", "m_step")},
             "fused_genuine_mass.trials": 10000 + 10000,
             "compute_roc.curve": 10001, "to_csv.curve": 10001}
    model_file = doc["layers"]["write_json.model_file"]["n"]
    assert model_file > 0
    assert doc["layers"]["load_model.model_file"]["n"] == model_file
    assert doc["layers"]["load_config.file"]["n"] > 0
    for key, row in doc["layers"].items():
        assert set(row) == {"n", "median_s", "iqr_s"}
        if key.split(".")[1] not in ("model_file", "file"):
            assert row["n"] == sizes.get(key, 440)
        assert row["median_s"] > 0.0 and row["iqr_s"] >= 0.0


def test_layers_refuses_one_subject():
    # a one-subject gallery has no impostor score, so train refuses it
    run = subprocess.run([sys.executable, str(LAYERS), "--subjects", "1"],
                         capture_output=True, text=True)
    assert run.returncode == 2
    assert "--subjects must be >= 2" in run.stderr
