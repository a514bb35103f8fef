import json
import subprocess
import sys
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def test_layers_runs_at_the_smallest_size(tmp_path):
    # keys and sizes only; no timing is asserted
    out = tmp_path / "layers.json"
    run = subprocess.run([sys.executable, str(LAYERS), "--subjects", "1",
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
        for size in ("client", "background")} | {"em_fit.client"}
    for row in doc["layers"].values():
        assert set(row) == {"n", "median_s", "iqr_s"}
        assert row["n"] == 440
        assert row["median_s"] > 0.0 and row["iqr_s"] >= 0.0
