import hashlib
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CYCLE = ROOT / "bench" / "cycle.py"


def test_cycle_runs_on_the_toy_corpus(tmp_path):
    # exit status, keys and digests only; no timing is asserted
    work = tmp_path / "work"
    run = subprocess.run([sys.executable, str(CYCLE), str(ROOT), str(work),
                          "--toy"], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    doc = json.loads(run.stdout)
    assert set(doc) == {"prep", "train", "eval", "sha256"}
    for command in ("prep", "train", "eval"):
        assert set(doc[command]) == {"wall_s", "peak_rss_mb"}
    assert set(doc["sha256"]) == {
        f"models/{modality}_{name}.json" for modality in ("face", "ear")
        for name in ("alice", "bob", "background", "stats")} | {
        f"out/{name}.csv" for name in ("report", "roc_face", "roc_ear",
                                       "roc_fusion")}
    for name, digest in doc["sha256"].items():
        assert digest == hashlib.sha256((work / name).read_bytes()
                                        ).hexdigest()
