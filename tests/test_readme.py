"""The README's examples run: its INI block loads and its library snippet
executes, so the documented configuration and API cannot drift."""

import os
import re

import numpy as np

from biofuse.config import load_config
from biofuse.dempster import FusionDecision
from biofuse.pgm import write_pgm

README = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "README.md")


def _block(language, after=""):
    """The first fenced `language` block of the README past the heading
    `after`."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    text = text[text.index(after):]
    return re.search(rf"```{language}\n(.*?)```", text, re.S).group(1)


def test_ini_block_loads(tmp_path):
    path = tmp_path / "biofuse.ini"
    path.write_text(_block("ini"))
    config = load_config(str(path))
    assert config.stride == 10
    assert config.gmm["face"].n_components == 8
    assert config.eval.seed == 42
    assert config.paths.manifest == str(tmp_path / "corpus" /
                                        "manifest.json")


def test_library_snippet_runs(tmp_path, monkeypatch):
    rng = np.random.default_rng(0)
    write_pgm(rng.integers(0, 256, (220, 200), dtype=np.uint8),
              str(tmp_path / "probe.pgm"))
    monkeypatch.chdir(tmp_path)
    scope = {}
    exec(_block("python", after="## Library"), scope)
    assert np.isfinite(scope["score"])
    assert isinstance(scope["decision"], FusionDecision)
    assert [row.method for row in scope["report"].rows] == list(
        scope["scores"]) == ["face", "ear", "fusion"]
