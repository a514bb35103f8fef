import contextlib
import errno
import hashlib
import io
import json
import math
import os
import re
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import biofuse.cli as cli
import biofuse.pipeline as pipeline
from biofuse.cli import main
from biofuse.config import PipelineConfig, load_config
from biofuse.gmm import MODEL_FORMAT_VERSION, GmmModel, save_model
from biofuse.pgm import load_pgm, write_pgm


def _write_config(path, corpus_root, manifest, workdir, extra=""):
    path.write_text(
        f"[paths]\n"
        f"manifest = {manifest}\n"
        f"model_dir = {workdir}/models\n"
        f"output_dir = {workdir}/out\n"
        f"{extra}")
    return str(path)


def _ear_landmark_outside(toy_corpus, tmp_path, session):
    """The toy manifest with the antitragus of the first ear record of a
    session outside its image; (manifest path, that record's image)."""
    records = [dict(r) for r in toy_corpus["records"]]
    rec = next(r for r in records
               if (r["modality"], r["session"]) == ("ear", session))
    rec["landmarks"] = {**rec["landmarks"], "antitragus": [100.0, 500.0]}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(records))
    return str(bad), rec["image_path"]


@pytest.fixture(scope="module")
def trained(tmp_path_factory, toy_corpus):
    """Prep + train once; several tests read the results."""
    work = tmp_path_factory.mktemp("cli_work")
    cfg = _write_config(work / "cfg.ini", toy_corpus["root"],
                        toy_corpus["manifest"], work)
    prep_dir = str(work / "prepped")
    assert main(["--config", cfg, "prep", "--out-dir", prep_dir]) == 0
    prepped_manifest = os.path.join(prep_dir, "manifest.json")
    assert main(["--config", cfg, "train",
                 "--manifest", prepped_manifest]) == 0
    return {"work": str(work), "config": cfg, "prep_dir": prep_dir,
            "prepped_manifest": prepped_manifest,
            "model_dir": str(work / "models")}


class TestPrep:
    def test_outputs_are_canonical_size(self, trained, toy_corpus):
        entries = json.loads(Path(trained["prepped_manifest"]).read_text())
        assert len(entries) == len(toy_corpus["records"])
        for rec in entries:
            img = load_pgm(rec["image_path"])
            assert img.shape == (220, 200)

    def test_reprep_copies_the_pixels(self, trained, tmp_path):
        # prep of its own output, whose records it marked, preps nothing
        # again: the same PGM bytes and the same records but for the path
        cfg = trained["config"]
        second = str(tmp_path / "prep2")
        assert main(["--config", cfg, "prep",
                     "--manifest", trained["prepped_manifest"],
                     "--out-dir", second]) == 0
        first = json.loads(Path(trained["prepped_manifest"]).read_text())
        again = json.loads(Path(second, "manifest.json").read_text())
        assert len(again) == len(first)
        for a, b in zip(first, again):
            assert a["prepped"] is True
            assert Path(b["image_path"]).read_bytes() == \
                Path(a["image_path"]).read_bytes()
            assert {**b, "image_path": None} == {**a, "image_path": None}

    def test_missing_landmark_label_exits_2(self, trained, toy_corpus,
                                            tmp_path, capsys):
        records = [dict(r) for r in toy_corpus["records"]]
        records[0]["landmarks"] = {"left_eye": [1.0, 2.0]}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(records))
        code = main(["--config", trained["config"], "prep",
                     "--manifest", str(bad),
                     "--out-dir", str(tmp_path / "never")])
        assert code == 2
        err = capsys.readouterr().err
        assert records[0]["image_path"] in err

    def test_landmark_outside_image_names_record_and_image(
            self, trained, toy_corpus, tmp_path, capsys):
        records = [dict(r) for r in toy_corpus["records"]]
        i = next(i for i, r in enumerate(records) if r["modality"] == "ear")
        records[i]["landmarks"] = {**records[i]["landmarks"],
                                   "antitragus": [100.0, 500.0]}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(records))
        out_dir = tmp_path / "prepped"
        argv = ["--config", trained["config"], "prep",
                "--manifest", str(bad), "--out-dir", str(out_dir)]
        assert main(argv) == 2
        assert (f"error: manifest record {i}: ear image "
                f"{records[i]['image_path']}: landmark antitragus at "
                f"(100.0, 500.0) outside 200x220 image\n"
                ) == capsys.readouterr().err
        # the records before i were prepped; their images are taken back
        assert i > 0
        assert os.listdir(out_dir) == []
        # over an earlier prep's output, the failed run replaces images
        # that manifest names; they stay, and so does everything else
        assert main(["--config", trained["config"], "prep",
                     "--manifest", toy_corpus["manifest"],
                     "--out-dir", str(out_dir)]) == 0
        before = {n: (out_dir / n).read_bytes() for n in os.listdir(out_dir)}
        assert main(argv) == 2
        assert {n: (out_dir / n).read_bytes()
                for n in os.listdir(out_dir)} == before

    @staticmethod
    def _digests(out_dir):
        return {n: hashlib.sha256((out_dir / n).read_bytes()).hexdigest()
                for n in os.listdir(out_dir)}

    @staticmethod
    def _bob_as_record_0(toy_corpus, tmp_path, bad_landmark):
        """The toy manifest with record 0 (alice's face) pointing at bob's
        face, and with a landmark outside record 2's image if asked."""
        records = [dict(r) for r in toy_corpus["records"]]
        bob = next(r for r in records
                   if r["subject_id"] == "bob" and r["modality"] == "face")
        records[0] = {**records[0], "image_path": bob["image_path"],
                      "landmarks": bob["landmarks"]}
        if bad_landmark:
            records[2]["landmarks"] = {**records[2]["landmarks"],
                                       "antitragus": [100.0, 500.0]}
        path = tmp_path / "bob_as_0.json"
        path.write_text(json.dumps(records))
        return records, str(path)

    def test_failed_reprep_restores_every_file_it_replaced(
            self, trained, toy_corpus, tmp_path, capsys):
        # record 0's PGM is replaced by bob's face before record 2 fails;
        # the earlier manifest.json names that PGM as alice's
        out_dir = tmp_path / "prepped"
        assert main(["--config", trained["config"], "prep",
                     "--manifest", toy_corpus["manifest"],
                     "--out-dir", str(out_dir)]) == 0
        before = self._digests(out_dir)
        records, bad = self._bob_as_record_0(toy_corpus, tmp_path, True)
        assert main(["--config", trained["config"], "prep",
                     "--manifest", bad, "--out-dir", str(out_dir)]) == 2
        assert (f"error: manifest record 2: ear image "
                f"{records[2]['image_path']}: landmark antitragus"
                ) in capsys.readouterr().err
        assert self._digests(out_dir) == before

    def test_reprep_leaves_no_aside_files(self, trained, toy_corpus,
                                          tmp_path):
        out_dir = tmp_path / "prepped"
        assert main(["--config", trained["config"], "prep",
                     "--manifest", toy_corpus["manifest"],
                     "--out-dir", str(out_dir)]) == 0
        before = self._digests(out_dir)
        _, path = self._bob_as_record_0(toy_corpus, tmp_path, False)
        assert main(["--config", trained["config"], "prep",
                     "--manifest", path, "--out-dir", str(out_dir)]) == 0
        after = self._digests(out_dir)
        assert sorted(after) == sorted(before)
        # record 0's PGM now holds bob's face; the others are prepped
        # from the same images and settings as before
        changed = sorted(n for n in after if after[n] != before[n])
        assert changed == ["0000_alice_face_s1.pgm"]
        assert (load_pgm(str(out_dir / changed[0])) == load_pgm(
            str(out_dir / "0004_bob_face_s1.pgm"))).all()

    def test_reprep_writes_images_with_no_manifest_in_place(
            self, trained, toy_corpus, tmp_path, monkeypatch):
        # so a run killed midway leaves no manifest naming a mix of old
        # and new images
        out_dir = tmp_path / "prepped"
        argv = ["--config", trained["config"], "prep",
                "--manifest", toy_corpus["manifest"],
                "--out-dir", str(out_dir)]
        assert main(argv) == 0
        manifest_seen = []

        def write_pgm_spy(img, path):
            manifest_seen.append((out_dir / "manifest.json").exists())
            write_pgm(img, path)

        monkeypatch.setattr(cli, "write_pgm", write_pgm_spy)
        assert main(argv) == 0
        assert manifest_seen == [False] * len(toy_corpus["records"])

    @pytest.mark.parametrize("subject", ["a/b", "a\0b"])
    def test_subject_id_that_is_no_file_name_exits_2(self, trained,
                                                     toy_corpus, tmp_path,
                                                     capsys, subject):
        # prep and train put the id in file names
        records = [dict(r) for r in toy_corpus["records"]]
        for rec in records:
            if rec["subject_id"] == "bob":
                rec["subject_id"] = subject
        i = next(i for i, r in enumerate(records)
                 if r["subject_id"] == subject)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(records))
        out_dir = tmp_path / "prepped"
        code = main(["--config", trained["config"], "prep",
                     "--manifest", str(bad), "--out-dir", str(out_dir)])
        assert code == 2
        assert (f"error: manifest record {i} ({records[i]['image_path']}): "
                f"subject id {subject!r} is not one file-name component"
                ) in capsys.readouterr().err
        assert not out_dir.exists()


class TestTrain:
    def test_model_files_on_disk(self, trained):
        names = sorted(os.listdir(trained["model_dir"]))
        clients = [n for n in names
                   if n.endswith(".json") and "background" not in n
                   and "stats" not in n]
        backgrounds = [n for n in names if "background" in n]
        assert len(clients) == 4       # 2 subjects x 2 modalities
        assert len(backgrounds) == 2   # one per modality
        assert "face_stats.json" in names and "ear_stats.json" in names

    def test_rerun_is_byte_identical(self, trained):
        model_dir = trained["model_dir"]
        before = {n: Path(model_dir, n).read_bytes()
                  for n in os.listdir(model_dir)}
        assert main(["--config", trained["config"], "train",
                     "--manifest", trained["prepped_manifest"]]) == 0
        after = {n: Path(model_dir, n).read_bytes()
                 for n in os.listdir(model_dir)}
        assert before == after

    def test_stats_record_the_feature_settings(self, trained):
        for modality in ("face", "ear"):
            doc = json.loads(Path(trained["model_dir"],
                                  f"{modality}_stats.json").read_text())
            assert doc["format_version"] == 4
            assert doc["features"] == {
                "gabor": {"num_frequencies": 5, "num_orientations": 8,
                          "k_max": math.pi / 2.0,
                          "freq_spacing": math.sqrt(2.0),
                          "sigma": 2.0 * math.pi, "kernel_radius": 16},
                "stride": 10, "feature_version": 4}

    @pytest.mark.parametrize("stride", [0, -1])
    def test_invalid_stride_exits_2(self, trained, toy_corpus, tmp_path,
                                    capsys, stride):
        cfg = _write_config(tmp_path / "cfg.ini", toy_corpus["root"],
                            toy_corpus["manifest"], tmp_path,
                            extra=f"[gabor]\nstride = {stride}\n")
        code = main(["--config", cfg, "train",
                     "--manifest", trained["prepped_manifest"]])
        assert code == 2
        assert "stride must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "models").exists()

    def test_empty_manifest_exits_2(self, toy_corpus, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text("[]")
        cfg = _write_config(tmp_path / "cfg.ini", toy_corpus["root"],
                            str(empty), tmp_path)
        assert main(["--config", cfg, "train"]) == 2
        assert ("no gallery (session 1) images to train on"
                in capsys.readouterr().err)
        assert not (tmp_path / "models").exists()

    def test_background_subject_exits_2(self, trained, toy_corpus, tmp_path,
                                        capsys):
        # a subject named like the background model would overwrite it
        records = json.loads(Path(trained["prepped_manifest"]).read_text())
        for rec in records:
            if rec["subject_id"] == "bob":
                rec["subject_id"] = "background"
        bad = tmp_path / "reserved.json"
        bad.write_text(json.dumps(records))
        cfg = _write_config(tmp_path / "cfg.ini", toy_corpus["root"],
                            toy_corpus["manifest"], tmp_path)
        code = main(["--config", cfg, "train", "--manifest", str(bad)])
        assert code == 2
        err = capsys.readouterr().err
        first = next(i for i, r in enumerate(records)
                     if r["subject_id"] == "background")
        assert f"manifest record {first} ({records[first]['image_path']})" \
            in err
        assert "'background' is reserved" in err
        assert not os.path.exists(tmp_path / "models")

    @pytest.mark.parametrize("modality", ["face", "ear"])
    def test_wrong_size_gallery_image_exits_2(self, trained, toy_corpus,
                                              tmp_path, capsys, modality):
        records = json.loads(Path(trained["prepped_manifest"]).read_text())
        first = next(r for r in records if r["modality"] == modality)
        small = str(tmp_path / "small.pgm")
        write_pgm(load_pgm(first["image_path"])[:110, :100], small)
        first["image_path"] = small
        bad = tmp_path / "small.json"
        bad.write_text(json.dumps(records))
        cfg = _write_config(tmp_path / "cfg.ini", toy_corpus["root"],
                            toy_corpus["manifest"], tmp_path)
        code = main(["--config", cfg, "train", "--manifest", str(bad)])
        assert code == 2
        captured = capsys.readouterr()
        assert "trained" not in captured.out
        assert small in captured.err
        assert "110x100" in captured.err and "220x200" in captured.err
        assert not (tmp_path / "models").exists()

    def test_subject_without_gallery_exits_2(self, trained, tmp_path, capsys):
        records = json.loads(Path(trained["prepped_manifest"]).read_text())
        kept = [r for r in records
                if not (r["subject_id"] == "bob" and r["session"] == 1)]
        bad = tmp_path / "nogallery.json"
        bad.write_text(json.dumps(kept))
        code = main(["--config", trained["config"], "train",
                     "--manifest", str(bad)])
        assert code == 2
        assert "bob" in capsys.readouterr().err

    def test_one_subject_gallery_exits_2(self, trained, tmp_path, capsys):
        # one subject has no impostor score to calibrate on
        records = json.loads(Path(trained["prepped_manifest"]).read_text())
        alone = tmp_path / "alice.json"
        alone.write_text(json.dumps(
            [r for r in records if r["subject_id"] == "alice"]))
        cfg = _write_config(tmp_path / "cfg.ini", "", str(alone), tmp_path)
        assert main(["--config", cfg, "train"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "the gallery has 1 subject (alice)" in captured.err
        assert not (tmp_path / "models").exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_gallery_of_constant_images_exits_2(self, toy_corpus, tmp_path,
                                                capsys, command):
        # identical images fit identical mixtures, so every gallery score
        # is 0 and calibration would be [0.0, 0.0], which verify refuses
        records = [dict(r) for r in toy_corpus["records"]]
        for i, rec in enumerate(records):
            rec["image_path"] = str(tmp_path / f"{i}.pgm")
            write_pgm(np.full((220, 200), 128, dtype=np.uint8),
                      rec["image_path"])
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(records))
        cfg = _write_config(tmp_path / "cfg.ini", "", str(manifest),
                            tmp_path)
        assert main(["--config", cfg, command]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: every face gallery score is 0.0: the gallery's face "
            "images cannot be told apart, so there are no calibration "
            "bounds\n")
        assert not (tmp_path / "models").exists()

    def test_gallery_rule_is_checked_before_any_image_is_loaded(
            self, trained, tmp_path, monkeypatch, capsys):
        def no_image(*args):
            raise AssertionError("the gallery rule must precede loading")

        monkeypatch.setattr(pipeline, "entry_image", no_image)
        records = json.loads(Path(trained["prepped_manifest"]).read_text())
        bad = tmp_path / "noear.json"
        bad.write_text(json.dumps(
            [r for r in records if not (r["subject_id"] == "bob"
                                        and r["modality"] == "ear")]))
        code = main(["--config", trained["config"], "train",
                     "--manifest", str(bad)])
        assert code == 2
        assert ("subject bob has no gallery (session 1) ear images"
                in capsys.readouterr().err)

    def test_manifest_that_is_not_utf8_exits_2(self, trained, tmp_path,
                                               capsys):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(Path(trained["prepped_manifest"]).read_bytes()
                        .replace(b'"alice"', b'"al\xefce"'))
        code = main(["--config", trained["config"], "train",
                     "--manifest", str(bad)])
        assert code == 2
        captured = capsys.readouterr()
        assert "trained" not in captured.out
        assert f"manifest {bad} is not valid UTF-8" in captured.err

    def test_record_that_fails_to_prep_names_the_image(
            self, toy_corpus, tmp_path, capsys):
        bad, image = _ear_landmark_outside(toy_corpus, tmp_path, 1)
        cfg = _write_config(tmp_path / "cfg.ini", toy_corpus["root"], bad,
                            tmp_path)
        assert main(["--config", cfg, "train"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: ear image {image}: landmark antitragus at "
            f"(100.0, 500.0) outside 200x220 image\n")
        assert not (tmp_path / "models").exists()

    @pytest.mark.parametrize("cov_floor", ["1e-300", "1e-4"])
    def test_collapsed_client_fit_exits_2_naming_the_subject(
            self, trained, toy_corpus, tmp_path, capsys, monkeypatch,
            cov_floor):
        # bob's face gallery observations are 220 copies each of two
        # points; at cov_floor 1e-300 every restart of his client fit
        # collapses, while alice's and the background fit succeed.
        # alice's are fixed too: the scaler is fitted on both, so with her
        # real features the outcome would rest on their last bits
        gallery = {
            rec["subject_id"]: load_pgm(rec["image_path"]) for rec in
            json.loads(Path(trained["prepped_manifest"]).read_text())
            if (rec["modality"], rec["session"]) == ("face", 1)}
        fixed = [
            (gallery["bob"],
             np.repeat([np.zeros(40), np.ones(40)], 220, axis=0)),
            (gallery["alice"],
             np.random.default_rng(1).exponential(size=(440, 40)))]
        real = pipeline.image_observations

        def observations(img, *args, **kwargs):
            for face, obs in fixed:
                if np.array_equal(img, face):
                    return obs
            return real(img, *args, **kwargs)

        monkeypatch.setattr(pipeline, "image_observations", observations)
        cfg = _write_config(tmp_path / "cfg.ini", toy_corpus["root"],
                            toy_corpus["manifest"], tmp_path,
                            extra=f"[gmm_face]\ncov_floor = {cov_floor}\n")
        code = main(["--config", cfg, "train",
                     "--manifest", trained["prepped_manifest"]])
        captured = capsys.readouterr()
        if cov_floor == "1e-4":  # the same observations fit at the default
            assert code == 0
            return
        assert code == 2
        assert captured.out == ""
        assert re.fullmatch(
            r"error: fitting face model for subject bob: components "
            r"\[\d+(, \d+)*\] lost all responsibility mass after a "
            r"re-seed\n", captured.err)
        assert not (tmp_path / "models").exists()


class TestVerify:
    def _probe(self, trained, subject, session=2):
        entries = json.loads(Path(trained["prepped_manifest"]).read_text())
        picks = {}
        for rec in entries:
            if rec["subject_id"] == subject and rec["session"] == session:
                picks[rec["modality"]] = rec["image_path"]
        return picks["face"], picks["ear"]

    def test_self_match_accepts(self, trained, capsys):
        face, ear = self._probe(trained, "alice", session=1)  # gallery images
        code = main(["--config", trained["config"], "verify",
                     "--face", face, "--ear", ear, "--claim", "alice"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("ACCEPT")

    def test_impostor_claim_rejected(self, trained, capsys):
        face, ear = self._probe(trained, "alice")
        code = main(["--config", trained["config"], "verify",
                     "--face", face, "--ear", ear, "--claim", "bob"])
        assert code == 1
        assert capsys.readouterr().out.startswith("REJECT")

    def test_unknown_claim_exits_2(self, trained, capsys):
        face, ear = self._probe(trained, "alice")
        code = main(["--config", trained["config"], "verify",
                     "--face", face, "--ear", ear, "--claim", "mallory"])
        assert code == 2
        assert "mallory" in capsys.readouterr().err

    def test_background_claim_exits_2(self, trained, capsys):
        # the background model scores 0 against itself; it is no identity
        face, ear = self._probe(trained, "alice")
        code = main(["--config", trained["config"], "verify",
                     "--face", face, "--ear", ear, "--claim", "background"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'background' is reserved" in captured.err

    @pytest.mark.parametrize("claim", ["../x", "a\0b"])
    def test_claim_that_is_no_file_name_exits_2(self, trained, capsys,
                                                monkeypatch, claim):
        def no_reads(*args, **kwargs):
            raise AssertionError("the claim must be refused before reading")

        monkeypatch.setattr(pipeline, "load_model", no_reads)
        monkeypatch.setattr(pipeline, "load_pgm", no_reads)
        face, ear = self._probe(trained, "alice")
        code = main(["--config", trained["config"], "verify",
                     "--face", face, "--ear", ear, "--claim", claim])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f"subject id {claim!r} is not one file-name component"
                in captured.err)

    def test_wrong_size_probe_exits_2(self, trained, tmp_path, capsys):
        face, ear = self._probe(trained, "alice", session=1)
        small = str(tmp_path / "small.pgm")
        write_pgm(load_pgm(ear)[:200, :], small)
        code = main(["--config", trained["config"], "verify",
                     "--face", face, "--ear", small, "--claim", "alice"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "200x200" in captured.err and "220x200" in captured.err

    @pytest.mark.parametrize("modality", ["face", "ear"])
    @pytest.mark.parametrize("raw, message", [
        (b"P5\n200 220\n255\n" + bytes(10),
         "expected 44000 raster bytes, found 10"),
        (b"P7\n200 220\n255\n" + bytes(44000),
         "unsupported magic b'P7'"),
    ], ids=["truncated", "bad-magic"])
    def test_unreadable_probe_is_named(self, trained, tmp_path, capsys,
                                       modality, raw, message):
        probes = dict(zip(("face", "ear"),
                          self._probe(trained, "alice", session=1)))
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(raw)
        probes[modality] = str(bad)
        code = main(["--config", trained["config"], "verify",
                     "--face", probes["face"], "--ear", probes["ear"],
                     "--claim", "alice"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            f"error: {modality} probe {bad}: {message}\n"

    @pytest.mark.parametrize("broken", [
        {"calibration": None},            # missing
        {"calibration": 0.5},             # not a (lo, hi) pair
        {"format_version": "one"},
        {"calibration": [5.0, -5.0]},     # not increasing
        {"calibration": [3.0, 3.0]},
    ], ids=["missing", "ill-typed", "bad-version", "decreasing", "flat"])
    def test_malformed_stats_exits_2(self, trained, toy_corpus, tmp_path,
                                     capsys, broken):
        models = tmp_path / "models"
        shutil.copytree(trained["model_dir"], models)
        stats = models / "face_stats.json"
        doc = json.loads(stats.read_text())
        for key, value in broken.items():
            if value is None:
                del doc[key]
            else:
                doc[key] = value
        stats.write_text(json.dumps(doc))
        cfg = _write_config(tmp_path / "cfg.ini", toy_corpus["root"],
                            toy_corpus["manifest"], tmp_path)
        face, ear = self._probe(trained, "alice", session=1)
        code = main(["--config", cfg, "verify",
                     "--face", face, "--ear", ear, "--claim", "alice"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "bad stats document" in captured.err
        assert "face_stats.json" in captured.err

    @pytest.mark.parametrize("channels", [1, 5])
    def test_scaler_of_another_dimension_exits_2(self, trained, toy_corpus,
                                                 tmp_path, capsys, channels):
        # a 1-channel scaler would broadcast against the 40 channels
        models = tmp_path / "models"
        shutil.copytree(trained["model_dir"], models)
        stats = models / "face_stats.json"
        doc = json.loads(stats.read_text())
        doc["scaler"] = {key: values[:channels]
                         for key, values in doc["scaler"].items()}
        stats.write_text(json.dumps(doc))
        cfg = _write_config(tmp_path / "cfg.ini", toy_corpus["root"],
                            toy_corpus["manifest"], tmp_path)
        face, ear = self._probe(trained, "bob")
        code = main(["--config", cfg, "verify",
                     "--face", face, "--ear", ear, "--claim", "bob"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{stats}: bad stats document" in captured.err
        assert (f"scaler of dim {channels}, but the models have dim 40"
                in captured.err)

    def test_probe_features_of_another_dimension_exit_2(self, trained,
                                                        tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(f"[paths]\nmodel_dir = {trained['model_dir']}\n"
                       f"output_dir = {tmp_path}/out\n"
                       f"[gabor]\nnum_orientations = 4\n")
        face, ear = self._probe(trained, "bob")
        code = main(["--config", str(cfg), "verify",
                     "--face", face, "--ear", ear, "--claim", "bob"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        stats = os.path.join(trained["model_dir"], "face_stats.json")
        assert f"error: {stats}: the face models were fitted on features" \
            in captured.err
        assert "'num_frequencies': 5, 'num_orientations': 8" in captured.err
        assert "'num_frequencies': 5, 'num_orientations': 4" in captured.err
        assert "run `train` again" in captured.err

    def test_models_of_another_bank_of_equal_width_exit_2(self, trained,
                                                          tmp_path, capsys):
        # 10 scales x 4 orientations is 40 channels too: scored, an
        # impostor's claim was accepted
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(f"[paths]\nmodel_dir = {trained['model_dir']}\n"
                       f"output_dir = {tmp_path}/out\n"
                       f"[gabor]\nnum_frequencies = 10\n"
                       f"num_orientations = 4\n")
        face, ear = self._probe(trained, "bob")
        code = main(["--config", str(cfg), "verify",
                     "--face", face, "--ear", ear, "--claim", "alice"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        stats = os.path.join(trained["model_dir"], "face_stats.json")
        assert f"error: {stats}: the face models were fitted on features" \
            in captured.err
        assert "'num_frequencies': 5, 'num_orientations': 8" in captured.err
        assert "'num_frequencies': 10, 'num_orientations': 4" \
            in captured.err
        assert "run `train` again" in captured.err

    @pytest.mark.parametrize("modality", ["face", "ear"])
    def test_models_fitted_on_other_features_exit_2_before_any_probe(
            self, trained, toy_corpus, tmp_path, capsys, monkeypatch,
            modality):
        # one modality's stats record another stride; neither probe is
        # read or filtered, the other modality's included
        models = tmp_path / "models"
        shutil.copytree(trained["model_dir"], models)
        stats = models / f"{modality}_stats.json"
        doc = json.loads(stats.read_text())
        fitted = dict(doc["features"], stride=11)
        stats.write_text(json.dumps(dict(doc, features=fitted)))

        def no_probe_work(*args, **kwargs):
            raise AssertionError("refused models must stop verify before "
                                 "any probe is read or filtered")

        monkeypatch.setattr(pipeline, "load_pgm", no_probe_work)
        monkeypatch.setattr(pipeline, "sampled_responses", no_probe_work)
        cfg = _write_config(tmp_path / "cfg.ini", toy_corpus["root"],
                            toy_corpus["manifest"], tmp_path)
        face, ear = self._probe(trained, "bob")
        code = main(["--config", cfg, "verify",
                     "--face", face, "--ear", ear, "--claim", "bob"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        want = pipeline.feature_settings(PipelineConfig())
        assert want == dict(fitted, stride=10)
        assert (f"error: {stats}: the {modality} models were fitted on "
                f"features {fitted}, but this config computes {want}; run "
                f"`train` again") in captured.err

    def test_format_2_stats_exit_2(self, trained, toy_corpus, tmp_path,
                                   capsys):
        # format 2 recorded no feature settings
        models = tmp_path / "models"
        shutil.copytree(trained["model_dir"], models)
        stats = models / "face_stats.json"
        doc = json.loads(stats.read_text())
        del doc["features"]
        stats.write_text(json.dumps(dict(doc, format_version=2)))
        cfg = _write_config(tmp_path / "cfg.ini", toy_corpus["root"],
                            toy_corpus["manifest"], tmp_path)
        face, ear = self._probe(trained, "bob")
        code = main(["--config", cfg, "verify",
                     "--face", face, "--ear", ear, "--claim", "bob"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{stats}: bad stats document" in captured.err
        assert "format_version 2, expected 4; run `train` again" \
            in captured.err

    @pytest.mark.parametrize("features", [None, {"stride": 10}, "v3"],
                             ids=["null", "partial", "ill-typed"])
    def test_stats_without_these_feature_settings_exit_2(
            self, trained, toy_corpus, tmp_path, capsys, features):
        models = tmp_path / "models"
        shutil.copytree(trained["model_dir"], models)
        stats = models / "ear_stats.json"
        doc = json.loads(stats.read_text())
        stats.write_text(json.dumps(dict(doc, features=features)))
        cfg = _write_config(tmp_path / "cfg.ini", toy_corpus["root"],
                            toy_corpus["manifest"], tmp_path)
        face, ear = self._probe(trained, "bob")
        code = main(["--config", cfg, "verify",
                     "--face", face, "--ear", ear, "--claim", "bob"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {stats}: " in captured.err

    def test_malformed_model_exits_2(self, trained, toy_corpus, tmp_path,
                                     capsys):
        models = tmp_path / "models"
        shutil.copytree(trained["model_dir"], models)
        client = models / "ear_alice.json"
        doc = json.loads(client.read_text())
        del doc["weights"]
        client.write_text(json.dumps(doc))
        cfg = _write_config(tmp_path / "cfg.ini", toy_corpus["root"],
                            toy_corpus["manifest"], tmp_path)
        face, ear = self._probe(trained, "alice", session=1)
        code = main(["--config", cfg, "verify",
                     "--face", face, "--ear", ear, "--claim", "alice"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "bad model document" in captured.err
        assert "ear_alice.json" in captured.err

    def test_non_finite_model_exits_2(self, trained, toy_corpus, tmp_path,
                                      capsys):
        models = tmp_path / "models"
        shutil.copytree(trained["model_dir"], models)
        client = models / "face_alice.json"
        doc = json.loads(client.read_text())
        doc["variances"][0][0] = float("nan")
        client.write_text(json.dumps(doc))
        cfg = _write_config(tmp_path / "cfg.ini", toy_corpus["root"],
                            toy_corpus["manifest"], tmp_path)
        face, ear = self._probe(trained, "alice", session=1)
        code = main(["--config", cfg, "verify",
                     "--face", face, "--ear", ear, "--claim", "alice"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("face_alice.json: variances must be strictly positive and "
                "finite") in captured.err

    def test_model_that_is_not_utf8_exits_2(self, trained, toy_corpus,
                                            tmp_path, capsys):
        models = tmp_path / "models"
        shutil.copytree(trained["model_dir"], models)
        client = models / "face_alice.json"
        client.write_bytes(b"\xff" + client.read_bytes())
        cfg = _write_config(tmp_path / "cfg.ini", toy_corpus["root"],
                            toy_corpus["manifest"], tmp_path)
        face, ear = self._probe(trained, "alice", session=1)
        code = main(["--config", cfg, "verify",
                     "--face", face, "--ear", ear, "--claim", "alice"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{client}: not valid UTF-8" in captured.err

    def test_variance_without_finite_inverse_exits_2(self, trained,
                                                     toy_corpus, tmp_path,
                                                     capsys):
        # 1/5e-324 is inf: the file is refused, where it used to score nan
        models = tmp_path / "models"
        shutil.copytree(trained["model_dir"], models)
        client = models / "face_alice.json"
        doc = json.loads(client.read_text())
        doc["variances"][0][0] = 5e-324
        client.write_text(json.dumps(doc))
        cfg = _write_config(tmp_path / "cfg.ini", toy_corpus["root"],
                            toy_corpus["manifest"], tmp_path)
        face, ear = self._probe(trained, "alice", session=1)
        code = main(["--config", cfg, "verify",
                     "--face", face, "--ear", ear, "--claim", "alice"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "face_alice.json: variances must be at least" in captured.err
        assert "NaN" not in captured.err

    def test_client_of_another_component_count_exits_2(self, trained,
                                                      toy_corpus, tmp_path,
                                                      capsys):
        # a valid mixture on its own, but it cannot be scored beside the
        # background's components
        models = tmp_path / "models"
        shutil.copytree(trained["model_dir"], models)
        client = models / "ear_alice.json"
        dim = len(json.loads(client.read_text())["means"][0])
        save_model(GmmModel(np.full(4, 0.25), np.zeros((4, dim)),
                            np.ones((4, dim))), str(client), "ear", "alice")
        cfg = _write_config(tmp_path / "cfg.ini", toy_corpus["root"],
                            toy_corpus["manifest"], tmp_path)
        face, ear = self._probe(trained, "alice", session=1)
        code = main(["--config", cfg, "verify",
                     "--face", face, "--ear", ear, "--claim", "alice"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "ear_alice.json: 4 components" in captured.err

    @pytest.mark.parametrize("path,value,reason", [
        (("scaler", "mean"), float("nan"), "invalid scaler payload"),
        (("scaler", "std"), float("inf"), "invalid scaler payload"),
        (("calibration",), float("nan"), "is not finite"),
    ], ids=["scaler-mean", "scaler-std", "calibration"])
    def test_non_finite_stats_exits_2(self, trained, toy_corpus, tmp_path,
                                      capsys, path, value, reason):
        models = tmp_path / "models"
        shutil.copytree(trained["model_dir"], models)
        stats = models / "ear_stats.json"
        doc = json.loads(stats.read_text())
        field = doc
        for key in path:
            field = field[key]
        field[0] = value
        stats.write_text(json.dumps(doc))
        cfg = _write_config(tmp_path / "cfg.ini", toy_corpus["root"],
                            toy_corpus["manifest"], tmp_path)
        face, ear = self._probe(trained, "alice", session=1)
        code = main(["--config", cfg, "verify",
                     "--face", face, "--ear", ear, "--claim", "alice"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "ear_stats.json: bad stats document: " in captured.err
        assert reason in captured.err

    @pytest.mark.parametrize("source,target", [
        ("face_bob.json", "face_alice.json"),         # another subject
        ("ear_alice.json", "face_alice.json"),        # another modality
        ("face_alice.json", "face_background.json"),  # a client
        ("ear_stats.json", "face_stats.json"),        # another modality
    ], ids=["client-subject", "client-modality", "background", "stats"])
    def test_misplaced_file_exits_2(self, trained, toy_corpus, tmp_path,
                                    capsys, source, target):
        # every file has the same dimension, so only its own header can
        # tell that it does not belong under this name
        models = tmp_path / "models"
        shutil.copytree(trained["model_dir"], models)
        shutil.copyfile(models / source, models / target)
        cfg = _write_config(tmp_path / "cfg.ini", toy_corpus["root"],
                            toy_corpus["manifest"], tmp_path)
        face, ear = self._probe(trained, "alice", session=1)
        code = main(["--config", cfg, "verify",
                     "--face", face, "--ear", ear, "--claim", "alice"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert target in captured.err

    @pytest.mark.parametrize("stride", [0, -1])
    def test_invalid_stride_exits_2(self, trained, toy_corpus, tmp_path,
                                    capsys, stride):
        cfg = _write_config(tmp_path / "cfg.ini", toy_corpus["root"],
                            toy_corpus["manifest"], trained["work"],
                            extra=f"[gabor]\nstride = {stride}\n")
        face, ear = self._probe(trained, "alice", session=1)
        code = main(["--config", cfg, "verify",
                     "--face", face, "--ear", ear, "--claim", "alice"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "stride must be at least 1" in captured.err

    def test_unreachable_threshold_rejects(self, trained, toy_corpus,
                                           tmp_path, capsys):
        # alpha = 0 makes both sources vacuous; tau = 1 is unreachable
        work = trained["work"]
        cfg = _write_config(
            tmp_path / "vacuous.ini", toy_corpus["root"],
            toy_corpus["manifest"], work,
            extra="[fusion]\nalpha_face = 0\nalpha_ear = 0\nthreshold = 1.0\n")
        face, ear = self._probe(trained, "alice", session=1)
        code = main(["--config", cfg, "verify",
                     "--face", face, "--ear", ear, "--claim", "alice"])
        assert code == 1
        assert capsys.readouterr().out.startswith("REJECT")

    def test_json_detail_line(self, trained, capsys):
        face, ear = self._probe(trained, "alice", session=1)
        main(["--config", trained["config"], "verify",
              "--face", face, "--ear", ear, "--claim", "alice"])
        first, second = capsys.readouterr().out.splitlines()
        assert re.fullmatch(r"ACCEPT m_genuine=\d\.\d{6} conflict=\d\.\d{6} "
                            r"threshold=0\.5", first)
        detail = json.loads(second)
        assert set(detail) == {
            "claimed_id", "conflict", "decision", "ear_score", "face_score",
            "m_genuine", "m_impostor", "threshold", "total_conflict_flag"}
        assert detail["decision"] == "ACCEPT"
        assert 0.0 <= detail["m_genuine"] <= 1.0
        assert detail["claimed_id"] == "alice"
        assert detail["total_conflict_flag"] is False
        assert first == (f"ACCEPT m_genuine={detail['m_genuine']:.6f} "
                         f"conflict={detail['conflict']:.6f} threshold=0.5")

    def test_repeat_is_served_from_the_cache(self, trained, tmp_path,
                                             monkeypatch, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(f"[paths]\nmodel_dir = {trained['model_dir']}\n"
                       f"output_dir = {tmp_path}/out\n")
        face, ear = self._probe(trained, "bob")
        argv = ["--config", str(cfg), "verify", "--face", face, "--ear", ear,
                "--claim", "bob"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert len(os.listdir(tmp_path / "out" / "cache")) == 2

        def no_features(*args, **kwargs):
            raise AssertionError("a cached probe must not be recomputed")

        monkeypatch.setattr(pipeline, "sampled_responses", no_features)
        assert main(argv) == 0
        assert capsys.readouterr().out == first


class TestSynthEval:
    def test_writes_report_and_rocs(self, tmp_path, capsys):
        cfg = tmp_path / "synth.ini"
        cfg.write_text(f"[paths]\noutput_dir = {tmp_path}/out\n"
                       "[eval]\nn_genuine = 500\nn_impostor = 500\n")
        assert main(["--config", str(cfg), "synth-eval"]) == 0
        out_dir = tmp_path / "out"
        names = sorted(os.listdir(out_dir))
        assert names == ["synth_report.csv", "synth_roc_ear.csv",
                         "synth_roc_face.csv", "synth_roc_fusion.csv"]
        table = capsys.readouterr().out
        assert "fusion" in table

    def test_unequal_trial_counts(self, tmp_path):
        cfg = tmp_path / "synth.ini"
        cfg.write_text(f"[paths]\noutput_dir = {tmp_path}/out\n"
                       "[eval]\nn_genuine = 300\nn_impostor = 500\n")
        assert main(["--config", str(cfg), "synth-eval"]) == 0
        assert (tmp_path / "out" / "synth_roc_fusion.csv").exists()

    def test_same_seed_identical_outputs(self, tmp_path):
        cfg = tmp_path / "synth.ini"
        cfg.write_text(f"[paths]\noutput_dir = {tmp_path}/out\n"
                       "[eval]\nn_genuine = 400\nn_impostor = 400\n")
        main(["--config", str(cfg), "--seed", "77", "synth-eval"])
        out_dir = tmp_path / "out"
        first = {n: Path(out_dir, n).read_bytes()
                 for n in os.listdir(out_dir)}
        main(["--config", str(cfg), "--seed", "77", "synth-eval"])
        second = {n: Path(out_dir, n).read_bytes()
                  for n in os.listdir(out_dir)}
        assert first == second
        main(["--config", str(cfg), "--seed", "78", "synth-eval"])
        third = {n: Path(out_dir, n).read_bytes()
                 for n in os.listdir(out_dir)}
        assert first != third

    # sha256 of each output of `synth-eval` at the default config and
    # seed, recorded when ROC fields were written one repr() at a time
    PINNED = {
        "synth_report.csv":
            "e5c004fccd56cabd7f6417a2efcd18fff8632981ed490ef7b1a4db903e110ccc",
        "synth_roc_ear.csv":
            "8926e8fd7e3bbb68316672f31e983a5fffbf5f93e9dcceb41fc18fd81d71948d",
        "synth_roc_face.csv":
            "f1ffe64c623f2b048ef83ce13426346e57bdcf51ce97f972d011f2a47982ba3d",
        "synth_roc_fusion.csv":
            "0ac75f672a70d32fe857c1c9de6ca8b5b833254d4b02528a4de3ba90d50986e8",
    }

    def test_default_outputs_keep_their_bytes(self, tmp_path):
        cfg = tmp_path / "synth.ini"
        cfg.write_text(f"[paths]\noutput_dir = {tmp_path}/out\n")
        assert main(["--config", str(cfg), "synth-eval"]) == 0
        out_dir = tmp_path / "out"
        digests = {n: hashlib.sha256(Path(out_dir, n).read_bytes()).hexdigest()
                   for n in os.listdir(out_dir)}
        assert digests == self.PINNED

    def test_fused_row_is_smallest(self, tmp_path):
        cfg = tmp_path / "synth.ini"
        cfg.write_text(f"[paths]\noutput_dir = {tmp_path}/out\n")
        assert main(["--config", str(cfg), "synth-eval"]) == 0
        report = tmp_path / "out" / "synth_report.csv"
        lines = report.read_text().splitlines()
        eers = {row.split(",")[0]: float(row.split(",")[3])
                for row in lines[1:]}
        assert eers["fusion"] < min(eers["face"], eers["ear"])


class TestEval:
    def test_full_image_run(self, toy_corpus, tmp_path, capsys):
        cfg = _write_config(tmp_path / "cfg.ini", toy_corpus["root"],
                            toy_corpus["manifest"], tmp_path)
        assert main(["--config", cfg, "eval"]) == 0
        out_dir = tmp_path / "out"
        assert sorted(n for n in os.listdir(out_dir) if n.endswith(".csv")) \
            == ["report.csv", "roc_ear.csv", "roc_face.csv", "roc_fusion.csv"]
        rows = (out_dir / "report.csv").read_text().splitlines()[1:]
        fused = [r for r in rows if r.startswith("fusion")][0]
        assert float(fused.split(",")[3]) == 0.0  # EER column
        assert not (out_dir / "cache").exists()

    def test_train_and_eval_write_no_feature_cache(self, trained, toy_corpus,
                                                   tmp_path):
        cfg = _write_config(tmp_path / "cfg.ini", toy_corpus["root"],
                            toy_corpus["manifest"], tmp_path)
        assert main(["--config", cfg, "train",
                     "--manifest", trained["prepped_manifest"]]) == 0
        assert not (tmp_path / "out" / "cache").exists()
        assert main(["--config", cfg, "eval"]) == 0
        assert (tmp_path / "out" / "report.csv").exists()
        assert not (tmp_path / "out" / "cache").exists()

    def test_stored_scaler_of_another_dimension_is_fitted_again(
            self, trained, toy_corpus, tmp_path):
        # eval refuses the stored face stats and fits that modality again,
        # so its output is that of eval beside the intact models
        broken = tmp_path / "broken"
        shutil.copytree(trained["model_dir"], broken)
        stats = broken / "face_stats.json"
        doc = json.loads(stats.read_text())
        doc["scaler"] = {key: values[:1]
                         for key, values in doc["scaler"].items()}
        stats.write_text(json.dumps(doc))
        outputs = {}
        for name, model_dir in (("intact", trained["model_dir"]),
                                ("broken", broken)):
            cfg = tmp_path / f"{name}.ini"
            cfg.write_text(f"[paths]\nmodel_dir = {model_dir}\n"
                           f"output_dir = {tmp_path}/{name}\n")
            assert main(["--config", str(cfg), "eval",
                         "--manifest", toy_corpus["manifest"]]) == 0
            outputs[name] = {n: (tmp_path / name / n).read_bytes()
                             for n in ("report.csv", "roc_face.csv",
                                       "roc_ear.csv", "roc_fusion.csv")}
        assert outputs["broken"] == outputs["intact"]

    def test_probe_that_fails_to_prep_names_the_image(
            self, trained, toy_corpus, tmp_path, capsys):
        bad, image = _ear_landmark_outside(toy_corpus, tmp_path, 2)
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(f"[paths]\nmodel_dir = {trained['model_dir']}\n"
                       f"output_dir = {tmp_path}/out\n")
        assert main(["--config", str(cfg), "eval", "--manifest", bad]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: ear image {image}: landmark antitragus at "
            f"(100.0, 500.0) outside 200x220 image\n")
        assert not (tmp_path / "out" / "report.csv").exists()

    def test_unwritable_output_dir_exits_2(self, toy_corpus, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(f"[paths]\noutput_dir = {blocker}/sub\n")
        assert main(["--config", str(cfg), "synth-eval"]) == 2


def _record_0_changed(toy_corpus, tmp_path, change):
    """A config over the toy manifest with change(record 0) applied; that
    record is alice's session-1 face."""
    records = [dict(r) for r in toy_corpus["records"]]
    records[0] = {**records[0], "landmarks": dict(records[0]["landmarks"])}
    change(records[0])
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(records))
    return _write_config(tmp_path / "cfg.ini", toy_corpus["root"],
                         str(manifest), tmp_path)


def _set_left_eye(xy):
    return lambda rec: rec["landmarks"].update(left_eye=xy)


class TestMisc:
    def test_version_prints_model_format(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert f"format_version {MODEL_FORMAT_VERSION}" in out

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[gabor]\nnum_wavelets = 40\n")
        assert main(["--config", str(cfg), "synth-eval"]) == 2
        assert "num_wavelets" in capsys.readouterr().err

    def test_missing_config_file_exits_2(self):
        assert main(["--config", "/nonexistent/cfg.ini", "synth-eval"]) == 2

    @pytest.mark.parametrize("command", ["prep", "train", "eval", "verify"])
    @pytest.mark.parametrize("kind", ["unreadable", "missing"])
    def test_image_that_cannot_be_read_exits_2_naming_it(
            self, trained, toy_corpus, tmp_path, capsys, command, kind):
        # a directory exists but cannot be read as a file, even by root
        bad = tmp_path / "face.pgm"
        if kind == "unreadable":
            bad.mkdir()
        records = [dict(r) for r in toy_corpus["records"]]
        first = next(i for i, r in enumerate(records)
                     if r["modality"] == "face")
        records[first]["image_path"] = str(bad)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(records))
        cfg = _write_config(tmp_path / "cfg.ini", toy_corpus["root"],
                            str(manifest), tmp_path)
        if command == "verify":
            ear = next(r["image_path"] for r in json.loads(
                Path(trained["prepped_manifest"]).read_text())
                if r["modality"] == "ear")
            argv = ["--config", trained["config"], "verify", "--face",
                    str(bad), "--ear", ear, "--claim", "alice"]
            what, where = f"face probe {bad}", ""
        else:
            argv = ["--config", cfg, command]
            what = f"face image {bad}"
            where = f"manifest record {first}: " if command == "prep" else ""
        message = (f"cannot read {what}: {os.strerror(errno.EISDIR)}"
                   if kind == "unreadable" else f"missing image file {bad}")
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {where}{message}\n"


    @pytest.mark.parametrize("command", ["prep", "train", "eval"])
    @pytest.mark.parametrize("change, message", [
        (_set_left_eye("12"), "face landmark 'left_eye' must be [x, y] of "
         "two finite numbers, got '12'"),
        (_set_left_eye([True, False]), "face landmark 'left_eye' must be "
         "[x, y] of two finite numbers, got [True, False]"),
        (_set_left_eye([1, 2, 3]), "face landmark 'left_eye' must be "
         "[x, y] of two finite numbers, got [1, 2, 3]"),
        (_set_left_eye(["60", "70"]), "face landmark 'left_eye' must be "
         "[x, y] of two finite numbers, got ['60', '70']"),
        (_set_left_eye({"x": 1, "y": 2}), "face landmark 'left_eye' must be "
         "[x, y] of two finite numbers, got {'x': 1, 'y': 2}"),
        (_set_left_eye([10 ** 400, 70.0]), "face landmark 'left_eye' must "
         f"be [x, y] of two finite numbers, got {[10 ** 400, 70.0]!r}"),
        (lambda rec: rec.update(modality=["face"]),
         "unknown modality ['face']"),
    ], ids=["string", "bools", "three-values", "strings", "object",
            "huge-int", "modality-list"])
    def test_malformed_landmarks_exit_2_naming_the_record(
            self, toy_corpus, tmp_path, capsys, command, change, message):
        cfg = _record_0_changed(toy_corpus, tmp_path, change)
        assert main(["--config", cfg, command]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: manifest record 0 "
                                f"({toy_corpus['records'][0]['image_path']})"
                                f": {message}\n")

    @pytest.mark.parametrize("command", ["prep", "train", "eval"])
    @pytest.mark.parametrize("image_path", [None, 5, True, [], {}],
                             ids=["null", "int", "true", "list", "object"])
    def test_image_path_that_is_no_string_exits_2(
            self, toy_corpus, tmp_path, capsys, command, image_path):
        # str() would read a file named 'None', '5', ... from the cwd
        cfg = _record_0_changed(toy_corpus, tmp_path,
                                lambda rec: rec.update(image_path=image_path))
        assert main(["--config", cfg, command]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: manifest record 0: image_path must "
                                f"be a string, got {image_path!r}\n")


def _random_gallery(root, counts, seed, spread, pixels=None):
    """A raw manifest of session-1 images at root: subject i has
    counts[i] = (face images, ear images), each at the canonical 220x200
    size, of seeded random pixels, or every pixel the value pixels when it
    is given. Each landmark sits spread of the way from its canonical
    position to a seeded random point inside the image."""
    rng = np.random.default_rng(seed)
    layout = PipelineConfig().layout
    records = []
    for i, per_modality in enumerate(counts):
        for modality, count in zip(("face", "ear"), per_modality):
            for j in range(count):
                path = os.path.join(root, f"s{i}_{modality}_{j}.pgm")
                img = (rng.integers(0, 256, (220, 200), dtype=np.uint8)
                       if pixels is None else
                       np.full((220, 200), pixels, dtype=np.uint8))
                write_pgm(img, path)
                marks = {}
                for label, (x, y) in layout.positions(modality).items():
                    u, v = rng.uniform(0.0, 199.0), rng.uniform(0.0, 219.0)
                    marks[label] = [x + spread * (u - x),
                                    y + spread * (v - y)]
                records.append({"image_path": path, "modality": modality,
                                "subject_id": f"s{i}", "session": 1,
                                "landmarks": marks})
    manifest = os.path.join(root, "manifest.json")
    Path(manifest).write_text(json.dumps(records))
    return manifest


def _run(argv):
    """(exit code, stderr) of main(argv)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=8, deadline=None)
@given(counts=st.lists(st.tuples(st.integers(1, 2), st.integers(1, 2)),
                       min_size=1, max_size=3),
       seed=st.integers(0, 2**32 - 1),
       spread=st.sampled_from([0.0, 0.1, 1.0]),
       pixels=st.none() | st.integers(0, 255))
@example(counts=[(1, 1)], seed=0, spread=0.0, pixels=None)
@example(counts=[(1, 1), (1, 1)], seed=0, spread=0.0, pixels=128)
def test_verify_accepts_whatever_train_writes(counts, seed, spread, pixels):
    # a gallery train refuses leaves no model_dir; one it accepts can be
    # loaded for every subject, and verify decides every gallery pair
    with tempfile.TemporaryDirectory() as work:
        manifest = _random_gallery(work, counts, seed, spread, pixels)
        cfg = _write_config(Path(work, "cfg.ini"), work, manifest, work)
        models = os.path.join(work, "models")
        prepped = os.path.join(work, "prepped")
        code, err = _run(["--config", cfg, "prep", "--out-dir", prepped])
        if code == 0:
            code, err = _run(["--config", cfg, "train", "--manifest",
                              os.path.join(prepped, "manifest.json")])
        if code != 0:
            assert code == 2, err
            assert not os.path.exists(models), err
            return
        records = json.loads(Path(prepped, "manifest.json").read_text())
        subjects = [f"s{i}" for i in range(len(counts))]
        config = load_config(cfg)
        for modality in ("face", "ear"):
            pipeline.load_artifacts(models, modality, subjects, config)
        for sid in subjects:
            pair = {r["modality"]: r["image_path"] for r in reversed(records)
                    if r["subject_id"] == sid}
            code, err = _run(["--config", cfg, "verify", "--face",
                              pair["face"], "--ear", pair["ear"],
                              "--claim", sid])
            assert code in (0, 1), err
