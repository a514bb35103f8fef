"""Command-line frontend.

Subcommands: prep, train, verify, eval, synth-eval. One INI config file
drives everything; --seed overrides the config seed. Exit codes: 0 on
success (or ACCEPT), 1 on REJECT, 2 on any error. All file writes are
atomic (write to a temp file, then rename).
"""

import argparse
import contextlib
import json
import os
import sys

from . import __version__
from .atomic import move_aside, write_atomic, write_json
from .config import PipelineConfig, load_config
from .errors import BiofuseError
from .evaluate import (fused_genuine_mass, run_fusion_experiment,
                       run_image_experiment)
from .gabor import build_bank
# match_score is unused here; perfbench's tracer tests check this import site
from .gmm import MODEL_FORMAT_VERSION, match_score  # noqa: F401
from .pgm import write_pgm
from .pipeline import (MODALITIES, entry_image, image_observations,
                       load_artifacts, probe_score, read_image,
                       save_artifacts, train_gallery)
from .preprocess import load_manifest


def cmd_prep(config: PipelineConfig, manifest_path, out_dir) -> int:
    """Normalize every manifest image to the canonical frame and write the
    results plus an updated manifest: landmarks moved to their canonical
    positions, and each record marked "prepped": true. A record already
    marked is copied, not prepped again (pipeline.entry_image), so a
    re-run on the output writes the same pixels. A prep that fails leaves
    every file in out_dir as it found it."""
    entries = load_manifest(manifest_path)
    os.makedirs(out_dir, exist_ok=True)
    records = []
    created = []   # the files this run writes where there was none
    aside = {}     # the files it replaces -> where the old ones wait

    def claim(path):
        moved = move_aside(path)
        if moved is None:
            created.append(path)
        else:
            aside[path] = moved

    manifest_out = os.path.join(out_dir, "manifest.json")
    try:
        # the old manifest goes first, so no manifest names a mix of old
        # and new images while this run writes them
        claim(manifest_out)
        for i, entry in enumerate(entries):
            try:
                prepped = entry_image(entry, config)
            except (BiofuseError, ValueError) as exc:
                # entry_image's message names the image file
                raise type(exc)(f"manifest record {i}: {exc}") from exc
            name = (f"{i:04d}_{entry.subject_id}_{entry.modality}"
                    f"_s{entry.session}.pgm")
            out_path = os.path.join(out_dir, name)
            claim(out_path)
            write_pgm(prepped, out_path)
            canonical = config.layout.positions(entry.modality)
            records.append({
                "image_path": out_path,
                "modality": entry.modality,
                "subject_id": entry.subject_id,
                "session": entry.session,
                "landmarks": {k: [v[0], v[1]]
                              for k, v in canonical.items()},
                "prepped": True,
            })
        write_json(manifest_out, records)
    except BaseException:
        # the files this run created go, and the ones it replaced come
        # back
        for path in created:
            with contextlib.suppress(OSError):
                os.remove(path)
        for path, moved in aside.items():
            with contextlib.suppress(OSError):
                os.replace(moved, path)
        raise
    for moved in aside.values():
        os.remove(moved)
    print(f"prepped {len(records)} images -> {out_dir}")
    return 0


def cmd_train(config: PipelineConfig, manifest_path) -> int:
    """Fit client and background mixtures from session-1 (gallery) images
    of a manifest, raw or `prep`'s output (pipeline.entry_image), and
    persist them with the per-modality stats. Every modality is trained
    before anything is written, so a failure to train leaves model_dir as
    it was."""
    trained = train_gallery(load_manifest(manifest_path), config,
                            build_bank(config.gabor))
    save_artifacts(config.paths.model_dir, trained, config)
    for modality, artifacts in trained.items():
        print(f"trained {len(artifacts.clients)} {modality} client models "
              f"+ background")
    return 0


def cmd_verify(config: PipelineConfig, face_path, ear_path, claimed_id) -> int:
    """Score one prepped face/ear probe pair against a claimed identity.
    Both modalities' models are loaded, and refused when they cannot serve
    config, before pipeline.read_image reads either probe, naming it in
    any error. The probes' observations are cached under <output_dir>/cache."""
    artifacts = {modality: load_artifacts(config.paths.model_dir, modality,
                                          [claimed_id], config)
                 for modality in MODALITIES}
    bank = build_bank(config.gabor)
    scores = {}
    for modality, path in (("face", face_path), ("ear", ear_path)):
        img = read_image(path, f"{modality} probe {path}", config)
        obs = image_observations(
            img, bank, config,
            cache_dir=os.path.join(config.paths.output_dir, "cache"))
        scores[modality] = probe_score(artifacts[modality], obs).item()

    fusion = config.fusion
    genuine_mass, impostor_mass, conflict, flagged = (
        value.item() for value in fused_genuine_mass(
            scores["face"], scores["ear"],
            {m: artifacts[m].calibration for m in MODALITIES}, fusion))
    accepted = genuine_mass >= fusion.threshold and not flagged
    verdict = "ACCEPT" if accepted else "REJECT"
    print(f"{verdict} m_genuine={genuine_mass:.6f} conflict={conflict:.6f} "
          f"threshold={fusion.threshold}")
    print(json.dumps({
        "decision": verdict,
        "claimed_id": claimed_id,
        "m_genuine": genuine_mass,
        "m_impostor": impostor_mass,
        "conflict": conflict,
        "threshold": fusion.threshold,
        "face_score": scores["face"],
        "ear_score": scores["ear"],
        "total_conflict_flag": flagged,
    }, sort_keys=True))
    return 0 if accepted else 1


def _emit_report(report, rocs, out_dir, prefix=""):
    os.makedirs(out_dir, exist_ok=True)
    write_atomic(os.path.join(out_dir, f"{prefix}report.csv"),
                 report.to_csv().encode("utf-8"))
    for method, roc in rocs.items():
        write_atomic(os.path.join(out_dir, f"{prefix}roc_{method}.csv"),
                     roc.to_csv().encode("utf-8"))
    print(report.format_table())


def cmd_eval(config: PipelineConfig, manifest_path) -> int:
    """Full image experiment: report.csv plus one ROC CSV per method. The
    models `train` wrote are reused when they were fitted from the same
    gallery and settings; model_dir is never written."""
    # the scores are not kept while the report is written
    report, rocs = run_image_experiment(manifest_path, config)[:2]
    _emit_report(report, rocs, config.paths.output_dir)
    return 0


def cmd_synth_eval(config: PipelineConfig) -> int:
    """Synthetic-matcher experiment from the [synth_*] config sections."""
    report, rocs = run_fusion_experiment(config)[:2]
    _emit_report(report, rocs, config.paths.output_dir, prefix="synth_")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biofuse",
        description="Face/ear verification with Gabor features, mixture "
                    "scoring, and Dempster-Shafer fusion.")
    parser.add_argument("--config", help="INI config file path")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument(
        "--version", action="version",
        version=f"biofuse {__version__} (model format_version "
                f"{MODEL_FORMAT_VERSION})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prep", help="normalize manifest images")
    p.add_argument("--manifest", help="dataset manifest (JSON); records "
                                      "an earlier prep marked are copied")
    p.add_argument("--out-dir", help="directory for prepped images")

    p = sub.add_parser("train", help="fit client + background models")
    p.add_argument("--manifest", help="dataset manifest (JSON), raw or "
                                      "prep's output")

    p = sub.add_parser("verify", help="verify one identity claim")
    p.add_argument("--face", required=True, help="prepped face probe (PGM)")
    p.add_argument("--ear", required=True, help="prepped ear probe (PGM)")
    p.add_argument("--claim", required=True, help="claimed subject id")

    p = sub.add_parser("eval", help="full image experiment")
    p.add_argument("--manifest", help="dataset manifest (JSON), raw or "
                                      "prep's output")

    sub.add_parser("synth-eval", help="synthetic-matcher experiment")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config) if args.config else PipelineConfig()
        if args.seed is not None:
            if args.seed < 0:
                raise ValueError(
                    f"--seed must be non-negative, got {args.seed}")
            config = config.with_seed(args.seed)

        if args.command == "prep":
            manifest = args.manifest or config.paths.manifest
            out_dir = args.out_dir or os.path.join(
                config.paths.output_dir, "prepped")
            return cmd_prep(config, manifest, out_dir)
        if args.command == "train":
            return cmd_train(config, args.manifest or config.paths.manifest)
        if args.command == "verify":
            return cmd_verify(config, args.face, args.ear, args.claim)
        if args.command == "eval":
            return cmd_eval(config, args.manifest or config.paths.manifest)
        if args.command == "synth-eval":
            return cmd_synth_eval(config)
        raise AssertionError(f"unhandled command {args.command}")
    except (BiofuseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
