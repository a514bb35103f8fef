"""Span tracer installed around biofuse's public functions from outside.

Each wrapped call records one span: name, start, end, parent span and the
benchmark op it belongs to. Spans live in flat arrays in memory and are
written out once, when the run ends. A layer's self time is its span's
duration minus the time its child spans cover.

The modules bind names with `from .x import y`, so a wrapper has to be
installed at every module that holds the original function object (for
example `match_score` in both `biofuse.cli` and `biofuse.pipeline`).
`install` patches each such binding and then checks that no biofuse module
still binds an original, so a missed import site fails loudly instead of
reading 0 s.
"""

import functools
import sys
import time
from array import array

import numpy as np

from biofuse.errors import TotalConflict


def _count_size(key):
    def hook(counters, result):
        counters[key] += np.size(getattr(result, "observations", result))
    return hook


def _count_em_iters(counters, result):
    counters["gmm.em_iters"] += len(result[1])


def _count_conflict(counters, exc):
    if isinstance(exc, TotalConflict):
        counters["dempster.total_conflicts"] += 1


# (module under biofuse, attribute, result hook, exception hook)
TARGETS = (
    ("cli", "main", None, None),
    ("cli", "cmd_prep", None, None),
    ("cli", "cmd_train", None, None),
    ("cli", "cmd_verify", None, None),
    ("cli", "cmd_eval", None, None),
    ("cli", "cmd_synth_eval", None, None),
    ("config", "load_config", None, None),
    ("preprocess", "load_manifest", None, None),
    ("preprocess", "geometric_normalize", None, None),
    ("preprocess", "histogram_equalize", None, None),
    ("pgm", "load_pgm", None, None),
    ("pgm", "write_pgm", None, None),
    ("gabor", "build_bank", None, None),
    ("gabor", "convolve", _count_size("gabor.values_computed"), None),
    ("gabor", "downsample", _count_size("gabor.values_kept"), None),
    ("pipeline", "image_observations", None, None),
    ("pipeline", "train_modality", None, None),
    ("pipeline", "probe_score", None, None),
    ("gmm", "em_fit", _count_em_iters, None),
    ("gmm", "kmeans_init", None, None),
    ("gmm", "match_score", None, None),
    ("gmm", "load_model", None, None),
    ("gmm", "save_model", None, None),
    ("dempster", "combine_dempster", None, _count_conflict),
    ("dempster", "decide", None, None),
    ("evaluate", "fused_genuine_mass", None, None),
    ("evaluate", "compute_roc", None, None),
    ("evaluate", "eer", None, None),
    ("evaluate", "RocCurve.to_csv", None, None),
    ("evaluate", "run_fusion_experiment", None, None),
    ("evaluate", "run_image_experiment", None, None),
)

SPAN_NAMES = tuple(f"{module}.{attr}" for module, attr, _, _ in TARGETS)
LAYERS = tuple(dict.fromkeys(module for module, _, _, _ in TARGETS))
COUNTERS = ("gmm.em_iters", "dempster.total_conflicts",
            "gabor.values_computed", "gabor.values_kept")


def _biofuse_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "biofuse"
                                  or name.startswith("biofuse."))]


class Tracer:
    """Records spans while installed; `current_op` tags them with an op id."""

    def __init__(self):
        self.names = list(SPAN_NAMES)
        self.name_id = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.current_op = -1
        self._stack = [-1]
        self._patched = []      # (owner, attribute, original)

    def _wrap(self, nid, fn, on_result, on_error):
        name_id, parent, op_id = self.name_id, self.parent, self.op_id
        start, end, stack = self.start, self.end, self._stack
        counters = self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            op_id.append(self.current_op)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end[idx] = clock()
                stack.pop()
                if on_error is not None:
                    on_error(counters, exc)
                raise
            end[idx] = clock()
            stack.pop()
            if on_result is not None:
                on_result(counters, result)
            return result
        return traced

    def install(self):
        modules = _biofuse_modules()
        originals = []
        for nid, (module, attr, on_result, on_error) in enumerate(TARGETS):
            owner = sys.modules[f"biofuse.{module}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._patch(cls, method, original,
                            self._wrap(nid, original, on_result, on_error))
                originals.append(original)
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(nid, original, on_result, on_error)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapped)
            originals.append(original)
        missed = unwrapped_sites(originals)
        if missed:
            self.uninstall()
            raise RuntimeError(f"tracer left original bindings: {missed}")

    def _patch(self, owner, key, original, wrapped):
        setattr(owner, key, wrapped)
        self._patched.append((owner, key, original))

    def uninstall(self):
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def arrays(self):
        return (np.frombuffer(self.name_id, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.op_id, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64))

    def calls_per_op(self):
        """{op id: tuple of call counts, one per span name}."""
        nid, _, op, _, _ = self.arrays()
        return {int(o): tuple(np.bincount(nid[op == o],
                                          minlength=len(self.names)).tolist())
                for o in np.unique(op)}

    def summary(self, n_ops):
        """Per-layer metrics, each averaged over n_ops traced ops:
        `<name>.calls`, `<name>.s` (self time), `layer.<module>.s` (self
        time of the module's wrapped functions), cache hits and misses,
        EM iterations, total conflicts and the Gabor kept ratio."""
        nid, parent, _, start, end = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=dur.size)
        self_time = dur - covered
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        busy = np.bincount(nid, weights=self_time, minlength=k)
        out = {}
        layers = dict.fromkeys(LAYERS, 0.0)
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[i] / n_ops
            out[f"{name}.s"] = busy[i] / n_ops
            layers[name.split(".")[0]] += busy[i] / n_ops
        for layer, seconds in layers.items():
            out[f"layer.{layer}.s"] = seconds

        observe = nid == self.names.index("pipeline.image_observations")
        convolved = np.zeros(dur.size, dtype=bool)
        conv_parents = parent[nid == self.names.index("gabor.convolve")]
        convolved[conv_parents[conv_parents >= 0]] = True
        misses = int(np.count_nonzero(observe & convolved))
        out["pipeline.cache_misses"] = misses / n_ops
        out["pipeline.cache_hits"] = \
            (int(np.count_nonzero(observe)) - misses) / n_ops
        out["gmm.em_iters"] = self.counters["gmm.em_iters"] / n_ops
        out["dempster.total_conflicts"] = \
            self.counters["dempster.total_conflicts"] / n_ops
        computed = self.counters["gabor.values_computed"]
        out["gabor.kept_ratio"] = \
            self.counters["gabor.values_kept"] / computed if computed else 0.0
        return out

    def write(self, path):
        nid, parent, op, start, end = self.arrays()
        with open(path, "wb") as fh:
            np.savez(fh, names=np.array(self.names), name_id=nid,
                     parent=parent, op_id=op, start=start, end=end,
                     counter_names=np.array(list(self.counters)),
                     counter_values=np.array(list(self.counters.values()),
                                             dtype=np.float64))


def unwrapped_sites(originals):
    """(module, name) pairs in loaded biofuse modules still bound to one of
    `originals`; empty when every import site is wrapped."""
    ids = {id(f) for f in originals}
    return [(mod.__name__, key) for mod in _biofuse_modules()
            for key, value in vars(mod).items() if id(value) in ids]
