"""Per-layer measurements for the traced run, taken from outside ``paeff``.

``Tracer`` replaces the program's public functions, in every ``paeff``
module that binds them, with wrappers that record a span (name, start,
end, parent, phase, item count); ``uninstall`` puts the originals back.
``layer_sweep`` times each layer's forward and backward apart at one batch,
and ``tape_stats`` walks the autodiff graph reachable from a loss root.
Nothing here changes the program's results.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

import numpy as np

from paeff import hyperbolic as hyp
from paeff import losses, model, trainer
from paeff.autodiff import Tensor

# Functions wrapped in the traced run, with how to count the items a call handles.
TRACED = {
    "autodiff.Tensor.backward": None,
    "hyperbolic.exp_map_origin": None,
    "hyperbolic.log_map_origin": None,
    "hyperbolic.poincare_distance": None,
    "hyperbolic.pairwise_distances": None,
    "model.forward": None,
    "model.project_modality": None,
    "model.lift": None,
    "model.egff_fuse": None,
    "model.fuse_project": None,
    "model.classify": None,
    "model.encode_modality": None,
    "model.save_checkpoint": None,
    "model.load_checkpoint": None,
    "losses.alignment_loss": None,
    "losses.orthogonal_projection_loss": None,
    "losses.cross_entropy_loss": None,
    "trainer.train": None,
    "trainer.step_losses": None,
    "trainer.adamw_step": None,
    "data.synth_generate": None,
    "data.write_dataset": lambda args, out: len(args[1]),
    "data.load_dataset": lambda args, out: len(out),
    "data.make_batches": None,
    "evaluation.build_verification_trials": None,
    "evaluation.score_trials": lambda args, out: len(args[0]),
    "evaluation.compute_eer": None,
    "evaluation.compute_auc": None,
    "evaluation.build_matching_trials": None,
    "evaluation.matching_accuracy": lambda args, out: len(args[0]),
    "evaluation.stratified_report": None,
    "config.sha256_file": None,
    "cli.cmd_synth": None,
    "cli.cmd_train": None,
    "cli.cmd_eval": None,
}

NAME, START, END, PARENT, PHASE, ITEMS = range(6)


class Tracer:
    """Spans kept in memory while installed; ``phase`` tags each new span."""

    def __init__(self):
        self.spans: list[list] = []
        self.phase = "flow"
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for qualname, count in TRACED.items():
            module, _, rest = qualname.partition(".")
            owner = sys.modules["paeff." + module]
            if "." in rest:  # a method: patch the class only
                cls, _, attr = rest.partition(".")
                owner = getattr(owner, cls)
                holders = [owner]
            else:
                attr = rest
                holders = [m for n, m in sys.modules.items() if n.startswith("paeff.")]
            original = getattr(owner, attr)
            wrapper = self._wrapper(original, qualname, count)
            for holder in holders:
                if getattr(holder, attr, None) is original:
                    self._patched.append((holder, attr, original))
                    setattr(holder, attr, wrapper)

    def _wrapper(self, original, name: str, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.phase, 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter_ns()
            try:
                out = original(*args, **kwargs)
            finally:
                span[END] = time.perf_counter_ns()
                stack.pop()
            if count is not None:
                span[ITEMS] = count(args, out)
            return out

        return wrapper

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    def self_times(self) -> dict[str, dict]:
        """Per span name: calls, total and self milliseconds (self = minus direct children)."""
        child_ns = [0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child_ns[s[PARENT]] += s[END] - s[START]
        table: dict[str, dict] = {}
        for i, s in enumerate(self.spans):
            row = table.setdefault(s[NAME], {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["total_ms"] += (s[END] - s[START]) / 1e6
            row["self_ms"] += (s[END] - s[START] - child_ns[i]) / 1e6
        return table

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics that come from spans; setup-phase spans count only for writes."""
        spans = self.spans
        in_train = [False] * len(spans)
        for i, s in enumerate(spans):  # parents precede children
            p = s[PARENT]
            in_train[i] = p >= 0 and (in_train[p] or spans[p][NAME] == "trainer.train")

        def pick(name, where=lambda i: True, phases=("flow", "probe")):
            got = [i for i, s in enumerate(spans) if s[NAME] == name and s[PHASE] in phases and where(i)]
            if not got:
                raise LookupError(f"traced run recorded no {name} call")
            return got

        def secs(idx):
            return [(spans[i][END] - spans[i][START]) / 1e9 for i in idx]

        def mean_ms(name, **kw):
            return 1e3 * statistics.fmean(secs(pick(name, **kw)))

        def rate(name, **kw):
            idx = pick(name, **kw)
            return sum(spans[i][ITEMS] for i in idx) / sum(secs(idx))

        def child_of_train(i):
            p = spans[i][PARENT]
            return p >= 0 and spans[p][NAME] == "trainer.train"

        epochs = len(pick("data.make_batches", child_of_train))
        validation = sum(sum(secs(pick(n, child_of_train))) for n in
                         ("evaluation.score_trials", "evaluation.compute_eer", "evaluation.compute_auc"))
        commands = len(pick("cli.cmd_train")) + len(pick("cli.cmd_eval"))
        outside_train = lambda i: not in_train[i]  # noqa: E731
        return {
            "trainer.step_losses_ms": mean_ms("trainer.step_losses"),
            "trainer.adamw_step_ms": mean_ms("trainer.adamw_step"),
            "trainer.validation_ms": 1e3 * validation / epochs,
            "data.make_batches_ms": mean_ms("data.make_batches"),
            "data.write_dataset.records_per_s": rate("data.write_dataset", phases=("setup", "probe")),
            "data.load_dataset.records_per_s": rate("data.load_dataset"),
            "config.sha256_file_ms": 1e3 * sum(secs(pick("config.sha256_file"))) / commands,
            "evaluation.build_verification_trials_ms": mean_ms("evaluation.build_verification_trials",
                                                               where=outside_train),
            "evaluation.score_trials.trials_per_s": rate("evaluation.score_trials", where=outside_train),
            "evaluation.build_matching_trials_ms": mean_ms("evaluation.build_matching_trials"),
            "evaluation.matching_accuracy.trials_per_s": rate("evaluation.matching_accuracy"),
            "evaluation.stratified_report_ms": mean_ms("evaluation.stratified_report"),
            "model.save_checkpoint_ms": mean_ms("model.save_checkpoint"),
            "model.load_checkpoint_ms": mean_ms("model.load_checkpoint"),
            "cli.cmd_train_s": mean_ms("cli.cmd_train") / 1e3,
            "cli.cmd_eval_s": mean_ms("cli.cmd_eval") / 1e3,
        }


def tape_stats(root: Tensor) -> tuple[int, float]:
    """Nodes reachable from ``root`` and the MB of distinct arrays they and their VJPs hold."""
    seen: set[int] = set()
    arrays: dict[int, int] = {}
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        arrays[id(node.data)] = node.data.nbytes
        for vjp in node._vjps:
            for cell in vjp.__closure__ or ():
                value = cell.cell_contents
                if isinstance(value, np.ndarray):
                    arrays[id(value)] = value.nbytes
        stack.extend(node._parents)
    return len(seen), sum(arrays.values()) / 2**20


def _scalar(outputs, rng: np.random.Generator) -> Tensor:
    """A scalar root that sends a fixed random cotangent into every output."""
    root = None
    for out in outputs:
        t = out.vector if isinstance(out, hyp.PoincarePoint) else out
        term = t if t.size == 1 else (t * Tensor(rng.standard_normal(t.shape))).sum()
        root = term if root is None else root + term
    return root


def layer_sweep(faces: np.ndarray, voices: np.ndarray, labels: np.ndarray, params: model.ModelParams,
                cfg: model.ModelConfig, weights: losses.LossWeights, reps: int) -> dict[str, float]:
    """Median forward and backward milliseconds of each layer at this batch, plus tape size."""
    ref = model.forward(Tensor(faces), Tensor(voices), params, cfg)
    xf, xv = ref.face_proj.data, ref.voice_proj.data
    pf, pv = ref.face_aligned.numpy(), ref.voice_aligned.numpy()
    lf = hyp.log_map_origin(ref.face_aligned).data
    lv = hyp.log_map_origin(ref.voice_aligned).data
    fused, emb, logits = ref.fused.data, ref.embedding.data, ref.logits.data
    del ref

    def leaf(a):
        return Tensor(a, requires_grad=True)

    def point(a):
        return hyp.PoincarePoint(leaf(a), cfg.ball)

    # name -> (fresh leaf inputs, the layer applied to them)
    cases = {
        "model.project_modality": (lambda: (Tensor(faces), Tensor(voices)), lambda f, v: (
            model.project_modality(f, "face", params, cfg), model.project_modality(v, "voice", params, cfg))),
        "model.lift": (lambda: (leaf(xf), leaf(xv)), lambda f, v: (model.lift(f, cfg), model.lift(v, cfg))),
        "hyperbolic.log_map_origin": (lambda: (point(pf), point(pv)),
                                      lambda f, v: (hyp.log_map_origin(f), hyp.log_map_origin(v))),
        "model.egff_fuse": (lambda: (leaf(lf), leaf(lv)), lambda f, v: (model.egff_fuse(f, v, params, cfg),)),
        "model.fuse_project": (lambda: (leaf(fused),), lambda x: (model.fuse_project(x, params),)),
        "model.classify": (lambda: (leaf(emb),), lambda x: (model.classify(x, params),)),
        "hyperbolic.pairwise_distances": (lambda: (point(pf), point(pv)),
                                          lambda f, v: (hyp.pairwise_distances(f, v),)),
        "losses.alignment_loss": (lambda: (point(pf), point(pv)), lambda f, v: (
            losses.alignment_loss(f, v, params.logit_scale, cfg.effective_similarity()),)),
        "losses.orthogonal_projection_loss": (lambda: (leaf(emb),),
                                              lambda x: (losses.orthogonal_projection_loss(x, labels),)),
        "losses.cross_entropy_loss": (lambda: (leaf(logits),), lambda x: (losses.cross_entropy_loss(x, labels),)),
    }
    out: dict[str, float] = {}
    for name, (inputs, layer) in cases.items():
        rng = np.random.default_rng(0)
        fwd, bwd = [], []
        for _ in range(reps):
            params.zero_grads()
            args = inputs()
            t0 = time.perf_counter()
            outputs = layer(*args)
            t1 = time.perf_counter()
            root = _scalar(outputs, rng)
            t2 = time.perf_counter()
            root.backward()
            t3 = time.perf_counter()
            fwd.append(t1 - t0)
            bwd.append(t3 - t2)
            del args, outputs, root
        out[f"{name}.fwd_ms"] = 1e3 * statistics.median(fwd)
        out[f"{name}.bwd_ms"] = 1e3 * statistics.median(bwd)

    backward = []
    for i in range(reps):
        params.zero_grads()
        step = trainer.step_losses(Tensor(faces), Tensor(voices), labels, params, cfg, weights)
        if i == 0:
            out["autodiff.tape_nodes"], out["autodiff.tape_mb"] = tape_stats(step.total)
        t0 = time.perf_counter()
        step.total.backward()
        backward.append(time.perf_counter() - t0)
        del step
    out["autodiff.backward_ms"] = 1e3 * statistics.median(backward)
    params.zero_grads()
    return out
