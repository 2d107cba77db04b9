"""One run of one benchmark workload, in the fresh process ``run.py`` starts.

    python3 bench/workload.py <workload> <seed> <seconds> <trace 0|1> <tmp dir> <output file>

Set-up (imports, inputs, a warm-up step) is timed apart from the flow.
The flow is then repeated in whole rounds until ``seconds`` have passed,
and each metric is the median over rounds. Peak RSS is read before the
outputs are checked, so the oracles' own memory never counts. With trace
1 the run instead times one untraced and one traced round and sweeps the
layers. The output file holds the metrics, the checks made and, for a
traced run, the spans.
"""

import time

T0 = time.perf_counter()
import numpy as np  # noqa: E402
from paeff import cli, data, evaluation, model, trainer  # noqa: E402

IMPORT_S = time.perf_counter() - T0

import ctypes  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402

import oracles  # noqa: E402
from oracles import Checks  # noqa: E402

# Inputs: the paper's geometry (face 512, voice 192, D = 128) on coupled
# synthetic identities. rho, sigma and lr0 are chosen so the head learns
# within a short run; at the CLI default lr0 = 2e-5 test EER stays near 0.5.
FACE_DIM, VOICE_DIM, LATENT_DIM = 512, 192, 16
RHO, SIGMA = 0.8, 0.5
LR0 = 3e-3
# A model that learned nothing scores EER ~0.5 and AUC ~0.5; require better by this much.
MARGIN = 0.10
STRATA = ("random", "G", "N", "A", "GNA")
NC_LIST = (2, 4, 6, 8, 10)
BALL = {"curvature": 1.0, "tangent_clip": 0.5, "boundary_eps": 1e-5}  # ModelConfig defaults


@dataclass(frozen=True)
class Spec:
    identities: int
    samples_per_id: int
    val_ids: int
    test_ids: int
    batch: int | None  # None: the trainer's own choice
    expected_batch: int
    epochs: int
    verification_trials: int
    matching_trials: int  # per gallery size
    setups: int  # set-up repetitions; setup_s is their median
    sweep_reps: int


_B256 = Spec(identities=592, samples_per_id=4, val_ids=16, test_ids=64, batch=256, expected_batch=256, epochs=2,
             verification_trials=10000, matching_trials=1000, setups=5, sweep_reps=3)
SPECS = {
    "train-b256": _B256,
    "train-b64": replace(_B256, batch=None, expected_batch=64, epochs=6, sweep_reps=10),
    "cli-large": Spec(identities=1000, samples_per_id=10, val_ids=50, test_ids=200, batch=64, expected_batch=64,
                      epochs=2, verification_trials=20000, matching_trials=500, setups=3, sweep_reps=10),
}

now = time.perf_counter


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_since(start: os.times_result) -> dict:
    end = os.times()
    return {"user_s": end.user - start.user, "sys_s": end.system - start.system}


def blas_info() -> dict:
    """The BLAS numpy was built with and the thread count it runs with."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in sorted(Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*")):
        cdll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(cdll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


# -- checks shared by every workload -----------------------------------------------


def tags(rec) -> dict:
    return {"gender": rec.gender, "nationality": rec.nationality, "age_group": rec.age_group}


def check_evaluation(checks: Checks, spec: Spec, weights: dict, test_ids: frozenset, trials, scores,
                     reported: list[dict], matching: list[tuple[list, dict]]) -> tuple[float, float]:
    """Check one test evaluation against the oracles; return the oracle EER and AUC.

    ``trials`` are the verification trials with ``scores`` the program gave
    them; ``reported`` the per-stratum rows (stratum, n_trials, eer, auc);
    ``matching`` pairs each gallery size's trials with its reported row.
    """
    labels = np.array([t.is_match for t in trials])
    checks.expect("verification.count", len(trials) == spec.verification_trials, f"{len(trials)} trials")
    checks.expect("verification.balanced", 2 * int(labels.sum()) == len(trials), f"{int(labels.sum())} matches")
    checks.expect("verification.labels", all(
        t.is_match == (t.face.identity_id == t.voice.identity_id) and t.face.identity_id in test_ids
        and t.voice.identity_id in test_ids and t.face.modality == "face" and t.voice.modality == "voice"
        for t in trials), "a trial's label disagrees with its identities or split")
    want = oracles.score(np.stack([t.face.vector for t in trials]), np.stack([t.voice.vector for t in trials]),
                         weights, **BALL)
    checks.scores("verification.scores", np.asarray(scores, dtype=np.float64), want)

    pairs = [(tags(t.face), tags(t.voice), t.is_match) for t in trials]
    rows = {r["stratum"]: r for r in reported}
    checks.expect("strata.reported", sorted(rows) == sorted(STRATA), f"{sorted(rows)}")
    oracle_rows = {}
    for stratum in STRATA:
        keep = oracles.stratum_mask(pairs, stratum)
        oracle_rows[stratum] = want_row = {"n_trials": int(keep.sum()), "eer": oracles.eer(want[keep], labels[keep]),
                                           "auc": oracles.auc(want[keep], labels[keep])}
        row = rows.get(stratum, {"n_trials": -1, "eer": math.nan, "auc": math.nan})
        checks.expect(f"strata.{stratum}.n_trials", row["n_trials"] == want_row["n_trials"],
                      f"{row['n_trials']} vs {want_row['n_trials']}")
        checks.close(f"strata.{stratum}.eer", row["eer"], want_row["eer"])
        checks.close(f"strata.{stratum}.auc", row["auc"], want_row["auc"])

    checks.expect("matching.sizes", [len(m[0][0].gallery) for m in matching] == list(NC_LIST))
    for m_trials, row in matching:
        n_c = len(m_trials[0].gallery)
        checks.expect(f"matching.{n_c}.n_trials", row["n_trials"] == spec.matching_trials == len(m_trials))
        checks.expect(f"matching.{n_c}.galleries", all(
            len(t.gallery) == n_c and t.probe.modality == "voice" and t.probe.identity_id in test_ids
            and all(g.modality == "face" and g.identity_id in test_ids
                    and (g.identity_id == t.probe.identity_id) == (j == t.correct_index)
                    for j, g in enumerate(t.gallery))
            for t in m_trials), "a gallery's true item or distractors are wrong")
        gallery = np.stack([g.vector for t in m_trials for g in t.gallery])
        probes = np.repeat(np.stack([t.probe.vector for t in m_trials]), n_c, axis=0)
        m_scores = oracles.score(gallery, probes, weights, **BALL).reshape(len(m_trials), n_c)
        correct = np.array([t.correct_index for t in m_trials])
        checks.close(f"matching.{n_c}.accuracy", row["accuracy"], oracles.matching_accuracy(m_scores, correct))

    eer, auc = oracle_rows["random"]["eer"], oracle_rows["random"]["auc"]
    checks.expect("quality.eer", eer <= 0.5 - MARGIN, f"test EER {eer:.4f} not below {0.5 - MARGIN}")
    checks.expect("quality.auc", auc >= 0.5 + MARGIN, f"test AUC {auc:.4f} not above {0.5 + MARGIN}")
    return eer, auc


# -- train-b256 and train-b64: the public API on in-memory data ------------------------


class TrainWorkload:
    """``trainer.train`` then a test evaluation through ``evaluation``, on in-memory inputs."""

    ops_per_round = 2  # trainer.train, test evaluation

    def __init__(self, spec: Spec, seed: int, tmp: Path):
        self.spec, self.seed, self.tmp = spec, seed, tmp
        self.rounds: list[dict] = []
        self.first = None

    def setup(self) -> float:
        t = now()
        s = self.spec
        self.dataset = data.synth_generate(s.identities, s.samples_per_id, FACE_DIM, VOICE_DIM, RHO, SIGMA,
                                           seed=self.seed, latent_dim=LATENT_DIM)
        self.split = data.make_unseen_split(self.dataset, s.val_ids, s.test_ids, seed=self.seed)
        self.model_cfg = model.ModelConfig(FACE_DIM, VOICE_DIM, num_identities=len(self.split.train_ids))
        self.train_cfg = trainer.TrainConfig(epochs=s.epochs, batch_size=s.batch, lr0=LR0, seed=self.seed)
        self.batch = trainer.resolve_batch_size(self.train_cfg, self.dataset, self.split)
        first = data.make_batches(self.dataset, self.split, self.batch, seed=self.seed)[0]
        params = model.init_params(self.model_cfg, self.seed)
        step = trainer.step_losses(first.faces, first.voices, first.labels, params, self.model_cfg,
                                   self.train_cfg.loss_weights)
        step.total.backward()
        trainer.adamw_step(params, trainer.AdamState(), LR0, self.train_cfg)
        return now() - t

    def evaluate(self, params, cfg) -> dict:
        s = self.spec
        trials = evaluation.build_verification_trials(self.dataset, self.split, s.verification_trials, self.seed)
        evaluation.score_trials(trials, params, cfg)
        eer, _ = evaluation.compute_eer(trials)
        auc = evaluation.compute_auc(trials)
        strata = evaluation.stratified_report(trials, STRATA)
        matching = []
        for n_c in NC_LIST:
            m_trials = evaluation.build_matching_trials(self.dataset, self.split, n_c, s.matching_trials, self.seed)
            matching.append((m_trials, evaluation.matching_accuracy(m_trials, params, cfg)))
        return {"trials": trials, "eer": eer, "auc": auc, "strata": strata, "matching": matching}

    def round(self) -> dict:
        c0 = os.times()
        t0 = now()
        result = trainer.train(self.dataset, self.split, self.model_cfg, self.train_cfg)
        t1 = now()
        ev = self.evaluate(result.params, result.model_cfg)
        t2 = now()
        steps = len(result.history) * -(-len(self.split.train_ids) // result.batch_size)
        n_eval = len(ev["trials"]) + sum(r.n_trials for _, r in ev["matching"])
        summary = {
            "flow_s": t2 - t0, "train_s": t1 - t0, "eval_s": t2 - t1, "steps": steps, **cpu_since(c0),
            "train_pairs_per_s": steps * result.batch_size / (t1 - t0), "eval_trials_per_s": n_eval / (t2 - t1),
            "batch": result.batch_size, "epochs": len(result.history),
            "finite": all(math.isfinite(v) for h in result.history for v in h.as_dict().values()),
            "eer": ev["eer"], "auc": ev["auc"], "params": result.params.copy_values(),
        }
        if self.first is None:
            self.first = (result, ev)
        self.rounds.append(summary)
        return summary

    def check(self, checks: Checks) -> dict:
        result, ev = self.first
        ref = self.rounds[0]
        for k, r in enumerate(self.rounds):
            checks.expect(f"round{k}.batch", r["batch"] == self.spec.expected_batch, f"batch {r['batch']}")
            checks.expect(f"round{k}.epochs", r["epochs"] == self.spec.epochs)
            checks.expect(f"round{k}.finite", r["finite"], "non-finite loss or metric in history")
            checks.expect(f"round{k}.same_as_round0", r["eer"] == ref["eer"] and r["auc"] == ref["auc"] and all(
                np.array_equal(v, ref["params"][n]) for n, v in r["params"].items()),
                "a repeated round gave other parameters or metrics")
        weights = {name: t.data for name, t in result.params.named()}
        strata = [{"stratum": r.stratum, "n_trials": r.n_trials, "eer": r.eer, "auc": r.auc} for r in ev["strata"]]
        matching = [(m, {"n_trials": r.n_trials, "accuracy": r.accuracy}) for m, r in ev["matching"]]
        eer, auc = check_evaluation(checks, self.spec, weights, self.split.test_ids, ev["trials"],
                                    [t.score for t in ev["trials"]], strata, matching)
        checks.close("verification.eer", ev["eer"], eer)
        checks.close("verification.auc", ev["auc"], auc)
        return {"test_eer": eer, "test_auc": auc}

    def probe(self) -> None:
        """Traced run only: the file and CLI layers this workload's flow bypasses, on its own inputs."""
        d = self.tmp / "probe"
        d.mkdir()
        data.write_dataset(d / "data.fve", self.dataset)
        for part in ("train", "val", "test"):
            data.write_split_file(d / f"{part}.ids", getattr(self.split, f"{part}_ids"))
        run_cli(["train", "--data", str(d / "data.fve"), *split_args(d), "--out", str(d / "run"), "--epochs", "1",
                 "--batch-size", str(self.batch), "--lr0", str(LR0), "--seed", str(self.seed)])
        run_cli(["eval", "--checkpoint", str(d / "run" / "checkpoint.paef"), "--manifest",
                 str(d / "run" / "manifest.json"), "--data", str(d / "data.fve"), "--split-test",
                 str(d / "test.ids"), "--out", str(d / "eval"), "--strata", ",".join(STRATA),
                 "--max-trials", "2000", "--matching-trials", "100", "--seed", str(self.seed)])

    def sweep_inputs(self):
        batch = data.make_batches(self.dataset, self.split, self.batch, seed=self.seed)[0]
        return batch.faces.data, batch.voices.data, batch.labels, self.model_cfg, self.train_cfg.loss_weights


# -- cli-large: synth, train and eval through cli.main ---------------------------------


def split_args(d: Path) -> list[str]:
    return ["--split-train", str(d / "train.ids"), "--split-val", str(d / "val.ids"),
            "--split-test", str(d / "test.ids")]


def run_cli(argv: list[str]) -> None:
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"paeff {argv[0]} exited with {code}")


class CliWorkload:
    """``paeff synth`` in set-up, then ``paeff train`` and ``paeff eval`` as the flow."""

    ops_per_round = 2  # paeff train, paeff eval

    def __init__(self, spec: Spec, seed: int, tmp: Path):
        self.spec, self.seed, self.tmp = spec, seed, tmp
        self.data_dir = tmp / "data"
        self.rounds: list[dict] = []
        self.digests: list[str] = []

    def setup(self) -> float:
        s = self.spec
        t = now()
        run_cli(["synth", "--out", str(self.data_dir), "--identities", str(s.identities),
                 "--samples-per-id", str(s.samples_per_id), "--face-dim", str(FACE_DIM), "--voice-dim",
                 str(VOICE_DIM), "--latent-dim", str(LATENT_DIM), "--rho", str(RHO), "--sigma", str(SIGMA),
                 "--val-identities", str(s.val_ids), "--test-identities", str(s.test_ids), "--seed", str(self.seed)])
        elapsed = now() - t
        self.digests.append(oracles.sha256(self.data_dir / "data.fve"))
        return elapsed

    def round(self) -> dict:
        s, k, d = self.spec, len(self.rounds), self.data_dir
        run_dir, eval_dir = self.tmp / f"run{k}", self.tmp / f"eval{k}"
        c0 = os.times()
        t0 = now()
        run_cli(["train", "--data", str(d / "data.fve"), *split_args(d), "--out", str(run_dir),
                 "--epochs", str(s.epochs), "--batch-size", str(s.batch), "--lr0", str(LR0), "--seed", str(self.seed)])
        t1 = now()
        run_cli(["eval", "--checkpoint", str(run_dir / "checkpoint.paef"), "--manifest", str(run_dir / "manifest.json"),
                 "--data", str(d / "data.fve"), "--split-test", str(d / "test.ids"), "--out", str(eval_dir),
                 "--strata", ",".join(STRATA), "--nc-list", ",".join(map(str, NC_LIST)),
                 "--max-trials", str(s.verification_trials), "--matching-trials", str(s.matching_trials),
                 "--seed", str(self.seed)])
        t2 = now()
        manifest = json.loads((run_dir / "manifest.json").read_text())
        batch = manifest["config"]["train"]["batch_size_resolved"]
        n_train = len((d / "train.ids").read_text().split())
        steps = s.epochs * -(-n_train // batch)
        n_eval = s.verification_trials + len(NC_LIST) * s.matching_trials
        summary = {"flow_s": t2 - t0, "train_s": t1 - t0, "eval_s": t2 - t1, "steps": steps, "batch": batch,
                   **cpu_since(c0),
                   "train_pairs_per_s": steps * batch / (t1 - t0), "eval_trials_per_s": n_eval / (t2 - t1),
                   "run_dir": run_dir, "eval_dir": eval_dir}
        self.rounds.append(summary)
        return summary

    def check(self, checks: Checks) -> dict:
        s, d = self.spec, self.data_dir
        digest = self.digests[-1]
        checks.expect("synth.repeatable", len(set(self.digests)) == 1, "repeated synth wrote other bytes")
        test_ids = frozenset((d / "test.ids").read_text().split())
        checks.expect("synth.test_ids", len(test_ids) == s.test_ids, f"{len(test_ids)} test ids")
        checkpoints = set()
        for k, r in enumerate(self.rounds):
            train_m = json.loads((r["run_dir"] / "manifest.json").read_text())
            eval_m = json.loads((r["eval_dir"] / "manifest.json").read_text())
            checks.expect(f"round{k}.train_manifest.sha256", train_m["inputs"]["data"]["sha256"] == digest)
            checks.expect(f"round{k}.eval_manifest.sha256", eval_m["inputs"]["data"]["sha256"] == digest)
            checks.expect(f"round{k}.batch", r["batch"] == s.expected_batch, f"batch {r['batch']}")
            history = [json.loads(line) for line in (r["run_dir"] / "history.jsonl").read_text().splitlines()]
            checks.expect(f"round{k}.epochs", len(history) == s.epochs, f"{len(history)} history lines")
            checks.expect(f"round{k}.finite", all(math.isfinite(v) for h in history for v in h.values()))
            checkpoints.add(oracles.sha256(r["run_dir"] / "checkpoint.paef"))
        checks.expect("rounds.same_checkpoint", len(checkpoints) == 1, "repeated training wrote other bytes")

        # Rebuild the eval command's trials from the oracle's own parse of the test records:
        # its trial builders are deterministic given the seed and the test records in file order.
        records = [data.EmbeddingRecord(r["identity"], r["modality"], r["clip"], r["vector"], r["gender"],
                                        r["nationality"], r["age_group"])
                   for r in oracles.read_fve(d / "data.fve", test_ids)]
        dataset = data.Dataset(records, FACE_DIM, VOICE_DIM)
        split = data.SplitSpec("unseen_unheard", frozenset(), frozenset(), test_ids)
        run_dir, eval_dir = self.rounds[0]["run_dir"], self.rounds[0]["eval_dir"]
        weights = oracles.read_checkpoint(run_dir / "checkpoint.paef")
        cfg = model.ModelConfig(FACE_DIM, VOICE_DIM, num_identities=weights["cls_weight"].shape[1])
        params = model.load_checkpoint(run_dir / "checkpoint.paef", cfg)
        trials = evaluation.build_verification_trials(dataset, split, s.verification_trials, self.seed)
        evaluation.score_trials(trials, params, cfg)
        reported = json.loads((eval_dir / "verification.json").read_text())
        m_rows = {r["n_c"]: r for r in json.loads((eval_dir / "matching.json").read_text())}
        matching = [(evaluation.build_matching_trials(dataset, split, n_c, s.matching_trials, self.seed),
                     m_rows.get(n_c, {"n_trials": -1, "accuracy": math.nan})) for n_c in NC_LIST]
        eer, auc = check_evaluation(checks, s, weights, test_ids, trials, [t.score for t in trials], reported, matching)
        return {"test_eer": eer, "test_auc": auc}

    def probe(self) -> None:
        """The flow already runs every layer the traced metrics need."""

    def sweep_inputs(self):
        d = self.data_dir
        dataset = data.load_dataset(d / "data.fve")
        split = data.SplitSpec("unseen_unheard", data.read_split_file(d / "train.ids"),
                               data.read_split_file(d / "val.ids"), data.read_split_file(d / "test.ids"))
        batch = data.make_batches(dataset, split, self.spec.batch, seed=self.seed)[0]
        cfg = model.ModelConfig(FACE_DIM, VOICE_DIM, num_identities=len(split.train_ids))
        return batch.faces.data, batch.voices.data, batch.labels, cfg, trainer.TrainConfig().loss_weights


# -- measurement --------------------------------------------------------------------


def measure(w, spec: Spec, seconds: float) -> tuple[dict, int, dict]:
    """Untraced run: repeated set-up, then whole rounds for ``seconds``; medians of both."""
    setups = [w.setup() for _ in range(spec.setups)]
    start = now()
    while not w.rounds or now() - start < seconds:
        w.round()
    med = {k: statistics.median(r[k] for r in w.rounds)
           for k in ("flow_s", "train_pairs_per_s", "eval_trials_per_s")}
    metrics = {"setup_s": IMPORT_S + statistics.median(setups), "peak_rss_mb": peak_rss_mb(), **med}
    return metrics, len(w.rounds), {"setup_runs_s": setups}


def measure_traced(w, spec: Spec) -> tuple[dict, int, dict]:
    """Traced run: one untraced round, one traced round, the layer sweep, and the spans."""
    import tracing  # imports paeff layers only the traced run needs

    tracer = tracing.Tracer()
    tracer.phase = "setup"
    tracer.install()
    w.setup()
    tracer.uninstall()
    untraced = w.round()
    tracer.phase = "flow"
    tracer.install()
    traced = w.round()
    tracer.phase = "probe"
    w.probe()
    tracer.uninstall()
    faces, voices, labels, cfg, weights = w.sweep_inputs()
    params = model.init_params(cfg, w.seed)
    sweep = tracing.layer_sweep(faces, voices, labels, params, cfg, weights, spec.sweep_reps)
    layer = {**sweep, **tracer.metrics(), "trace.overhead_s": traced["flow_s"] - untraced["flow_s"]}
    trace = {
        "untraced_flow_s": untraced["flow_s"], "traced_flow_s": traced["flow_s"], "sweep_batch": len(labels),
        "self_time": tracer.self_times(),
        "spans": {"fields": ["name", "start_ns", "end_ns", "parent", "phase", "items"], "rows": tracer.spans},
    }
    return layer, len(w.rounds), trace


def declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this kind of run."""
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str]) -> int:
    name, seed, seconds, trace, tmp, out_path = argv
    spec = SPECS[name]
    seed, tmp = int(seed), Path(tmp)
    w = (CliWorkload if name == "cli-large" else TrainWorkload)(spec, seed, tmp)
    if trace == "1":
        metrics, rounds, extra = measure_traced(w, spec)
    else:
        metrics, rounds, extra = measure(w, spec, float(seconds))
    units = declared_units(trace == "1")
    if set(metrics) != set(units):
        raise RuntimeError(f"measured {sorted(metrics)} but BENCHMARK.json declares {sorted(units)}")
    checks = Checks()
    t = now()
    quality = w.check(checks)
    check_s = now() - t
    for failure in checks.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    result = {
        "correct": checks.ok, "attempted": rounds * w.ops_per_round, "failed": 0,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        "detail": {"workload": name, "seed": seed, "rounds": rounds, "checks": checks.count, "check_s": check_s,
                   "failures": checks.failures, "blas": blas_info(), "import_s": IMPORT_S, **quality,
                   "per_round": [{k: v for k, v in r.items() if isinstance(v, (int, float))} for r in w.rounds]},
        **extra,
    }
    Path(out_path).write_text(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
