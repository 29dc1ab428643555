"""The benchmark's workloads: inputs made from the seed, the timed operations,
and the checks on their outputs.

Every call into the package goes through a module attribute at call time
(``toast.run_toast``, not a name bound at import), so the tracer's wrappers
see the benchmark's own calls as well as the package's internal ones.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from selfcal import apps, calibrators, cli, corpus, model, toast, augment

VOCAB = tuple(f"v{i:03d}" for i in range(400))
INDICATIVE = 20          # leading tokens per class; the rest are noise
HARD_FRACTION = 0.3      # hard records carry one class token and may be mislabelled
LABELS = ("class_0", "class_1")
METHODS = ("vanilla", "temperature", "toast")
CHECK_TOL = 1e-12


def make_dataset(seed: int, stream: int, n: int, lengths, prefix: str) -> corpus.Dataset:
    """``n`` labelled two-class records; record ``i`` has ``lengths[i % len]``
    tokens. Hard records hold one class token and keep their label with
    probability 1/2, so any model trained on them makes some mistakes."""
    rng = np.random.default_rng((seed, stream))
    samples = []
    for i in range(n):
        length = lengths[i % len(lengths)]
        cls = int(rng.integers(2))
        hard = rng.random() < HARD_FRACTION
        n_ind = 1 if hard else max(2, length // 2)
        toks = np.concatenate([
            cls * INDICATIVE + rng.integers(0, INDICATIVE, n_ind),
            rng.integers(2 * INDICATIVE, len(VOCAB), length - n_ind)])
        rng.shuffle(toks)
        label = 1 - cls if hard and rng.random() < 0.5 else cls
        samples.append(corpus.Sample(id=f"{prefix}{i:06d}",
                                     text_a=" ".join(VOCAB[t] for t in toks), label=label))
    return corpus.Dataset(tuple(samples), LABELS)


def make_lexicon() -> augment.SynonymLexicon:
    """Synsets of four consecutive vocabulary tokens."""
    groups = [VOCAB[i:i + 4] for i in range(0, len(VOCAB), 4)]
    return augment.SynonymLexicon({t: [s for s in g if s != t] for g in groups for t in g})


def train_config(seed: int, hash_dim: int, hidden: int, epochs: int = 5) -> model.TrainConfig:
    return model.TrainConfig(epochs=epochs, seed=seed, hidden_dim=hidden,
                             features=model.FeaturizerConfig(hash_dim=hash_dim))


def fit_calibrators(train: corpus.Dataset, seed: int, hash_dim: int, hidden: int) -> dict:
    """The vanilla and temperature calibrators share one model; toast gets the
    pipeline's model, trained on the same records."""
    params, temp = calibrators.train_with_temperature(train, train_config(seed, hash_dim, hidden))
    toast_cfg = toast.ToastConfig(train=train_config(seed, hash_dim, hidden, epochs=8))
    toast_params, _ = toast.run_toast(train, toast_cfg, make_lexicon())
    return {
        "vanilla": calibrators.Calibrator("vanilla", params),
        "temperature": calibrators.Calibrator("temperature", params, temperature=temp),
        "toast": calibrators.Calibrator("toast", toast_params),
    }


def timed(fn, *args, **kwargs):
    t = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - t, out


class Requests:
    """Closed loop, one client: each request scores one unseen text with one
    method and waits for the answer before the next is sent. Methods rotate
    in blocks of ``block`` requests, so with ``block`` equal to the number of
    text lengths every (method, length) pair gets the same share. Requests
    may be sent in several bursts; every text is used once."""

    def __init__(self, calibs: dict, texts: corpus.Dataset, n: int, block: int):
        if n > len(texts):
            raise ValueError("fewer request texts than requests")
        self.calibs, self.texts, self.n, self.block = calibs, texts, n, block
        self.reset()

    def reset(self) -> None:
        self.latencies: list[float] = []
        self.answers: list[tuple] = []
        self.checked = 0
        self.failed = 0

    def run(self, count: int | None = None) -> None:
        """Send the next ``count`` requests (all that are left by default)."""
        methods = list(self.calibs)
        first = len(self.answers)
        for j in range(first, self.n if count is None else min(self.n, first + count)):
            method = methods[(j // self.block) % len(methods)]
            score = self.calibs[method].score
            sample = self.texts.samples[j]
            t = time.perf_counter()
            label, conf = score(sample)
            self.latencies.append(time.perf_counter() - t)
            self.answers.append((method, j, label, conf))

    def check(self) -> None:
        """Count the answers since the last check that lie outside [0, 1] or
        disagree with ``build_log`` of the same calibrator over the same texts
        (label, or confidence by more than 1e-12)."""
        new = self.answers[self.checked:]
        self.checked = len(self.answers)
        for method, calib in self.calibs.items():
            mine = [a for a in new if a[0] == method]
            log = calib.build_log(self.texts.subset([j for _, j, _, _ in mine]), "check")
            for k, (_, _, label, conf) in enumerate(mine):
                if not (0.0 <= conf <= 1.0 and label == log.pred[k]
                        and abs(conf - log.confidence[k]) <= CHECK_TOL):
                    self.failed += 1


class Workload:
    """Protocol of a workload. ``prepare`` makes the inputs from the seed and
    fits what the workload needs. ``op(k)`` runs the k-th timed operation
    (ops with the same ``k`` repeat the same work) and returns its wall time
    ``op_s``, the time ``timed_s`` spent in calls into the package,
    ``records`` input records processed in ``records_s`` seconds and,
    where ops of different kinds take turns, the op's ``group``. ``check``
    counts failed output checks of one op; ``finish`` runs the checks that
    need the whole run and returns (checks attempted, checks failed)."""

    name = ""
    min_ops = 1
    request_share = 0.05     # share of the run kept for the request bursts

    def __init__(self, root: Path, scratch: Path):
        self.root, self.scratch = root, scratch

    def finish(self) -> tuple[int, int]:
        return 0, 0


# ---------------------------------------------------------------------------
# eval_default
# ---------------------------------------------------------------------------

class EvalDefault(Workload):
    """``selfcal eval`` on ``configs/default.ini``; op ``k`` sets ``run.seed``
    to the seed plus ``k``, so no op repeats the data of another. Requests
    score unseen 12-token texts with models of the default config's size
    (hash_dim 2048, hidden 16)."""

    name = "eval_default"
    records = 900       # default.ini: 2 classes x (300 train + 150 test) records

    def prepare(self, seed: int) -> None:
        self.seed = seed
        self.config = self.root / "configs" / "default.ini"
        if not self.config.is_file():
            raise FileNotFoundError(f"missing {self.config}")
        self.reference: dict[int, bytes] = {}
        train = make_dataset(seed, 1, 600, (12,), "tr")
        self.requests = Requests(fit_calibrators(train, seed, 2048, 16),
                                 make_dataset(seed, 2, 9000, (12,), "rq"), n=9000, block=1)

    def op(self, k: int) -> dict:
        out = Path(tempfile.mkdtemp(prefix="eval_", dir=self.scratch))
        argv = ["eval", "--config", str(self.config), "--set", f"run.seed={self.seed + k}",
                "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            wall, rc = timed(cli.main, argv)
        return {"op_s": wall, "timed_s": wall, "records": self.records, "records_s": wall,
                "rc": rc, "out": out, "k": k}

    def check(self, result: dict) -> int:
        """0 if the run succeeded, kept every AUROC in [0, 1], found an
        adversarial sample and, when an earlier op had the same seed, wrote
        the same metrics.json bytes; else 1. Removes the run directory."""
        out = result["out"]
        try:
            if result["rc"] != 0:
                return 1
            raw = (out / "metrics.json").read_bytes()
            same = self.reference.setdefault(result["k"], raw) == raw
            metrics = json.loads(raw)
            aurocs = list(_values_under(metrics, "auroc"))
            n_adv = [row["n_adv"] for row in metrics.get("adversarial", {}).values()]
            result["bytes_written"] = sum(f.stat().st_size for f in out.rglob("*") if f.is_file())
            ok = (same and aurocs and all(0.0 <= a <= 1.0 for a in aurocs)
                  and n_adv and min(n_adv) >= 1)
            return 0 if ok else 1
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def finish(self) -> tuple[int, int]:
        """Run op 0 again: its metrics.json must match the first run's bytes."""
        return 1, self.check(self.op(0))



def _values_under(obj, key_part: str):
    """Every number stored under a key containing ``key_part``."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            if key_part in k and isinstance(v, (int, float)):
                yield float(v)
            else:
                yield from _values_under(v, key_part)


# ---------------------------------------------------------------------------
# toast_train
# ---------------------------------------------------------------------------

class ToastTrain(Workload):
    """``run_toast`` on 1200 fresh records of 24 tokens per op, with the
    library-default featurizer (hash_dim 2**18) and hidden 64: a 128 MiB
    encoder. Requests score unseen 24-token texts with the latest model."""

    name = "toast_train"
    n_train = 1200

    def prepare(self, seed: int) -> None:
        self.seed = seed
        self.lexicon = make_lexicon()
        self.cfg = toast.ToastConfig(train=model.TrainConfig(epochs=8, seed=seed, hidden_dim=64))
        self.requests = Requests({}, make_dataset(seed, 2, 3000, (24,), "rq"), n=3000, block=1)

    def op(self, k: int) -> dict:
        train = make_dataset(self.seed, 100 + k, self.n_train, (24,), "tr")
        self.requests.check()         # answers so far came from the previous model
        self.requests.calibs = {}     # keep one encoder alive at a time
        wall, (params, artifacts) = timed(toast.run_toast, train, self.cfg, self.lexicon)
        self.requests.calibs = {m: calibrators.Calibrator(m, params) for m in ("vanilla", "toast")}
        return {"op_s": wall, "timed_s": wall, "records": self.n_train, "records_s": wall,
                "artifacts": artifacts}

    def check(self, result: dict) -> int:
        """0 if no held-out id is in its round's train_ids, dstar is exactly
        balanced and every loss is finite; else 1."""
        art = result.pop("artifacts")
        leak = any(set(r["heldout_ids"]) & set(r["train_ids"]) for r in art.meta["rounds"])
        neg = sum(r.correctness == 0 for r in art.dstar)
        balanced = 2 * neg == len(art.dstar) > 0
        finite = all(math.isfinite(v) for row in art.losses for key, v in row.items()
                     if key != "step")
        return 0 if (not leak and balanced and finite) else 1



# ---------------------------------------------------------------------------
# score_stream
# ---------------------------------------------------------------------------

class ScoreStream(Workload):
    """Fit once, then score unseen texts of 8, 32 and 128 tokens: single
    requests with each method, and per op a fresh batch of 8000 texts through
    ``build_log``, ``selective_eval`` and ``cascade_eval`` for one method. The
    methods take turns, so that ops stay short and request bursts between
    them sample the whole run."""

    name = "score_stream"
    min_ops = len(METHODS)
    request_share = 0.15
    lengths = (8, 32, 128)
    batch = 8000
    hash_dim, hidden, large_hidden = 2 ** 14, 32, 64

    def prepare(self, seed: int) -> None:
        self.seed = seed
        train = make_dataset(seed, 1, 300, self.lengths, "tr")
        self.calibs = fit_calibrators(train, seed, self.hash_dim, self.hidden)
        self.large, _ = model.train_main(
            train, train_config(seed + 1, self.hash_dim, self.large_hidden, epochs=8))
        self.requests = Requests(self.calibs, make_dataset(seed, 2, 6000, self.lengths, "rq"),
                                 n=6000, block=len(self.lengths))

    def op(self, k: int) -> dict:
        method = METHODS[k % len(METHODS)]
        calib = self.calibs[method]
        d = make_dataset(self.seed, 100 + k, self.batch, self.lengths, "b")
        log_s, log = timed(calib.build_log, d, "id")
        sel_s, sel = timed(apps.selective_eval, calib, d, (0.95,))
        cas_s, cas = timed(apps.cascade_eval, calib, self.large, d)
        return {"op_s": sel_s + cas_s, "timed_s": log_s + sel_s + cas_s, "group": method,
                "records": self.batch, "records_s": log_s, "report": (log, sel, cas)}

    def check(self, result: dict) -> int:
        """1 if the batch log, the selective report or the cascade report
        holds a value outside [0, 1]; else 0."""
        log, sel, cas = result.pop("report")
        values = [sel["auroc_risk"], cas["area"], cas["small_accuracy"], cas["large_accuracy"]]
        values += [c for _, c, _ in sel["risk_coverage"]]
        ok = (np.all((log.confidence >= 0) & (log.confidence <= 1))
              and all(v is None or 0.0 <= v <= 1.0 for v in values))
        return 0 if ok else 1


WORKLOADS = {w.name: w for w in (EvalDefault, ToastTrain, ScoreStream)}
