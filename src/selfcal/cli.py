"""Command-line front end: end-to-end runs, sweeps, attacks, and reports.

All behaviour is driven by one INI config file (flat key/value under
sections); command-line ``--set section.key=value`` flags override config
keys. Seeds come from the config only — there is no wall-clock seeding, so
identical configs produce byte-identical metrics.

Subcommands: synth, train, toast, eval, sweep, attack, report.
``eval`` is the end-to-end pipeline (data -> training -> calibrator logs ->
applications -> metrics.json + curve CSVs).
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import fields
from functools import partial
from pathlib import Path

from . import apps
from .augment import SynonymLexicon, attack_dataset, check_attack_limits, synthetic_lexicon
from .calibrators import METHODS, Calibrator, baseline_split, train_with_temperature
from .corpus import (
    Dataset,
    SynthConfig,
    generate_synthetic,
    load_dataset,
    save_dataset,
    save_hardness,
)
from .metrics import log_auroc_dconf
from .model import FeaturizerConfig, TrainConfig, save_parameters, load_parameters, train_main
from .toast import ToastConfig, run_toast


class ConfigError(Exception):
    pass


def _fields(cls, skip=("seed",)) -> dict[str, tuple]:
    """(type, default) of each field of ``cls`` with a scalar default: the
    library dataclass is the one source of these defaults."""
    return {f.name: (type(f.default), f.default) for f in fields(cls)
            if isinstance(f.default, (bool, int, float, str)) and f.name not in skip}


# (type, default); None default means the key is required. Keys that a config
# dataclass field backs come from _fields; the literals are the keys that no
# field backs or that mean something else here.
CONFIG_SCHEMA: dict[str, dict[str, tuple]] = {
    "run": {
        "seed": (int, None),
        "out": (str, ""),
    },
    "data": {
        "source": (str, "synthetic"),
        "train_path": (str, ""),
        "test_path": (str, ""),
        "pool_path": (str, ""),
        "lexicon_path": (str, ""),
        "task_kind": (str, "single"),
        **_fields(SynthConfig),
        "test_samples_per_class": (int, 0),  # 0 means None: half of samples_per_class
        "pool_per_class": (int, 600),
    },
    "model": {
        **_fields(FeaturizerConfig),
        "hidden_dim": (int, TrainConfig.hidden_dim),
    },
    "train": {
        **_fields(TrainConfig, skip=("seed", "hidden_dim")),
        # The label-smoothing baseline's epsilon; every other model trains with 0.
        "label_smoothing_epsilon": (float, 0.1),
    },
    "toast": {
        **_fields(ToastConfig),
        "epochs": (int, ToastConfig().train.epochs),
    },
    "eval": {
        "calibrators": (str, ",".join(METHODS)),
        "applications": (str, ",".join(apps.APPLICATIONS)),
        "targets": (str, "0.95"),
        "adversarial_file": (str, ""),
        "cascade_small_hidden": (int, 16),
        "cascade_small_epochs": (int, 2),
        "cascade_large_hidden": (int, 128),
        "cascade_large_epochs": (int, 8),
    },
    "sweep": {
        "kind": (str, apps.SWEEP_KINDS[0]),
        # The grids, as comma-separated lists of the library's tuples.
        **{f.name: (str, ",".join(map(str, f.default)))
           for f in fields(apps.PilotSweepConfig) if isinstance(f.default, tuple)},
    },
    # attack_dataset's keyword arguments, for `selfcal attack` and for eval's
    # adversarial application.
    "attack": {
        "budget": (int, 6),
        "max_successes": (int, 200),
    },
}

# Each comma-separated list key's entry type; the config keeps the string.
LIST_KEYS = {
    ("eval", "targets"): float,
    **{("sweep", f.name): type(f.default[0]) for f in fields(apps.PilotSweepConfig)
       if isinstance(f.default, tuple)},
}

# Keys that were removed, and the key that now sets the same thing.
REMOVED_KEYS = {
    "eval.adversarial_budget": "attack.budget",
    "eval.adversarial_max": "attack.max_successes",
}


def _parse(section: str, key: str, raw: str):
    """The value of ``section.key`` given as ``raw``, of the schema's type."""
    dotted = f"{section}.{key}"
    if dotted in REMOVED_KEYS:
        raise ConfigError(f"config key {dotted} was removed: set {REMOVED_KEYS[dotted]} instead")
    if key not in CONFIG_SCHEMA.get(section, {}):
        raise ConfigError(f"unknown config key: {dotted}")
    typ = CONFIG_SCHEMA[section][key][0]
    raw = raw.strip()
    try:
        if typ is bool:
            low = raw.lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        return typ(raw)
    except ValueError:
        raise ConfigError(f"config key {dotted}: cannot parse {raw!r} as {typ.__name__}") from None


def load_config(path: str, overrides=()) -> dict[str, dict]:
    """Parse + validate the INI config, apply ``section.key=value`` overrides,
    and fill defaults. Unknown sections or keys, and bad values, are rejected
    by name here, before any model is trained or any file is written."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    values = {sec: {k: d for k, (_, d) in keys.items()} for sec, keys in CONFIG_SCHEMA.items()}
    for section in parser.sections():
        if section not in CONFIG_SCHEMA:
            raise ConfigError(f"unknown config section: [{section}]")
        for key, raw in parser.items(section):
            values[section][key] = _parse(section, key, raw)
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        section, key = dotted.split(".", 1)
        values[section][key] = _parse(section, key, raw)
    if values["run"]["seed"] is None:
        raise ConfigError("run.seed is required (seeds are config-only, never wall clock)")
    try:  # checked here too, so that a run that cannot attack fails early
        check_attack_limits(**values["attack"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    for (section, key), typ in LIST_KEYS.items():
        try:
            _split_list(values[section][key], typ)
        except ValueError:
            raise ConfigError(f"config key {section}.{key}: cannot parse "
                              f"{values[section][key]!r} as a list of {typ.__name__}") from None
    ev = values["eval"]
    if not all(0.0 < t <= 1.0 for t in _split_list(ev["targets"], float)):
        raise ConfigError(f"config key eval.targets: {ev['targets']!r} has an entry outside (0, 1]")
    if not _split_list(ev["calibrators"], str):
        raise ConfigError("eval.calibrators is empty: name at least one of " + ",".join(METHODS))
    for key, known in (("calibrators", METHODS), ("applications", apps.APPLICATIONS)):
        if bad := [name for name in _split_list(ev[key], str) if name not in known]:
            raise ConfigError(f"unknown {key[:-1]} {bad[0]!r} in eval.{key}")
    if values["sweep"]["kind"] not in apps.SWEEP_KINDS:
        raise ConfigError(f"unknown sweep kind {values['sweep']['kind']!r} in sweep.kind")
    return values


def _split_list(raw: str, typ):
    return tuple(typ(part.strip()) for part in raw.split(",") if part.strip())


# ---------------------------------------------------------------------------
# Builders from config values
# ---------------------------------------------------------------------------

def _build(cls, section: dict, **overrides):
    """``cls`` from the keys of ``section`` that are its fields, with each
    override that is not None in place of the section's value."""
    names = {f.name for f in fields(cls)}
    kwargs = {k: v for k, v in section.items() if k in names}
    kwargs.update((k, v) for k, v in overrides.items() if v is not None)
    return cls(**kwargs)


def _synth_config(data: dict, seed: int) -> SynthConfig:
    test_per_class = data["test_samples_per_class"] or None
    return _build(SynthConfig, data | {"test_samples_per_class": test_per_class}, seed=seed)


def _train_config(cfg: dict, seed: int, *, epochs: int | None = None,
                  hidden: int | None = None, epsilon: float = 0.0) -> TrainConfig:
    return _build(TrainConfig, cfg["train"] | cfg["model"], seed=seed, epochs=epochs,
                  hidden_dim=hidden, label_smoothing_epsilon=epsilon,
                  features=_build(FeaturizerConfig, cfg["model"]))


def _toast_config(cfg: dict, seed: int, *, hidden: int | None = None,
                  epochs: int | None = None) -> ToastConfig:
    return _build(
        ToastConfig, cfg["toast"],
        train=_train_config(cfg, seed, hidden=hidden,
                            epochs=cfg["toast"]["epochs"] if epochs is None else epochs),
        annotator_train=_train_config(cfg, seed, hidden=hidden))


def _load_data(cfg: dict) -> tuple[Dataset, Dataset, SynonymLexicon | None]:
    d = cfg["data"]
    seed = cfg["run"]["seed"]
    if d["source"] == "synthetic":
        synth = _synth_config(d, seed)
        data = generate_synthetic(synth)
        return data.train, data.test, synthetic_lexicon(synth)
    if d["source"] == "jsonl":
        if not d["train_path"] or not d["test_path"]:
            raise ConfigError("data.train_path and data.test_path are required for jsonl source")
        train = load_dataset(d["train_path"], d["task_kind"])
        test = load_dataset(d["test_path"], d["task_kind"])
        lexicon = SynonymLexicon.from_tsv(d["lexicon_path"]) if d["lexicon_path"] else None
        return train, test, lexicon
    raise ConfigError(f"data.source must be 'synthetic' or 'jsonl', got {d['source']!r}")


def _load_pool(cfg: dict) -> Dataset:
    d = cfg["data"]
    if d["source"] == "synthetic":
        pool = d | {"samples_per_class": d["pool_per_class"]}
        return generate_synthetic(_synth_config(pool, cfg["run"]["seed"] + 1)).train
    if not d["pool_path"]:
        raise ConfigError("data.pool_path is required for sweeps on jsonl data")
    return load_dataset(d["pool_path"], d["task_kind"])


def _require_lexicon(lexicon: SynonymLexicon | None, cfg: dict, *,
                     attack: bool = False) -> SynonymLexicon:
    """The lexicon of the toast stage's augmentation or, with ``attack``, of
    an attack. Without one, toast.no_augment = true runs the toast stage on an
    empty lexicon; an attack has no fallback, it needs synonyms."""
    if attack:
        if lexicon:
            return lexicon
        raise ConfigError("an attack needs a synonym lexicon with entries: "
                          "set data.lexicon_path")
    if lexicon is not None:
        return lexicon
    if cfg["toast"]["no_augment"]:
        return SynonymLexicon({})
    raise ConfigError("a synonym lexicon is needed: set data.lexicon_path "
                      "or toast.no_augment = true")


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _write_json(obj, path: Path) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _write_csv(path: Path, header: tuple[str, ...], rows) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _finish_run(out: Path, cfg: dict, written: list[Path]) -> None:
    """meta.json: the config and the SHA-256 of every file in ``written``, the
    files this command wrote, so that stale files an earlier run left in a
    reused ``out`` are not vouched for. The run's own meta.json is not hashed."""
    hashes = {str(f.relative_to(out)): hashlib.sha256(f.read_bytes()).hexdigest()
              for f in written if f != out / "meta.json"}
    _write_json({"config": cfg, "artifact_hashes": hashes}, out / "meta.json")


def _print_summary(summary: dict) -> None:
    print(f"{'method':<18}{'AUROC':>8}{'DeltaConf(pp)':>15}{'accuracy':>10}")
    for method, row in summary.items():
        a = "-" if row["auroc"] is None else f"{100 * row['auroc']:.2f}"
        dc = "-" if row["delta_conf"] is None else f"{row['delta_conf']:.2f}"
        print(f"{method:<18}{a:>8}{dc:>15}{row['accuracy']:>10.3f}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_synth(cfg: dict, out: Path) -> int:
    d = cfg["data"]
    if d["source"] != "synthetic":
        raise ConfigError("synth needs data.source = synthetic")
    out.mkdir(parents=True, exist_ok=True)
    synth = _synth_config(d, cfg["run"]["seed"])
    data = generate_synthetic(synth)
    save_dataset(data.train, out / "train.jsonl")
    save_dataset(data.test, out / "test.jsonl")
    save_hardness(data.train, data.train_hard, out / "train.hardness.jsonl")
    save_hardness(data.test, data.test_hard, out / "test.hardness.jsonl")
    synthetic_lexicon(synth).to_tsv(out / "lexicon.tsv")
    _finish_run(out, cfg, [out / name for name in (
        "train.jsonl", "test.jsonl", "train.hardness.jsonl", "test.hardness.jsonl",
        "lexicon.tsv")])
    print(f"wrote {len(data.train)} train / {len(data.test)} test samples to {out}")
    return 0


def cmd_train(cfg: dict, out: Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    train_d, test_d, _ = _load_data(cfg)
    params, trace = train_main(train_d, _train_config(cfg, cfg["run"]["seed"]))
    save_parameters(params, out / "model.bin")
    losses = _write_csv(out / "losses.csv", ("step", "loss"),
                        [(i, repr(loss)) for i, loss in enumerate(trace)])
    log = Calibrator("vanilla", params).build_log(test_d, "id")
    _finish_run(out, cfg, [out / "model.bin", losses])
    print(f"final training loss {trace[-1]:.4f}, test accuracy {log.correct.mean():.3f}")
    return 0


def cmd_toast(cfg: dict, out: Path) -> int:
    train_d, test_d, lexicon = _load_data(cfg)
    lexicon = _require_lexicon(lexicon, cfg)
    out.mkdir(parents=True, exist_ok=True)
    params, artifacts = run_toast(train_d, _toast_config(cfg, cfg["run"]["seed"]), lexicon)
    save_parameters(params, out / "model.bin")
    written = [out / "model.bin", *artifacts.save(out / "artifacts")]
    log = Calibrator("toast", params).build_log(test_d, "id")
    _finish_run(out, cfg, written)
    counts = artifacts.meta["counts"]
    print(f"annotated {counts['annotated']} records "
          f"({counts['annotated_negatives']} wrong), kept {counts['dstar']} "
          f"after balancing, {counts['daug']} augmented")
    print(f"test accuracy {log.correct.mean():.3f}")
    return 0


def _build_calibrators(cfg: dict, train_d: Dataset, lexicon, methods,
                       seed: int, *, hidden: int | None = None, epochs: int | None = None):
    """Train the models behind the requested scoring methods; returns the
    calibrators plus the pipeline's audit bundle (None when not requested).
    ``lexicon`` is the pipeline's augmentation lexicon, from ``_require_lexicon``.

    The three baselines share a protocol: they train on the same nine tenths
    of the data, with the remaining tenth used to fit the temperature, so
    their scores are directly comparable. The pipeline method uses the full
    training set — making the most of it is its whole point. ``epochs``
    defaults to ``train.epochs`` for the baselines and ``toast.epochs`` for
    the pipeline.
    """
    calibs: dict[str, Calibrator] = {}
    artifacts = None
    baselines = {"vanilla", "temperature", "label_smoothing"} & set(methods)
    if baselines:
        base_cfg = _train_config(cfg, seed, hidden=hidden, epochs=epochs)
        params, t = train_with_temperature(train_d, base_cfg)
        if "vanilla" in methods:
            calibs["vanilla"] = Calibrator("vanilla", params)
        if "temperature" in methods:
            calibs["temperature"] = Calibrator("temperature", params, temperature=t)
        if "label_smoothing" in methods:
            ls_params, _ = train_main(
                baseline_split(train_d, seed)[1],
                _train_config(cfg, seed, hidden=hidden, epochs=epochs,
                              epsilon=cfg["train"]["label_smoothing_epsilon"]))
            calibs["label_smoothing"] = Calibrator("label_smoothing", ls_params)
    if "toast" in methods:
        params, artifacts = run_toast(
            train_d, _toast_config(cfg, seed, hidden=hidden, epochs=epochs), lexicon)
        calibs["toast"] = Calibrator("toast", params)
    return {m: calibs[m] for m in methods if m in calibs}, artifacts


def cmd_eval(cfg: dict, out: Path) -> int:
    """The end-to-end pipeline: data -> models -> confidence logs ->
    applications -> metrics.json, curve CSVs, and the audit bundle."""
    seed = cfg["run"]["seed"]
    ev = cfg["eval"]
    methods = _split_list(ev["calibrators"], str)
    applications = _split_list(ev["applications"], str)

    train_d, test_d, lexicon = _load_data(cfg)
    # The lexicons are checked before any model is trained or file written.
    attacks = "adversarial" in applications and not ev["adversarial_file"]
    attack_lexicon = _require_lexicon(lexicon, cfg, attack=True) if attacks else None
    if "toast" in methods:
        lexicon = _require_lexicon(lexicon, cfg)
    out.mkdir(parents=True, exist_ok=True)
    curves = out / "curves"
    curves.mkdir(exist_ok=True)
    calibs, toast_artifacts = _build_calibrators(cfg, train_d, lexicon, methods, seed)
    written: list[Path] = []
    if toast_artifacts is not None:
        written += toast_artifacts.save(out / "artifacts")

    metrics: dict = {"summary": {}}
    for method in calibs:
        log = calibs[method].build_log(test_d, "id")
        a, dc = log_auroc_dconf(log)
        metrics["summary"][method] = {"auroc": a, "delta_conf": dc,
                                      "accuracy": float(log.correct.mean())}
        written.append(curves / f"log_{method}.csv")
        log.to_csv(written[-1])

    for app, (keys, app_curves) in apps.APPLICATIONS.items():
        if app not in applications:
            continue
        judged = calibs
        if app == "selective":
            run = partial(apps.selective_eval, d=test_d,
                          targets=_split_list(ev["targets"], float))
        elif app == "adversarial":
            if attacks:
                adv, origins = attack_dataset(
                    (calibs.get("vanilla") or next(iter(calibs.values()))).params,
                    test_d, attack_lexicon, **cfg["attack"])
                written.append(out / "adversarial.jsonl")
                save_dataset(adv, written[-1], origins)
            else:
                adv = load_dataset(ev["adversarial_file"], cfg["data"]["task_kind"])
            run = partial(apps.adversarial_eval, id_samples=test_d, adv_samples=adv, seed=seed)
        else:  # cascade: small models of each method, one large model
            # The cascade comes last, so the main models go before its own
            # models initialise.
            calibs.clear()
            large_params, _ = train_main(
                train_d, _train_config(cfg, seed + 50, hidden=ev["cascade_large_hidden"],
                                       epochs=ev["cascade_large_epochs"]))
            judged, _ = _build_calibrators(
                cfg, train_d, lexicon, methods, seed + 60,
                hidden=ev["cascade_small_hidden"], epochs=ev["cascade_small_epochs"])
            run = partial(apps.cascade_eval, large_params=large_params, d=test_d)
        metrics[app] = {}
        for method in judged:
            rep = run(judged[method])
            metrics[app][method] = {k: rep[k] for k in keys}
            for stem, key, columns in app_curves:
                written.append(_write_csv(curves / f"{stem}_{method}.csv", columns, rep[key]))

    written.append(_write_json(metrics, out / "metrics.json"))
    _finish_run(out, cfg, written)
    _print_summary(metrics["summary"])
    print(f"run directory: {out}")
    return 0


SWEEP_COLUMNS = ["point_id", "kind", "size", "mode", "ratio", "factor",
                 "feature_mode", "k", "n_seeds", "auroc_mean", "auroc_std",
                 "dconf_mean", "dconf_std", "skipped"]


def _sweep_fingerprint(cfg: dict, kind: str, points: list[dict]) -> str:
    """SHA-256 of what decides a sweep's rows: the run and sweep seeds, the
    data, model, train and toast sections, the kind and its grid."""
    key = {"seed": cfg["run"]["seed"], "seeds": cfg["sweep"]["seeds"], "kind": kind,
           "points": points,
           **{section: cfg[section] for section in ("data", "model", "train", "toast")}}
    return hashlib.sha256(json.dumps(key, sort_keys=True).encode("utf-8")).hexdigest()


# The sweep's point evaluator in a worker process, with the inputs shared by
# every point bound in, set once per worker by the pool's initializer.
_sweep_worker = None


def _init_sweep_worker(worker) -> None:
    global _sweep_worker
    _sweep_worker = worker


def _run_sweep_point(point: dict) -> dict:
    return _sweep_worker(point)


def cmd_sweep(cfg: dict, out: Path, kind: str | None, jobs: int) -> int:
    if jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {jobs}")
    kind = kind or cfg["sweep"]["kind"]
    sw = cfg["sweep"]
    seed = cfg["run"]["seed"]
    train_d, test_d, lexicon = _load_data(cfg)
    if kind == "k":
        lexicon = _require_lexicon(lexicon, cfg)
    out.mkdir(parents=True, exist_ok=True)

    sweep_cfg = apps.PilotSweepConfig(
        annotator=_train_config(cfg, seed),
        train=_train_config(cfg, seed + 10, epochs=cfg["toast"]["epochs"]),
        **{key: _split_list(sw[key], typ)
           for (section, key), typ in LIST_KEYS.items() if section == "sweep"},
    )
    points = apps.grid_points(kind, sweep_cfg)

    csv_path = out / "sweep.csv"
    fp_path = out / "sweep.fingerprint"
    fingerprint = _sweep_fingerprint(cfg, kind, points)
    done: dict[str, dict] = {}  # CSV rows by point id, resumed or fresh
    if csv_path.exists():
        # A CSV without a fingerprint cannot be shown to come from this config.
        if not fp_path.exists() or fp_path.read_text(encoding="utf-8").strip() != fingerprint:
            raise ConfigError(f"{csv_path} comes from another config or grid; "
                              "refusing to resume (use a fresh --out)")
        with open(csv_path, encoding="utf-8", newline="") as fh:
            for row in csv.DictReader(fh):
                done[row["point_id"]] = row
        for pid in done:
            print(f"resume: skipping completed point {pid}")
    fp_path.write_text(fingerprint + "\n", encoding="utf-8")

    todo = [p for p in points if p["point_id"] not in done]
    annotations = None
    if kind != "k" and todo:
        annotations = apps.seed_annotations(train_d, _load_pool(cfg), sweep_cfg)
    worker = partial(apps.evaluate_point, train=train_d, test=test_d,
                     cfg=sweep_cfg, annotations=annotations, lexicon=lexicon)
    pool = None
    if jobs > 1 and len(todo) > 1:
        # Each worker gets the shared inputs once, and each task only its point.
        pool = ProcessPoolExecutor(max_workers=jobs, initializer=_init_sweep_worker,
                                   initargs=(worker,))
    with pool or nullcontext():
        # Each row is appended as soon as it arrives, so an interrupted sweep
        # keeps its finished points.
        for row in (pool.map(_run_sweep_point, todo) if pool else map(worker, todo)):
            done[row["point_id"]] = row
            new_file = not csv_path.exists()
            with open(csv_path, "a", encoding="utf-8", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=SWEEP_COLUMNS)
                if new_file:
                    writer.writeheader()
                writer.writerow(row)

    # Rewrite in canonical grid order, merging resumed and fresh rows.
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SWEEP_COLUMNS)
        writer.writeheader()
        for p in points:
            if p["point_id"] in done:
                writer.writerow(done[p["point_id"]])
    _finish_run(out, cfg, [csv_path, fp_path])
    print(f"sweep '{kind}': {len(points)} points "
          f"({len(points) - len(todo)} resumed) -> {csv_path}")
    return 0


def cmd_attack(cfg: dict, out: Path, model_path: str | None) -> int:
    train_d, test_d, lexicon = _load_data(cfg)
    lexicon = _require_lexicon(lexicon, cfg, attack=True)
    out.mkdir(parents=True, exist_ok=True)
    if model_path:
        params = load_parameters(model_path)
    else:
        params, _ = train_main(train_d, _train_config(cfg, cfg["run"]["seed"]))
    adv, origins = attack_dataset(params, test_d, lexicon, **cfg["attack"])
    save_dataset(adv, out / "adversarial.jsonl", origins)
    _finish_run(out, cfg, [out / "adversarial.jsonl"])
    print(f"{len(adv)} successful adversarial samples -> {out / 'adversarial.jsonl'}")
    return 0


def cmd_report(run_dir: Path) -> int:
    metrics_path = run_dir / "metrics.json"
    if not metrics_path.exists():
        raise FileNotFoundError(f"no metrics.json under {run_dir}")
    with open(metrics_path, encoding="utf-8") as fh:
        metrics = json.load(fh)
    _print_summary(metrics.get("summary", {}))
    for app_name in apps.APPLICATIONS:
        if app_name in metrics:
            print(f"\n[{app_name}]")
            for method, row in metrics[app_name].items():
                scalars = {k: v for k, v in row.items()
                           if isinstance(v, (int, float)) and v is not None}
                rendered = ", ".join(f"{k}={v:.4f}" if isinstance(v, float) else f"{k}={v}"
                                     for k, v in scalars.items())
                print(f"  {method:<18}{rendered}")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="selfcal",
        description="Self-calibrating text classification: pipeline, sweeps, attacks.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="INI config file")
    common.add_argument("--out", help="output directory (overrides run.out)")
    common.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
                        help="override a config key")

    sub.add_parser("synth", parents=[common], help="generate + save synthetic data")
    sub.add_parser("train", parents=[common], help="train a plain main-task model")
    sub.add_parser("toast", parents=[common], help="run the self-calibration pipeline")
    sub.add_parser("eval", parents=[common],
                   help="end-to-end pipeline with metrics and curves")
    p = sub.add_parser("sweep", parents=[common], help="run a pilot sweep")
    p.add_argument("--kind", choices=apps.SWEEP_KINDS, help="sweep kind (default from config)")
    p.add_argument("--jobs", type=int, default=1)
    p = sub.add_parser("attack", parents=[common], help="generate adversarial samples")
    p.add_argument("--model", help="attack this saved model instead of training one")
    p = sub.add_parser("report", help="print the summary of a finished run")
    p.add_argument("--run", required=True, help="run directory with metrics.json")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "report":
            return cmd_report(Path(args.run))
        cfg = load_config(args.config, args.set)
        out = Path(args.out or cfg["run"]["out"] or "")
        if not str(out):
            raise ConfigError("no output directory: pass --out or set run.out")
        if args.command == "synth":
            return cmd_synth(cfg, out)
        if args.command == "train":
            return cmd_train(cfg, out)
        if args.command == "toast":
            return cmd_toast(cfg, out)
        if args.command == "eval":
            return cmd_eval(cfg, out)
        if args.command == "sweep":
            return cmd_sweep(cfg, out, args.kind, args.jobs)
        if args.command == "attack":
            return cmd_attack(cfg, out, args.model)
        raise ValueError(f"unhandled command {args.command}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # single-line cause, non-zero exit
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
