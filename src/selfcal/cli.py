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
from functools import partial
from pathlib import Path

from . import apps
from .augment import SynonymLexicon, attack_dataset, save_adversarial, synthetic_lexicon
from .calibrators import METHODS, Calibrator, train_with_temperature
from .corpus import (
    Dataset,
    SynthConfig,
    generate_synthetic,
    load_dataset,
    merge_datasets,
    save_dataset,
    save_hardness,
    split_folds,
)
from .model import FeaturizerConfig, TrainConfig, save_parameters, load_parameters, train_main
from .toast import ToastConfig, run_toast


class ConfigError(Exception):
    pass


# (type, default); None default means the key is required.
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
        "num_classes": (int, 2),
        "vocab_size": (int, 400),
        "samples_per_class": (int, 300),
        "test_samples_per_class": (int, 0),
        "hardness_fraction": (float, 0.3),
        "hard_flip_prob": (float, 0.5),
        "tokens_per_sample": (int, 12),
        "indicative_per_class": (int, 20),
        "pool_per_class": (int, 600),
    },
    "model": {
        "hash_dim": (int, 4096),
        "hidden_dim": (int, 32),
        "ngram_max": (int, 2),
        "lowercase": (bool, True),
        "segment_tagging": (bool, True),
    },
    "train": {
        "learning_rate": (float, 0.5),
        "epochs": (int, 5),
        "batch_size": (int, 32),
        "label_smoothing_epsilon": (float, 0.1),
    },
    "toast": {
        "k": (int, 2),
        "alpha": (float, 0.1),
        "rate": (float, 0.1),
        "augment_per_negative": (int, 1),
        "epochs": (int, 8),
        "no_cross_annotation": (bool, False),
        "no_downsample": (bool, False),
        "no_augment": (bool, False),
        "no_alpha_decay": (bool, False),
    },
    "eval": {
        "calibrators": (str, "vanilla,temperature,label_smoothing,toast"),
        "applications": (str, "selective,adversarial,cascade"),
        "targets": (str, "0.95"),
        "adversarial_budget": (int, 6),
        "adversarial_max": (int, 200),
        "adversarial_file": (str, ""),
        "cascade_small_hidden": (int, 16),
        "cascade_small_epochs": (int, 2),
        "cascade_large_hidden": (int, 128),
        "cascade_large_epochs": (int, 8),
    },
    "sweep": {
        "kind": (str, "size"),
        "seeds": (str, "0,1,2"),
        "sizes": (str, "30,120,480"),
        "ratios": (str, "0.1,0.3,0.5,0.7,0.9"),
        "fixed_factors": (str, "1,2,4,8"),
        "ks": (str, "2,3,4,5"),
    },
    "attack": {
        "budget": (int, 6),
        "max_successes": (int, 200),
    },
}


def _coerce(section: str, key: str, raw: str, typ):
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
        raise ConfigError(
            f"config key {section}.{key}: cannot parse {raw!r} as {typ.__name__}"
        ) from None


def load_config(path: str, overrides=()) -> dict[str, dict]:
    """Parse + validate the INI config, apply ``section.key=value`` overrides,
    and fill defaults. Unknown sections or keys are rejected by name."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    values = {sec: {k: d for k, (_, d) in keys.items()} for sec, keys in CONFIG_SCHEMA.items()}
    for section in parser.sections():
        if section not in CONFIG_SCHEMA:
            raise ConfigError(f"unknown config section: [{section}]")
        for key, raw in parser.items(section):
            if key not in CONFIG_SCHEMA[section]:
                raise ConfigError(f"unknown config key: {section}.{key}")
            values[section][key] = _coerce(section, key, raw, CONFIG_SCHEMA[section][key][0])
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        section, key = dotted.split(".", 1)
        if section not in CONFIG_SCHEMA or key not in CONFIG_SCHEMA[section]:
            raise ConfigError(f"unknown config key: {section}.{key}")
        values[section][key] = _coerce(section, key, raw, CONFIG_SCHEMA[section][key][0])
    if values["run"]["seed"] is None:
        raise ConfigError("run.seed is required (seeds are config-only, never wall clock)")
    return values


def _split_list(raw: str, typ):
    return tuple(typ(part.strip()) for part in raw.split(",") if part.strip())


# ---------------------------------------------------------------------------
# Builders from config values
# ---------------------------------------------------------------------------

def _synth_config(cfg: dict, seed: int, per_class: int | None = None) -> SynthConfig:
    d = cfg["data"]
    return SynthConfig(
        num_classes=d["num_classes"],
        vocab_size=d["vocab_size"],
        samples_per_class=per_class if per_class is not None else d["samples_per_class"],
        hardness_fraction=d["hardness_fraction"],
        hard_flip_prob=d["hard_flip_prob"],
        seed=seed,
        tokens_per_sample=d["tokens_per_sample"],
        indicative_per_class=d["indicative_per_class"],
        test_samples_per_class=d["test_samples_per_class"] or None,
    )


def _featurizer(cfg: dict) -> FeaturizerConfig:
    m = cfg["model"]
    return FeaturizerConfig(
        lowercase=m["lowercase"], ngram_max=m["ngram_max"],
        hash_dim=m["hash_dim"], segment_tagging=m["segment_tagging"])


def _train_config(cfg: dict, seed: int, *, epochs: int | None = None,
                  hidden: int | None = None, epsilon: float = 0.0) -> TrainConfig:
    t = cfg["train"]
    return TrainConfig(
        learning_rate=t["learning_rate"],
        epochs=t["epochs"] if epochs is None else epochs,
        batch_size=t["batch_size"],
        seed=seed,
        label_smoothing_epsilon=epsilon,
        hidden_dim=cfg["model"]["hidden_dim"] if hidden is None else hidden,
        features=_featurizer(cfg),
    )


def _toast_config(cfg: dict, seed: int, *, hidden: int | None = None,
                  epochs: int | None = None) -> ToastConfig:
    t = cfg["toast"]
    return ToastConfig(
        k=t["k"], alpha=t["alpha"], rate=t["rate"],
        augment_per_negative=t["augment_per_negative"],
        no_cross_annotation=t["no_cross_annotation"],
        no_downsample=t["no_downsample"],
        no_augment=t["no_augment"],
        no_alpha_decay=t["no_alpha_decay"],
        train=_train_config(cfg, seed, epochs=t["epochs"] if epochs is None else epochs,
                            hidden=hidden),
        annotator_train=_train_config(cfg, seed, hidden=hidden),
    )


def _load_data(cfg: dict) -> tuple[Dataset, Dataset, SynonymLexicon | None]:
    d = cfg["data"]
    seed = cfg["run"]["seed"]
    if d["source"] == "synthetic":
        synth = _synth_config(cfg, seed)
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
        synth = _synth_config(cfg, cfg["run"]["seed"] + 1, per_class=d["pool_per_class"])
        return generate_synthetic(synth).train
    if not d["pool_path"]:
        raise ConfigError("data.pool_path is required for sweeps on jsonl data")
    return load_dataset(d["pool_path"], d["task_kind"])


def _require_lexicon(lexicon: SynonymLexicon | None, cfg: dict) -> SynonymLexicon:
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


def _write_csv(path: Path, header: list[str], rows) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _finish_run(out: Path, cfg: dict, written: list[Path]) -> None:
    """meta.json: the config and the SHA-256 of every file in ``written``, the
    files this command wrote, so that stale files an earlier run left in a
    reused ``out`` are not vouched for. Files named meta.json are not hashed."""
    hashes = {str(f.relative_to(out)): hashlib.sha256(f.read_bytes()).hexdigest()
              for f in written if f.name != "meta.json"}
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
    synth = _synth_config(cfg, cfg["run"]["seed"])
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
    losses = _write_csv(out / "losses.csv", ["step", "loss"],
                        [(i, repr(loss)) for i, loss in enumerate(trace)])
    log = Calibrator("vanilla", params).build_log(test_d, "id")
    _finish_run(out, cfg, [out / "model.bin", losses])
    print(f"final training loss {trace[-1]:.4f}, test accuracy {log.correct.mean():.3f}")
    return 0


def cmd_toast(cfg: dict, out: Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    train_d, test_d, lexicon = _load_data(cfg)
    lexicon = _require_lexicon(lexicon, cfg)
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
                       seed: int, *, hidden: int | None = None,
                       epochs: int | None = None, toast_epochs: int | None = None):
    """Train the models behind the requested scoring methods; returns the
    calibrators plus the pipeline's audit bundle (None when not requested).

    The three baselines share a protocol: they train on the same nine tenths
    of the data, with the remaining tenth used to fit the temperature, so
    their scores are directly comparable. The pipeline method uses the full
    training set — making the most of it is its whole point.
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
            folds = split_folds(train_d, 10, seed)
            ls_params, _ = train_main(
                merge_datasets(folds[1:]),
                _train_config(cfg, seed, hidden=hidden, epochs=epochs,
                              epsilon=cfg["train"]["label_smoothing_epsilon"]))
            calibs["label_smoothing"] = Calibrator("label_smoothing", ls_params)
    if "toast" in methods:
        params, artifacts = run_toast(
            train_d, _toast_config(cfg, seed, hidden=hidden, epochs=toast_epochs),
            _require_lexicon(lexicon, cfg))
        calibs["toast"] = Calibrator("toast", params)
    return {m: calibs[m] for m in methods if m in calibs}, artifacts


def cmd_eval(cfg: dict, out: Path) -> int:
    """The end-to-end pipeline: data -> models -> confidence logs ->
    applications -> metrics.json, curve CSVs, and the audit bundle."""
    out.mkdir(parents=True, exist_ok=True)
    curves = out / "curves"
    curves.mkdir(exist_ok=True)
    seed = cfg["run"]["seed"]
    methods = _split_list(cfg["eval"]["calibrators"], str)
    applications = _split_list(cfg["eval"]["applications"], str)
    for m in methods:
        if m not in METHODS:
            raise ConfigError(f"unknown calibrator {m!r} in eval.calibrators")
    for a in applications:
        if a not in apps.APPLICATIONS:
            raise ConfigError(f"unknown application {a!r} in eval.applications")

    train_d, test_d, lexicon = _load_data(cfg)
    calibs, toast_artifacts = _build_calibrators(cfg, train_d, lexicon, methods, seed)
    written: list[Path] = []
    if toast_artifacts is not None:
        written += toast_artifacts.save(out / "artifacts")

    metrics: dict = {"summary": {}}
    for method, calib in calibs.items():
        log = calib.build_log(test_d, "id")
        a, dc = apps.log_auroc_dconf(log)
        metrics["summary"][method] = {"auroc": a, "delta_conf": dc,
                                      "accuracy": float(log.correct.mean())}
        written.append(curves / f"log_{method}.csv")
        log.to_csv(written[-1])

    if "selective" in applications:
        targets = _split_list(cfg["eval"]["targets"], float)
        metrics["selective"] = {}
        for method, calib in calibs.items():
            rep = apps.selective_eval(calib, test_d, targets)
            metrics["selective"][method] = {
                "auroc_risk": rep["auroc_risk"],
                "coverage_at_risk": rep["coverage_at_risk"],
            }
            written.append(_write_csv(
                curves / f"selective_risk_coverage_{method}.csv",
                ["threshold", "coverage", "risk"],
                [(repr(t), repr(c), repr(r)) for t, c, r in rep["risk_coverage"]]))
            written.append(_write_csv(
                curves / f"selective_accuracy_coverage_{method}.csv",
                ["threshold", "coverage", "accuracy"],
                [(repr(t), repr(c), repr(a)) for t, c, a in rep["accuracy_coverage"]]))

    if "adversarial" in applications:
        ev = cfg["eval"]
        if ev["adversarial_file"]:
            adv = load_dataset(ev["adversarial_file"], cfg["data"]["task_kind"])
        else:
            lex = _require_lexicon(lexicon, cfg)
            attack_target = calibs.get("vanilla") or next(iter(calibs.values()))
            adv, origins = attack_dataset(attack_target.params, test_d, lex,
                                          budget=ev["adversarial_budget"],
                                          max_successes=ev["adversarial_max"])
            written.append(out / "adversarial.jsonl")
            save_adversarial(adv, origins, written[-1])
        metrics["adversarial"] = {}
        for method, calib in calibs.items():
            rep = apps.adversarial_eval(calib, test_d, adv, seed=seed)
            metrics["adversarial"][method] = {
                "auroc": rep["auroc"], "delta_conf": rep["delta_conf"],
                "n_id": rep["n_id"], "n_adv": rep["n_adv"],
            }
            written.append(_write_csv(curves / f"adversarial_f1_{method}.csv",
                                      ["threshold", "macro_f1"],
                                      [(repr(t), repr(f)) for t, f in rep["detection_f1"]]))

    if "cascade" in applications:
        ev = cfg["eval"]
        large_params, _ = train_main(
            train_d, _train_config(cfg, seed + 50, hidden=ev["cascade_large_hidden"],
                                   epochs=ev["cascade_large_epochs"]))
        small_calibs, _ = _build_calibrators(
            cfg, train_d, lexicon, methods, seed + 60,
            hidden=ev["cascade_small_hidden"], epochs=ev["cascade_small_epochs"],
            toast_epochs=ev["cascade_small_epochs"])
        metrics["cascade"] = {}
        for method, calib in small_calibs.items():
            rep = apps.cascade_eval(calib, large_params, test_d)
            metrics["cascade"][method] = {
                "area": rep["area"],
                "small_accuracy": rep["small_accuracy"],
                "large_accuracy": rep["large_accuracy"],
            }
            routed = dict(rep["routed_fraction"])
            written.append(_write_csv(
                curves / f"cascade_{method}.csv",
                ["threshold", "accuracy", "routed_fraction"],
                [(repr(t), repr(a), repr(routed[t])) for t, a in rep["curve"]]))

    written.append(_write_json(metrics, out / "metrics.json"))
    _finish_run(out, cfg, written)
    _print_summary(metrics["summary"])
    print(f"run directory: {out}")
    return 0


SWEEP_COLUMNS = ["point_id", "kind", "size", "mode", "ratio", "factor",
                 "feature_mode", "k", "n_seeds", "auroc_mean", "auroc_std",
                 "dconf_mean", "dconf_std", "skipped"]


def _sweep_row_to_csv(row: dict) -> dict:
    out = {}
    for col in SWEEP_COLUMNS:
        v = row.get(col, "")
        if v is None:
            v = ""
        elif isinstance(v, float):
            v = repr(v)
        out[col] = v
    return out


def _sweep_fingerprint(cfg: dict, kind: str, points: list[dict]) -> str:
    """SHA-256 of what decides a sweep's rows: the run and sweep seeds, the
    data, model, train and toast sections, the kind and its grid."""
    key = {"seed": cfg["run"]["seed"], "seeds": cfg["sweep"]["seeds"], "kind": kind,
           "points": points,
           **{section: cfg[section] for section in ("data", "model", "train", "toast")}}
    return hashlib.sha256(json.dumps(key, sort_keys=True).encode("utf-8")).hexdigest()


def cmd_sweep(cfg: dict, out: Path, kind: str | None, jobs: int) -> int:
    out.mkdir(parents=True, exist_ok=True)
    kind = kind or cfg["sweep"]["kind"]
    sw = cfg["sweep"]
    seed = cfg["run"]["seed"]
    train_d, test_d, lexicon = _load_data(cfg)

    sweep_cfg = apps.PilotSweepConfig(
        annotator=_train_config(cfg, seed),
        train=_train_config(cfg, seed + 10, epochs=cfg["toast"]["epochs"]),
        seeds=_split_list(sw["seeds"], int),
        sizes=_split_list(sw["sizes"], int),
        ratios=_split_list(sw["ratios"], float),
        fixed_factors=_split_list(sw["fixed_factors"], int),
        ks=_split_list(sw["ks"], int),
    )
    points = apps.grid_points(kind, sweep_cfg)

    csv_path = out / "sweep.csv"
    fp_path = out / "sweep.fingerprint"
    fingerprint = _sweep_fingerprint(cfg, kind, points)
    existing: dict[str, dict] = {}
    if csv_path.exists():
        if fp_path.exists() and fp_path.read_text(encoding="utf-8").strip() != fingerprint:
            raise ConfigError(f"{csv_path} comes from another config or grid; "
                              "refusing to resume (use a fresh --out)")
        with open(csv_path, encoding="utf-8", newline="") as fh:
            for row in csv.DictReader(fh):
                existing[row["point_id"]] = row
        for pid in existing:
            print(f"resume: skipping completed point {pid}")
    fp_path.write_text(fingerprint + "\n", encoding="utf-8")

    new_rows: list[dict] = []

    def _append(row: dict) -> None:
        new_rows.append(row)
        new_file = not csv_path.exists()
        with open(csv_path, "a", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=SWEEP_COLUMNS)
            if new_file:
                writer.writeheader()
            writer.writerow(_sweep_row_to_csv(row))

    todo = [p for p in points if p["point_id"] not in existing]
    if kind == "k":
        lexicon = _require_lexicon(lexicon, cfg)
    if jobs > 1 and len(todo) > 1:
        annotations = None
        if kind != "k" and todo:
            annotations = apps.seed_annotations(train_d, _load_pool(cfg), sweep_cfg)
        worker = partial(apps.evaluate_point, train=train_d, test=test_d,
                         cfg=sweep_cfg, annotations=annotations, lexicon=lexicon)
        with ProcessPoolExecutor(max_workers=jobs) as pool_exec:
            for row in pool_exec.map(worker, todo):
                _append(row)
    else:
        pool_d = _load_pool(cfg) if kind != "k" and todo else test_d
        apps.pilot_sweeps(train_d, pool_d, test_d, kind, sweep_cfg,
                          lexicon, skip=set(existing), on_row=_append)

    # Rewrite in canonical grid order, merging resumed and fresh rows.
    by_id = dict(existing)
    by_id.update({r["point_id"]: _sweep_row_to_csv(r) for r in new_rows})
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SWEEP_COLUMNS)
        writer.writeheader()
        for p in points:
            if p["point_id"] in by_id:
                writer.writerow(by_id[p["point_id"]])
    _finish_run(out, cfg, [csv_path, fp_path])
    print(f"sweep '{kind}': {len(points)} points "
          f"({len(points) - len(todo)} resumed) -> {csv_path}")
    return 0


def cmd_attack(cfg: dict, out: Path, model_path: str | None) -> int:
    out.mkdir(parents=True, exist_ok=True)
    train_d, test_d, lexicon = _load_data(cfg)
    lexicon = _require_lexicon(lexicon, cfg)
    if model_path:
        params = load_parameters(model_path)
    else:
        params, _ = train_main(train_d, _train_config(cfg, cfg["run"]["seed"]))
    adv, origins = attack_dataset(params, test_d, lexicon,
                                  budget=cfg["attack"]["budget"],
                                  max_successes=cfg["attack"]["max_successes"])
    save_adversarial(adv, origins, out / "adversarial.jsonl")
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
