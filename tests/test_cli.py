"""Config handling and the command-line workflows, run in-process."""

import csv
import hashlib
import json
import pickle
from dataclasses import replace

import pytest

from selfcal import apps, calibrators, cli
from selfcal.augment import attack_dataset
from selfcal.calibrators import METHODS
from selfcal.cli import ConfigError, load_config, main
from selfcal.corpus import SynthConfig, load_dataset, load_hardness
from selfcal.model import TrainConfig, train_main
from selfcal.toast import ToastConfig

TINY_CONFIG = """
[run]
seed = 3

[data]
source = synthetic
num_classes = 2
vocab_size = 120
samples_per_class = 80
hardness_fraction = 0.3
hard_flip_prob = 0.5

[model]
hash_dim = 1024
hidden_dim = 8

[train]
epochs = 5

[toast]
epochs = 4

[eval]
calibrators = vanilla,temperature,toast
applications = selective
targets = 0.9

[sweep]
seeds = 0,1
sizes = 15,40
ks = 2,3

[attack]
budget = 6
max_successes = 10
"""


@pytest.fixture()
def config_path(tmp_path):
    p = tmp_path / "cfg.ini"
    p.write_text(TINY_CONFIG)
    return p


class TestConfig:
    def test_defaults_filled(self, config_path):
        cfg = load_config(str(config_path))
        assert cfg["run"]["seed"] == 3
        assert cfg["toast"]["k"] == 2
        assert cfg["train"]["learning_rate"] == 0.5

    def test_unknown_key_named(self, tmp_path, capsys):
        p = tmp_path / "bad.ini"
        p.write_text("[run]\nseed = 1\nspeed = fast\n")
        rc = main(["eval", "--config", str(p), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "run.speed" in capsys.readouterr().err

    def test_unknown_section_rejected(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[run]\nseed = 1\n[banana]\nx = 1\n")
        with pytest.raises(ConfigError, match="banana"):
            load_config(str(p))

    def test_seed_required(self, tmp_path, capsys):
        p = tmp_path / "bad.ini"
        p.write_text("[data]\nsource = synthetic\n")
        rc = main(["synth", "--config", str(p), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["synth", "train", "toast", "eval", "sweep", "attack"])
    def test_no_output_directory_writes_nothing(self, config_path, tmp_path, monkeypatch,
                                                capsys, command):
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        rc = main([command, "--config", str(config_path), "--set", "run.out="])
        assert rc == 2
        assert capsys.readouterr().err == (
            "config error: no output directory: pass --out or set run.out\n")
        assert list(cwd.iterdir()) == []

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(str(tmp_path / "nope.ini"))

    def test_set_overrides(self, config_path):
        cfg = load_config(str(config_path), ["run.seed=99", "toast.alpha=0.25"])
        assert cfg["run"]["seed"] == 99
        assert cfg["toast"]["alpha"] == 0.25

    def test_bad_override_key(self, config_path):
        with pytest.raises(ConfigError, match="toast.beta"):
            load_config(str(config_path), ["toast.beta=1"])

    def test_bad_value_type(self, config_path):
        with pytest.raises(ConfigError, match="run.seed"):
            load_config(str(config_path), ["run.seed=soon"])

    def test_defaults_are_the_library_defaults(self, tmp_path):
        p = tmp_path / "seed_only.ini"
        p.write_text("[run]\nseed = 11\n")
        cfg = load_config(str(p))
        assert cli._synth_config(cfg, 11) == SynthConfig(seed=11)
        assert cli._train_config(cfg, 11) == TrainConfig(seed=11)
        toast = cli._toast_config(cfg, 11)
        library = ToastConfig(train=replace(ToastConfig().train, seed=11))
        assert toast.train == library.train
        assert toast.annotator_config == library.annotator_config
        assert replace(toast, annotator_train=None) == library
        assert cli._split_list(cfg["eval"]["calibrators"], str) == METHODS
        assert cli._split_list(cfg["eval"]["applications"], str) == tuple(apps.APPLICATIONS)
        assert cfg["sweep"]["kind"] == apps.SWEEP_KINDS[0]
        grids = apps.PilotSweepConfig(toast=ToastConfig())
        for key, typ in (("seeds", int), ("sizes", int), ("ratios", float),
                         ("fixed_factors", int), ("ks", int)):
            assert cli._split_list(cfg["sweep"][key], typ) == getattr(grids, key)

    @pytest.mark.parametrize("setting", [
        "eval.targets=1.5", "eval.targets=abc", "eval.targets=0", "eval.targets=0.9,nan",
        "eval.calibrators=bogus", "eval.applications=ranking", "sweep.kind=bogus",
        "sweep.sizes=abc", "sweep.ratios=0.1,x", "sweep.seeds=1.5"])
    @pytest.mark.parametrize("command", ["eval", "sweep"])
    def test_bad_list_value_fails_before_anything_runs(self, config_path, tmp_path, capsys,
                                                        command, setting):
        out = tmp_path / "run"
        assert main([command, "--config", str(config_path), "--out", str(out),
                     "--set", setting]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error")
        assert setting.split("=")[0] in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("setting, message", [
        ("toast.k=1", "k must be >= 2"),
        ("train.batch_size=0", "batch_size must be >= 1"),
        ("model.hash_dim=1000", "hash_dim must be a power of two, got 1000"),
        ("data.tokens_per_sample=1", "tokens_per_sample must be >= 2"),
        ("data.test_samples_per_class=-3", "test_samples_per_class must be None or >= 1"),
        ("data.pool_per_class=0", "samples_per_class must be positive"),
        ("train.label_smoothing_epsilon=1", "label_smoothing_epsilon must be in [0, 1)"),
        ("eval.cascade_large_hidden=0", "hidden_dim must be >= 1"),
        ("eval.cascade_small_epochs=0", "epochs must be >= 1"),
        ("sweep.seeds=", "seeds is empty: a sweep needs at least one seed"),
        ("sweep.sizes=-5", "sizes must be >= 1"),
        ("sweep.fixed_factors=0", "fixed_factors must be >= 1"),
        ("sweep.ratios=0.5,1", "ratios must be in (0, 1)"),
        ("sweep.ratios=0", "ratios must be in (0, 1)"),
        ("sweep.ks=1", "ks must be >= 2"),
        ("sweep.ks=2,3,2", "ks repeats an entry"),
        ("sweep.ratios=0.5,0.50", "ratios repeats an entry"),
        ("run.seed=-1", "seed must be >= 0"),
        ("sweep.seeds=-20", "seeds must be >= 0")])
    @pytest.mark.parametrize("command", ["synth", "eval", "sweep"])
    def test_bad_dataclass_value_fails_before_anything_runs(self, config_path, tmp_path, capsys,
                                                           command, setting, message):
        out = tmp_path / "run"
        assert main([command, "--config", str(config_path), "--out", str(out),
                     "--set", setting]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"config error: {setting.split('=')[0]}: {message}"]
        assert setting.split("=")[0] in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("kind, settings", [
        ("size", ["sweep.sizes="]),
        ("imbalance", ["sweep.ratios=", "sweep.fixed_factors="]),
        ("k", ["sweep.ks="])])
    def test_empty_grid_of_the_sweep_kind_fails_before_anything_runs(
            self, config_path, tmp_path, capsys, kind, settings):
        out = tmp_path / "run"
        overrides = [arg for setting in settings for arg in ("--set", setting)]
        assert main(["sweep", "--config", str(config_path), "--out", str(out),
                     "--kind", kind, *overrides]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: the {kind} sweep has no points")
        assert all(setting.split("=")[0] in err[0] for setting in settings)
        assert not out.exists()

    def test_list_values_are_kept_as_given(self, config_path):
        cfg = load_config(str(config_path), ["eval.targets=0.5, 1", "sweep.sizes= 7,3"])
        assert cfg["eval"]["targets"] == "0.5, 1"
        assert cfg["sweep"]["sizes"] == "7,3"

    @pytest.mark.parametrize("old, new", [("adversarial_budget", "attack.budget"),
                                          ("adversarial_max", "attack.max_successes")])
    def test_removed_eval_keys_name_their_replacement(self, config_path, tmp_path,
                                                       capsys, old, new):
        p = tmp_path / "old.ini"
        p.write_text(config_path.read_text().replace("[eval]", f"[eval]\n{old} = 3"))
        for argv in (["--config", str(p)],
                     ["--config", str(config_path), "--set", f"eval.{old}=3"]):
            assert main(["eval", *argv, "--out", str(tmp_path / "o")]) == 2
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and err[0].startswith("config error")
            assert f"eval.{old}" in err[0] and new in err[0]


class TestSynthTrainToast:
    def test_synth_writes_data_and_sidecars(self, config_path, tmp_path):
        out = tmp_path / "synth"
        assert main(["synth", "--config", str(config_path), "--out", str(out)]) == 0
        train = load_dataset(out / "train.jsonl")
        assert len(train) == 160
        flags = load_hardness(out / "train.hardness.jsonl")
        assert set(flags) == set(train.ids())
        assert (out / "lexicon.tsv").exists()
        assert (out / "meta.json").exists()

    def test_train_saves_model(self, config_path, tmp_path, capsys):
        out = tmp_path / "train"
        assert main(["train", "--config", str(config_path), "--out", str(out)]) == 0
        assert (out / "model.bin").exists()
        assert (out / "losses.csv").exists()
        assert "test accuracy" in capsys.readouterr().out

    def test_toast_saves_model_and_artifacts(self, config_path, tmp_path):
        out = tmp_path / "toast"
        assert main(["toast", "--config", str(config_path), "--out", str(out)]) == 0
        assert (out / "model.bin").exists()
        for name in ("dstar.jsonl", "daug.jsonl", "losses.csv", "meta.json"):
            assert (out / "artifacts" / name).exists()


class TestEval:
    def test_pipeline_outputs(self, config_path, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["eval", "--config", str(config_path), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "AUROC" in printed and "vanilla" in printed
        metrics = json.loads((out / "metrics.json").read_text())
        assert set(metrics["summary"]) == {"vanilla", "temperature", "toast"}
        assert "selective" in metrics and "adversarial" not in metrics
        meta = json.loads((out / "meta.json").read_text())
        assert meta["config"]["run"]["seed"] == 3
        assert "metrics.json" in meta["artifact_hashes"]

    def test_deterministic_metrics(self, config_path, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["eval", "--config", str(config_path), "--out", str(out1)]) == 0
        assert main(["eval", "--config", str(config_path), "--out", str(out2)]) == 0
        assert (out1 / "metrics.json").read_bytes() == (out2 / "metrics.json").read_bytes()

    def test_adversarial_application_reads_the_attack_section(self, config_path, tmp_path):
        out = tmp_path / "run"
        assert main(["eval", "--config", str(config_path), "--out", str(out),
                     "--set", "eval.applications=adversarial",
                     "--set", "attack.max_successes=3"]) == 0
        adversarial = json.loads((out / "metrics.json").read_text())["adversarial"]
        assert adversarial and all(0 < row["n_adv"] <= 3 for row in adversarial.values())
        assert len(load_dataset(out / "adversarial.jsonl")) <= 3

    def test_adversarial_file_is_read_not_regenerated(self, config_path, tmp_path):
        attack = tmp_path / "attack"
        assert main(["attack", "--config", str(config_path), "--out", str(attack)]) == 0
        adv_path = attack / "adversarial.jsonl"
        n_records = len(adv_path.read_text().splitlines()) - 1  # minus the header
        out = tmp_path / "run"
        assert main(["eval", "--config", str(config_path), "--out", str(out),
                     "--set", "eval.applications=adversarial",
                     "--set", f"eval.adversarial_file={adv_path}"]) == 0
        adversarial = json.loads((out / "metrics.json").read_text())["adversarial"]
        assert adversarial and all(row["n_adv"] == n_records for row in adversarial.values())
        assert not (out / "adversarial.jsonl").exists()
        # The file holds exactly the samples the attack made.
        cfg = load_config(str(config_path))
        train_d, test_d, lexicon = cli._load_data(cfg)
        params, _ = train_main(train_d, cli._train_config(cfg, cfg["run"]["seed"]))
        adv, _ = attack_dataset(params, test_d, lexicon, **cfg["attack"])
        assert load_dataset(adv_path).samples == adv.samples

    def test_baselines_train_on_the_same_nine_tenths(self, config_path, monkeypatch):
        trained = {}

        def recording_train_main(d, cfg):
            trained[cfg.label_smoothing_epsilon] = list(d.ids())
            return train_main(d, cfg)

        monkeypatch.setattr(cli, "train_main", recording_train_main)
        monkeypatch.setattr(calibrators, "train_main", recording_train_main)
        cfg = load_config(str(config_path))
        train_d, _, lexicon = cli._load_data(cfg)
        cli._build_calibrators(cfg, train_d, lexicon, ("vanilla", "label_smoothing"), 3)
        # The vanilla/temperature model, then the label-smoothing one.
        assert list(trained) == [0.0, 0.1]
        assert trained[0.1] == trained[0.0] == calibrators.baseline_split(train_d, 3)[1].ids()
        assert len(trained[0.0]) < len(train_d)

    def test_label_smoothing_alone_trains_no_temperature_model(self, config_path,
                                                                monkeypatch):
        calls = []

        def counting_train_with_temperature(d, cfg):
            calls.append(cfg)
            return calibrators.train_with_temperature(d, cfg)

        monkeypatch.setattr(cli, "train_with_temperature", counting_train_with_temperature)
        cfg = load_config(str(config_path))
        train_d, _, lexicon = cli._load_data(cfg)
        calibs, _ = cli._build_calibrators(cfg, train_d, lexicon, ("label_smoothing",), 3)
        assert list(calibs) == ["label_smoothing"] and calls == []
        cli._build_calibrators(cfg, train_d, lexicon, ("temperature",), 3)
        assert len(calls) == 1

    def test_bad_calibrator_name(self, config_path, tmp_path, capsys):
        rc = main(["eval", "--config", str(config_path), "--out", str(tmp_path / "o"),
                   "--set", "eval.calibrators=vanilla,platt"])
        assert rc == 2
        assert "platt" in capsys.readouterr().err

    def test_empty_calibrator_list(self, config_path, tmp_path, capsys):
        rc = main(["eval", "--config", str(config_path), "--out", str(tmp_path / "o"),
                   "--set", "eval.calibrators=", "--set", "eval.applications=selective"])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "eval.calibrators is empty" in err[0]
        assert not (tmp_path / "o" / "metrics.json").exists()

    @pytest.mark.parametrize("setting", ["attack.budget=0", "attack.max_successes=0"])
    def test_attack_that_cannot_succeed_fails_before_training(self, config_path, tmp_path,
                                                              capsys, setting):
        out = tmp_path / "run"
        assert main(["eval", "--config", str(config_path), "--out", str(out),
                     "--set", setting]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: {setting.split('=')[0]}: ")
        assert not out.exists()

    def test_reused_out_hashes_only_this_runs_files(self, config_path, tmp_path):
        out = tmp_path / "run"
        assert main(["eval", "--config", str(config_path), "--out", str(out)]) == 0
        stale = out / "curves" / "selective_risk_coverage_vanilla.csv"
        assert stale.exists()
        assert main(["eval", "--config", str(config_path), "--out", str(out),
                     "--set", "eval.applications=cascade"]) == 0
        hashed = set(json.loads((out / "meta.json").read_text())["artifact_hashes"])
        assert stale.exists() and "curves/selective_risk_coverage_vanilla.csv" not in hashed
        assert "curves/cascade_vanilla.csv" in hashed and "metrics.json" in hashed
        fresh = tmp_path / "fresh"
        assert main(["eval", "--config", str(config_path), "--out", str(fresh),
                     "--set", "eval.applications=cascade"]) == 0
        fresh_files = {str(f.relative_to(fresh)) for f in fresh.rglob("*")
                       if f.is_file() and f != fresh / "meta.json"}
        assert hashed == fresh_files

    def test_meta_hashes_the_pipeline_meta(self, config_path, tmp_path):
        """artifacts/meta.json (counts, rounds, held-out ids) is vouched for;
        only the run's own meta.json is left out."""
        out = tmp_path / "run"
        assert main(["eval", "--config", str(config_path), "--out", str(out)]) == 0
        hashes = json.loads((out / "meta.json").read_text())["artifact_hashes"]
        pipeline_meta = (out / "artifacts" / "meta.json").read_bytes()
        assert hashes["artifacts/meta.json"] == hashlib.sha256(pipeline_meta).hexdigest()
        assert "meta.json" not in hashes

    def test_report_renders_finished_run(self, config_path, tmp_path, capsys):
        out = tmp_path / "run"
        main(["eval", "--config", str(config_path), "--out", str(out)])
        capsys.readouterr()
        assert main(["report", "--run", str(out)]) == 0
        assert "selective" in capsys.readouterr().out

    def test_report_missing_run(self, tmp_path, capsys):
        assert main(["report", "--run", str(tmp_path)]) == 1
        assert "metrics.json" in capsys.readouterr().err


class TestSweep:
    def test_k_sweep_emits_one_row_per_k(self, config_path, tmp_path):
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(config_path), "--kind", "k",
                     "--out", str(out), "--set", "sweep.ks=2,3,4,5",
                     "--set", "sweep.seeds=0"]) == 0
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["point_id"] for r in rows] == ["k=2", "k=3", "k=4", "k=5"]

    def test_size_sweep_sorted_ascending(self, config_path, tmp_path):
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(config_path), "--kind", "size",
                     "--out", str(out)]) == 0
        with open(out / "sweep.csv", newline="") as fh:
            sizes = [int(r["size"]) for r in csv.DictReader(fh)]
        assert sizes == sorted(sizes) == [15, 40]

    SWEEP_HEADER = ("point_id,kind,size,mode,ratio,factor,feature_mode,k,"
                    "n_seeds,auroc_mean,auroc_std,dconf_mean,dconf_std,skipped")
    SENTINEL_ROW = "size=15,size,15,,,,,,2,0.123456,0.0,9.9,0.0,"

    def test_resume_skips_completed_points(self, config_path, tmp_path, capsys):
        out = tmp_path / "sweep"
        args = ["sweep", "--config", str(config_path), "--kind", "size", "--out", str(out)]
        # A finished sweep leaves this config's fingerprint; then pre-seed one
        # completed row with a sentinel value: resuming must keep it untouched
        # instead of recomputing.
        assert main(args) == 0
        (out / "sweep.csv").write_text(self.SWEEP_HEADER + "\n" + self.SENTINEL_ROW + "\n")
        capsys.readouterr()
        assert main(args) == 0
        assert "skipping completed point size=15" in capsys.readouterr().out
        with open(out / "sweep.csv", newline="") as fh:
            rows = {r["point_id"]: r for r in csv.DictReader(fh)}
        assert rows["size=15"]["auroc_mean"] == "0.123456"
        assert rows["size=40"]["auroc_mean"] not in ("", "0.123456")

    def test_resume_refuses_a_sweep_without_a_fingerprint(self, config_path, tmp_path,
                                                          capsys):
        out = tmp_path / "sweep"
        out.mkdir()
        stale = self.SWEEP_HEADER + "\n" + self.SENTINEL_ROW + "\n"
        (out / "sweep.csv").write_text(stale)
        assert main(["sweep", "--config", str(config_path), "--kind", "size",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "another config or grid" in err and len(err.strip().splitlines()) == 1
        assert (out / "sweep.csv").read_text() == stale
        assert sorted(p.name for p in out.iterdir()) == ["sweep.csv"]

    def test_resume_refuses_a_sweep_of_another_grid(self, config_path, tmp_path, capsys):
        out = tmp_path / "sweep"
        args = ["sweep", "--config", str(config_path), "--kind", "size", "--out", str(out)]
        assert main(args + ["--set", "sweep.sizes=15,30"]) == 0
        stale = (out / "sweep.csv").read_text()
        capsys.readouterr()
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "another config or grid" in err and len(err.strip().splitlines()) == 1
        assert (out / "sweep.csv").read_text() == stale
        assert main(args + ["--set", "sweep.sizes=15,30", "--set", "train.epochs=4"]) == 2
        # The same config and grid still resume.
        assert main(args + ["--set", "sweep.sizes=15,30"]) == 0
        assert "skipping completed point size=30" in capsys.readouterr().out
        assert (out / "sweep.csv").read_text() == stale

    def test_parallel_jobs_match_serial(self, config_path, tmp_path):
        serial, par = tmp_path / "s", tmp_path / "p"
        assert main(["sweep", "--config", str(config_path), "--kind", "size",
                     "--out", str(serial)]) == 0
        assert main(["sweep", "--config", str(config_path), "--kind", "size",
                     "--out", str(par), "--jobs", "2"]) == 0
        assert (serial / "sweep.csv").read_text() == (par / "sweep.csv").read_text()

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_is_a_config_error(self, config_path, tmp_path, capsys, jobs):
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(config_path), "--kind", "size",
                     "--out", str(out), "--jobs", jobs]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"config error: --jobs must be >= 1, got {jobs}"]
        assert not out.exists()

    def test_parallel_sweep_ships_the_shared_inputs_once_per_worker(self, config_path,
                                                                   tmp_path, monkeypatch):
        shipped = []

        class PicklingPool:
            """Pickles what a spawned worker would receive and runs it in-process."""

            def __init__(self, max_workers, initializer, initargs):
                shipped.append(len(pickle.dumps(initargs)))
                pickle.loads(pickle.dumps(initializer))(*pickle.loads(pickle.dumps(initargs)))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, points):
                for point in points:
                    task = pickle.dumps((fn, point))
                    shipped.append(len(task))
                    fn, point = pickle.loads(task)
                    yield fn(point)

        serial, par = tmp_path / "s", tmp_path / "p"
        assert main(["sweep", "--config", str(config_path), "--kind", "size",
                     "--out", str(serial)]) == 0
        monkeypatch.setattr(cli, "ProcessPoolExecutor", PicklingPool)
        monkeypatch.setattr(cli, "_sweep_worker", None)   # set in-process; reset after
        assert main(["sweep", "--config", str(config_path), "--kind", "size",
                     "--out", str(par), "--jobs", "2"]) == 0
        assert (serial / "sweep.csv").read_text() == (par / "sweep.csv").read_text()
        # The datasets and annotations once, then a point of a few hundred bytes
        # per task.
        shared, *tasks = shipped
        assert shared > 10_000 and len(tasks) == 2 and max(tasks) < 1_000

    class InterruptedPool:
        """Runs the first point in-process, then is interrupted."""

        def __init__(self, max_workers, initializer, initargs):
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, points):
            yield fn(points[0])
            raise KeyboardInterrupt

    def test_interrupted_parallel_sweep_keeps_finished_rows(self, config_path, tmp_path,
                                                            monkeypatch):
        monkeypatch.setattr(cli, "ProcessPoolExecutor", self.InterruptedPool)
        monkeypatch.setattr(cli, "_sweep_worker", None)   # set in-process; reset after
        out = tmp_path / "sweep"
        with pytest.raises(KeyboardInterrupt):
            main(["sweep", "--config", str(config_path), "--kind", "size",
                  "--out", str(out), "--jobs", "2"])
        with open(out / "sweep.csv", newline="") as fh:
            assert [r["point_id"] for r in csv.DictReader(fh)] == ["size=15"]

    def test_interrupted_resumed_sweep_keeps_grid_order(self, config_path, tmp_path,
                                                        monkeypatch):
        out = tmp_path / "sweep"
        args = ["sweep", "--config", str(config_path), "--kind", "size", "--out", str(out),
                "--set", "sweep.sizes=15,40,60"]
        assert main(args) == 0
        header, size15, size40, size60 = (out / "sweep.csv").read_text().splitlines(True)
        # Resume from the last point alone; the first new point finishes, then
        # the sweep is interrupted.
        (out / "sweep.csv").write_text(header + size60)
        monkeypatch.setattr(cli, "ProcessPoolExecutor", self.InterruptedPool)
        monkeypatch.setattr(cli, "_sweep_worker", None)   # set in-process; reset after
        with pytest.raises(KeyboardInterrupt):
            main(args + ["--jobs", "2"])
        assert (out / "sweep.csv").read_text() == header + size15 + size60
        assert sorted(p.name for p in out.iterdir()) == [
            "meta.json", "sweep.csv", "sweep.fingerprint"]


class TestAttack:
    def test_attack_writes_jsonl_with_origins(self, config_path, tmp_path):
        out = tmp_path / "attack"
        assert main(["attack", "--config", str(config_path), "--out", str(out)]) == 0
        path = out / "adversarial.jsonl"
        adv = load_dataset(path)
        assert 0 < len(adv) <= 10
        origin_ids = [json.loads(line)["origin_id"]
                      for line in path.read_text().splitlines()[1:]]
        assert len(origin_ids) == len(adv)

    def test_attack_reuses_saved_model(self, config_path, tmp_path):
        trained = tmp_path / "train"
        main(["train", "--config", str(config_path), "--out", str(trained)])
        out = tmp_path / "attack"
        assert main(["attack", "--config", str(config_path), "--out", str(out),
                     "--model", str(trained / "model.bin")]) == 0
        assert (out / "adversarial.jsonl").exists()

    # The ids are the cases' names from before the messages led with their key.
    @pytest.mark.parametrize("setting, message", [
        ("attack.budget=0", "budget must be >= 1, got 0"),
        ("attack.budget=-1", "budget must be >= 1, got -1"),
        ("attack.max_successes=0", "max_successes must be >= 1 or None, got 0")], ids=[
        "attack.budget=0-attack budget must be >= 1, got 0",
        "attack.budget=-1-attack budget must be >= 1, got -1",
        "attack.max_successes=0-attack max_successes must be >= 1 or None, got 0"])
    def test_attack_that_cannot_succeed_fails_in_one_line(self, config_path, tmp_path,
                                                          capsys, setting, message):
        out = tmp_path / "attack"
        assert main(["attack", "--config", str(config_path), "--out", str(out),
                     "--set", setting]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"config error: {setting.split('=')[0]}: {message}"]
        assert not out.exists()

    def test_attack_on_a_bad_model_header_fails_in_one_line(self, config_path, tmp_path,
                                                            capsys):
        bad = tmp_path / "bad.bin"
        bad.write_text(json.dumps({"format": "selfcal-model-v1", "num_classes": 2,
                                   "hidden_dim": "x", "features": {}}) + "\n")
        assert main(["attack", "--config", str(config_path), "--out", str(tmp_path / "attack"),
                     "--model", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error: ValueError: {bad}: model header hidden_dim "
                                    "must be an int >= 1, got 'x'"]


class TestLexicon:
    """jsonl data without data.lexicon_path: every lexicon check comes before
    the output directory is made, so before any model is trained."""

    @pytest.fixture()
    def jsonl_args(self, config_path, tmp_path):
        data = tmp_path / "data"
        assert main(["synth", "--config", str(config_path), "--out", str(data)]) == 0
        return ["--config", str(config_path), "--set", "data.source=jsonl",
                "--set", f"data.train_path={data / 'train.jsonl'}",
                "--set", f"data.test_path={data / 'test.jsonl'}"]

    @pytest.mark.parametrize("command, settings", [
        ("attack", []),
        ("attack", ["toast.no_augment=true"]),
        ("eval", ["toast.no_augment=true", "eval.applications=adversarial"]),
        ("eval", ["toast.no_augment=true", "eval.applications=selective,adversarial",
                  "eval.calibrators=vanilla"])])
    def test_attack_without_a_lexicon_fails_before_training(self, jsonl_args, tmp_path,
                                                            capsys, command, settings):
        out = tmp_path / "out"
        argv = [command, *jsonl_args, "--out", str(out)]
        for setting in settings:
            argv += ["--set", setting]
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: an attack needs a synonym lexicon with entries: "
            "set data.lexicon_path"]
        assert not out.exists()

    @pytest.mark.parametrize("command", [["eval"], ["toast"], ["sweep", "--kind", "k"]])
    def test_augmentation_without_a_lexicon_fails_before_training(self, jsonl_args, tmp_path,
                                                                  capsys, command):
        out = tmp_path / "out"
        assert main([*command, *jsonl_args, "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: a synonym lexicon is needed: set data.lexicon_path "
            "or toast.no_augment = true"]
        assert not out.exists()

    def test_no_augment_still_runs_the_toast_stage(self, jsonl_args, tmp_path):
        out = tmp_path / "out"
        assert main(["eval", *jsonl_args, "--out", str(out),
                     "--set", "toast.no_augment=true"]) == 0
        assert "toast" in json.loads((out / "metrics.json").read_text())["summary"]
