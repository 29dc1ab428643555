"""Config handling and the command-line workflows, run in-process."""

import csv
import json

import pytest

from selfcal import cli
from selfcal.cli import ConfigError, load_config, main
from selfcal.corpus import load_dataset, load_hardness

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

    def test_bad_calibrator_name(self, config_path, tmp_path, capsys):
        rc = main(["eval", "--config", str(config_path), "--out", str(tmp_path / "o"),
                   "--set", "eval.calibrators=vanilla,platt"])
        assert rc == 2
        assert "platt" in capsys.readouterr().err

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
                       if f.is_file() and f.name != "meta.json"}
        assert hashed == fresh_files

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

    def test_resume_skips_completed_points(self, config_path, tmp_path, capsys):
        out = tmp_path / "sweep"
        out.mkdir()
        # Pre-seed one completed row with a sentinel value: resuming must keep
        # it untouched instead of recomputing.
        header = ("point_id,kind,size,mode,ratio,factor,feature_mode,k,"
                  "n_seeds,auroc_mean,auroc_std,dconf_mean,dconf_std,skipped")
        sentinel = "size=15,size,15,,,,,,2,0.123456,0.0,9.9,0.0,"
        (out / "sweep.csv").write_text(header + "\n" + sentinel + "\n")
        assert main(["sweep", "--config", str(config_path), "--kind", "size",
                     "--out", str(out)]) == 0
        assert "skipping completed point size=15" in capsys.readouterr().out
        with open(out / "sweep.csv", newline="") as fh:
            rows = {r["point_id"]: r for r in csv.DictReader(fh)}
        assert rows["size=15"]["auroc_mean"] == "0.123456"
        assert rows["size=40"]["auroc_mean"] not in ("", "0.123456")

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

    def test_interrupted_parallel_sweep_keeps_finished_rows(self, config_path, tmp_path,
                                                            monkeypatch):
        class InterruptedPool:
            """Runs the first point in-process, then is interrupted."""

            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, points):
                yield fn(points[0])
                raise KeyboardInterrupt

        monkeypatch.setattr(cli, "ProcessPoolExecutor", InterruptedPool)
        out = tmp_path / "sweep"
        with pytest.raises(KeyboardInterrupt):
            main(["sweep", "--config", str(config_path), "--kind", "size",
                  "--out", str(out), "--jobs", "2"])
        with open(out / "sweep.csv", newline="") as fh:
            assert [r["point_id"] for r in csv.DictReader(fh)] == ["size=15"]


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
