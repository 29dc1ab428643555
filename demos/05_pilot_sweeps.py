"""The pilot sweeps: what actually drives the correctness head's quality.

Three findings show up reliably even at this scale: more calibration records
help, an exactly balanced correctness distribution helps most, and the sample
text carries far more signal than the predicted label alone.
"""

from selfcal import FeaturizerConfig, SynthConfig, ToastConfig, TrainConfig, generate_synthetic
from selfcal.apps import PilotSweepConfig, pilot_sweeps
from selfcal.augment import synthetic_lexicon

feats = FeaturizerConfig(hash_dim=2048)
cfg = SynthConfig(num_classes=2, vocab_size=200, samples_per_class=150,
                  hardness_fraction=0.3, hard_flip_prob=0.5, seed=0)
data = generate_synthetic(cfg)
pool = generate_synthetic(SynthConfig(num_classes=2, vocab_size=200,
                                      samples_per_class=400, hardness_fraction=0.3,
                                      hard_flip_prob=0.5, seed=1)).train
lexicon = synthetic_lexicon(cfg)

# Every grid point runs this pipeline with one setting changed: a k point
# the whole pipeline, the other kinds its stage 3 on rows of the pool that
# the annotator config labels.
sweep_cfg = PilotSweepConfig(
    toast=ToastConfig(
        train=TrainConfig(epochs=8, hidden_dim=16, seed=200, features=feats),
        annotator_train=TrainConfig(epochs=5, hidden_dim=16, seed=100, features=feats)),
    seeds=(0, 1, 2),
    sizes=(30, 120, 480),
    ratios=(0.1, 0.3, 0.5, 0.7, 0.9),
    ks=(2, 3),
)


def show(rows, title):
    print(f"\n{title}")
    print(f"  {'point':<22}{'AUROC':>8}{'dConf(pp)':>11}")
    for r in rows:
        if r["skipped"]:
            print(f"  {r['point_id']:<22}  skipped: {r['skipped']}")
        else:
            print(f"  {r['point_id']:<22}{100 * r['auroc_mean']:>8.2f}"
                  f"{r['dconf_mean']:>11.2f}")


show(pilot_sweeps(data.train, pool, data.test, "size", sweep_cfg),
     "calibration-set size (bigger keeps helping)")
show(pilot_sweeps(data.train, pool, data.test, "imbalance", sweep_cfg),
     "wrong-prediction fraction at fixed size (balance wins)")
show(pilot_sweeps(data.train, pool, data.test, "features", sweep_cfg),
     "input ablation (the sample text is the dominant feature)")
show(pilot_sweeps(data.train, pool, data.test, "k", sweep_cfg, lexicon),
     "number of annotation folds (more folds do not pay for themselves)")
