"""Run the full three-stage self-calibration pipeline and inspect what each
stage produced.

Stage 1 cross-annotates: two models, each trained on half the data, label the
other half with "was the prediction right". Stage 2 rebalances those labels
and builds transformed copies of the wrong-prediction records. Stage 3 trains
one fresh model on the main task, the correctness task, and a consistency
term that ties clean and transformed confidences together.
"""

from selfcal import Calibrator, FeaturizerConfig, SynthConfig, ToastConfig, TrainConfig, delta_conf, generate_synthetic, run_toast
from selfcal.augment import synthetic_lexicon
from selfcal.calibrators import train_with_temperature

cfg = SynthConfig(num_classes=2, vocab_size=200, samples_per_class=300,
                  hardness_fraction=0.3, hard_flip_prob=0.5, seed=0)
data = generate_synthetic(cfg)
lexicon = synthetic_lexicon(cfg)

toast_cfg = ToastConfig(train=TrainConfig(epochs=8, hidden_dim=16, seed=100,
                                          features=FeaturizerConfig(hash_dim=2048)))
params, artifacts = run_toast(data.train, toast_cfg, lexicon)

counts = artifacts.meta["counts"]
print("stage 1 - cross-annotation")
print(f"  annotated {counts['annotated']} records "
      f"({counts['annotated_negatives']} wrong, {counts['annotated_positives']} right)")
print("stage 2 - post-processing")
print(f"  balanced calibration set: {counts['dstar']} records")
print(f"  augmented wrong-prediction records: {counts['daug']}")
# The augmented set holds positions into the calibration set, each with its
# transformed text and the transform that made it.
daug = artifacts.daug
neg = artifacts.dstar[daug.rows[0]]
print(f"  example: {neg.text_a}")
print(f"       ->  {daug.texts[0]}   ({daug.kinds[0].value})")
print("stage 3 - multi-task training")
first, last = artifacts.losses[0], artifacts.losses[-1]
print(f"  total loss {first['l_total']:.3f} -> {last['l_total']:.3f} "
      f"over {len(artifacts.losses)} steps")

# Compare against the plain baseline on the held-out test split.
base_params, temperature = train_with_temperature(
    data.train, TrainConfig(epochs=5, hidden_dim=16, seed=100,
                            features=FeaturizerConfig(hash_dim=2048)))

print(f"\n{'method':<12}{'dConf(pp)':>11}{'accuracy':>10}")
for name, calib in (("vanilla", Calibrator("vanilla", base_params)),
                    ("pipeline", Calibrator("toast", params))):
    log = calib.build_log(data.test, "id")
    gap = delta_conf(log.confidence[log.correct == 1],
                     log.confidence[log.correct == 0])
    print(f"{name:<12}{gap:>11.2f}{log.correct.mean():>10.3f}")

print("\nthe pipeline roughly triples the confidence gap between correct and")
print("wrong predictions while leaving task accuracy where it was.")
