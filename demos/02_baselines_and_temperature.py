"""Train the hashed linear classifier and compare the three baseline
confidence scores: raw max-probability, temperature scaling, and label
smoothing.

Temperature scaling reorders nothing (AUROC is identical to vanilla, as it
must be for a monotone transform); it only stretches the confidence gap.
"""

from dataclasses import replace

from selfcal import Calibrator, FeaturizerConfig, SynthConfig, TrainConfig, auroc, delta_conf, generate_synthetic
from selfcal.calibrators import baseline_split, train_with_temperature
from selfcal.model import train_main

cfg = SynthConfig(num_classes=2, vocab_size=200, samples_per_class=300,
                  hardness_fraction=0.3, hard_flip_prob=0.5, seed=0)
data = generate_synthetic(cfg)

train_cfg = TrainConfig(epochs=5, hidden_dim=16, seed=100,
                        features=FeaturizerConfig(hash_dim=2048))

# The baselines share one protocol: train on nine tenths, fit the temperature
# on the held-out tenth.
base_params, temperature = train_with_temperature(data.train, train_cfg)
print(f"fitted temperature: {temperature:.3f}")

ls_params, _ = train_main(baseline_split(data.train, train_cfg.seed)[1],
                          replace(train_cfg, label_smoothing_epsilon=0.1))

calibrators = {
    "vanilla": Calibrator("vanilla", base_params),
    "temperature": Calibrator("temperature", base_params, temperature=temperature),
    "label_smoothing": Calibrator("label_smoothing", ls_params),
}

print(f"\n{'method':<18}{'AUROC':>8}{'dConf(pp)':>11}{'accuracy':>10}")
for name, calib in calibrators.items():
    log = calib.build_log(data.test, "id")
    pos = log.confidence[log.correct == 1]
    neg = log.confidence[log.correct == 0]
    print(f"{name:<18}{100 * auroc(pos, neg):>8.2f}{delta_conf(pos, neg):>11.2f}"
          f"{log.correct.mean():>10.3f}")

print("\nnote the identical vanilla and temperature AUROC rows: scaling logits")
print("by a constant cannot change how confidences rank.")
