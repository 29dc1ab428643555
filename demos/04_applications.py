"""Put the confidence scores to work: selective classification, adversarial
sample detection, and a small-to-large model cascade."""

from dataclasses import replace

import numpy as np

from selfcal import Calibrator, FeaturizerConfig, SynthConfig, ToastConfig, TrainConfig, generate_synthetic, run_toast
from selfcal.apps import adversarial_eval, cascade_eval, selective_eval
from selfcal.augment import attack_dataset, synthetic_lexicon
from selfcal.calibrators import train_with_temperature
from selfcal.model import train_main

cfg = SynthConfig(num_classes=2, vocab_size=200, samples_per_class=300,
                  hardness_fraction=0.3, hard_flip_prob=0.5, seed=0)
data = generate_synthetic(cfg)
lexicon = synthetic_lexicon(cfg)
train_cfg = TrainConfig(epochs=5, hidden_dim=16, seed=100,
                        features=FeaturizerConfig(hash_dim=2048))

base_params, temperature = train_with_temperature(data.train, train_cfg)
toast_params, _ = run_toast(
    data.train, ToastConfig(train=replace(train_cfg, epochs=8)), lexicon)
methods = {
    "vanilla": Calibrator("vanilla", base_params),
    "toast": Calibrator("toast", toast_params),
}

print("selective classification (reject below a confidence threshold)")
for name, calib in methods.items():
    rep = selective_eval(calib, data.test, targets=(0.95,))
    cov = rep["coverage_at_risk"]["0.95"]
    cov_txt = "-" if cov is None else f"{100 * cov:.1f}%"
    print(f"  {name:<10} risk score {rep['auroc_risk']:.4f}   "
          f"coverage at 95% accuracy: {cov_txt}")

print("\nadversarial detection (attack a separately trained deployment model)")
target, _ = train_main(data.train, replace(train_cfg, seed=140))
adv, _ = attack_dataset(target, data.test, lexicon, budget=6, max_successes=200)
print(f"  greedy substitution produced {len(adv)} successful adversarial samples")
for name, calib in methods.items():
    rep = adversarial_eval(calib, data.test, adv)
    best_t, best_f1 = max(rep["detection_f1"], key=lambda tf: tf[1])
    print(f"  {name:<10} AUROC {rep['auroc']:.3f}   dConf {rep['delta_conf']:.1f}pp   "
          f"best macro-F1 {best_f1:.3f} at threshold {best_t:.2f}")

print("\nmodel cascade (small model answers unless unsure, then the large one)")
large, _ = train_main(data.train, replace(train_cfg, epochs=8, hidden_dim=128, seed=150))
small_cfg = replace(train_cfg, epochs=2, seed=160)
small_v, _ = train_with_temperature(data.train, small_cfg)
small_t, _ = run_toast(data.train, ToastConfig(train=small_cfg), lexicon)
for name, calib in (("vanilla", Calibrator("vanilla", small_v)),
                    ("toast", Calibrator("toast", small_t))):
    rep = cascade_eval(calib, large, data.test)
    mid = {t: routed for t, _, routed in rep["curve"]}[0.5]
    print(f"  {name:<10} area {rep['area']:.4f}   "
          f"small {rep['small_accuracy']:.3f} / large {rep['large_accuracy']:.3f}   "
          f"routes {100 * mid:.0f}% at t=0.5")

print("\nnote the routing columns: a binary max-probability score never drops")
print("below 0.5, so half the threshold range is dead for the baseline, while")
print("the trained correctness head spreads its scores over all of [0, 1].")
