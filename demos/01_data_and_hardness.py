"""Generate the synthetic task, look at what makes a sample hard, and
round-trip everything through JSONL.

The generator plants class-indicative tokens into each text. Easy samples get
several of them; hard samples get a single one (and sometimes a flipped
label), which is what gives a trained model something to be uncertain about.
"""

import tempfile
from pathlib import Path

import numpy as np

from selfcal import SynthConfig, generate_synthetic, load_dataset, save_dataset, split_folds
from selfcal.corpus import class_tokens

cfg = SynthConfig(num_classes=2, vocab_size=200, samples_per_class=150,
                  hardness_fraction=0.3, hard_flip_prob=0.5, seed=0)
data = generate_synthetic(cfg)

print(f"train: {len(data.train)} samples, test: {len(data.test)} samples")
print(f"labels: {data.train.label_names}")
print(f"class_0 owns tokens like {class_tokens(cfg, 0)[:4]} ...")

print("\nan easy sample vs a hard one:")
for want_hard in (False, True):
    idx = data.train_hard.index(want_hard)
    s = data.train.samples[idx]
    kind = "hard" if want_hard else "easy"
    print(f"  [{kind}] label={data.train.label_names[s.label]}  text={s.text_a}")

frac_hard = np.mean(data.train_hard)
print(f"\nfraction of hard train samples: {frac_hard:.2f} (configured {cfg.hardness_fraction})")

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "train.jsonl"
    save_dataset(data.train, path)
    reloaded = load_dataset(path)
    print(f"\nJSONL round trip: {len(reloaded)} samples, lossless:",
          reloaded.samples == data.train.samples)

# Folds are row positions; data.train.subset(fold) makes one a dataset.
folds = split_folds(data.train, 3, seed=0)
print("\nstratified 3-fold split sizes:", [len(f) for f in folds])
for i, fold in enumerate(folds):
    counts = np.bincount(data.train.labels()[fold], minlength=2)
    print(f"  fold {i}: per-class counts {counts.tolist()}")
