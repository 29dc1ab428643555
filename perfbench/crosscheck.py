"""Compare the benchmark's figures with the baseline table in ROADMAP.md.

    python3 perfbench/crosscheck.py

Runs the traced ``eval_default`` workload at seed 7 (the seed in
``configs/default.ini``, which the baseline used), counts from its spans the
``featurize`` calls and the attack time inside the ``selfcal eval`` call
(the requests of the unit are left out), and times
``metrics.risk_coverage`` on logs of 2000 and 8000 points. Prints one JSON
object with each measured figure next to the baseline's.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = {
    "eval_featurize_calls": 51800,
    "eval_attack_share": 0.42,
    "import.selfcal_s": 1.3,
    "import.scipy_stats_s": 1.16,
    "risk_coverage_8k_over_2k": 0.46 / 0.045,
}


def risk_coverage_seconds(n: int, repeats: int = 3) -> float:
    import numpy as np

    from selfcal import calibrators, metrics

    rng = np.random.default_rng((0, n))
    conf = rng.random(n)
    correct = (rng.random(n) < conf).astype(np.int64)
    log = calibrators.ConfidenceLog(conf, correct, np.zeros(n, dtype=np.int64), ("id",) * n)
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        metrics.risk_coverage(log)
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def eval_figures(path) -> dict:
    """Featurize calls and the greedy attack's share of wall time inside the
    ``cli.main`` span of a saved eval_default trace."""
    import numpy as np

    from spans import has_ancestor

    spans = np.load(path)
    name = spans["names"][spans["name_id"]]
    parent = spans["parent"]
    dur = spans["end"] - spans["start"]
    is_main = name == "cli.main"
    in_main = has_ancestor(parent, is_main)
    attack = name == "augment.greedy_attack"
    outer_attack = attack & in_main & ~has_ancestor(parent, attack)
    return {
        "eval_featurize_calls": int(((name == "model.featurize") & in_main).sum()),
        "eval_attack_share": float(dur[outer_attack].sum() / dur[is_main].sum()),
    }


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "eval_default", "--seed", "7",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, check=True, capture_output=True, text=True, timeout=600).stdout
    traced = json.loads(out.strip().splitlines()[-1])["metrics"]
    small, large = risk_coverage_seconds(2000), risk_coverage_seconds(8000)
    measured = {name: traced[name]["value"] for name in BASELINE if name in traced}
    measured.update(eval_figures(ROOT / ".perfbench_out" / "spans_eval_default.npz"))
    measured.update({"risk_coverage_2k_s": small, "risk_coverage_8k_s": large,
                     "risk_coverage_8k_over_2k": large / small})
    print(json.dumps({"baseline": BASELINE, "measured": measured}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
