"""The contract: what `selfcal` writes for a fixed config, pinned.

Each pin under tests/contract/ holds the outputs of one command on
configs/default.ini: the `eval` run at seeds 7, 4 and 5 (every value of
metrics.json, the pred and correct columns of each curves/log_*.csv, every
line of adversarial.jsonl), the `toast` bundle at seed 7 (meta.json,
dstar.jsonl, daug.jsonl) and the sweep.csv of each sweep kind. A change that
moves a pinned value reruns tests/contract/refresh.py and declares the change.
"""

import csv
import json
import math
from pathlib import Path

import pytest

from selfcal.cli import main

PINS = Path(__file__).parent / "contract"
CONFIG = Path(__file__).parents[1] / "configs" / "default.ini"

# Floats compare at this relative tolerance, so that the pins hold across the
# numpy versions and CPUs that CI runs; integers, strings, booleans and None
# compare exactly.
REL_TOL = 1e-12

# Pin name -> the command's arguments after --config and --out.
RUNS = {
    **{f"eval_seed{seed}": ["eval", "--set", f"run.seed={seed}"] for seed in (7, 4, 5)},
    "toast_seed7": ["toast", "--set", "run.seed=7"],
    **{f"sweep_{kind}": ["sweep", "--kind", kind, "--set", "sweep.sizes=30,120",
                         "--set", "sweep.ks=2,3"]
       for kind in ("size", "imbalance", "features", "k")},
}


def _lines(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()


def _rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _cell(raw: str):
    """A CSV cell as the int, float or string it holds."""
    for typ in (int, float):
        try:
            return typ(raw)
        except ValueError:
            pass
    return raw


def observe(name: str, out: Path) -> dict:
    """Run the command of pin ``name`` into ``out`` and return what it pins."""
    command, *args = RUNS[name]
    assert main([command, "--config", str(CONFIG), "--out", str(out), *args]) == 0
    if command == "eval":
        pin = {"metrics.json": json.loads((out / "metrics.json").read_text(encoding="utf-8")),
               "adversarial.jsonl": _lines(out / "adversarial.jsonl")}
        for log in sorted((out / "curves").glob("log_*.csv")):
            rows = _rows(log)
            pin[f"curves/{log.name}"] = {column: " ".join(r[column] for r in rows)
                                         for column in ("pred", "correct")}
        return pin
    if command == "toast":
        return {"artifacts/meta.json": json.loads(
                    (out / "artifacts" / "meta.json").read_text(encoding="utf-8")),
                **{f"artifacts/{f}": _lines(out / "artifacts" / f)
                   for f in ("dstar.jsonl", "daug.jsonl")}}
    return {"sweep.csv": [{k: _cell(v) for k, v in r.items()} for r in _rows(out / "sweep.csv")]}


def assert_matches(got, pinned, where: str = "") -> None:
    """``got`` equals ``pinned``: floats within REL_TOL, all else exactly."""
    if isinstance(pinned, float) and isinstance(got, float):
        assert (math.isnan(got) and math.isnan(pinned)) or math.isclose(
            got, pinned, rel_tol=REL_TOL, abs_tol=0.0), f"{where}: {got!r} != {pinned!r}"
        return
    assert type(got) is type(pinned), f"{where}: {got!r} != {pinned!r}"
    if isinstance(pinned, dict):
        assert sorted(got) == sorted(pinned), f"{where}: keys {sorted(got)} != {sorted(pinned)}"
        for key in pinned:
            assert_matches(got[key], pinned[key], f"{where}/{key}")
    elif isinstance(pinned, list):
        assert len(got) == len(pinned), f"{where}: {len(got)} entries != {len(pinned)}"
        for i, (g, p) in enumerate(zip(got, pinned)):
            assert_matches(g, p, f"{where}[{i}]")
    else:
        assert got == pinned, f"{where}: {got!r} != {pinned!r}"


@pytest.mark.parametrize("name", list(RUNS))
def test_outputs_match_the_pins(name, tmp_path):
    pinned = json.loads((PINS / f"{name}.json").read_text(encoding="utf-8"))
    assert_matches(observe(name, tmp_path / "run"), pinned, name)


def test_matching_is_strict_off_floats():
    assert_matches({"a": [1, "x", None, True, 0.5]}, {"a": [1, "x", None, True, 0.5 + 1e-14]})
    for got, pinned in ((1, 1.0), (True, 1), ("0.5", 0.5), (0.5, 0.5 * (1 + 1e-11)),
                        ({"a": 1}, {"a": 1, "b": 2}), ([1], [1, 1]), (0.0, 1e-300)):
        with pytest.raises(AssertionError):
            assert_matches(got, pinned)
