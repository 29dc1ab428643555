"""Rewrite the contract pins from the current code.

    PYTHONPATH=src python tests/contract/refresh.py [name ...]

Reruns the command of each named pin (all by default, see
tests/test_contract.py's RUNS) and writes tests/contract/<name>.json. Run it
only for a change that means to move a pinned value, and declare each moved
key with the change.
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_contract import PINS, RUNS, observe  # noqa: E402


def refresh(names) -> None:
    for name in names:
        with tempfile.TemporaryDirectory() as tmp:
            pin = observe(name, Path(tmp) / "run")
        path = PINS / f"{name}.json"
        path.write_text(json.dumps(pin, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path}")


if __name__ == "__main__":
    refresh(sys.argv[1:] or list(RUNS))
