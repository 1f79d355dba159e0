"""Regenerate the two stored correlated-noise models under bench/models/.

They are draws 1 and 4 of ``random_model(np.random.default_rng(0), n=2,
correlated=True)`` from the test suite's conftest, written with shortest
round-trip floats so the files reproduce the doubles exactly. Run from the
repository root:

    PYTHONPATH=src:tests python3 bench/make_stored_models.py
"""
import json
from pathlib import Path

import numpy as np

from conftest import random_model

FIELDS = ("A", "B", "C", "D", "x0_mean", "V0")
DRAWS = {1: "correlated_draw1.json", 4: "correlated_draw4.json"}


def main() -> None:
    rng = np.random.default_rng(0)
    draws = [random_model(rng, n=2, correlated=True) for _ in range(max(DRAWS))]
    out = Path(__file__).resolve().parent / "models"
    for index, name in DRAWS.items():
        model = draws[index - 1]
        lines = [f' "{f}": {json.dumps(getattr(model, f).tolist())}' for f in FIELDS]
        (out / name).write_text("{\n" + ",\n".join(lines) + "\n}\n")
        print(f"wrote {out / name}")


if __name__ == "__main__":
    main()
