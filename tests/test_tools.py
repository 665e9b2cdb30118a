"""The scripts under tools/ run on this tree."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_output_digests_are_the_same_on_a_rerun():
    def digests():
        run = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "output_digests.py"),
             "--src", str(ROOT / "src")],
            capture_output=True, text=True, check=True, timeout=300)
        return json.loads(run.stdout)

    first = digests()
    assert first == digests()
    # every command's outputs, and the IDX pair it reads
    assert set(first) == {
        "attack.features.csv", "attack.labels.csv", "bound.csv",
        "corrupt.features.csv", "corrupt.labels.csv", "epochs.csv",
        "images.idx", "labels.idx", "influence.csv",
        *(f"train-{kind}.csv{ext}" for kind in ("attack", "blobs", "csv", "idx")
          for ext in ("", ".params.npy")),
    }
