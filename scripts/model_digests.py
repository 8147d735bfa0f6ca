"""Print a sha256 of every model and predictions file the benchmark makes.

Trains every trial of perfbench's two training workloads and runs the
cli-predict-bulk set-up and predict, all at one BLAS thread in a temporary
directory, and prints one line per file: its sha256 and a name.  Two
checkouts that print the same lines train and predict byte-identically, so
a refactor that must not move model bits is checked with::

    python3 scripts/model_digests.py --seed 4243 > after.txt

run in each checkout and compared with ``diff``.  The workloads come from
``perfbench/workloads.py``, imported as is.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile
from pathlib import Path

# Before numpy loads, as in perfbench/run.py: trained models depend on the
# BLAS thread count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import labrr.cli  # noqa: E402
import labrr.trainer  # noqa: E402
import workloads  # noqa: E402
from labrr.ridgeless import save_model  # noqa: E402

TRAINING = ("noisy-small-support", "grow-large-support")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True, help="the benchmark seed of every workload")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for name in TRAINING:
            workload = workloads.make(name, "full", args.seed, workdir)
            workload.setup()
            for t in range(workload.spec.trials):
                model, _ = workload.call(t, labrr.trainer.train)
                path = workdir / f"{name}-model-{t}.json"
                save_model(model, path)
                print(_sha256(path), path.name)
        bulk = workloads.make("cli-predict-bulk", "full", args.seed, workdir)
        bulk.setup()
        exit_code = bulk.call(0, labrr.cli.main)
        if exit_code != 0:
            print(f"labrr predict exited with {exit_code}", file=sys.stderr)
            return 1
        print(_sha256(bulk.model_path), "cli-predict-bulk-model.json")
        print(_sha256(bulk.out_path), "cli-predict-bulk-predictions.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
