"""Print a sha256 of every model and predictions file the benchmark makes.

Trains every trial of perfbench's two training workloads and runs the
cli-predict-bulk set-up and predict, all at one BLAS thread in a temporary
directory, and prints one line per file: its sha256 and a name.  Two
checkouts that print the same lines train and predict byte-identically, so
a refactor that must not move model bits is checked with::

    python3 scripts/model_digests.py --seed 4243 > after.txt

run in each checkout and compared with ``diff``.  The workloads come from
``perfbench/workloads.py``, imported as is.

A change that is allowed to move bits reports how far instead.  ``--keep
DIR`` keeps the hashed files in ``DIR``, and ``--against DIR`` then prints,
for each model, the largest relative change in ``alpha`` and in the
bandwidths against the files another checkout kept there (``max |new -
old| / max |old|`` over the entries)::

    python3 scripts/model_digests.py --seed 4243 --keep ../parent-files   # in the parent
    python3 scripts/model_digests.py --seed 4243 --against ../parent-files  # in the change
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

# Before numpy loads, as in perfbench/run.py, so every BLAS call runs at the
# benchmark's thread count; ``train`` pins one thread itself, nothing else does.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import labrr.cli  # noqa: E402
import labrr.trainer  # noqa: E402
import numpy as np  # noqa: E402
import workloads  # noqa: E402
from labrr.ridgeless import save_model  # noqa: E402

TRAINING = ("noisy-small-support", "grow-large-support")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _relative_change(new, old) -> str:
    """``max |new - old| / max |old|`` of two coefficient lists, or their shapes."""
    new, old = np.asarray(new), np.asarray(old)
    if new.shape != old.shape:
        return f"shape {old.shape} -> {new.shape}"
    return f"{np.abs(new - old).max() / np.abs(old).max():.3g}"


def _drift(name: str, path: Path, kept: Path) -> str:
    """Largest relative changes of the model at ``path`` from its namesake in ``kept``."""
    if not kept.exists():
        return f"drift {name}: no {kept}"
    new, old = (json.loads(p.read_text(encoding="utf-8")) for p in (path, kept))
    support = "same support" if new["support_x"] == old["support_x"] else "support differs"
    return (f"drift {name}: alpha {_relative_change(new['alpha'], old['alpha'])}, "
            f"bandwidths {_relative_change(new['bandwidths'], old['bandwidths'])}, {support}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True, help="the benchmark seed of every workload")
    parser.add_argument("--keep", type=Path, help="keep the hashed files in this directory")
    parser.add_argument("--against", type=Path, help="print each model's drift from the files kept here")
    args = parser.parse_args(argv)
    with contextlib.ExitStack() as stack:
        if args.keep is None:
            workdir = Path(stack.enter_context(tempfile.TemporaryDirectory()))
        else:
            workdir = args.keep.resolve()
            workdir.mkdir(parents=True, exist_ok=True)
        models = []
        for name in TRAINING:
            workload = workloads.make(name, "full", args.seed, workdir)
            workload.setup()
            for t in range(workload.spec.trials):
                model, _ = workload.call(t, labrr.trainer.train)
                path = workdir / f"{name}-model-{t}.json"
                save_model(model, path)
                print(_sha256(path), path.name)
                models.append((path.name, path))
        bulk = workloads.make("cli-predict-bulk", "full", args.seed, workdir)
        bulk.setup()
        exit_code = bulk.call(0, labrr.cli.main)
        if exit_code != 0:
            print(f"labrr predict exited with {exit_code}", file=sys.stderr)
            return 1
        print(_sha256(bulk.model_path), "cli-predict-bulk-model.json")
        print(_sha256(bulk.out_path), "cli-predict-bulk-predictions.csv")
        if args.against is not None:
            models.append(("cli-predict-bulk-model.json", bulk.model_path))
            for name, path in models:
                print(_drift(name, path, args.against.resolve() / path.name))
    return 0


if __name__ == "__main__":
    sys.exit(main())
