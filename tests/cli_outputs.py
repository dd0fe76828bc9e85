"""Run one fixed CLI script and list the files it wrote, with a digest each.

    PYTHONPATH=src python tests/cli_outputs.py OUT_DIR > listing.txt

The script covers simulate (VAR and Lorenz-96), infer and eval (plain and
off-diagonal) on the CSV files simulate wrote, run on a simulated source
(2 seeds x 2 lambdas) and on those CSV files with an MLP. Each listing line
is a path relative to OUT_DIR and the sha256 of the file with its
`"seconds": <number>` values blanked, the one field that differs between
runs. Two checkouts wrote the same files, byte for byte apart from those
values, iff their listings are equal. OUT_DIR must not exist.
"""
import contextlib
import hashlib
import os
import re
import sys
from pathlib import Path

from grngc.cli import main

SMALL = ["--set", "train.lag=2", "--set", "train.epochs=2", "--set", "train.hidden=[8]"]
VAR4 = ["--set", "data.source=var", "--set", "data.p=4", "--set", "data.T=200"]
CSV = ["--set", "data.series=sim/series.csv"]
SCRIPT = [
    ["simulate", "--out", "sim"] + VAR4,
    ["simulate", "--out", "sim_l96", "--set", "data.p=6", "--set", "data.T=50"],
    ["infer", "--out", "inf"] + CSV + SMALL,
    ["eval", "inf/gc_matrix.csv", "sim/truth.csv", "--out", "ev"],
    ["eval", "inf/gc_matrix.csv", "sim/truth.csv", "--mode", "off_diagonal", "--out", "ev_off"],
    ["run", "--out", "run_var", "--set", "run.seeds=[0,1]", "--set", "run.lams=[0.0,0.01]"]
    + VAR4 + SMALL,
    ["run", "--out", "run_csv", "--set", "run.seeds=[0]", "--set", "train.backbone=mlp",
     "--set", "data.truth=sim/truth.csv"] + CSV + SMALL,
]
SECONDS = re.compile(rb'"seconds": [-+0-9.eE]+')


def listing(root: Path) -> list[str]:
    lines = []
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        blanked = SECONDS.sub(b'"seconds": _', path.read_bytes())
        lines.append(f"{path.relative_to(root).as_posix()} {hashlib.sha256(blanked).hexdigest()}")
    return lines


if __name__ == "__main__":
    root = Path(sys.argv[1])
    root.mkdir(parents=True)
    os.chdir(root)  # relative paths, so summary.json's config is the same in any OUT_DIR
    for argv in SCRIPT:
        with contextlib.redirect_stdout(sys.stderr):  # stdout carries the listing alone
            rc = main(argv)
        if rc != 0:
            sys.exit(f"grngc {' '.join(argv)} failed")
    print("\n".join(listing(Path("."))))
