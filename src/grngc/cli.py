"""Command-line pipeline: simulate or load data, train, emit the causal
score matrix, evaluate against truth, and sweep lambda/seeds.

Configuration is a JSON document with flat dotted-key overrides, e.g.
    grngc run --out results --set train.lam=1e-2 --set run.seeds=[0,1,2]
"""
from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from .core import TrainConfig, TrainError, TrainReport, train
from .datagen import (AdjacencyTruth, DataError, Lorenz96Config, SimulationError,
                      TimeSeries, random_sparse_var1, simulate_lorenz96, simulate_var)
from .metrics import FULL, MODES, MetricError, evaluate


def _defaults(cls) -> dict:
    """Field defaults of a config dataclass, except its seed; tuples as lists."""
    return {f.name: list(f.default) if isinstance(f.default, tuple) else f.default
            for f in dataclasses.fields(cls) if f.name != "seed"}


_L96 = _defaults(Lorenz96Config)

DEFAULT_CONFIG = {
    "data": {
        "source": "lorenz96",      # lorenz96 | var; unused if data.series is set
        "seed": 0,
        **_L96,                    # lorenz96; p and T serve var too
        # var
        "density": 0.3, "noise_sigma": 0.1, "radius": 0.45,
        # files to read in place of simulating
        "series": None, "truth": None, "has_header": True, "delimiter": ",",
    },
    "train": _defaults(TrainConfig),  # the seed comes from data.seed or run.seeds
    "eval": {"mode": FULL},
    "run": {"seeds": [0, 1, 2], "lams": None},
}


class CliError(Exception):
    pass


def _flatten(doc, prefix: str = "") -> dict:
    """Dotted key -> value for every non-mapping value of a nested mapping."""
    flat = {}
    for k, v in doc.items():
        if isinstance(v, dict):
            flat.update(_flatten(v, f"{prefix}{k}."))
        else:
            flat[f"{prefix}{k}"] = v
    return flat


_FIELDS = _flatten(DEFAULT_CONFIG)
# a value of the type of each key that defaults to None (None stays valid)
_NULLABLE = {"data.series": "", "data.truth": "", "run.lams": [0.0]}
_CHOICES = {"data.source": ("lorenz96", "var"), "eval.mode": MODES}


def _wrong_type(value, like) -> bool:
    """Whether a JSON value lacks the type of `like`. An int passes for a
    float, NaN and infinities do not; list elements are checked against
    like's first element."""
    if isinstance(like, list):
        return not isinstance(value, list) or any(_wrong_type(v, like[0]) for v in value)
    if type(like) is float:
        return type(value) not in (int, float) or not math.isfinite(value)
    return type(value) is not type(like)


def _type_name(like) -> str:
    if isinstance(like, list):
        return f"a list of {_type_name(like[0])}"
    return "finite float" if type(like) is float else type(like).__name__


def load_config(path: str | None, overrides) -> dict:
    """DEFAULT_CONFIG updated by a JSON file, then by `key=value` overrides.
    Every key must name a field of DEFAULT_CONFIG, and every value must have
    the type of that field's default and be listed in _CHOICES[key], if any."""
    updates = {}
    if path:
        with open(path) as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise CliError(f"{path}: invalid JSON ({exc})") from None
        if not isinstance(doc, dict):
            raise CliError(f"{path}: config must be a JSON object")
        updates.update(_flatten(doc))
    for item in overrides or []:
        if "=" not in item:
            raise CliError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        updates.update(_flatten({key: value}))
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    for key, value in updates.items():
        if key not in _FIELDS:
            raise CliError(f"unknown config key {key!r}")
        like = _NULLABLE.get(key, _FIELDS[key])
        if not (value is None and key in _NULLABLE) and _wrong_type(value, like):
            raise CliError(f"config key {key!r} expects {_type_name(like)}, got {value!r}")
        if key in _CHOICES and value not in _CHOICES[key]:
            raise CliError(f"config key {key!r} must be one of "
                           f"{', '.join(_CHOICES[key])}, got {value!r}")
        section, name = key.split(".")
        cfg[section][name] = value
    return cfg


def _read_csv(path, has_header: bool, delimiter: str) -> tuple[np.ndarray, list[str] | None]:
    """The cells of a delimited text file as a 2-D array of finite numbers,
    with the header's column names if it has one. Every file the CLI reads
    goes through here; a bad cell is named by file, row and column."""
    if not delimiter:
        raise CliError(f"{path}: empty delimiter")
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip() != ""]
    if not lines:
        raise CliError(f"{path}: empty file")
    start = int(has_header)
    if len(lines) == start:
        raise CliError(f"{path}: no data rows")
    names = [c.strip() for c in lines[0].split(delimiter)] if has_header else None
    width = len(lines[0].split(delimiter))  # a header must match the data too
    rows = []
    for r, ln in enumerate(lines[start:], start=start):
        cells = ln.split(delimiter)
        if len(cells) != width:
            raise CliError(f"{path}: row {r} has {len(cells)} columns, expected {width}")
        vals = []
        for c, cell in enumerate(cells):
            try:
                vals.append(float(cell))
            except ValueError:
                raise CliError(f"{path}: non-numeric cell at row {r}, column {c}: {cell!r}")
            if not math.isfinite(vals[-1]):
                raise CliError(f"{path}: non-finite cell at row {r}, column {c}: {cell!r}")
        rows.append(vals)
    return np.array(rows), names


def read_matrix(path, delimiter: str = ",") -> np.ndarray:
    """A headerless square matrix file of finite numbers: scores or truth."""
    matrix, _ = _read_csv(path, False, delimiter)
    if matrix.shape[0] != matrix.shape[1]:
        raise CliError(f"{path}: matrix must be square, got {matrix.shape}")
    return matrix


def read_truth(path, delimiter: str = ",") -> AdjacencyTruth:
    """A truth file: nonzero cells are edges."""
    return AdjacencyTruth(read_matrix(path, delimiter) != 0)


def write_outputs(out: Path, series: TimeSeries | None = None,
                  truth: AdjacencyTruth | None = None, report: TrainReport | None = None,
                  **docs) -> None:
    """Write what a command produced to directory `out`: series.csv and
    truth.csv; gc_matrix.csv and train_report.json from a TrainReport (its
    plain fields); and NAME.json for each further keyword, e.g. metrics."""
    out.mkdir(parents=True, exist_ok=True)
    if series is not None:  # 17 significant digits, so re-reading is exact
        names = series.names or [f"x{i}" for i in range(series.p)]
        np.savetxt(out / "series.csv", series.data, fmt="%.17g", delimiter=",",
                   header=",".join(names), comments="")
    if truth is not None:
        np.savetxt(out / "truth.csv", truth.matrix, fmt="%d", delimiter=",")
    if report is not None:
        np.savetxt(out / "gc_matrix.csv", report.gc.scores, fmt="%.17g", delimiter=",")
        docs["train_report"] = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)
                                if f.name not in ("gc", "backbone")}
    for name, doc in docs.items():
        with open(out / f"{name}.json", "w") as fh:
            json.dump(doc, fh, indent=2)


def make_data(cfg: dict, seed: int) -> tuple[TimeSeries, AdjacencyTruth | None]:
    """Read data.series, and data.truth if set; without data.series, simulate data.source."""
    d = cfg["data"]
    if seed < 0:
        raise CliError(f"seed must be >= 0, got {seed}")
    if d["truth"] and not d["series"]:
        raise CliError("data.truth requires data.series")
    if d["series"]:
        data, names = _read_csv(d["series"], d["has_header"], d["delimiter"])
        if data.shape[0] < 2:
            raise CliError(f"{d['series']}: need at least 2 data rows, got {data.shape[0]}")
        constant = np.flatnonzero(np.ptp(data, axis=0) == 0)
        if constant.size:
            raise CliError(f"{d['series']}: zero-variance column {int(constant[0])}")
        series = TimeSeries(data, names)
        if not d["truth"]:
            return series, None
        truth = read_truth(d["truth"], d["delimiter"])
        if truth.matrix.shape[0] != series.p:
            raise CliError(f"{d['truth']}: {truth.matrix.shape} truth for {series.p} series")
        return series, truth
    if d["source"] == "var":
        coeffs = random_sparse_var1(d["p"], d["density"], seed, d["radius"])
        return simulate_var([coeffs], d["T"], d["noise_sigma"], seed)
    return simulate_lorenz96(Lorenz96Config(**{k: d[k] for k in _L96}, seed=seed))


def cmd_simulate(cfg: dict, out: Path, seed: int) -> int:
    series, truth = make_data(cfg, seed)
    write_outputs(out, series, truth)
    print(f"wrote {out / 'series.csv'} ({series.T} rows, {series.p} columns)")
    return 0


def cmd_infer(cfg: dict, out: Path, seed: int) -> int:
    tcfg = TrainConfig(**cfg["train"], seed=seed)
    series, _ = make_data(cfg, seed)
    report = train(series, tcfg)
    write_outputs(out, report=report)
    print(f"wrote {out / 'gc_matrix.csv'} "
          f"({report.epochs_run} epochs, {report.seconds:.1f}s)")
    return 0


def cmd_eval(gc_path, truth_path, mode: str, out: Path | None, delimiter: str) -> int:
    scores = read_matrix(gc_path)
    if np.any(scores < 0):
        raise CliError(f"{gc_path}: scores must be non-negative")
    metrics = evaluate(scores, read_truth(truth_path, delimiter).matrix, mode)
    print(json.dumps(metrics, indent=2))
    if out is not None:
        write_outputs(out, metrics=metrics)
    return 0


def cmd_run(cfg: dict, out: Path) -> int:
    for key in ("seeds", "lams"):
        values = cfg["run"][key]
        if values == []:
            raise CliError(f"run.{key} must not be empty")
        if values and len(set(values)) != len(values):  # 1 == 1.0: one lambda
            raise CliError(f"run.{key} repeats a value: {values}")
    seeds, lams = cfg["run"]["seeds"], cfg["run"]["lams"] or [cfg["train"]["lam"]]
    mode = cfg["eval"]["mode"]
    base = TrainConfig(**cfg["train"])  # bad config or data fails before anything is written
    configs = [(lam, seed, dataclasses.replace(base, seed=seed, lam=lam))
               for lam in lams for seed in seeds]
    if cfg["data"]["series"] and not cfg["data"]["truth"]:
        raise CliError("run needs ground truth (simulator source or data.truth)")
    data = {seed: make_data(cfg, seed) for seed in seeds}
    for _, truth in data.values():  # a truth with one class fails here, not after training
        evaluate(np.zeros(truth.matrix.shape), truth.matrix, mode)
    results = []
    for lam, seed, tcfg in configs:
        # a combination is written only once it trained and evaluated
        series, truth = data[seed]
        report = train(series, tcfg)
        metrics = evaluate(report.gc.scores, truth.matrix, mode)
        write_outputs(out / f"lam{lam}_seed{seed}", series, truth, report, metrics=metrics)
        results.append({"lam": lam, "seed": seed, **metrics,
                        "seconds": report.seconds, "epochs": report.epochs_run})
        print(f"lam={lam:g} seed={seed}: auroc={metrics['auroc']:.3f} "
              f"auprc={metrics['auprc']:.3f} ({report.seconds:.1f}s)")
    summary = {"config": cfg, "runs": results}
    for lam in lams:
        rows = [r for r in results if r["lam"] == lam]
        au = np.array([r["auroc"] for r in rows])
        ap = np.array([r["auprc"] for r in rows])
        summary[f"lam_{lam}"] = {
            "auroc_mean": float(au.mean()), "auroc_std": float(au.std()),
            "auprc_mean": float(ap.mean()), "auprc_std": float(ap.std()),
        }
        print(f"lam={lam:g}: AUROC {au.mean():.3f}+-{au.std():.3f}  "
              f"AUPRC {ap.mean():.3f}+-{ap.std():.3f}")
    write_outputs(out, summary=summary)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="grngc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the seed (run: this seed alone, not run.seeds)")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="dotted-key config override, repeatable")

    common(sub.add_parser("simulate", help="write series.csv and truth.csv"))
    common(sub.add_parser("infer", help="train and write gc_matrix.csv"))
    common(sub.add_parser("run", help="simulate, infer per seed, evaluate, summarize"))

    pe = sub.add_parser("eval", help="score a gc matrix against a truth file")
    pe.add_argument("gc_matrix")
    pe.add_argument("truth")
    pe.add_argument("--mode", default=FULL, choices=MODES)
    pe.add_argument("--out", default=None)
    pe.add_argument("--delimiter", default=",", help="field separator of the truth file")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "eval":
            out = Path(args.out) if args.out else None
            return cmd_eval(args.gc_matrix, args.truth, args.mode, out, args.delimiter)
        cfg = load_config(args.config, args.set)
        if args.command == "run" and args.seed is not None:
            cfg["run"]["seeds"] = [args.seed]
        seed = args.seed if args.seed is not None else cfg["data"]["seed"]
        out = Path(args.out)
        if args.command == "simulate":
            return cmd_simulate(cfg, out, seed)
        if args.command == "infer":
            return cmd_infer(cfg, out, seed)
        return cmd_run(cfg, out)
    except (CliError, DataError, SimulationError, TrainError, MetricError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
