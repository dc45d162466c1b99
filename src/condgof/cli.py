"""Command line interface: test, simulate, and partition subcommands.

Exit codes: 0 success, 2 usage error (bad flags or config), 3 data error
(malformed input file), 4 computation error (a statistical precondition
failed). Reports are JSON documents carrying the full effective
configuration, including defaulted seeds, so a report plus the input data
reproduces the run exactly; nothing time- or host-dependent is written,
making repeated runs byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from . import __version__
from .errors import (
    CondgofError,
    DataError,
    InvalidParameterError,
    OutOfSupportError,
    UncoveredPointError,
    UsageError,
)
from .estimate import OptimizerConfig
from .mc import config_from_dict, run_experiment, run_pipeline
from .models import Dataset, resolve_model
from .partition import (
    Partition,
    cell_counts,
    gessaman_partition,
    marginal_grid_partition,
    partition_from_dict,
    partition_to_dict,
    rtp_partition,
)
from .stats import DF_CONVENTIONS, STATISTICS, TestReport
from .tabulate import balanced_grid

_ESTIMATOR_FLAGS = {
    "known": "known",
    "raw": "raw_mle",
    "grouped": "min_chisq",
}


def read_csv_columns(path: str, y_col: str | None, x_cols: list[str]):
    """Strict numeric CSV reader: header required, finite decimal floats only."""
    try:
        with open(path, "r", newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty file, header row required") from None
            header = [h.strip() for h in header]
            wanted = list(dict.fromkeys(([y_col] if y_col else []) + list(x_cols)))
            positions = {}
            for col in wanted:
                if col not in header:
                    raise DataError(f"{path}: missing column {col!r}; header is {header}")
                if header.count(col) > 1:
                    raise DataError(f"{path}: column {col!r} appears more than once in the header")
                positions[col] = header.index(col)
            rows = {col: [] for col in wanted}
            # row i is data row i counted from 0, header and blank lines not counted
            data_rows = (row for row in reader if row and (len(row) > 1 or row[0].strip()))
            for i, row in enumerate(data_rows):
                for col in wanted:
                    pos = positions[col]
                    if pos >= len(row):
                        raise DataError(f"{path}: row {i} has no column {col!r}")
                    raw = row[pos].strip()
                    try:
                        val = float(raw)
                    except ValueError:
                        raise DataError(
                            f"{path}: row {i}, column {col!r}: not numeric: {raw!r}"
                        ) from None
                    if not math.isfinite(val):
                        raise DataError(
                            f"{path}: row {i}, column {col!r}: non-finite value {raw!r}"
                        )
                    rows[col].append(val)
            n = len(rows[wanted[0]]) if wanted else 0
            if n == 0:
                raise DataError(f"{path}: no data rows")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None
    y = np.asarray(rows[y_col]) if y_col else None
    x = np.column_stack([rows[c] for c in x_cols]) if x_cols else None
    return y, x


def _parse_theta(raw: str, expected: int) -> np.ndarray:
    try:
        vals = [float(tok) for tok in raw.split(",") if tok.strip() != ""]
    except ValueError:
        raise UsageError(f"--theta must be comma-separated numbers, got {raw!r}") from None
    if len(vals) != expected:
        raise UsageError(f"--theta needs {expected} values, got {len(vals)}")
    return np.asarray(vals)


def _parse_stats(raw: str) -> list[str]:
    names = [tok.strip() for tok in raw.split(",") if tok.strip()]
    if not names or len(set(names)) != len(names):
        raise UsageError(f"--stats must name at least one statistic, each once; got {raw!r}")
    for nm in names:
        if nm not in STATISTICS:
            raise UsageError(f"unknown statistic {nm!r}; choices: {','.join(STATISTICS)}")
    return names


def _parse_x(raw: str) -> list[str]:
    x_cols = [c.strip() for c in raw.split(",") if c.strip()]
    if not x_cols or len(set(x_cols)) != len(x_cols):
        raise UsageError(f"--x must name at least one column, each once; got {raw!r}")
    return x_cols


def _check_int_flags(args, **minimums: int) -> None:
    """Usage error for an integer flag below its minimum (None means unset)."""
    for name, lo in minimums.items():
        value = getattr(args, name)
        if value is not None and value < lo:
            raise UsageError(f"--{name} must be >= {lo}, got {value}")


def _report_to_dict(rep: TestReport) -> dict:
    doc = {
        "kind": rep.kind,
        "value": rep.value,
        "estimator": rep.estimator,
    }
    if rep.df is not None:
        doc["df"] = rep.df
    if rep.df_interval is not None:
        doc["df_interval"] = [rep.df_interval[0], rep.df_interval[1]]
    if rep.p_value is not None:
        doc["p"] = rep.p_value
    if rep.p_interval is not None:
        doc["p_interval"] = [rep.p_interval[0], rep.p_interval[1]]
    doc["warnings"] = list(rep.warnings)
    return doc


def _emit(doc: dict, out_path: str | None) -> None:
    text = json.dumps(doc, indent=2) + "\n"
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write --out {out_path}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _read_partition_file(path: str) -> Partition:
    """Partition from a JSON file; any problem with the file is a DataError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        # accept both a bare partition object and a cmd_partition document
        if isinstance(doc, dict) and "partition" in doc and "cells" not in doc:
            doc = doc["partition"]
        return partition_from_dict(doc)
    except OSError as exc:
        raise DataError(f"cannot open partition file {path}: {exc}") from exc
    except ValueError as exc:  # invalid JSON or UTF-8, or a malformed document
        raise DataError(f"{path}: invalid partition file: {exc}") from exc


def _data_partition(rule: str, x: np.ndarray, T: int, r: int, seed: int):
    """(partition, description) of x under the gessaman, rtp or marginal grid rule."""
    if rule == "gessaman":
        return gessaman_partition(x, T), {"kind": "gessaman", "T": T}
    if rule == "rtp":
        return rtp_partition(x, T, r, seed)[0], {"kind": "rtp", "T": T, "r": r, "seed": seed}
    return marginal_grid_partition(x, T), {"kind": "grid", "T": T}


def cmd_test(args) -> int:
    x_cols = _parse_x(args.x)
    stats = _parse_stats(args.stats)
    _check_int_flags(args, L=1, T=2, r=1, seed=0)
    estimator = _ESTIMATOR_FLAGS[args.estimator]
    y, x = read_csv_columns(args.data, args.y, x_cols)
    data = Dataset(y=y, x=x)
    model = resolve_model(args.model, data.k)

    seed = 0 if args.seed is None else args.seed
    if args.partition_file:
        partition = _read_partition_file(args.partition_file)
        if partition.k != data.k:
            raise DataError(
                f"{args.partition_file}: partition has dimension {partition.k}, data has {data.k}"
            )
        partition_desc = {"kind": "file", "path": args.partition_file}
    else:
        partition, partition_desc = _data_partition(args.partition, data.x, args.T, args.r, seed)

    theta = None
    if estimator == "known":
        if args.theta is None:
            raise UsageError("estimator 'known' requires --theta")
        try:
            theta = model.validate_theta(_parse_theta(args.theta, model.param_dim))
        except InvalidParameterError as exc:
            raise UsageError(f"invalid --theta: {exc}") from exc

    try:
        theta, table, reports = run_pipeline(
            model,
            data,
            partition,
            balanced_grid(args.L),
            estimator,
            stats,
            args.df_policy,
            theta,
            OptimizerConfig(restarts=2, seed=seed),
        )
    except UncoveredPointError as exc:
        # only a partition read from a file can leave data uncovered
        raise DataError(f"{args.partition_file}: {exc}") from exc
    except OutOfSupportError as exc:
        raise DataError(f"{args.data}: {exc}") from exc

    doc = {
        "version": __version__,
        "config": {
            "command": "test",
            "data": args.data,
            "y": args.y,
            "x": x_cols,
            "model": args.model,
            "estimator": args.estimator,
            "theta": [float(t) for t in theta],
            "L": args.L,
            "partition": partition_desc,
            "df_policy": args.df_policy,
            "stats": stats,
            "seed": seed,
        },
        "table": {
            "O": table.O.tolist(),
            "column_counts": table.column_counts.tolist(),
            "widths": table.widths.tolist(),
            "n": int(table.n),
        },
        "results": [dict(_report_to_dict(reports[name]), stat=name) for name in stats],
    }
    _emit(doc, args.out)
    if args.out:
        for name in stats:
            rep = reports[name]
            if rep.p_value is not None:
                print(f"{name}: value={rep.value:.6g} p={rep.p_value:.4g}")
            else:
                lo, hi = rep.p_interval
                print(f"{name}: value={rep.value:.6g} p=[{lo:.4g}, {hi:.4g}]")
    return 0


def cmd_simulate(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = config_from_dict(json.load(fh))
    except OSError as exc:
        raise UsageError(f"cannot open config {args.config}: {exc}") from exc
    except ValueError as exc:  # invalid JSON or UTF-8, or an invalid config
        raise UsageError(f"{args.config}: {exc}") from exc
    result = run_experiment(cfg)
    out_doc = dict(result.to_dict(), version=__version__)
    _emit(out_doc, args.out)
    if args.out:
        for row in result.results:
            print(
                f"{row.stat} @ {row.level:g}: rate={row.rate:.4f} "
                f"(se={row.mc_se:.4f}, {row.rejections}/{result.replications - result.failed})"
            )
    return 0


def cmd_partition(args) -> int:
    x_cols = _parse_x(args.x)
    _check_int_flags(args, T=2, r=1, seed=0)
    _y, x = read_csv_columns(args.data, None, x_cols)
    seed = 0 if args.seed is None else args.seed
    part, _desc = _data_partition(args.rule, x, args.T, args.r, seed)
    counts = cell_counts(part, x)
    doc = {
        "version": __version__,
        "config": {
            "command": "partition",
            "data": args.data,
            "x": x_cols,
            "rule": args.rule,
            "T": args.T,
            "r": args.r,
            "seed": seed,
        },
        "partition": partition_to_dict(part),
        "counts": counts.tolist(),
        "balance": {
            "max": int(counts.max()),
            "min": int(counts.min()),
            "spread": int(counts.max() - counts.min()),
            "ratio": float(counts.max() / counts.min()) if counts.min() > 0 else None,
        },
    }
    _emit(doc, args.out)
    if args.out:
        print(
            f"J={part.J} cells; counts min={counts.min()} max={counts.max()} "
            f"spread={counts.max() - counts.min()}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="condgof",
        description="Chi-square goodness-of-fit tests for conditional distributions",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="run statistics on a CSV dataset")
    p_test.add_argument("--data", required=True, help="CSV file with a header row")
    p_test.add_argument("--y", required=True, help="response column name")
    p_test.add_argument("--x", required=True, help="comma-separated covariate columns")
    p_test.add_argument("--model", required=True, help="model family name")
    p_test.add_argument("--estimator", choices=sorted(_ESTIMATOR_FLAGS), default="raw")
    p_test.add_argument("--theta", help="comma-separated parameters (estimator=known)")
    p_test.add_argument("--L", type=int, default=4, help="number of response bins")
    p_test.add_argument(
        "--partition", choices=("grid", "gessaman", "rtp"), default="rtp"
    )
    p_test.add_argument("--T", type=int, default=2, help="children per split")
    p_test.add_argument("--r", type=int, default=1, help="splits per axis (rtp)")
    p_test.add_argument("--seed", type=int, default=None, help="partition seed (default 0)")
    p_test.add_argument("--df-policy", choices=DF_CONVENTIONS, default="conditional")
    p_test.add_argument("--stats", default="pearson,lr,wald")
    p_test.add_argument("--partition-file", help="reuse a serialized partition")
    p_test.add_argument("--out", help="write the JSON report here")
    p_test.set_defaults(func=cmd_test)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo experiment")
    p_sim.add_argument("--config", required=True, help="simulation config JSON")
    p_sim.add_argument("--out", help="write the JSON result here")
    p_sim.set_defaults(func=cmd_simulate)

    p_part = sub.add_parser("partition", help="build and inspect a partition")
    p_part.add_argument("--data", required=True)
    p_part.add_argument("--x", required=True)
    p_part.add_argument("--rule", choices=("grid", "gessaman", "rtp"), default="gessaman")
    p_part.add_argument("--T", type=int, default=2)
    p_part.add_argument("--r", type=int, default=1)
    p_part.add_argument("--seed", type=int, default=None)
    p_part.add_argument("--out", help="write the JSON document here")
    p_part.set_defaults(func=cmd_partition)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except CondgofError as exc:
        print(f"computation error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
