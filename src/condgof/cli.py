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
import dataclasses
import json
import math
import sys
import warnings

import numpy as np

from . import __version__
from .errors import (
    CondgofError,
    DataError,
    InvalidArgumentError,
    OutOfSupportError,
    UncoveredPointError,
    UsageError,
)
from .mc import config_from_dict, run_experiment, run_pipeline
from .models import Dataset, resolve_model
from .partition import (
    Partition,
    gessaman_partition,
    marginal_grid_partition,
    partition_from_dict,
    partition_to_dict,
    rtp_partition,
)
from .stats import TestReport, check_request

_ESTIMATOR_FLAGS = {
    "known": "known",
    "raw": "raw_mle",
    "grouped": "min_chisq",
}


def read_csv_columns(path: str, y_col: str | None, x_cols: list[str]):
    """Columns y (n,) and x (n, len(x_cols)) of a numeric CSV, C-contiguous float64.

    y is None when y_col is None. The header row is required (a leading
    UTF-8 byte-order mark is dropped) and every data value must be a finite
    decimal float. Two readers give the same block of
    the wanted columns: _read_csv_bulk parses them with np.loadtxt, and
    _read_csv_strict parses every cell with Python's float(). The bulk parse
    runs when the file decodes as UTF-8, holds no quote character (csv
    quoting could move a field across a comma or a line break that loadtxt
    splits on) and its header names each wanted column once. The strict
    reader runs instead when any of that fails, and when loadtxt raises,
    warns, finds no rows or returns a value that is not finite. So every
    error message comes from the strict reader, and values float() accepts
    but loadtxt does not (such as "1_0" or full-width digits) parse as
    float() parses them.
    """
    wanted = list(dict.fromkeys(([y_col] if y_col else []) + list(x_cols)))
    values = _read_csv_bulk(path, wanted)
    if values is None:
        values = _read_csv_strict(path, wanted)
    y = np.ascontiguousarray(values[:, 0]) if y_col else None
    x = np.ascontiguousarray(values[:, [wanted.index(c) for c in x_cols]]) if x_cols else None
    return y, x


def _read_csv_bulk(path: str, wanted: list[str]) -> np.ndarray | None:
    """The wanted columns parsed by np.loadtxt, or None when the strict reader must run."""
    try:
        with open(path, "r", newline="", encoding="utf-8-sig") as fh:
            first = fh.readline()
            quoted = '"' in first or '"' in fh.read()
    except (OSError, UnicodeDecodeError):
        return None
    if quoted or not wanted:
        return None
    # without quotes, csv's header row is the first physical line
    header = [h.strip() for h in next(csv.reader([first]), [])]
    if any(header.count(col) != 1 for col in wanted):
        return None
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            values = np.loadtxt(
                path, delimiter=",", skiprows=1, usecols=[header.index(c) for c in wanted],
                comments=None, quotechar=None, ndmin=2, encoding="utf-8",
            )
    except (OSError, ValueError):
        return None
    if caught or values.shape[0] == 0 or not np.isfinite(values).all():
        return None
    return values


def _read_csv_strict(path: str, wanted: list[str]) -> np.ndarray:
    """The wanted columns of a strict numeric CSV: header required, finite decimal floats only."""
    try:
        with open(path, "r", newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty file, header row required") from None
            header = [h.strip() for h in header]
            for col in wanted:
                if col not in header:
                    raise DataError(f"{path}: missing column {col!r}; header is {header}")
                if header.count(col) > 1:
                    raise DataError(f"{path}: column {col!r} appears more than once in the header")
            positions = [header.index(col) for col in wanted]
            columns = [[] for _ in wanted]
            # row i is data row i counted from 0, header and blank lines not counted
            data_rows = (row for row in reader if row and (len(row) > 1 or row[0].strip()))
            for i, row in enumerate(data_rows):
                for col, pos, column in zip(wanted, positions, columns):
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
                    column.append(val)
            if not columns or not columns[0]:
                raise DataError(f"{path}: no data rows")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None
    except csv.Error as exc:  # such as a field over csv's size limit
        raise DataError(f"{path}: malformed CSV: {exc}") from None
    return np.column_stack(columns)


def _parse_theta(raw: str) -> list[float]:
    try:
        return [float(tok) for tok in raw.split(",") if tok.strip() != ""]
    except ValueError:
        raise UsageError(f"--theta must be comma-separated numbers, got {raw!r}") from None


def _parse_names(flag: str, what: str, raw: str) -> list[str]:
    """The comma-separated names of a flag; at least one, each once."""
    names = [tok.strip() for tok in raw.split(",") if tok.strip()]
    if not names or len(set(names)) != len(names):
        raise UsageError(f"{flag} must name at least one {what}, each once; got {raw!r}")
    return names


def _check_int_flags(args, **minimums: int) -> None:
    """Usage error for an integer flag below its minimum."""
    for name, lo in minimums.items():
        value = getattr(args, name)
        if value < lo:
            raise UsageError(f"--{name} must be >= {lo}, got {value}")


def _report_to_dict(rep: TestReport) -> dict:
    """The report's set fields in field order, p_value written as p and tuples as lists."""
    items = ((f.name, getattr(rep, f.name)) for f in dataclasses.fields(rep))
    return {
        "p" if k == "p_value" else k: list(v) if isinstance(v, (tuple, list)) else v
        for k, v in items
        if v is not None
    }


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
    except (ValueError, RecursionError) as exc:  # bad JSON (or too deep), UTF-8 or document
        raise DataError(f"{path}: invalid partition file: {exc}") from exc


def _data_partition(rule: str, x: np.ndarray, T: int, r: int, seed: int):
    """(partition, cell of each row of x, description) under the gessaman, rtp or grid rule."""
    if rule == "rtp":
        return (*rtp_partition(x, T, r, seed), {"kind": "rtp", "T": T, "r": r, "seed": seed})
    build = gessaman_partition if rule == "gessaman" else marginal_grid_partition
    return (*build(x, T), {"kind": rule, "T": T})


def cmd_test(args) -> int:
    x_cols = _parse_names("--x", "column", args.x)
    stats = _parse_names("--stats", "statistic", args.stats)
    _check_int_flags(args, L=1, T=2, r=1, seed=0)
    estimator = _ESTIMATOR_FLAGS[args.estimator]
    theta = None if args.theta is None else _parse_theta(args.theta)
    try:  # the data has one column per --x name
        model = resolve_model(args.model, len(x_cols))
        theta = check_request(model, estimator, stats, theta)
    except InvalidArgumentError as exc:
        raise UsageError(str(exc)) from exc
    y, x = read_csv_columns(args.data, args.y, x_cols)
    data = Dataset(y=y, x=x)

    if args.partition_file:
        partition = _read_partition_file(args.partition_file)
        if partition.k != data.k:
            raise DataError(
                f"{args.partition_file}: partition has dimension {partition.k}, data has {data.k}"
            )
        try:  # a file partition was not built from the data: locate the rows in it
            cells = partition.locate0(data.x)
        except UncoveredPointError as exc:
            raise DataError(f"{args.partition_file}: {exc}") from exc
        desc = {"kind": "file", "path": args.partition_file}
    else:
        partition, cells, desc = _data_partition(args.partition, data.x, args.T, args.r, args.seed)
    try:
        theta, table, reports = run_pipeline(
            model, data, partition, cells, args.L, estimator, stats, theta=theta
        )
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
            "partition": desc,
            "stats": stats,
            "seed": args.seed,
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
            p = rep.p_interval
            p = f"[{p[0]:.4g}, {p[1]:.4g}]" if p else f"{rep.p_value:.4g}"
            print(f"{name}: value={rep.value:.6g} p={p}")
    return 0


def cmd_simulate(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = config_from_dict(json.load(fh))
    except OSError as exc:
        raise UsageError(f"cannot open config {args.config}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON (or too deep), UTF-8 or config
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
    x_cols = _parse_names("--x", "column", args.x)
    _check_int_flags(args, T=2, r=1, seed=0)
    _y, x = read_csv_columns(args.data, None, x_cols)
    part, cells, _desc = _data_partition(args.rule, x, args.T, args.r, args.seed)
    counts = np.bincount(cells, minlength=part.J)
    doc = {
        "version": __version__,
        "config": {
            "command": "partition",
            "data": args.data,
            "x": x_cols,
            "rule": args.rule,
            "T": args.T,
            "r": args.r,
            "seed": args.seed,
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A bad flag is a usage error on one line, not argparse's usage block."""
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p_test.add_argument(
        "--seed", type=int, default=0, help="seed of the rtp partition (default 0)"
    )
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
    p_part.add_argument("--seed", type=int, default=0)
    p_part.add_argument("--out", help="write the JSON document here")
    p_part.set_defaults(func=cmd_partition)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help and --version
        return exc.code if isinstance(exc.code, int) else 2
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
