"""The benchmark's workloads: their inputs, the timed call, and the checks.

A workload object offers
  prepare(i)         untimed: build the input of call i from the workload seed,
  call(inp)          timed: one call into condgof (raises if the call fails),
  check(i, inp, out) untimed: CheckFailed if the output is wrong,
  failed_ops(out)    operations the program itself reported as failed,
  peak_rss_kb()      peak resident memory of the process that ran the calls,
  finish(inp, out)   untimed, once: re-run call 0 and check it in depth.

Every check compares against a computation made here, apart from condgof
(numpy, scipy), or against a property the method must have; none compares
against stored output.
"""

from __future__ import annotations

import io
import json
import os
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from condgof import cli, estimate, mc
from condgof.models import resolve_model
from condgof.partition import rtp_partition
from condgof.tabulate import balanced_grid


class CheckFailed(Exception):
    """A program output failed a correctness check."""


def require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def call_seed(seed: int, i: int) -> int:
    """Seed of call i; distinct for every call of one run."""
    return seed * 1_000_000 + i


def close(a: float, b: float, rtol: float = 1e-9) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def chi2_sf(x: float, df: int) -> float:
    from scipy.stats import chi2

    return float(chi2.sf(x, df))


def box_cells(x: np.ndarray, lows: np.ndarray, ups: np.ndarray) -> np.ndarray:
    """Cell of each row by a direct box test; each row must lie in exactly one."""
    inside = np.all((x[:, None, :] > lows[None]) & (x[:, None, :] <= ups[None]), axis=2)
    require((inside.sum(axis=1) == 1).all(), "cells do not tile the covariates")
    return inside.argmax(axis=1)


def count_table(v: np.ndarray, j0: np.ndarray, L: int, J: int) -> np.ndarray:
    """L x J counts; bin l holds v in (l/L, (l+1)/L], with v = 0 in bin 0."""
    l0 = np.maximum(np.searchsorted(np.arange(L + 1) / L, v, side="left"), 1) - 1
    return np.bincount(l0 * J + j0, minlength=L * J).reshape(L, J)


def pearson_lr(O: np.ndarray) -> tuple[float, float]:
    O = O.astype(np.float64)
    E = np.outer(np.full(O.shape[0], 1.0 / O.shape[0]), O.sum(axis=0))
    pos = O > 0
    pearson = float(((O - E) ** 2 / E).sum())
    lr = 2.0 * float((O[pos] * np.log(O[pos] / E[pos])).sum())
    return pearson, lr


def check_interval(name, value, df_interval, p_interval, df_expected) -> None:
    require(tuple(df_interval) == df_expected, f"{name}: df bracket {df_interval} != {df_expected}")
    for df, p in zip(df_interval, p_interval):
        require(abs(p - chi2_sf(value, df)) <= 1e-10, f"{name}: p={p} at df={df} disagrees with scipy")


def check_point(name, value, df, p, df_expected) -> None:
    require(df == df_expected, f"{name}: df {df} != {df_expected}")
    require(abs(p - chi2_sf(value, df)) <= 1e-10, f"{name}: p={p} at df={df} disagrees with scipy")


class MonteCarlo:
    """run_experiment on one configuration; an operation is one replication."""

    min_calls = 2
    setup_module = "condgof"

    def __init__(self, seed: int, config: dict):
        self.seed = seed
        self.config = config
        self.ops_per_call = config["replications"]

    def prepare(self, i: int) -> mc.SimConfig:
        return mc.config_from_dict(dict(self.config, master_seed=call_seed(self.seed, i)))

    def call(self, cfg: mc.SimConfig) -> mc.SimResult:
        return mc.run_experiment(cfg)

    def failed_ops(self, out: mc.SimResult) -> int:
        return out.failed

    def peak_rss_kb(self) -> int:
        """Peak resident memory of this process, which ran the calls."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def check(self, i: int, cfg: mc.SimConfig, res: mc.SimResult) -> None:
        require(res.replications == cfg.replications, "replication count")
        for s in res.summaries:
            require(np.isfinite(s.mean), f"{s.stat}: mean not finite")
        for r in res.results:
            require(0.0 <= r.rate <= 1.0, f"{r.stat}: rate outside [0, 1]")
        J = cfg.partition.cell_count(cfg.dgp.k)
        df = J * (cfg.L - 1)
        if cfg.estimator == "raw_mle":
            if res.failed == 0:
                require(res.summary("wald").mean_df == df, "raw-MLE Wald df is not J(L-1)")
        else:
            p = resolve_model(cfg.model, cfg.dgp.k).param_dim
            pearson = res.summary("pearson").mean
            for s in res.summaries:
                require(s.mean_df == df - p, f"{s.stat}: mean df {s.mean_df}")
            for stat in ("lm", "wald"):
                require(close(res.summary(stat).mean, pearson), f"{stat} mean != pearson mean")

    def finish(self, cfg: mc.SimConfig, res: mc.SimResult) -> None:
        """Re-run call 0 replication by replication, in reverse order.

        mc.py promises that run_replication(cfg, i) is a pure function and
        that aggregation ignores arrival order, so the re-run must reproduce
        the timed call's result document byte for byte.
        """
        outcomes = [mc.run_replication(cfg, i) for i in reversed(range(cfg.replications))]
        again = mc.aggregate(cfg, outcomes)
        require(
            json.dumps(again.to_dict()) == json.dumps(res.to_dict()),
            "re-run of call 0 is not byte-identical",
        )
        for outcome in outcomes:
            self._check_replication(cfg, outcome)

    def _check_replication(self, cfg: mc.SimConfig, outcome: mc.RepOutcome) -> None:
        from scipy.special import ndtr

        require(outcome.error is None, f"replication {outcome.rep_index}: {outcome.error}")
        # the stream layout documented in mc.py: (data, partition, estimator)
        root = np.random.SeedSequence(entropy=cfg.master_seed, spawn_key=(outcome.rep_index,))
        data_ss, part_ss, est_ss = root.spawn(3)
        rng = np.random.Generator(np.random.Philox(data_ss))
        n, k = cfg.dgp.n, cfg.dgp.k
        x = rng.uniform(-1.0, 1.0, size=(n, k))
        design = np.hstack([np.ones((n, 1)), x])
        true = np.asarray(cfg.dgp.true_params)
        y = design @ true[:-1] + true[-1] * rng.standard_normal(n)
        data = mc.simulate_dataset(cfg.dgp, np.random.Generator(np.random.Philox(data_ss)))
        require(np.array_equal(data.x, x) and np.array_equal(data.y, y), "simulated data")

        part_seed = int(part_ss.generate_state(1, dtype=np.uint64)[0])
        est_seed = int(est_ss.generate_state(1, dtype=np.uint64)[0])
        rule = cfg.partition
        partition, _tree = rtp_partition(x, rule.T, rule.r, part_seed)
        J, L = partition.J, cfg.L
        require(J == rule.cell_count(k), f"partition has {J} cells")
        lows, ups = partition.bounds()
        j0 = box_cells(x, lows, ups)
        counts = np.bincount(j0, minlength=J)
        require(counts.sum() == n and counts.max() <= rule.T * counts.min() + 1, "cell balance")

        beta, *_ = np.linalg.lstsq(design, y, rcond=None)
        resid = y - design @ beta
        sigma = float(np.sqrt(resid @ resid / n))
        theta_raw = np.append(beta, sigma)
        require(np.allclose(estimate.mle_gaussian_linear(data), theta_raw, rtol=1e-9, atol=1e-12), "raw MLE")
        O_raw = count_table(ndtr(resid / sigma), j0, L, J)
        require(O_raw.sum() == n, "table total")
        reports = outcome.reports
        p = theta_raw.shape[0]
        df = J * (L - 1)

        if cfg.estimator == "raw_mle":
            pearson, lr = pearson_lr(O_raw)
            for name, expected in (("pearson", pearson), ("lr", lr)):
                rep = reports[name]
                require(close(rep.value, expected), f"{name}: {rep.value} != recomputed {expected}")
                check_interval(name, rep.value, rep.df_interval, rep.p_interval, (df - p, df))
            wald = reports["wald"]
            require(np.isfinite(wald.value) and wald.value > 0, "wald value")
            check_point("wald", wald.value, wald.df, wald.p_value, df)
            return

        # min_chisq: mc.run_replication refines the raw MLE with these settings
        theta = estimate.min_chisq_estimate(
            resolve_model(cfg.model, k), data, balanced_grid(L), partition,
            estimate.mle_gaussian_linear(data),
            estimate.OptimizerConfig(restarts=2, seed=est_seed, max_iterations=200),
        )
        O = count_table(ndtr((y - design @ theta[:-1]) / theta[-1]), j0, L, J)
        pearson, lr = pearson_lr(O)
        require(close(reports["pearson"].value, pearson), "pearson != recomputed")
        require(close(reports["lr"].value, lr), "lr != recomputed")
        for name in ("lm", "wald"):
            require(close(reports[name].value, reports["pearson"].value), f"{name} != pearson")
        require(pearson <= pearson_lr(O_raw)[0] * (1 + 1e-12), "min-chi-square Pearson above its start")
        for name, rep in reports.items():
            check_point(name, rep.value, rep.df, rep.p_value, df - p)


class CliTest:
    """`condgof test` on a fresh 50,000-row CSV per call; an operation is one call.

    Untraced, each call is a child process (its wall time and peak RSS are
    measured); traced, it is cli.main in this process.
    """

    min_calls = 5
    ops_per_call = 1
    setup_module = "condgof.cli"
    n = 50_000
    beta = np.array([0.2, 0.5, -0.5, 0.3])
    L = 10

    def __init__(self, seed: int, workdir: Path, env: dict, in_process: bool):
        self.seed = seed
        self.workdir = workdir
        self.env = env
        self.in_process = in_process
        self.part_path = workdir / "partition.json"
        self.rss_kb = []
        first = self.prepare(0)
        argv = ["partition", "--data", str(first["path"]), "--x", "x1,x2,x3",
                "--rule", "gessaman", "--T", "3", "--out", str(self.part_path)]
        proc = subprocess.run([sys.executable, "-m", "condgof.cli", *argv], env=env,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"condgof partition failed: {proc.stderr.strip()}")
        cells = json.loads(self.part_path.read_text())["partition"]["cells"]
        self.lows = np.array([[float(b) for b in c["lower"]] for c in cells])
        self.ups = np.array([[float(b) for b in c["upper"]] for c in cells])

    def prepare(self, i: int) -> dict:
        s = call_seed(self.seed, i)
        rng = np.random.default_rng(s)
        x = rng.uniform(-1.0, 1.0, size=(self.n, 3))
        y = rng.exponential(1.0, size=self.n) / np.exp(self.beta[0] + x @ self.beta[1:])
        path = self.workdir / f"data-{i}.csv"
        np.savetxt(path, np.column_stack([y, x]), fmt="%.17g", delimiter=",",
                   header="y,x1,x2,x3", comments="")
        out = self.workdir / f"report-{i}.json"
        argv = ["test", "--data", str(path), "--y", "y", "--x", "x1,x2,x3",
                "--model", "exponential_regression", "--estimator", "raw",
                "--L", str(self.L), "--partition-file", str(self.part_path),
                "--seed", str(s), "--out", str(out)]
        return {"x": x, "y": y, "path": path, "out": out, "argv": argv}

    def call(self, inp: dict) -> dict:
        if self.in_process:
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = cli.main(inp["argv"])
            res = {"code": code, "stdout": stdout.getvalue().encode(),
                   "stderr": stderr.getvalue().encode()}
        else:
            so_path, se_path = self.workdir / "stdout", self.workdir / "stderr"
            with open(so_path, "wb") as so, open(se_path, "wb") as se:
                proc = subprocess.Popen([sys.executable, "-m", "condgof.cli", *inp["argv"]],
                                        stdout=so, stderr=se, env=self.env)
                _pid, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            self.rss_kb.append(usage.ru_maxrss)
            res = {"code": proc.returncode, "stdout": so_path.read_bytes(),
                   "stderr": se_path.read_bytes()}
        if res["code"] != 0:
            raise RuntimeError(f"condgof test exited {res['code']}: {res['stderr'][-300:]!r}")
        res["report"] = inp["out"].read_bytes()
        return res

    def failed_ops(self, out: dict) -> int:
        return 0

    def peak_rss_kb(self) -> float | None:
        """Median peak resident memory of the `condgof test` child processes."""
        return statistics.median(self.rss_kb) if self.rss_kb else None

    def check(self, i: int, inp: dict, res: dict) -> None:
        try:
            self._check(inp, res)
        finally:
            if i > 0:
                inp["path"].unlink()
                inp["out"].unlink()

    def _check(self, inp: dict, res: dict) -> None:
        require(res["stderr"] == b"", f"stderr not empty: {res['stderr'][:200]!r}")
        lines = res["stdout"].decode().splitlines()
        require([ln.split(":")[0] for ln in lines] == ["pearson", "lr", "wald"], "stdout summary")
        doc = json.loads(res["report"])
        x, y, n, L = inp["x"], inp["y"], self.n, self.L
        J = self.lows.shape[0]
        require(J == 27, f"partition has {J} cells")
        table = doc["table"]
        O = np.array(table["O"])
        j0 = box_cells(x, self.lows, self.ups)
        require(table["n"] == n and O.sum() == n, "table total")
        require(table["column_counts"] == np.bincount(j0, minlength=J).tolist(), "column counts")

        theta = np.array(doc["config"]["theta"])
        design = np.hstack([np.ones((n, 1)), x])
        rate = np.exp(design @ theta)
        score = (design * (1.0 - rate * y)[:, None]).mean(axis=0)
        require(np.abs(score).max() <= 1e-5, f"mean score at the MLE is {score}")
        require(np.array_equal(O, count_table(-np.expm1(-rate * y), j0, L, J)), "table")

        pearson, lr = pearson_lr(O)
        p = theta.shape[0]
        df = J * (L - 1)
        results = {r["stat"]: r for r in doc["results"]}
        for name, expected in (("pearson", pearson), ("lr", lr)):
            r = results[name]
            require(close(r["value"], expected), f"{name}: {r['value']} != recomputed {expected}")
            check_interval(name, r["value"], r["df_interval"], r["p_interval"], (df - p, df))
        wald = results["wald"]
        check_point("wald", wald["value"], wald["df"], wald["p"], df)

    def finish(self, inp: dict, res: dict) -> None:
        again = self.call(inp)
        require(again["report"] == res["report"] and again["stdout"] == res["stdout"],
                "re-run of call 0 is not byte-identical")
        inp["path"].unlink()
        inp["out"].unlink()


MC_WALD_LARGE = {
    "dgp": {"family": "gaussian_linear", "true_params": [0.5, 1.0, -0.7, 0.3, 0.2, 1.0],
            "covariate_law": "uniform", "n": 20_000, "k": 4},
    "model": "gaussian_linear", "estimator": "raw_mle", "L": 10,
    "partition": {"kind": "rtp", "T": 2, "r": 20},
    "stats": ["pearson", "lr", "wald"], "replications": 8,
}

MC_MIN_CHISQ = {
    "dgp": {"family": "gaussian_linear", "true_params": [0.5, 1.0, -0.7, 1.0],
            "covariate_law": "uniform", "n": 500, "k": 2},
    "model": "gaussian_linear", "estimator": "min_chisq", "L": 4,
    "partition": {"kind": "rtp", "T": 2, "r": 2},
    "stats": ["pearson", "lr", "lm", "wald"], "replications": 16,
}

def make(name: str, seed: int, workdir: Path, env: dict, traced: bool):
    if name == "mc_wald_large":
        return MonteCarlo(seed, MC_WALD_LARGE)
    if name == "mc_min_chisq":
        return MonteCarlo(seed, MC_MIN_CHISQ)
    return CliTest(seed, workdir, env, in_process=traced)
