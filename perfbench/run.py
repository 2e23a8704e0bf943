#!/usr/bin/env python3
"""End-to-end benchmark of sawt-qap through its CLI entry point.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload classical --seed 1 --seconds 38 --trace 0

Workloads (see README.md in this directory): ``classical`` (tabu, exact and
QAPLIB bench solves), ``sawt-solve`` (learned-policy inference) and ``train``
(one REINFORCE epoch per round).  The benchmark generates its inputs from
``--seed``, warms up with one untimed round, then runs whole rounds of the
same commands while they fit in ``--seconds``.  It checks every output with
``checks.py`` and prints one JSON line: the end-to-end metrics with
``--trace 0``, or the per-layer metrics of a traced pass with ``--trace 1``.
"""

from __future__ import annotations

import os
import time

_T0 = time.perf_counter()
# Pinned before numpy loads: one BLAS thread and the numpy kernel path, so
# every machine times the same code on one core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["SAWT_QAP_NUMBA"] = "0"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import struct  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = SRC / "sawt_qap" / "data" / "qaplib"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import checks  # noqa: E402
from spans import Tracer, install  # noqa: E402


def process_age_s() -> float:
    """Seconds since this process started (interpreter start included)."""
    try:
        stat = Path("/proc/self/stat").read_text()
        start_ticks = int(stat.rsplit(")", 1)[1].split()[19])
        return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _T0


class CommandFailed(Exception):
    """A CLI command exited with a non-zero code."""


@dataclass
class Round:
    round_s: float  # wall time the round_s metric reports (see README.md)
    swaps: int  # swaps applied by the round's swap-search commands
    swap_wall_s: float  # wall time of those commands
    ops: int  # result rows plus training epochs


class Bench:
    """Runs CLI commands in-process, timing each and tracing timed ones."""

    def __init__(self, work: Path, seed: int, tracer: Tracer | None):
        from sawt_qap import cli

        self.main = cli.main
        self.work = work
        self.seed = seed
        self.tracer = tracer
        self.timing = False

    def cli(self, *argv) -> float:
        argv = [str(a) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        tracing = self.tracer is not None and self.timing
        if tracing:
            self.tracer.active = True
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.main(argv)
        finally:
            wall = time.perf_counter() - t0
            if tracing:
                self.tracer.active = False
        if code != 0:
            raise CommandFailed(f"`sawt-qap {' '.join(argv)}` exited {code}: {err.getvalue().strip()}")
        return wall

    def generate(self, n: int, count: int, seed: int, out: Path) -> list[checks.Instance]:
        self.cli("generate", "--n", n, "--count", count, "--seed", seed, "--out", out)
        index = json.loads((out / "index.json").read_text())
        return [checks.read_json_instance(out / f) for f in index["files"]]


def read_rows(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()]


def same_solutions(a: Path, b: Path) -> list[str]:
    """Two rounds of one solve command must give the same results.csv bytes
    and the same sigma per row."""
    sigmas = [[r["sigma"] for r in read_rows(d / "results.jsonl")] for d in (a, b)]
    if (a / "results.csv").read_bytes() != (b / "results.csv").read_bytes() or sigmas[0] != sigmas[1]:
        return [f"{b} results differ from {a}"]
    return []


class Classical(Bench):
    """Tabu on n=50/100 (plus the n=9 set), exact search on n=9, QAPLIB bench."""

    TABU_SETS = ((50, 4), (100, 2), (9, 2))
    TABU_STEPS = 1000
    QAPLIB = ("had12", "esc16f", "chr12c")

    def setup(self):
        self.dirs, self.instances = [], {}
        for k, (n, count) in enumerate(self.TABU_SETS):
            d = self.work / f"inputs-n{n}"
            for inst in self.generate(n, count, 1000 * self.seed + 100 * k, d):
                self.instances[inst.name] = inst
            self.dirs.append(d)
        self.exact_dir = self.dirs[-1]
        self.qaplib = {name: checks.read_qaplib(FIXTURES / f"{name}.dat") for name in self.QAPLIB}
        self.tabu_swaps = self.TABU_STEPS * (sum(c for _, c in self.TABU_SETS) + len(self.QAPLIB))
        self.rows = sum(c for _, c in self.TABU_SETS) + self.TABU_SETS[-1][1] + len(self.QAPLIB)

    def round(self, out: Path) -> Round:
        common = ("--reference", "none", "--threads", 1, "--seed", self.seed)
        t_tabu = self.cli("solve", "--solver", "tabu", "--steps", self.TABU_STEPS, *common,
                          "--out", out / "tabu", "--instances", *self.dirs)
        t_exact = self.cli("solve", "--solver", "brute", *common,
                           "--out", out / "exact", "--instances", self.exact_dir)
        t_qaplib = self.cli("qaplib", "bench", ",".join(self.QAPLIB), "--solver", "tabu",
                            "--steps", self.TABU_STEPS, "--threads", 1, "--seed", self.seed,
                            "--data-dir", FIXTURES, "--out", out / "qaplib")
        # round_s is the exact search alone: swaps_per_s already times tabu.
        return Round(t_exact, self.tabu_swaps, t_tabu + t_qaplib, self.rows)

    def tabu_final_step(self, row: dict) -> bool:
        """Whether the incumbent of a tabu row was set on its final step."""
        out = self.work / f"confirm-{row['instance']}"
        shutil.rmtree(out, ignore_errors=True)
        path = next(d for d in self.dirs if (d / f"{row['instance']}.json").is_file())
        self.cli("solve", "--solver", "tabu", "--steps", int(row["steps"]) - 1,
                 "--reference", "none", "--threads", 1, "--seed", self.seed,
                 "--out", out, "--instances", path / f"{row['instance']}.json")
        return read_rows(out / "results.jsonl")[0]["best_cost"] > row["best_cost"]

    def check(self, outs: list[Path]) -> list[str]:
        first = outs[0]
        errors = []
        tabu = read_rows(first / "tabu" / "results.jsonl")
        exact = read_rows(first / "exact" / "results.jsonl")
        bench = read_rows(first / "qaplib" / "results.jsonl")
        if len(tabu) + len(exact) + len(bench) != self.rows:
            errors.append(f"expected {self.rows} result rows")
        for row in tabu:
            errors += checks.check_tabu_row(row, self.instances[row["instance"]], self.tabu_final_step)
        tabu_cost = {r["instance"]: float(r["best_cost"]) for r in tabu}
        for k, row in enumerate(exact):
            errors += checks.check_exact_row(row, self.instances[row["instance"]],
                                             tabu_cost[row["instance"]], enumerate_all=k == 0)
        for row in bench:
            inst, optimum, _ = self.qaplib[row["instance"]]
            errors += checks.check_qaplib_row(row, inst, optimum)
        for other in outs[1:]:
            for part in ("tabu", "exact", "qaplib"):
                errors += same_solutions(first / part, other / part)
        return errors

    def cost_ratio(self, out: Path) -> float:
        """Mean best_cost over the proven optimum, QAPLIB rows with a non-zero one."""
        ratios = [float(r["best_cost"]) / self.qaplib[r["instance"]][1]
                  for r in read_rows(out / "qaplib" / "results.jsonl") if self.qaplib[r["instance"]][1]]
        return float(np.mean(ratios))


class SawtSolve(Bench):
    """The learned solver on n=20 and n=50 instances with an untrained policy."""

    SETS = ((20, 16), (50, 4))
    STEPS = 64

    def setup(self):
        self.dirs, self.instances = [], {}
        for k, (n, count) in enumerate(self.SETS):
            d = self.work / f"inputs-n{n}"
            for inst in self.generate(n, count, 1000 * self.seed + 100 * k, d):
                self.instances[inst.name] = inst
            self.dirs.append(d)
        self.cli("train", "--epochs", 0, "--count", 1, "--eval-count", 0, "--seed", self.seed,
                 "--out", self.work / "policy")
        self.checkpoint = self.work / "policy" / "policy.ckpt"
        self.rows = sum(c for _, c in self.SETS)

    def round(self, out: Path) -> Round:
        wall = self.cli("solve", "--solver", "sawt", "--checkpoint", self.checkpoint,
                        "--steps", self.STEPS, "--reference", "none", "--threads", 1,
                        "--seed", self.seed, "--out", out, "--instances", *self.dirs)
        return Round(wall, self.rows * self.STEPS, wall, self.rows)

    def check(self, outs: list[Path]) -> list[str]:
        rows = read_rows(outs[0] / "results.jsonl")
        errors = [] if len(rows) == self.rows else [f"expected {self.rows} sawt rows"]
        for row in rows:
            errors += checks.check_row(row, self.instances[row["instance"]])
        for other in outs[1:]:
            errors += same_solutions(outs[0], other)
        return errors

    def cost_ratio(self, out: Path) -> float:
        """Mean best_cost over the identity start's cost (no optimum is known here)."""
        return float(np.mean([float(r["best_cost"]) / checks.identity_cost(self.instances[r["instance"]])
                              for r in read_rows(out / "results.jsonl")]))


class Train(Bench):
    """One REINFORCE epoch per round at the default SawtConfig, n=6."""

    N, COUNT, BATCH, T = 6, 64, 32, 64
    EVAL_COUNT, EVAL_STEPS = 64, 32
    EVAL_SEED_OFFSET = 1_000_000  # train's held-out instances use seed + this + k

    def setup(self):
        self.train_seed = 1000 * self.seed
        train_set = self.generate(self.N, self.COUNT, self.train_seed, self.work / "data")
        eval_set = self.generate(self.N, self.EVAL_COUNT, self.EVAL_SEED_OFFSET + self.train_seed,
                                 self.work / "eval-copy")
        self.train_bounds = self._bounds(train_set)
        self.eval_bounds = self._bounds(eval_set)
        self.cli("train", "--epochs", 0, "--count", 1, "--eval-count", 0,
                 "--seed", self.train_seed, "--out", self.work / "initial")

    @staticmethod
    def _bounds(instances) -> tuple[float, float]:
        return (float(np.mean([checks.exact_optimum(i)[0] for i in instances])),
                float(np.mean([checks.identity_cost(i) for i in instances])))

    def round(self, out: Path) -> Round:
        wall = self.cli("train", "--data", self.work / "data", "--n", self.N, "--epochs", 1,
                        "--batch-size", self.BATCH, "--episode-length", self.T,
                        "--eval-count", self.EVAL_COUNT, "--eval-steps", self.EVAL_STEPS,
                        "--eval-every", 1, "--seed", self.train_seed, "--threads", 1,
                        "--out", out)
        return Round(wall, self.COUNT * self.T, wall, 1)

    @staticmethod
    def _metrics(out: Path) -> list[dict]:
        return read_rows(out / "metrics.jsonl")

    @classmethod
    def _replayed(cls, out: Path) -> list[dict]:
        """metrics.jsonl without its one timing field, which may differ."""
        return [{k: v for k, v in row.items() if k != "wall_ms"} for row in cls._metrics(out)]

    def check(self, outs: list[Path]) -> list[str]:
        try:
            trained = checks.read_checkpoint(outs[0] / "policy.ckpt")
            initial = checks.read_checkpoint(self.work / "initial" / "policy.ckpt")
        except (OSError, ValueError, KeyError, struct.error) as err:
            return [f"checkpoint unreadable: {err}"]
        errors = checks.check_training(self._metrics(outs[0]), 1, trained, initial,
                                       self.train_bounds, self.eval_bounds)
        for other in outs[1:]:
            if ((other / "policy.ckpt").read_bytes() != (outs[0] / "policy.ckpt").read_bytes()
                    or self._replayed(other) != self._replayed(outs[0])):
                errors.append(f"{other} training outputs differ from {outs[0]}")
        return errors

    def cost_ratio(self, out: Path) -> float:
        """Final eval_cost_mean over the eval instances' mean exact optimum."""
        return float(self._metrics(out)[-1]["eval_cost_mean"]) / self.eval_bounds[0]


WORKLOADS = {"classical": Classical, "sawt-solve": SawtSolve, "train": Train}


def load_metric_specs() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {key: {m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import sawt_qap
    except ImportError as err:
        print(f"error: cannot import sawt_qap from {SRC}: {err}", file=sys.stderr)
        return 2
    if Path(sawt_qap.__file__).resolve().parent.parent != SRC:
        print(f"error: sawt_qap imported from {sawt_qap.__file__}, not {SRC}", file=sys.stderr)
        return 2
    specs = load_metric_specs()

    tracer = None
    if args.trace:
        tracer = Tracer()
        install(tracer)
    out_root = ROOT / ".bench_out"
    work = out_root / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = WORKLOADS[args.workload](work, args.seed, tracer)
        bench.setup()
        bench.round(work / "warmup")
        setup_s = process_age_s()

        # Whole rounds while the next one is expected to end within --seconds.
        bench.timing = True
        rounds, outs = [], []
        began = time.perf_counter()
        while True:
            outs.append(work / f"round{len(outs)}")
            rounds.append(bench.round(outs[-1]))
            r = rounds[-1]
            print(f"round {len(rounds) - 1}: round_s {r.round_s:.4f} s, {r.swaps / r.swap_wall_s:.2f} swaps/s",
                  file=sys.stderr)
            elapsed = time.perf_counter() - began
            if elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
                break
        bench.timing = False
        errors = bench.check(outs)
        for e in errors:
            print(f"check failed: {e}", file=sys.stderr)

        round_s = statistics.median(r.round_s for r in rounds)
        if tracer is None:
            values = {
                "setup_s": setup_s,
                "swaps_per_s": statistics.median(r.swaps / r.swap_wall_s for r in rounds),
                "round_s": round_s,
                "cost_ratio": bench.cost_ratio(outs[0]),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = specs["end_to_end"]
        else:
            totals = tracer.summary()
            values = {name: totals.get(name, 0.0) / len(rounds) for name in specs["per_layer"]}
            values["trace.round_s"] = round_s
            units = specs["per_layer"]
            out_root.joinpath(f"trace-{args.workload}.json").write_text(
                json.dumps({"workload": args.workload, "seed": args.seed,
                            "rounds": len(rounds), "spans": tracer.spans()}))
        result = {
            "correct": not errors,
            "attempted": sum(r.ops for r in rounds),
            "failed": 0,
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        }
    except CommandFailed as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
