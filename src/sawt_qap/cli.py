"""Batch command-line interface.

Subcommands: ``generate``, ``solve``, ``train``, ``qaplib fetch``,
``qaplib bench``, ``describe``, and ``rerun``.  Every run writes its outputs
into one directory per invocation together with a ``manifest.json`` recording
the command, resolved configuration, master seed, and output inventory; the
``rerun`` subcommand replays a manifest into a fresh directory and verifies
that the deterministic outputs are bit-identical.

Output conventions:

* ``results.csv`` — deterministic result rows (no timings); byte-stable
  across reruns with the same arguments on one platform.
* ``results.jsonl`` — the same rows plus volatile fields (``wall_ms``,
  ``sigma``; ``tabu`` rows add their best-cost ``trajectory``).  ``sawt`` rows
  are searched in batches: their ``wall_ms`` is the measured time of the
  row's batch, ``batch_size`` its size.
* ``metrics.jsonl`` — training only, one JSON line per epoch (volatile: it
  carries ``wall_ms``).
* ``policy.ckpt``, ``policy_best.ckpt`` — training only; deterministic, so
  ``rerun`` compares them (the best-eval checkpoint when the run wrote one).

Every reported ``best_cost``, references included, is re-verified by a
float64 objective of its ``sigma``; a mismatch aborts the run (exit 4).  A
run that cannot start, or aborts before its first write, leaves no run
directory behind.

Exit codes: 0 success, 2 usage error, 3 data/validation error, 4 numerical
abort.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import io
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, qaplib
from .core import (
    QapInstance,
    check_type,
    gap as gap_of,
    generate_instance,
    instance_from_json,
    instance_to_json,
    objective,
)
from .errors import NumericalAbortError, SawtQapError, ValidationError
from .nn import Adam
from .policy import SawtConfig, SawtPolicy, load_policy, save_policy
from .rl import TrainConfig, evaluate, train
from .solvers import (
    BRUTE_FORCE_MAX_N,
    brute_force,
    greedy_descent,
    spectral_matching,
    tabu_search,
)

RESULTS_SCHEMA = 1
MANIFEST_SCHEMA = 1
_RESULT_COLUMNS = ("instance", "solver", "seed", "steps", "best_cost", "reference", "gap", "flag")

SOLVERS = ("brute", "greedy", "tabu", "sm", "sawt")
# Step budget of the tabu gap reference (``--reference auto`` beyond BRUTE_FORCE_MAX_N).
_REFERENCE_STEPS = 5000


# ---------------------------------------------------------------------------
# Small shared helpers.
# ---------------------------------------------------------------------------


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


def _fmt(value) -> str:
    """Deterministic cell formatting: shortest-round-trip floats, plain ints."""
    if value is None or value == "":
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _check_run_dir(out: str | None) -> Path:
    """The run directory ``--out`` names, refused if it is not a directory or holds a run.

    Every command calls this first and makes the directory only right before
    its first write.
    """
    if not out:
        raise ValidationError("this command writes files; pass --out RUN_DIR")
    run_dir = Path(out)
    if run_dir.exists() and not run_dir.is_dir():
        raise ValidationError(f"--out {run_dir} exists and is not a directory")
    if (run_dir / "manifest.json").exists():
        raise ValidationError(
            f"{run_dir} already contains a manifest.json; every run directory "
            "holds exactly one run — pick a fresh --out"
        )
    return run_dir


def _write_manifest(
    run_dir: Path,
    args,
    command: str,
    config: dict,
    started_at: str,
    deterministic: list[str],
    volatile: list[str],
) -> None:
    manifest = {
        "schema_version": MANIFEST_SCHEMA,
        "results_schema": RESULTS_SCHEMA,
        "command": command,
        "argv": list(getattr(args, "_argv", [])),
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "config": config,
        "started_at": started_at,
        "finished_at": _utc_now(),
        "outputs": {"deterministic": deterministic, "volatile": volatile},
    }
    (run_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )


def _print_summary(rows: list[dict]) -> None:
    costs = [r["best_cost"] for r in rows]
    print(f"instances: {len(rows)}")
    if costs:
        print(f"mean best cost: {np.mean(costs):.6f}")
    gaps = [r["gap"] for r in rows if r.get("gap") not in (None, "")]
    if gaps:
        print(f"mean gap vs reference: {np.mean(gaps):.2f}%")
    flagged = [r["instance"] for r in rows if r.get("flag")]
    if flagged:
        print(f"flagged rows (excluded from gap aggregate): {', '.join(flagged)}")


def _read_json_object(path: str | Path) -> dict:
    """Parse a JSON file named on the command line; it must hold an object."""
    try:
        value = json.loads(Path(path).read_text())
    except ValueError as err:  # JSONDecodeError, UnicodeDecodeError
        raise ValidationError(f"{path}: not a JSON file ({err})") from None
    if not isinstance(value, dict):
        raise ValidationError(f"{path}: expected a JSON object, got {type(value).__name__}")
    return value


def _load_instance_file(path: Path) -> QapInstance:
    if path.suffix == ".dat":
        return qaplib.parse_qaplib(path.read_text(), name=path.stem)
    return instance_from_json(path.read_text())


def _collect_instance_paths(specs: list[str]) -> list[Path]:
    paths: list[Path] = []
    for spec in specs:
        p = Path(spec)
        if p.is_dir():
            found = sorted(
                q
                for q in p.iterdir()
                if q.suffix in (".json", ".dat")
                and q.name not in ("index.json", "manifest.json")
            )
            if not found:
                raise ValidationError(f"no .json/.dat instance files in {p}")
            paths.extend(found)
        elif p.is_file():
            paths.append(p)
        else:
            raise FileNotFoundError(f"instance path not found: {spec}")
    return paths


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def cmd_generate(args) -> int:
    run_dir = _check_run_dir(args.out)
    if args.count < 1:
        raise ValidationError(f"--count must be >= 1, got {args.count}")
    started = _utc_now()
    files = []
    for k in range(args.count):
        # generate_instance checks --n and --p before the first write.
        inst = generate_instance(args.n, p=args.p, seed=args.seed + k)
        run_dir.mkdir(parents=True, exist_ok=True)
        fname = f"{inst.name}.json"
        (run_dir / fname).write_text(instance_to_json(inst))
        files.append(fname)
    index = {
        "schema_version": 1,
        "n": args.n,
        "count": args.count,
        "p": args.p,
        "seed": args.seed,
        "files": files,
    }
    (run_dir / "index.json").write_text(json.dumps(index, indent=2, sort_keys=True) + "\n")
    config = {k: getattr(args, k) for k in ("n", "count", "p", "seed")}
    _write_manifest(
        run_dir, args, "generate", config, started,
        deterministic=["index.json", *files], volatile=[],
    )
    print(f"wrote {args.count} instances to {run_dir}")
    return 0


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


# Every solver in SOLVERS but ``sawt`` searches one instance at a time:
# ``(instance, steps) -> (best assignment, best-cost history or None)``.
# Each is deterministic: tabu starts from the identity and draws no random numbers.
_PER_INSTANCE = {
    "brute": lambda inst, steps: (brute_force(inst), None),
    "greedy": lambda inst, steps: (greedy_descent(inst, max_steps=steps), None),
    "tabu": lambda inst, steps: tabu_search(inst, max_steps=steps),
    "sm": lambda inst, steps: (spectral_matching(inst).assignment, None),
}


def _run_solver(name: str, instances: list[QapInstance], steps: int, *, seed: int = 0,
                checkpoint: str | None = None) -> list[dict]:
    """Run solver ``name`` over ``instances``; one result part per instance, in order.

    A part holds ``best_cost``, ``sigma`` and ``wall_ms``, plus ``trajectory``
    (tabu: its best-cost history, at most about 100 points) or ``batch_size``
    (sawt).  ``sawt`` is one :func:`evaluate` call seeded with ``seed`` that
    searches same-size instances in batches, so each part reports the
    measured time and size of its batch.  The other solvers run one instance
    at a time, in order.  Every best cost is then re-verified by a float64
    objective of its sigma; a mismatch raises :class:`NumericalAbortError`.
    """
    if steps < 0:
        raise ValidationError(f"--steps must be >= 0, got {steps}")
    if name == "sawt":
        policy, _, _ = load_policy(checkpoint)
        res = evaluate(policy, instances, steps=steps, seed=seed)
        parts = [None] * len(instances)
        for idxs, wall_s in res.batches:
            for i in idxs:
                parts[i] = {
                    "best_cost": float(res.best_costs[i]),
                    "sigma": res.best_sigmas[i].tolist(),
                    "wall_ms": int(wall_s * 1000),
                    "batch_size": len(idxs),
                }
    else:
        solve_one = _PER_INSTANCE[name]
        parts = []
        for inst in instances:
            t0 = time.perf_counter()
            sol, history = solve_one(inst, steps)
            part = {
                "best_cost": float(sol.cost),
                "sigma": sol.sigma.tolist(),
                "wall_ms": int((time.perf_counter() - t0) * 1000),
            }
            if history is not None:
                stride = max(1, len(history) // 100)
                part["trajectory"] = [float(h) for h in history[::stride]]
            parts.append(part)

    for inst, part in zip(instances, parts):
        check = objective(inst, np.asarray(part["sigma"]))
        if not np.isclose(check, part["best_cost"], rtol=1e-9, atol=1e-9):
            raise NumericalAbortError(
                "fp64 re-verification of best_cost failed",
                diagnostics={
                    "instance": inst.name,
                    "reported": part["best_cost"],
                    "recomputed": float(check),
                },
            )
    return parts


_REFERENCE_MODES = ("auto", "brute", "tabu", "none")


def _read_reference_table(path: str) -> dict[str, float]:
    """The ``--reference FILE`` table: a JSON mapping of instance name to cost."""
    table = _read_json_object(path)
    try:
        if any(isinstance(cost, bool) for cost in table.values()):
            raise TypeError  # float(true) would read as a cost of 1.0
        return {name: float(cost) for name, cost in table.items()}
    except (TypeError, ValueError):
        raise ValidationError(f"{path}: reference costs must be numbers") from None


def _reference_costs(instances: list[QapInstance], mode: str, solver: str, steps: int,
                     parts: list[dict]) -> list[float | None]:
    """Reference cost per instance for a named ``mode``, ``None`` where there is none.

    ``auto`` uses exact search up to n = BRUTE_FORCE_MAX_N and a 5000-step
    tabu search beyond; ``brute``/``tabu`` force one method; ``none``
    disables gaps.  The tabu reference is the deterministic run from the
    identity assignment (tabu reads no seed), so when ``solver`` already made
    the reference run, the same method and for tabu the same ``steps``, its
    ``parts`` give the costs.
    """
    if mode == "none":
        return [None] * len(instances)
    methods = [("brute" if inst.n <= BRUTE_FORCE_MAX_N else "tabu") if mode == "auto" else mode
               for inst in instances]
    refs = [None] * len(instances)
    for method in ("brute", "tabu"):
        idxs = [i for i, m in enumerate(methods) if m == method]
        if not idxs:
            continue
        # The solver's own run is the reference run (brute reads no steps).
        if method == solver and (method == "brute" or steps == _REFERENCE_STEPS):
            ref_parts = [parts[i] for i in idxs]
        else:
            ref_parts = _run_solver(method, [instances[i] for i in idxs], _REFERENCE_STEPS)
        for i, part in zip(idxs, ref_parts):
            refs[i] = part["best_cost"]
    return refs


def _write_results(run_dir: Path, solver: str, steps: int, seed: int, names: list[str],
                   parts: list[dict], refs: list[float | None],
                   missing_flag: str, zero_flag: str) -> list[dict]:
    """Write one row per instance to results.csv and results.jsonl; return the csv rows.

    Makes ``run_dir``.  Row k reports ``parts[k]`` for instance ``names[k]``
    against ``refs[k]``: a row has a gap only when its reference is known and
    non-zero, otherwise its ``flag`` reads ``missing_flag`` or ``zero_flag``.
    Every row reports the master ``seed``.  results.jsonl adds each part's
    volatile fields (``wall_ms``, ``sigma``, ...).
    """
    rows: list[dict] = []
    for name, part, ref in zip(names, parts, refs):
        flag = ""
        gap_val = None
        if ref is None:
            flag = missing_flag
        elif ref == 0:
            flag = zero_flag
        else:
            gap_val = gap_of(part["best_cost"], ref)
        row = {
            "instance": name,
            "solver": solver,
            "seed": seed,
            "steps": steps,
            "best_cost": part["best_cost"],
            "reference": ref,
            "gap": gap_val,
            "flag": flag,
        }
        rows.append(row)

    run_dir.mkdir(parents=True, exist_ok=True)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_RESULT_COLUMNS)
    for row in rows:
        writer.writerow([_fmt(row.get(col)) for col in _RESULT_COLUMNS])
    (run_dir / "results.csv").write_text(buf.getvalue())
    with open(run_dir / "results.jsonl", "w") as fh:
        for row, part in zip(rows, parts):
            fh.write(json.dumps({**row, **part}, sort_keys=True) + "\n")
    return rows


def cmd_solve(args) -> int:
    run_dir = _check_run_dir(args.out)
    started = _utc_now()
    if args.solver == "sawt" and not args.checkpoint:
        raise ValidationError("--checkpoint is required for solver 'sawt'")
    if args.checkpoint and args.solver != "sawt":
        raise ValidationError(f"--checkpoint is read only by solver 'sawt', not {args.solver!r}")
    paths = _collect_instance_paths(args.instances)
    instances = [_load_instance_file(p) for p in paths]
    table = None
    if args.reference not in _REFERENCE_MODES:
        table = _read_reference_table(args.reference)
    parts = _run_solver(args.solver, instances, args.steps, seed=args.seed,
                        checkpoint=args.checkpoint)
    if table is None:
        refs = _reference_costs(instances, args.reference, args.solver, args.steps, parts)
    else:
        refs = [table.get(inst.name) for inst in instances]
    rows = _write_results(run_dir, args.solver, args.steps, args.seed,
                          [inst.name for inst in instances], parts, refs,
                          missing_flag="", zero_flag="zero_reference")

    config = {
        "solver": args.solver,
        "steps": args.steps,
        "reference": args.reference,
        "instances": [str(p) for p in paths],
        "checkpoint": args.checkpoint,
    }
    _write_manifest(
        run_dir, args, "solve", config, started,
        deterministic=["results.csv"], volatile=["results.jsonl"],
    )
    print(f"solver: {args.solver}  steps: {args.steps}")
    _print_summary(rows)
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

_TRAIN_OVERRIDES = (
    "epochs", "batch_size", "episode_length", "lr", "entropy_beta", "eval_every",
    "eval_steps",
)
_DATA_DEFAULTS = {"n": 6, "count": 256, "p": 0.7, "eval_count": 64}


def _resolve_train_config(args) -> tuple[TrainConfig, SawtConfig, dict]:
    """Defaults < config file < CLI flags, mirroring TrainConfig/SawtConfig keys."""
    file_cfg: dict = {}
    if args.config:
        file_cfg = _read_json_object(args.config)
        unknown = set(file_cfg) - {"train", "model", "data"}
        if unknown:
            raise ValidationError(
                f"unknown top-level config keys: {sorted(unknown)} "
                "(expected 'train', 'model', 'data')"
            )
        for section, value in file_cfg.items():
            if not isinstance(value, dict):
                raise ValidationError(f"config section {section!r} must be a JSON object")
    train_kwargs = dict(file_cfg.get("train", {}))
    for key in _TRAIN_OVERRIDES:
        value = getattr(args, key, None)
        if value is not None:
            train_kwargs[key] = value
    seed = getattr(args, "seed", None)
    if seed is not None:
        train_kwargs["seed"] = seed
    model_kwargs = dict(file_cfg.get("model", {}))
    unknown = set(file_cfg.get("data", {})) - set(_DATA_DEFAULTS)
    if unknown:
        raise ValidationError(f"unknown data config keys: {sorted(unknown)} "
                              f"(expected {sorted(_DATA_DEFAULTS)})")
    if getattr(args, "data", None) and (getattr(args, "count", None) is not None
                                        or "count" in file_cfg.get("data", {})):
        raise ValidationError("--data trains on its own files; drop --count / data.count")
    data = {**_DATA_DEFAULTS, **file_cfg.get("data", {})}
    for key in _DATA_DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            data[key] = value
    for key, default in _DATA_DEFAULTS.items():  # each default's type is its key's type
        check_type(key, data[key], type(default).__name__)
    if data["eval_count"] < 0:
        raise ValidationError(f"eval_count must be an integer >= 0, got {data['eval_count']!r}")
    try:
        return TrainConfig(**train_kwargs), SawtConfig(**model_kwargs), data
    except TypeError as err:
        raise ValidationError(f"bad config key: {err}") from None


def cmd_train(args) -> int:
    run_dir = _check_run_dir(args.out)
    started = _utc_now()
    train_cfg, model_cfg, data = _resolve_train_config(args)
    # Every input is built before the run directory is made, so a run that
    # cannot start leaves no directory behind.
    if args.data:
        paths = _collect_instance_paths([args.data])
        instances = [_load_instance_file(p) for p in paths]
    else:
        if data["count"] < 1:
            raise ValidationError(f"count must be an integer >= 1, got {data['count']!r}")
        instances = [
            generate_instance(data["n"], p=data["p"], seed=train_cfg.seed + k)
            for k in range(data["count"])
        ]
    eval_instances = None
    if data["eval_count"]:
        eval_instances = [
            generate_instance(data["n"], p=data["p"], seed=1_000_000 + train_cfg.seed + k)
            for k in range(data["eval_count"])
        ]

    start_epoch = 0
    optimizer = None
    if args.resume:
        policy, optimizer, meta = load_policy(
            args.resume, optimizer_factory=lambda p: Adam(p, lr=train_cfg.lr)
        )
        start_epoch = int(meta.get("epoch", -1)) + 1
        print(f"resuming from {args.resume} at epoch {start_epoch}")
    else:
        policy = SawtPolicy(model_cfg, seed=train_cfg.seed)
    optimizer = optimizer or Adam(policy.params, lr=train_cfg.lr)
    run_dir.mkdir(parents=True, exist_ok=True)

    def save(name: str, epoch: int) -> None:
        save_policy(run_dir / name, policy, optimizer,
                    meta={"epoch": epoch, "train_config": train_cfg.to_dict()})

    best_eval = np.inf  # policy_best.ckpt, once written, holds the epoch that set it
    with open(run_dir / "metrics.jsonl", "w") as metrics_file:

        def on_epoch(row: dict) -> None:
            nonlocal best_eval
            metrics_file.write(json.dumps(row, sort_keys=True) + "\n")
            metrics_file.flush()
            save("policy.ckpt", row["epoch"])
            if row.get("eval_cost_mean", np.inf) < best_eval:
                best_eval = row["eval_cost_mean"]
                save("policy_best.ckpt", row["epoch"])
            print(
                f"epoch {row['epoch']:3d}  best_cost_mean {row['best_cost_mean']:.4f}  "
                f"loss {row['loss']:.4f}  entropy {row['entropy']:.3f}"
                + (f"  eval {row['eval_cost_mean']:.4f}" if "eval_cost_mean" in row else "")
            )

        rows = train(policy, instances, train_cfg, eval_instances=eval_instances,
                     start_epoch=start_epoch, optimizer=optimizer, on_epoch=on_epoch)
    if not rows:  # epochs=0: still leave a loadable checkpoint
        save("policy.ckpt", start_epoch - 1)

    config = {
        "train": train_cfg.to_dict(),
        "model": policy.config.to_dict(),
        # With --data, n and p size only the generated eval set.
        "data": data if not args.data else {
            "data_dir": args.data, "n": data["n"], "p": data["p"],
            "eval_count": data["eval_count"],
        },
        "resume": args.resume,
        "start_epoch": start_epoch,
    }
    best = ["policy_best.ckpt"] if best_eval < np.inf else []
    _write_manifest(
        run_dir, args, "train", config, started,
        deterministic=["policy.ckpt", *best], volatile=["metrics.jsonl"],
    )
    print(f"trained {len(rows)} epochs; checkpoint at {run_dir / 'policy.ckpt'}")
    return 0


# ---------------------------------------------------------------------------
# qaplib fetch / bench
# ---------------------------------------------------------------------------


def cmd_qaplib_fetch(args) -> int:
    for name in args.names:
        written = qaplib.fetch(name, data_dir=args.data_dir, base_url=args.base_url)
        for path in written:
            print(f"{name}: {path}")
    return 0


def cmd_qaplib_bench(args) -> int:
    run_dir = _check_run_dir(args.out)
    started = _utc_now()
    names = []
    for part in args.names:
        names.extend(x for x in part.replace(",", " ").split() if x)
    if not names:
        raise ValidationError("qaplib bench needs at least one instance name")
    entries = [qaplib.load_entry(name, data_dir=args.data_dir) for name in names]
    parts = _run_solver(args.solver, [e.instance for e in entries], args.steps)
    rows = _write_results(run_dir, args.solver, args.steps, args.seed,
                          [e.name for e in entries], parts,
                          [e.upper_bound for e in entries],
                          missing_flag="no_bound", zero_flag="zero_bound")

    # Per-category mean/min/max over rows that have a usable gap.
    by_cat: dict[str, list[float]] = {}
    for entry, row in zip(entries, rows):
        if row["gap"] is not None:
            by_cat.setdefault(entry.category, []).append(row["gap"])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("category", "count", "mean_gap", "min_gap", "max_gap"))
    for category in sorted(by_cat):
        gaps = by_cat[category]
        writer.writerow(
            [category, len(gaps), _fmt(float(np.mean(gaps))),
             _fmt(float(np.min(gaps))), _fmt(float(np.max(gaps)))]
        )
    (run_dir / "categories.csv").write_text(buf.getvalue())

    config = {"names": names, "solver": args.solver, "steps": args.steps,
              "data_dir": args.data_dir}
    _write_manifest(
        run_dir, args, "qaplib bench", config, started,
        deterministic=["results.csv", "categories.csv"], volatile=["results.jsonl"],
    )
    _print_summary(rows)
    for category in sorted(by_cat):
        gaps = by_cat[category]
        print(
            f"category {category}: n={len(gaps)} mean={np.mean(gaps):.2f}% "
            f"min={np.min(gaps):.2f}% max={np.max(gaps):.2f}%"
        )
    return 0


# ---------------------------------------------------------------------------
# describe / rerun
# ---------------------------------------------------------------------------


def cmd_describe(args) -> int:
    if args.checkpoint:
        policy, _, meta = load_policy(args.checkpoint)
        desc = policy.describe()
        desc["meta"] = meta
    else:
        _, model_cfg, _ = _resolve_train_config(args)
        desc = SawtPolicy(model_cfg, seed=0).describe()
    print(json.dumps(desc, indent=2, sort_keys=True))
    return 0


def cmd_rerun(args) -> int:
    manifest_path = Path(args.manifest)
    if not manifest_path.is_file():
        raise FileNotFoundError(f"manifest not found: {manifest_path}")
    manifest = _read_json_object(manifest_path)
    original_dir = manifest_path.parent
    argv = manifest.get("argv")
    outputs = manifest.get("outputs", {})
    deterministic = outputs.get("deterministic", []) if isinstance(outputs, dict) else None
    if not argv:
        raise ValidationError("manifest records no argv; cannot rerun")
    for key, value in (("argv", argv), ("outputs.deterministic", deterministic)):
        if not isinstance(value, list) or not all(isinstance(tok, str) for tok in value):
            raise ValidationError(f"{manifest_path}: {key} must be a list of strings")

    # argparse keeps the last --out, so the recorded one needs no stripping.
    # It goes before a recorded "--", after which every token is positional.
    cut = argv.index("--") if "--" in argv else len(argv)
    code = main([*argv[:cut], "--out", str(args.out), *argv[cut:]])
    if code != 0:
        print(f"rerun failed with exit code {code}", file=sys.stderr)
        return code

    mismatches = []
    for rel in deterministic:
        old_file = original_dir / rel
        new_file = Path(args.out) / rel
        if not old_file.is_file():
            mismatches.append(f"{rel}: original missing")
        elif not new_file.is_file():
            mismatches.append(f"{rel}: rerun did not produce it")
        elif old_file.read_bytes() != new_file.read_bytes():
            mismatches.append(f"{rel}: bytes differ")
    if mismatches:
        for m in mismatches:
            print(f"mismatch — {m}", file=sys.stderr)
        return 3
    print(f"rerun reproduced {len(deterministic)} deterministic output file(s) bit-identically")
    return 0


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------


def _run_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=0,
                     help="master seed, written to the manifest and to every "
                          "result row; commands that draw random numbers seed "
                          "from it (default: 0)")
    sub.add_argument("--out", type=str, default=None,
                     help="run directory; receives manifest.json and results")


def _config_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", type=str, default=None,
                     help="JSON config file with 'train'/'model'/'data' sections")


def _ignored_threads_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--threads", type=int,
                     help="ignored: every command runs on one thread; the flag "
                          "is kept only so existing command lines still parse")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sawt-qap",
        description="QAP toolkit: instance generation, classical solvers, "
                    "and a learned swap policy.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser(
        "generate", help="write random instances as JSON",
        description="Generate Euclidean-distance/sparse-flow instances; "
                    "instance k uses seed = --seed + k. Writes one JSON file "
                    "per instance plus index.json and manifest.json.",
    )
    p.add_argument("--n", type=int, required=True, help="instance size")
    p.add_argument("--count", type=int, default=1,
                   help="number of instances, at least 1 (default: 1)")
    p.add_argument("--p", type=float, default=0.7,
                   help="flow sparsification probability (default: 0.7)")
    _run_flags(p)
    p.set_defaults(func=cmd_generate)

    p = subs.add_parser(
        "solve", help="run a solver over instance files",
        description="Solve instances (.json from `generate` or QAPLIB .dat). "
                    "Writes results.csv (deterministic) and results.jsonl "
                    "(adds wall_ms and sigma, the best-cost trajectory for "
                    "tabu, and batch_size for sawt). Every best cost is "
                    "re-verified in float64 (exit 4 on mismatch).",
    )
    p.add_argument("--instances", nargs="+", required=True,
                   help="instance files and/or directories")
    p.add_argument("--solver", choices=SOLVERS, required=True, help="solver to run")
    p.add_argument("--steps", type=int, default=5000,
                   help="search budget: tabu/greedy iterations or sawt swap "
                        "steps; ignored by brute/sm (default: 5000)")
    p.add_argument("--checkpoint", type=str, default=None,
                   help="policy checkpoint (--solver sawt only, and required there)")
    p.add_argument("--reference", type=str, default="auto",
                   help="gap reference: auto (brute for n<=%d, else the "
                        "deterministic 5000-step tabu run from the identity), "
                        "brute, tabu, none, or a JSON file of name->cost "
                        "(default: auto)" % BRUTE_FORCE_MAX_N)
    _run_flags(p)
    _ignored_threads_flag(p)
    p.set_defaults(func=cmd_solve)

    p = subs.add_parser(
        "train", help="train the swap policy",
        description="Train on generated instances (or --data instance files). "
                    "Config resolution: TrainConfig defaults, then --config "
                    "file sections {train, model, data}, then CLI flags. "
                    "Writes metrics.jsonl, policy.ckpt (every epoch), "
                    "policy_best.ckpt (at best eval), and manifest.json.",
    )
    p.add_argument("--data", type=str, default=None,
                   help="directory of instance files (otherwise instances are "
                        "generated per the data config)")
    p.add_argument("--n", type=int, default=None,
                   help="generated instance size (with --data: of the eval set only)")
    p.add_argument("--count", type=int, default=None,
                   help="generated training instances (not with --data)")
    p.add_argument("--p", type=float, default=None,
                   help="generated flow sparsity (with --data: of the eval set only)")
    p.add_argument("--eval-count", dest="eval_count", type=int, default=None,
                   help="held-out generated instances for eval")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p.add_argument("--episode-length", dest="episode_length", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--entropy-beta", dest="entropy_beta", type=float, default=None)
    p.add_argument("--eval-every", dest="eval_every", type=int, default=None)
    p.add_argument("--eval-steps", dest="eval_steps", type=int, default=None)
    p.add_argument("--resume", type=str, default=None,
                   help="checkpoint to resume from (continues epoch numbering)")
    _run_flags(p)
    _ignored_threads_flag(p)
    _config_flag(p)
    p.set_defaults(func=cmd_train, seed=None)

    p = subs.add_parser("qaplib", help="QAPLIB data commands")
    qsubs = p.add_subparsers(dest="qaplib_command", required=True)

    pf = qsubs.add_parser(
        "fetch", help="download QAPLIB instances into the local cache",
        description="Download <name>.dat (and .sln when published) from the "
                    "QAPLIB mirror into the data directory. Base URL: "
                    "--base-url, else $SAWT_QAPLIB_URL, else the public site. "
                    "Cache: --data-dir, else $SAWT_QAP_DATA_DIR, else "
                    "~/.cache/sawt-qap/qaplib.",
    )
    pf.add_argument("names", nargs="+", help="instance names, e.g. nug12 tai20a")
    pf.add_argument("--data-dir", type=str, default=None, help="cache directory")
    pf.add_argument("--base-url", type=str, default=None, help="mirror base URL")
    pf.set_defaults(func=cmd_qaplib_fetch)

    pb = qsubs.add_parser(
        "bench", help="benchmark a solver against QAPLIB best-known values",
        description="Solve named QAPLIB instances and report gaps vs the "
                    "embedded best-known values. Zero-bound instances are "
                    "flagged and excluded from gap aggregates (their absolute "
                    "cost still appears in best_cost). Writes results.csv, "
                    "categories.csv, results.jsonl; every best cost is "
                    "re-verified in float64 (exit 4 on mismatch).",
    )
    pb.add_argument("names", nargs="+", help="instance names (comma or space separated)")
    pb.add_argument("--solver", choices=[s for s in SOLVERS if s != "sawt"],
                    default="tabu", help="solver to benchmark (default: tabu)")
    pb.add_argument("--steps", type=int, default=5000,
                    help="search budget (default: 5000)")
    pb.add_argument("--data-dir", type=str, default=None, help="QAPLIB cache directory")
    _run_flags(pb)
    _ignored_threads_flag(pb)
    pb.set_defaults(func=cmd_qaplib_bench)

    p = subs.add_parser(
        "describe", help="print the policy parameter census as JSON",
        description="Without --checkpoint, describes a freshly initialized "
                    "model built from the --config file's 'model' section "
                    "(or defaults).",
    )
    p.add_argument("--checkpoint", type=str, default=None, help="saved policy to describe")
    _config_flag(p)
    p.set_defaults(func=cmd_describe)

    p = subs.add_parser(
        "rerun", help="replay a manifest and verify bit-identical outputs",
        description="Re-executes the argv recorded in a manifest.json with a "
                    "fresh --out and byte-compares every deterministic output "
                    "file. Exit 0 when identical, 3 on any mismatch.",
    )
    p.add_argument("manifest", help="path to a run's manifest.json")
    p.add_argument("--out", type=str, required=True, help="fresh run directory")
    p.set_defaults(func=cmd_rerun)

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    args._argv = list(argv)
    try:
        return args.func(args) or 0
    except NumericalAbortError as err:
        print(f"numerical abort: {err}", file=sys.stderr)
        if err.diagnostics:
            print(json.dumps(err.diagnostics, default=str, sort_keys=True),
                  file=sys.stderr)
        return 4
    except (SawtQapError, OSError) as err:  # OSError: missing files, unreachable mirrors
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
