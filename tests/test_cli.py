"""CLI: subcommands, exit codes, result files, manifest reproducibility."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sawt_qap
from sawt_qap import instance_from_json, objective
from sawt_qap.cli import main
from sawt_qap.nn import Adam
from sawt_qap.policy import load_policy
from sawt_qap.qaplib import fixture_dir

SMALL_MODEL = {
    "model": {
        "d_emb": 16, "n_heads": 2, "n_layers": 1, "n_init": 12,
        "gcn_layers": 1, "fac_blocks": 1, "ffn_mult": 2,
    }
}


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def test_generate_writes_instances_and_index(tmp_path):
    out = tmp_path / "gen"
    assert main(["generate", "--n", "6", "--count", "4", "--seed", "1",
                 "--out", str(out)]) == 0
    index = json.loads((out / "index.json").read_text())
    assert index["count"] == 4 and len(index["files"]) == 4
    for fname in index["files"]:
        inst = instance_from_json((out / fname).read_text())
        assert inst.n == 6
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "generate"
    assert set(manifest["outputs"]["deterministic"]) == {"index.json", *index["files"]}


def test_generate_rerun_identical_bytes(tmp_path):
    args = ["generate", "--n", "5", "--count", "3", "--seed", "9", "--p", "0.5"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    for fname in json.loads((out1 / "index.json").read_text())["files"] + ["index.json"]:
        assert (out1 / fname).read_bytes() == (out2 / fname).read_bytes()


def test_generate_count_zero_and_p_one(tmp_path, capsys):
    out = tmp_path / "empty"
    assert main(["generate", "--n", "4", "--count", "0", "--out", str(out)]) == 3
    assert "--count must be >= 1" in capsys.readouterr().err
    assert not out.exists()

    out2 = tmp_path / "dense"
    assert main(["generate", "--n", "4", "--count", "1", "--p", "1.0",
                 "--seed", "2", "--out", str(out2)]) == 0
    fname = json.loads((out2 / "index.json").read_text())["files"][0]
    inst = instance_from_json((out2 / fname).read_text())
    assert np.all(inst.flow == 0.0)  # p=1 zeroes every flow pair


def test_generate_refuses_existing_manifest(tmp_path, capsys):
    out = tmp_path / "gen"
    assert main(["generate", "--n", "4", "--count", "1", "--out", str(out)]) == 0
    assert main(["generate", "--n", "4", "--count", "1", "--out", str(out)]) == 3
    assert "exactly one run" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--n", "4", "--threads", "2"],
        ["generate", "--n", "4", "--fp64-check"],
        ["generate", "--n", "4", "--config", "c.json"],
        ["qaplib", "fetch", "had12", "--seed", "1"],
        ["qaplib", "fetch", "had12", "--out", "x"],
        ["solve", "--instances", "x", "--solver", "tabu", "--config", "c.json"],
        ["qaplib", "bench", "had12", "--config", "c.json"],
        ["train", "--fp64-check"],
        ["describe", "--threads", "2"],
        ["describe", "--fp64-check"],
        ["describe", "--seed", "5"],
        ["describe", "--out", "x"],
        # Removed flags: the float64 re-check and tabu trajectories are unconditional.
        ["solve", "--instances", "x", "--solver", "tabu", "--fp64-check"],
        ["solve", "--instances", "x", "--solver", "tabu", "--record-trajectory"],
        ["qaplib", "bench", "had12", "--fp64-check"],
    ],
)
def test_unread_flags_are_rejected(argv):
    # A flag the command would ignore is a usage error, not a silent no-op.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_generate_bad_args_exit_codes(tmp_path):
    # argparse usage error: missing required --n
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--count", "1", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    # domain validation error: bad p
    assert main(["generate", "--n", "4", "--count", "1", "--p", "1.5",
                 "--out", str(tmp_path / "y")]) == 3


@pytest.mark.parametrize("case", [
    "generate --n 1",
    "generate --n 1 --count 0",
    "generate --p 1.5",
    "solve --steps -1",
    "solve sawt, missing checkpoint",
    "solve brute, n=12",
    "qaplib bench, not found",
    "qaplib bench --steps -1",
])
def test_run_that_cannot_start_leaves_no_run_dir(gen_dir, tmp_path, case):
    # Each command checks every input and runs its search before it makes
    # the run directory.
    solve = ["solve", "--instances", str(gen_dir), "--reference", "none"]
    argv = {
        "generate --n 1": ["generate", "--n", "1"],
        "generate --n 1 --count 0": ["generate", "--n", "1", "--count", "0"],
        "generate --p 1.5": ["generate", "--n", "4", "--p", "1.5"],
        "solve --steps -1": [*solve, "--solver", "tabu", "--steps", "-1"],
        "solve sawt, missing checkpoint": [*solve, "--solver", "sawt", "--checkpoint",
                                           str(tmp_path / "missing.ckpt")],
        "solve brute, n=12": ["solve", "--instances", str(fixture_dir() / "had12.dat"),
                              "--solver", "brute", "--reference", "none"],
        "qaplib bench, not found": ["qaplib", "bench", "nug12", "--data-dir",
                                    str(tmp_path / "empty-cache")],
        "qaplib bench --steps -1": ["qaplib", "bench", "had12", "--steps", "-1"],
    }[case]
    out = tmp_path / "run"
    assert main([*argv, "--out", str(out)]) == 3
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "solve", "qaplib bench", "train"])
def test_out_naming_a_regular_file_is_refused(gen_dir, tmp_path, capsys, command):
    # Refused before any input is read or any search runs; the file is untouched.
    out = tmp_path / "f2"
    out.write_bytes(b"not a run directory\n")
    argv = {
        "generate": ["generate", "--n", "4"],
        "solve": ["solve", "--instances", str(gen_dir), "--solver", "tabu", "--steps", "10"],
        "qaplib bench": ["qaplib", "bench", "had12,chr12c", "--steps", "10"],
        "train": ["train", "--n", "4", "--count", "2", "--epochs", "1", "--eval-count", "0"],
    }[command]
    assert main([*argv, "--out", str(out)]) == 3
    assert "is not a directory" in capsys.readouterr().err
    assert out.read_bytes() == b"not a run directory\n"


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def gen_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("instances") / "gen"
    assert main(["generate", "--n", "6", "--count", "4", "--seed", "11",
                 "--out", str(out)]) == 0
    return out


def test_solve_tabu_matches_brute_reference(gen_dir, tmp_path):
    out = tmp_path / "run"
    assert main(["solve", "--instances", str(gen_dir), "--solver", "tabu",
                 "--steps", "500", "--seed", "3", "--out", str(out)]) == 0
    rows = read_csv(out / "results.csv")
    assert len(rows) == 4
    for row in rows:
        assert abs(float(row["gap"])) < 1e-9  # tabu finds optima at n=6
    jrows = read_jsonl(out / "results.jsonl")
    assert all("wall_ms" in r and "sigma" in r for r in jrows)
    # results.csv carries no timing columns.
    assert "wall_ms" not in (out / "results.csv").read_text()


def test_solve_tabu_rows_report_master_seed(gen_dir, tmp_path):
    out = tmp_path / "run"
    assert main(["solve", "--instances", str(gen_dir), "--solver", "tabu",
                 "--steps", "50", "--reference", "none", "--seed", "5",
                 "--out", str(out)]) == 0
    rows = read_csv(out / "results.csv")
    assert len(rows) == 4 and all(row["seed"] == "5" for row in rows)


def test_solve_brute_and_fp64_check(gen_dir, tmp_path):
    out = tmp_path / "run"
    assert main(["solve", "--instances", str(gen_dir), "--solver", "brute",
                 "--out", str(out)]) == 0
    rows = read_csv(out / "results.csv")
    for row in rows:
        assert float(row["gap"]) == 0.0  # brute equals its own reference


@pytest.mark.parametrize("solver,kernel,extra,calls", [
    ("brute", "brute_force", [], 4),  # --reference auto at n=6 is the brute run itself
    ("tabu", "tabu_search", ["--reference", "tabu"], 4),  # the same 5000-step run
    ("tabu", "tabu_search", ["--reference", "tabu", "--steps", "100"], 8),  # other budget
])
def test_solve_reuses_its_run_as_reference(gen_dir, tmp_path, monkeypatch,
                                           solver, kernel, extra, calls):
    from sawt_qap import cli

    real = getattr(cli, kernel)
    seen = []

    def counting(inst, *args, **kwargs):
        seen.append(inst.name)
        return real(inst, *args, **kwargs)

    monkeypatch.setattr(cli, kernel, counting)
    out = tmp_path / "run"
    assert main(["solve", "--instances", str(gen_dir), "--solver", solver, *extra,
                 "--out", str(out)]) == 0
    assert len(seen) == calls
    for row in read_csv(out / "results.csv"):
        assert row["reference"] != "" and float(row["gap"]) >= 0.0


def test_fp64_check_aborts_on_mismatch(gen_dir, tmp_path, monkeypatch, capsys):
    # Every run re-verifies its best costs; a failed check leaves no run directory.
    from sawt_qap import cli

    assert main(["qaplib", "bench", "had12", "--steps", "200",
                 "--out", str(tmp_path / "ok")]) == 0
    monkeypatch.setattr(cli, "objective", lambda inst, sigma: objective(inst, sigma) + 1.0)
    assert main(["qaplib", "bench", "had12", "--steps", "200",
                 "--out", str(tmp_path / "bench")]) == 4
    assert main(["solve", "--instances", str(gen_dir), "--solver", "greedy",
                 "--reference", "none", "--out", str(tmp_path / "solve")]) == 4
    assert "fp64 re-verification" in capsys.readouterr().err
    assert not (tmp_path / "bench").exists() and not (tmp_path / "solve").exists()


def test_solve_threads_do_not_change_output(gen_dir, tmp_path):
    # --threads still parses on solve, qaplib bench and train; it is ignored.
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(SMALL_MODEL))
    commands = [
        (["solve", "--instances", str(gen_dir), "--solver", "tabu", "--steps", "300",
          "--seed", "5"], ["results.csv"]),
        (["qaplib", "bench", "had12,chr12c", "--steps", "300"],
         ["results.csv", "categories.csv"]),
        (["train", "--config", str(cfg_path), "--n", "5", "--count", "4", "--epochs", "1",
          "--batch-size", "4", "--episode-length", "3", "--eval-count", "2",
          "--eval-every", "1", "--eval-steps", "3"], ["policy.ckpt", "policy_best.ckpt"]),
    ]
    for k, (args, outputs) in enumerate(commands):
        runs = []
        for threads in (["--threads", "1"], ["--threads", "2"], []):
            out = tmp_path / f"run{k}-{len(runs)}"
            assert main([*args, *threads, "--out", str(out)]) == 0
            runs.append([(out / name).read_bytes() for name in outputs])
        assert runs[0] == runs[1] == runs[2], args[0]


def test_solve_reference_modes(gen_dir, tmp_path):
    out_none = tmp_path / "none"
    assert main(["solve", "--instances", str(gen_dir), "--solver", "greedy",
                 "--steps", "100", "--reference", "none", "--out", str(out_none)]) == 0
    rows = read_csv(out_none / "results.csv")
    assert all(row["gap"] == "" and row["reference"] == "" for row in rows)

    table = {"rand6-s11": 1.0}
    ref_file = tmp_path / "refs.json"
    ref_file.write_text(json.dumps(table))
    out_file = tmp_path / "file"
    assert main(["solve", "--instances", str(gen_dir), "--solver", "greedy",
                 "--steps", "100", "--reference", str(ref_file),
                 "--out", str(out_file)]) == 0
    rows = read_csv(out_file / "results.csv")
    named = [r for r in rows if r["instance"] == "rand6-s11"]
    assert named and named[0]["reference"] == "1.0" and named[0]["gap"] != ""
    others = [r for r in rows if r["instance"] != "rand6-s11"]
    assert all(r["gap"] == "" for r in others)


def test_solve_record_trajectory(gen_dir, tmp_path):
    # Every tabu row, of solve and of qaplib bench, carries its trajectory.
    out = tmp_path / "run"
    assert main(["solve", "--instances", str(gen_dir), "--solver", "tabu",
                 "--steps", "200", "--reference", "none", "--out", str(out)]) == 0
    bench = tmp_path / "bench"
    assert main(["qaplib", "bench", "had12", "--solver", "tabu", "--steps", "300",
                 "--out", str(bench)]) == 0
    jrows = read_jsonl(out / "results.jsonl") + read_jsonl(bench / "results.jsonl")
    assert len(jrows) == 5
    for row in jrows:
        # 200 and 300 steps downsample at strides 2 and 3 to 100 points.
        assert len(row["trajectory"]) == 100
        # Trajectory tracks best-so-far: monotone nonincreasing, down to best_cost.
        assert all(a >= b for a, b in zip(row["trajectory"], row["trajectory"][1:]))
        assert row["trajectory"][-1] >= row["best_cost"]


def test_solve_dat_input(tmp_path):
    dat = fixture_dir() / "had12.dat"
    out = tmp_path / "run"
    assert main(["solve", "--instances", str(dat), "--solver", "greedy",
                 "--steps", "50", "--reference", "none", "--out", str(out)]) == 0
    rows = read_csv(out / "results.csv")
    assert rows[0]["instance"] == "had12"


def test_solve_sm_has_no_size_limit(tmp_path):
    gen = tmp_path / "gen"
    assert main(["generate", "--n", "40", "--count", "2", "--seed", "4",
                 "--out", str(gen)]) == 0
    out = tmp_path / "run"
    assert main(["solve", "--instances", str(gen), "--solver", "sm",
                 "--reference", "none", "--out", str(out)]) == 0
    rows = read_csv(out / "results.csv")
    assert len(rows) == 2 and all(float(row["best_cost"]) > 0.0 for row in rows)


def test_cli_import_loads_no_scipy_until_sm_runs(tmp_path):
    # Only solver 'sm' needs scipy, and it imports it on first use, so no
    # other command pays for loading scipy.optimize.  A fresh interpreter
    # shows what importing the CLI loads.
    gen, out = str(tmp_path / "gen"), str(tmp_path / "run")
    script = f"""
import sys
from sawt_qap import cli
assert not [m for m in sys.modules if m.split(".")[0] == "scipy"], "scipy loaded"
# qaplib.fetch alone downloads; it imports urllib.request on first use.
loaded = [m for m in ("urllib.request", "http.client", "ssl") if m in sys.modules]
assert not loaded, loaded
assert cli.main(["generate", "--n", "5", "--count", "2", "--out", {gen!r}]) == 0
assert cli.main(["solve", "--instances", {gen!r}, "--solver", "sm",
                 "--reference", "none", "--out", {out!r}]) == 0
assert "scipy.optimize" in sys.modules
"""
    src = str(Path(sawt_qap.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert len(read_csv(Path(out) / "results.csv")) == 2


def test_solve_missing_inputs_and_checkpoint(gen_dir, tmp_path, capsys):
    assert main(["solve", "--instances", str(tmp_path / "nope"), "--solver", "tabu",
                 "--out", str(tmp_path / "a")]) == 3
    assert main(["solve", "--instances", str(gen_dir), "--solver", "sawt",
                 "--out", str(tmp_path / "b")]) == 3
    assert "--checkpoint" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--instances", str(gen_dir), "--solver", "annealing",
              "--out", str(tmp_path / "c")])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "solver, flags, named",
    [
        ("greedy", ["--checkpoint", "nonexistent.ckpt"], "--checkpoint"),
        ("brute", ["--checkpoint", "nonexistent.ckpt"], "--checkpoint"),
        ("sm", ["--checkpoint", "nonexistent.ckpt"], "--checkpoint"),
        ("tabu", ["--checkpoint", "nonexistent.ckpt"], "--checkpoint"),
        ("sawt", [], "--checkpoint"),
    ],
)
def test_solve_rejects_flags_its_solver_ignores(gen_dir, tmp_path, capsys, solver, flags,
                                                 named):
    # --checkpoint, read by solver sawt only and required there, given to
    # another solver is a validation error (exit 3), raised before the run
    # directory is made.
    out = tmp_path / "run"
    assert main(["solve", "--instances", str(gen_dir), "--solver", solver, *flags,
                 "--out", str(out)]) == 3
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("solver", ["brute", "sm"])
@pytest.mark.parametrize("command", ["solve", "qaplib bench"])
def test_negative_steps_rejected_for_every_solver(gen_dir, tmp_path, capsys, solver, command):
    # brute and sm read no --steps, yet a negative budget is still an error
    # (exit 3) rather than a value written into results.csv.
    out = tmp_path / "run"
    argv = {"solve": ["solve", "--instances", str(gen_dir), "--reference", "none"],
            "qaplib bench": ["qaplib", "bench", "had12"]}[command]
    assert main([*argv, "--solver", solver, "--steps", "-5", "--out", str(out)]) == 3
    assert "--steps" in capsys.readouterr().err
    assert not (out / "results.csv").exists()


# ---------------------------------------------------------------------------
# train + sawt solve
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    root = tmp_path_factory.mktemp("train")
    cfg = dict(SMALL_MODEL)
    cfg["train"] = {"epochs": 2, "batch_size": 4, "episode_length": 6, "seed": 7}
    cfg["data"] = {"n": 5, "count": 8, "eval_count": 2}
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out = root / "run"
    code = main(["train", "--config", str(cfg_path), "--eval-every", "2",
                 "--eval-steps", "5", "--out", str(out)])
    assert code == 0
    return out, cfg_path


def test_train_outputs(trained):
    out, _ = trained
    metrics = read_jsonl(out / "metrics.jsonl")
    assert [m["epoch"] for m in metrics] == [0, 1]
    assert all("wall_ms" in m and "policy_loss" in m for m in metrics)
    assert "eval_cost_mean" in metrics[1]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["train"]["epochs"] == 2
    assert manifest["config"]["model"]["d_emb"] == 16
    policy, opt, meta = load_policy(out / "policy.ckpt", optimizer_factory=lambda p: Adam(p))
    assert meta == {"epoch": 1, "train_config": manifest["config"]["train"]}
    assert opt.step_count == sum(m["updates"] for m in metrics) == 4
    # Best-eval checkpoint exists because eval ran and improved at least once.
    assert (out / "policy_best.ckpt").is_file()


def test_train_cli_overrides_config_file(trained, tmp_path):
    _, cfg_path = trained
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--epochs", "1",
                 "--eval-count", "0", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["train"]["epochs"] == 1  # flag beats file
    assert manifest["config"]["train"]["batch_size"] == 4  # file beats default
    metrics = read_jsonl(out / "metrics.jsonl")
    assert len(metrics) == 1 and "eval_cost_mean" not in metrics[0]


def test_train_epochs_zero_checkpoint_loadable(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(SMALL_MODEL))
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--epochs", "0",
                 "--count", "2", "--n", "4", "--eval-count", "0",
                 "--out", str(out)]) == 0
    policy, opt, meta = load_policy(out / "policy.ckpt",
                                    optimizer_factory=lambda p: Adam(p))
    assert policy.config.d_emb == 16
    assert opt.step_count == 0
    assert (out / "metrics.jsonl").read_text() == ""


def test_train_resume_continues_numbering(trained, tmp_path):
    out, cfg_path = trained
    out2 = tmp_path / "resumed"
    assert main(["train", "--config", str(cfg_path), "--epochs", "1",
                 "--eval-count", "0", "--resume", str(out / "policy.ckpt"),
                 "--out", str(out2)]) == 0
    metrics = read_jsonl(out2 / "metrics.jsonl")
    assert [m["epoch"] for m in metrics] == [2]
    _, opt, meta = load_policy(out2 / "policy.ckpt", optimizer_factory=lambda p: Adam(p))
    assert meta["epoch"] == 2
    assert opt.step_count == 4 + metrics[0]["updates"]


def test_train_resume_manifest_records_the_trained_model(trained, tmp_path):
    # Resumed with default model flags, the manifest records the checkpoint's
    # model (d_emb=16), not the default config (d_emb=64).
    out, _ = trained
    out2 = tmp_path / "resumed"
    assert main(["train", "--epochs", "1", "--n", "5", "--count", "2", "--batch-size", "2",
                 "--episode-length", "3", "--eval-count", "0",
                 "--resume", str(out / "policy.ckpt"), "--out", str(out2)]) == 0
    manifest = json.loads((out2 / "manifest.json").read_text())
    policy, _, _ = load_policy(out2 / "policy.ckpt")
    assert manifest["config"]["model"] == policy.config.to_dict()
    assert manifest["config"]["model"]["d_emb"] == 16


def test_train_bad_config_keys(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"training": {"epochs": 1}}))
    assert main(["train", "--config", str(cfg_path), "--out",
                 str(tmp_path / "x")]) == 3
    assert "train" in capsys.readouterr().err

    cfg_path.write_text(json.dumps({"train": {"epoch_count": 1}}))
    assert main(["train", "--config", str(cfg_path), "--out",
                 str(tmp_path / "y")]) == 3


def test_train_rejects_negative_eval_every(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["train", "--n", "5", "--count", "2", "--epochs", "1",
                 "--eval-every", "-1", "--out", str(out)]) == 3
    assert "eval_every" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags,data,key", [
    (["--eval-count", "-1"], {}, "eval_count"),
    ([], {"eval_count": "2"}, "eval_count"),
    ([], {"cont": 5}, "cont"),
    ([], {"n": 6.5}, "n must be int"),
    ([], {"count": "4"}, "count must be int"),
    ([], {"eval_count": True}, "eval_count must be int"),
    ([], {"p": "0.5"}, "p must be float"),
    ([], {"p": False}, "p must be float"),
    ([], {"count": -1}, "count must be an integer >= 1"),
    ([], {"count": 0}, "count must be an integer >= 1"),
    ([], {"n": 1}, "instance size must be >= 2"),
    ([], {"p": 1.5}, "sparsity p"),
])
def test_train_rejects_bad_data_section(tmp_path, capsys, flags, data, key):
    cfg_path = tmp_path / "config.json"
    # n and count come from the file, not flags, so a bad value there is read.
    cfg_path.write_text(json.dumps({"data": {"n": 5, "count": 2, **data}}))
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--epochs", "1", "--eval-every", "1",
                 *flags, "--out", str(out)]) == 3
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_train_resume_of_missing_file_leaves_no_run_dir(tmp_path):
    out = tmp_path / "run"
    assert main(["train", "--n", "5", "--count", "2", "--epochs", "1",
                 "--resume", str(tmp_path / "missing.ckpt"), "--out", str(out)]) == 3
    assert not out.exists()


def test_train_data_of_missing_dir_leaves_no_run_dir(tmp_path):
    out = tmp_path / "run"
    assert main(["train", "--epochs", "1", "--data", str(tmp_path / "nope"),
                 "--out", str(out)]) == 3
    assert not out.exists()


def test_train_refuses_existing_manifest_before_loading_data(tmp_path, capsys):
    out = tmp_path / "run"
    out.mkdir()
    (out / "manifest.json").write_text("{}")
    # The missing --data directory would fail too; the run directory is checked first.
    assert main(["train", "--epochs", "1", "--data", str(tmp_path / "nope"),
                 "--out", str(out)]) == 3
    assert "already contains a manifest.json" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


@pytest.mark.parametrize("flags", [
    ["--eval-count", "2", "--eval-every", "1"],
    ["--eval-count", "2", "--eval-every", "3"],  # no eval epoch within the run
    ["--eval-count", "0", "--eval-every", "1"],
])
def test_train_best_checkpoint_exactly_when_eval_improved(tmp_path, flags):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(SMALL_MODEL))
    out = tmp_path / "run"
    out.mkdir()
    # A run directory without a manifest may hold files of an aborted run.
    (out / "policy_best.ckpt").write_bytes(b"stale")
    assert main(["train", "--config", str(cfg_path), "--n", "5", "--count", "4",
                 "--epochs", "2", "--batch-size", "4", "--episode-length", "4",
                 "--eval-steps", "4", *flags, "--out", str(out)]) == 0
    metrics = read_jsonl(out / "metrics.jsonl")
    evals = [m for m in metrics if "eval_cost_mean" in m]
    outputs = json.loads((out / "manifest.json").read_text())["outputs"]
    if not evals:
        assert outputs["deterministic"] == ["policy.ckpt"]
        return
    assert outputs["deterministic"] == ["policy.ckpt", "policy_best.ckpt"]
    best = min(evals, key=lambda m: m["eval_cost_mean"])  # the first of equal bests
    _, _, meta = load_policy(out / "policy_best.ckpt")
    assert meta["epoch"] == best["epoch"]
    if best["epoch"] == metrics[-1]["epoch"]:
        assert (out / "policy_best.ckpt").read_bytes() == (out / "policy.ckpt").read_bytes()


@pytest.mark.parametrize("where", ["flag", "config file"])
def test_train_data_rejects_count(gen_dir, tmp_path, capsys, where):
    # --data trains on its files: a count would be ignored, so it is refused.
    cfg_path = tmp_path / "config.json"
    data = {"data": {"count": 999}} if where == "config file" else {}
    cfg_path.write_text(json.dumps({**SMALL_MODEL, **data}))
    flags = ["--count", "999"] if where == "flag" else []
    out = tmp_path / "run"
    assert main(["train", "--data", str(gen_dir), "--epochs", "1", "--eval-count", "0",
                 *flags, "--config", str(cfg_path), "--out", str(out)]) == 3
    assert "--data" in capsys.readouterr().err
    assert not out.exists()


def test_train_data_manifest_records_the_eval_set(gen_dir, tmp_path):
    # With --data, --n/--p/--eval-count still size a generated eval set.
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(SMALL_MODEL))
    out = tmp_path / "run"
    assert main(["train", "--data", str(gen_dir), "--n", "5", "--p", "0.5",
                 "--eval-count", "2", "--epochs", "1", "--batch-size", "2",
                 "--episode-length", "2", "--eval-every", "1", "--eval-steps", "2",
                 "--config", str(cfg_path), "--out", str(out)]) == 0
    data = json.loads((out / "manifest.json").read_text())["config"]["data"]
    assert data == {"data_dir": str(gen_dir), "n": 5, "p": 0.5, "eval_count": 2}


def test_solve_sawt_and_zero_steps(trained, gen_dir, tmp_path):
    run, _ = trained
    ckpt = run / "policy.ckpt"
    gen5 = tmp_path / "gen5"
    assert main(["generate", "--n", "5", "--count", "3", "--seed", "31",
                 "--out", str(gen5)]) == 0

    out = tmp_path / "sawt"
    assert main(["solve", "--instances", str(gen5), "--solver", "sawt",
                 "--checkpoint", str(ckpt), "--steps", "25",
                 "--out", str(out)]) == 0
    rows = read_csv(out / "results.csv")
    assert len(rows) == 3 and all(float(r["best_cost"]) >= 0 for r in rows)

    out0 = tmp_path / "sawt0"
    assert main(["solve", "--instances", str(gen5), "--solver", "sawt",
                 "--checkpoint", str(ckpt), "--steps", "0",
                 "--reference", "none", "--out", str(out0)]) == 0
    rows0 = read_csv(out0 / "results.csv")
    index = json.loads((gen5 / "index.json").read_text())
    for row, fname in zip(rows0, index["files"]):
        inst = instance_from_json((gen5 / fname).read_text())
        identity_cost = objective(inst, np.arange(inst.n))
        assert float(row["best_cost"]) == pytest.approx(identity_cost, rel=1e-6)


def test_solve_sawt_rows_report_their_batch(trained, tmp_path):
    run, _ = trained
    dirs = []
    for n, count in ((5, 2), (6, 1)):
        d = tmp_path / f"gen{n}"
        assert main(["generate", "--n", str(n), "--count", str(count), "--seed", "41",
                     "--out", str(d)]) == 0
        dirs.append(str(d))
    out = tmp_path / "sawt"
    assert main(["solve", "--instances", *dirs, "--solver", "sawt",
                 "--checkpoint", str(run / "policy.ckpt"), "--steps", "5",
                 "--reference", "none", "--out", str(out)]) == 0
    rows = read_jsonl(out / "results.jsonl")
    assert [r["batch_size"] for r in rows] == [2, 2, 1]
    assert rows[0]["wall_ms"] == rows[1]["wall_ms"]
    assert all(isinstance(r["wall_ms"], int) and r["wall_ms"] >= 0 for r in rows)
    assert "batch_size" not in (out / "results.csv").read_text()


# ---------------------------------------------------------------------------
# qaplib fetch / bench
# ---------------------------------------------------------------------------


@pytest.fixture
def mirror(tmp_path):
    """file:// mirror shaped like the QAPLIB site, fed from bundled fixtures."""
    site = tmp_path / "site"
    (site / "data.d").mkdir(parents=True)
    (site / "soln.d").mkdir()
    for name in ("had12", "esc16f"):
        shutil.copy(fixture_dir() / f"{name}.dat", site / "data.d" / f"{name}.dat")
        shutil.copy(fixture_dir() / f"{name}.sln", site / "soln.d" / f"{name}.sln")
    return site.as_uri()


def test_qaplib_fetch_cli(mirror, tmp_path, capsys):
    cache = tmp_path / "cache"
    assert main(["qaplib", "fetch", "had12", "esc16f", "--base-url", mirror,
                 "--data-dir", str(cache)]) == 0
    out = capsys.readouterr().out
    assert (cache / "had12.dat").is_file() and (cache / "esc16f.sln").is_file()
    assert "had12" in out


def test_qaplib_fetch_unreachable(tmp_path):
    assert main(["qaplib", "fetch", "had12", "--base-url",
                 (tmp_path / "void").as_uri(), "--data-dir",
                 str(tmp_path / "cache")]) == 3


def test_qaplib_bench_bundled(tmp_path):
    out = tmp_path / "bench"
    assert main(["qaplib", "bench", "had12,esc16f", "--solver", "tabu",
                 "--steps", "2000", "--seed", "2", "--out", str(out)]) == 0
    rows = {r["instance"]: r for r in read_csv(out / "results.csv")}
    assert float(rows["had12"]["reference"]) == 1652 and rows["had12"]["gap"] != ""
    assert float(rows["had12"]["gap"]) >= 0.0
    # Zero-bound instance: flagged, absolute cost reported, no gap.
    assert rows["esc16f"]["flag"] == "zero_bound"
    assert rows["esc16f"]["gap"] == ""
    assert float(rows["esc16f"]["best_cost"]) == 0.0
    cats = read_csv(out / "categories.csv")
    assert [c["category"] for c in cats] == ["had"]  # esc excluded (no gap)


def test_qaplib_bench_missing_instance_hint(tmp_path, capsys):
    out = tmp_path / "bench"
    assert main(["qaplib", "bench", "nug30", "--data-dir",
                 str(tmp_path / "empty-cache"), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "qaplib fetch nug30" in err


# ---------------------------------------------------------------------------
# describe
# ---------------------------------------------------------------------------


def test_describe_default_and_checkpoint(trained, tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(SMALL_MODEL))
    assert main(["describe", "--config", str(cfg_path)]) == 0
    desc = json.loads(capsys.readouterr().out)
    assert desc["config"]["d_emb"] == 16
    assert desc["total_parameters"] == sum(e["count"] for e in desc["parameters"])

    run, _ = trained
    assert main(["describe", "--checkpoint", str(run / "policy.ckpt")]) == 0
    desc2 = json.loads(capsys.readouterr().out)
    assert desc2["meta"]["epoch"] == 1

    # A model key SawtConfig does not have (flow_mix was removed) is a usage error.
    cfg_path.write_text(json.dumps({"model": {"flow_mix": "product"}}))
    assert main(["describe", "--config", str(cfg_path)]) == 3
    assert "flow_mix" in capsys.readouterr().err


@pytest.mark.parametrize("config", [None, [16, 2], {"future_knob": 1}],
                         ids=["missing", "not-an-object", "unknown-key"])
def test_describe_checkpoint_with_bad_config_exits_3(tmp_path, capsys, config):
    from sawt_qap.nn import save_checkpoint

    header = {"kind": "sawt-policy", "meta": {}, "adam_step": None}
    if config is not None:
        header["config"] = config
    path = tmp_path / "bad.ckpt"
    save_checkpoint(path, {}, header)
    assert main(["describe", "--checkpoint", str(path)]) == 3
    assert capsys.readouterr().err.startswith("error: policy checkpoint")


# ---------------------------------------------------------------------------
# rerun / manifest reproducibility
# ---------------------------------------------------------------------------


def test_rerun_solve_bit_identical(gen_dir, tmp_path, capsys):
    out = tmp_path / "orig"
    assert main(["solve", "--instances", str(gen_dir), "--solver", "tabu",
                 "--steps", "300", "--seed", "13", "--out", str(out)]) == 0
    rerun_out = tmp_path / "again"
    assert main(["rerun", str(out / "manifest.json"), "--out", str(rerun_out)]) == 0
    assert "bit-identically" in capsys.readouterr().out
    assert (out / "results.csv").read_bytes() == (rerun_out / "results.csv").read_bytes()


def test_rerun_train_reproduces_checkpoint(trained, tmp_path, capsys):
    out, _ = trained
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == {"deterministic": ["policy.ckpt", "policy_best.ckpt"],
                                   "volatile": ["metrics.jsonl"]}
    assert main(["rerun", str(out / "manifest.json"), "--out", str(tmp_path / "again")]) == 0
    assert "reproduced 2 deterministic output file(s)" in capsys.readouterr().out


def test_rerun_detects_tampering(gen_dir, tmp_path, capsys):
    out = tmp_path / "orig"
    assert main(["solve", "--instances", str(gen_dir), "--solver", "greedy",
                 "--steps", "50", "--reference", "none", "--out", str(out)]) == 0
    csv_path = out / "results.csv"
    csv_path.write_text(csv_path.read_text().replace("greedy", "sneaky"))
    assert main(["rerun", str(out / "manifest.json"),
                 "--out", str(tmp_path / "again")]) == 3
    assert "bytes differ" in capsys.readouterr().err


def test_rerun_generate(tmp_path):
    out = tmp_path / "gen"
    assert main(["generate", "--n", "5", "--count", "2", "--seed", "4",
                 "--out", str(out)]) == 0
    assert main(["rerun", str(out / "manifest.json"),
                 "--out", str(tmp_path / "gen2")]) == 0


def test_rerun_replaces_out_spelled_with_equals(gen_dir, tmp_path, capsys):
    # rerun appends the new --out to the recorded argv; argparse keeps the last one.
    out = tmp_path / "orig"
    argv = ["solve", "--instances", str(gen_dir), "--solver", "greedy",
            "--steps", "50", "--reference", "none", f"--out={out}"]
    assert main(argv) == 0
    again = tmp_path / "again"
    assert main(["rerun", str(out / "manifest.json"), "--out", str(again)]) == 0
    assert "bit-identically" in capsys.readouterr().out
    replayed = json.loads((again / "manifest.json").read_text())["argv"]
    assert replayed == [*argv, "--out", str(again)]
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "results.csv",
                                                      "results.jsonl"]


def test_rerun_of_argv_with_double_dash(tmp_path, capsys):
    # After "--" every token is an instance name, so the new --out goes before it.
    out = tmp_path / "r1"
    argv = ["qaplib", "bench", "--steps", "10", "--out", str(out), "--", "had12"]
    assert main(argv) == 0
    again = tmp_path / "r2"
    assert main(["rerun", str(out / "manifest.json"), "--out", str(again)]) == 0
    assert "bit-identically" in capsys.readouterr().out
    assert (out / "results.csv").read_bytes() == (again / "results.csv").read_bytes()
    replayed = json.loads((again / "manifest.json").read_text())["argv"]
    assert replayed == [*argv[:-2], "--out", str(again), "--", "had12"]


def test_rerun_missing_manifest(tmp_path):
    assert main(["rerun", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "x")]) == 3


@pytest.mark.parametrize("command,content", [
    ("solve --reference", None),  # no such file
    ("solve --reference", "{not json"),
    ("solve --reference", "[1, 2]"),
    ("solve --reference", '{"rand6-s11": "cheap"}'),
    ("solve --reference", '{"rand6-s11": true}'),
    ("train --config", "{not json"),
    ("train --config", '{"model": [1, 2]}'),
    ("train --config", '{"train": {"epochs": 1.5}}'),
    ("train --config", '{"train": {"epochs": "3"}}'),
    ("train --config", '{"model": {"d_emb": 64.0}}'),
    ("describe --config", '["model"]'),
    ("rerun", "{not json"),
    ("rerun", '{"argv": "solve"}'),
])
def test_malformed_json_inputs_exit_3(gen_dir, tmp_path, capsys, command, content):
    path = tmp_path / "input.json"
    if content is not None:
        path.write_text(content)
    out = str(tmp_path / "run")
    argv = {
        "solve --reference": ["solve", "--instances", str(gen_dir), "--solver", "greedy",
                              "--steps", "10", "--reference", str(path), "--out", out],
        "train --config": ["train", "--config", str(path), "--out", out],
        "describe --config": ["describe", "--config", str(path)],
        "rerun": ["rerun", str(path), "--out", out],
    }[command]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("error:")
    assert not Path(out).exists()


# ---------------------------------------------------------------------------
# help coverage
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "cmd,flags",
    [
        (["generate"], ["--n", "--count", "--p", "--seed", "--out"]),
        (["solve"], ["--instances", "--solver", "--steps", "--checkpoint",
                     "--reference"]),
        (["train"], ["--data", "--epochs", "--batch-size", "--episode-length",
                     "--lr", "--resume", "--config"]),
        (["qaplib", "fetch"], ["--data-dir", "--base-url"]),
        (["qaplib", "bench"], ["--solver", "--steps", "--data-dir"]),
        (["describe"], ["--checkpoint", "--config"]),
        (["rerun"], ["--out"]),
    ],
)
def test_help_documents_flags(cmd, flags, capsys):
    with pytest.raises(SystemExit) as exc:
        main(cmd + ["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for flag in flags:
        assert flag in out, f"{' '.join(cmd)} --help missing {flag}"
