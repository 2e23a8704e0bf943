"""CLI: subcommands, exit codes, result files, manifest reproducibility."""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

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


def test_generate_count_zero_and_p_one(tmp_path):
    out = tmp_path / "empty"
    assert main(["generate", "--n", "4", "--count", "0", "--out", str(out)]) == 0
    assert json.loads((out / "index.json").read_text())["files"] == []

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
                 "--fp64-check", "--out", str(out)]) == 0
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
    from sawt_qap import cli

    assert main(["qaplib", "bench", "had12", "--steps", "200", "--fp64-check",
                 "--out", str(tmp_path / "ok")]) == 0
    monkeypatch.setattr(cli, "objective", lambda inst, sigma: objective(inst, sigma) + 1.0)
    assert main(["qaplib", "bench", "had12", "--steps", "200", "--fp64-check",
                 "--out", str(tmp_path / "bench")]) == 4
    assert main(["solve", "--instances", str(gen_dir), "--solver", "greedy", "--fp64-check",
                 "--reference", "none", "--out", str(tmp_path / "solve")]) == 4
    assert "fp64 re-verification" in capsys.readouterr().err


def test_solve_threads_do_not_change_output(gen_dir, tmp_path):
    args = ["solve", "--instances", str(gen_dir), "--solver", "tabu",
            "--steps", "300", "--seed", "5"]
    out1, out2 = tmp_path / "t1", tmp_path / "t4"
    assert main(args + ["--threads", "1", "--out", str(out1)]) == 0
    assert main(args + ["--threads", "4", "--out", str(out2)]) == 0
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()


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
    out = tmp_path / "run"
    assert main(["solve", "--instances", str(gen_dir), "--solver", "tabu",
                 "--steps", "200", "--record-trajectory", "--reference", "none",
                 "--out", str(out)]) == 0
    jrows = read_jsonl(out / "results.jsonl")
    for row in jrows:
        assert len(row["trajectory"]) >= 2
        # Trajectory tracks best-so-far: monotone nonincreasing.
        assert all(a >= b for a, b in zip(row["trajectory"], row["trajectory"][1:]))


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
        ("sm", ["--record-trajectory"], "--record-trajectory"),
        ("greedy", ["--record-trajectory"], "--record-trajectory"),
        ("sm", ["--checkpoint", "nonexistent.ckpt"], "--checkpoint"),
        ("tabu", ["--checkpoint", "nonexistent.ckpt"], "--checkpoint"),
        ("sawt", ["--checkpoint", "nonexistent.ckpt", "--record-trajectory"],
         "--record-trajectory"),
    ],
)
def test_solve_rejects_flags_its_solver_ignores(gen_dir, tmp_path, capsys, solver, flags,
                                                 named):
    # A solver-specific flag given to another solver is a validation error
    # (exit 3), raised before the run directory is made.
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
])
def test_train_rejects_bad_data_section(tmp_path, capsys, flags, data, key):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"data": data}))
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--n", "5", "--count", "2",
                 "--epochs", "1", "--eval-every", "1", *flags, "--out", str(out)]) == 3
    assert key in capsys.readouterr().err
    assert not out.exists()


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
                 "--steps", "2000", "--seed", "2", "--fp64-check",
                 "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["config"]["fp64_check"] is True
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


def test_rerun_missing_manifest(tmp_path):
    assert main(["rerun", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "x")]) == 3


@pytest.mark.parametrize("command,content", [
    ("solve --reference", None),  # no such file
    ("solve --reference", "{not json"),
    ("solve --reference", "[1, 2]"),
    ("solve --reference", '{"rand6-s11": "cheap"}'),
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
                     "--reference", "--record-trajectory", "--fp64-check"]),
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
