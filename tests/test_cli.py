"""End-to-end command pipeline: configs, manifests, artifacts, exit codes."""

import argparse
import functools
import os
import re
import shutil
import struct
import warnings

import numpy as np
import pytest

from stabnode import cli
from stabnode import metrics as mt
from stabnode import neural_ode as node
from stabnode import rom as rom_mod
from stabnode import spectral as sp


def run_cli(*argv):
    return cli.main(list(argv))


def tiny_vbe_args(out, seed="0"):
    return ["generate", "--system", "vbe", "--out", str(out),
            "--train-ics", "3", "--test-ics", "2", "--seed", seed,
            "--set", "d=64", "--set", "horizon=0.5", "--set", "solver_step=2.5e-3"]


def tiny_kse_args(out):
    return ["generate", "--system", "kse", "--out", str(out),
            "--set", "d=32", "--set", "horizon=30.0", "--set", "transient=20.0"]


class TestConfig:
    def test_parse_with_include(self, tmp_path):
        base = tmp_path / "base.cfg"
        base.write_text("seed=7\n# comment\nd=64\n")
        top = tmp_path / "top.cfg"
        top.write_text(f"include {base.name}\nseed=9\n")
        values = cli.parse_config_file(top)
        assert values == {"seed": "9", "d": "64"}

    def test_unknown_key_is_config_error(self, tmp_path):
        out = tmp_path / "x.snod"
        code = run_cli("generate", "--system", "vbe", "--out", str(out),
                       "--set", "tpyo=1")
        assert code == 2

    def test_auto_only_where_default_is_auto(self, tmp_path):
        out = tmp_path / "x.snod"
        assert run_cli(*tiny_vbe_args(out), "--set", "train_ics=auto") == 2
        assert not out.exists()

    def test_malformed_line_rejected(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("this is not a key value pair\n")
        with pytest.raises(cli.ConfigError):
            cli.parse_config_file(bad)

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("system=vbe\ntrain_ics=5\ntest_ics=0\nd=64\n"
                       "horizon=0.1\nsolver_step=2.5e-3\n"
                       f"out={tmp_path / 'a.snod'}\n")
        code = run_cli("generate", "--config", str(cfg), "--train-ics", "2")
        assert code == 0
        ds = sp.read_dataset(tmp_path / "a.snod")
        assert ds.n_traj == 2

    def test_dp_range_parsing(self):
        assert cli.parse_dp_list("4..8") == [4, 5, 6, 7, 8]
        assert cli.parse_dp_list("4..10..2") == [4, 6, 8, 10]
        assert cli.parse_dp_list("3,9,27") == [3, 9, 27]


class TestGenerate:
    def test_vbe_trajectory_count(self, tmp_path):
        out = tmp_path / "vbe.snod"
        assert run_cli(*tiny_vbe_args(out)) == 0
        ds = sp.read_dataset(out)
        assert ds.n_traj == 5
        assert ds.system == "vbe"
        assert os.path.exists(f"{out}.manifest.cfg")

    def test_kse_split_marker_in_manifest(self, tmp_path):
        out = tmp_path / "kse.snod"
        assert run_cli(*tiny_kse_args(out)) == 0
        sidecar = (tmp_path / "kse.snod.txt").read_text()
        assert "train_fraction=0.8" in sidecar
        ds = sp.read_dataset(out)
        assert ds.n_traj == 1

    def test_same_seed_identical_bytes(self, tmp_path):
        out1, out2 = tmp_path / "a.snod", tmp_path / "b.snod"
        run_cli(*tiny_vbe_args(out1))
        run_cli(*tiny_vbe_args(out2))
        assert out1.read_bytes() == out2.read_bytes()

    def test_batch_matches_single_seed_runs(self, tmp_path):
        # all ICs advance as one batch; the file equals single-seed runs stacked
        out = tmp_path / "batch.snod"
        assert run_cli(*tiny_vbe_args(out, seed="3")) == 0
        solo = [sp.generate_vbe_dataset(n_train=1, n_test=0, d=64, horizon=0.5,
                                        tau=0.05, dt=2.5e-3, base_seed=seed).values
                for seed in range(3, 8)]
        stacked = tmp_path / "stacked.snod"
        sp.write_dataset(sp.SnapshotDataset(np.concatenate(solo), 0.05, 1.0, "vbe"),
                         stacked)
        assert out.read_bytes() == stacked.read_bytes()

    def test_tau_not_multiple_of_step_config_error(self, tmp_path):
        # a step that does not divide tau, a tau that does not divide the
        # horizon, a KSE step that does not divide the transient: none is
        # rounded to a neighbouring span, and nothing is written
        out = tmp_path / "x.snod"
        for argv in ([*tiny_vbe_args(out), "--set", "solver_step=3e-3"],
                     [*tiny_vbe_args(out), "--set", "horizon=0.33"],
                     [*tiny_kse_args(out), "--set", "transient=10.01"]):
            assert run_cli(*argv) == 2
            assert not out.exists()

    def test_old_manifest_with_threads_reruns(self, tmp_path):
        # manifests of older versions carry threads=; the key is dropped
        out = tmp_path / "a.snod"
        run_cli(*tiny_vbe_args(out))
        first = out.read_bytes()
        manifest = tmp_path / "old.cfg"
        manifest.write_text(open(f"{out}.manifest.cfg").read() + "threads=2\n")
        out.unlink()
        assert run_cli("generate", "--config", str(manifest)) == 0
        assert out.read_bytes() == first

    def test_threads_flag_removed(self, tmp_path):
        with pytest.raises(SystemExit):
            run_cli(*tiny_vbe_args(tmp_path / "x.snod"), "--threads", "2")

    def test_rerun_from_manifest_identical(self, tmp_path):
        out = tmp_path / "a.snod"
        run_cli(*tiny_vbe_args(out))
        first = out.read_bytes()
        manifest = f"{out}.manifest.cfg"
        out.unlink()
        assert run_cli("generate", "--config", manifest) == 0
        assert out.read_bytes() == first

    def test_blow_up_exit_code(self, tmp_path, capsys):
        # Burgers blows up while recording, KSE (a step of 5) in its transient;
        # neither writes a file or a directory: the output's parent is made after
        for system, settings in [
                ("vbe", ["--train-ics", "1", "--test-ics", "0", "--set", "d=64",
                         "--set", "horizon=3.0", "--set", "tau=0.5",
                         "--set", "solver_step=0.5"]),
                ("kse", ["--set", "d=32", "--set", "horizon=50", "--set", "tau=5",
                         "--set", "solver_step=5", "--set", "transient=100", "--seed", "5"])]:
            out = tmp_path / f"newdir-{system}" / "bad.snod"
            code = run_cli("generate", "--system", system, "--out", str(out), *settings)
            assert code == 3
            seed = 5 if system == "kse" else 0
            assert f"(seed {seed}) went non-finite by t = " in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_data_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SNODE_DATA_DIR", str(tmp_path))
        assert run_cli(*tiny_vbe_args("rel.snod")) == 0
        assert (tmp_path / "rel.snod").exists()


@pytest.fixture(scope="module")
def vbe_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "vbe.snod"
    run_cli(*tiny_vbe_args(out))
    return out


@pytest.fixture(scope="module")
def kse_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("ksedata") / "kse.snod"
    run_cli(*tiny_kse_args(out))
    return out


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, vbe_dataset):
    out = tmp_path_factory.mktemp("run")
    code = run_cli("train", "--dataset", str(vbe_dataset), "--variant",
                   "learned-linear", "--out", str(out), "--epochs", "30",
                   "--set", "hidden=24", "--set", "batch_size=16",
                   "--set", "stencil_init_scale=0.5")
    assert code == 0
    return out


@pytest.fixture(scope="module")
def kse_checkpoint(tmp_path_factory, kse_dataset):
    out = tmp_path_factory.mktemp("kserun")
    assert run_cli("train", "--dataset", str(kse_dataset), "--variant", "nonlinear",
                   "--out", str(out), "--epochs", "1", "--set", "hidden=4") == 0
    return out / "model.snck"


def learned_linear_checkpoint(path, d, taps, system):
    """An untrained learned-linear checkpoint with the given stencil taps."""
    model = node.build_model("learned-linear", [d, 8, d], ["relu", "linear"],
                             ("normal", 0.0, 1e-4), 0, stencil_width=len(taps))
    model.linear.taps[:] = taps
    node.save_model(path, model, sidecar={"system": system, "epochs_completed": 0,
                                          "domain_length": {"vbe": 1.0, "kse": 22.0}[system],
                                          "variant": "learned-linear"})
    return path


class TestTrain:
    def test_artifacts_written(self, trained_dir):
        assert (trained_dir / "model.snck").exists()
        assert (trained_dir / "model.snck.opt").exists()
        assert (trained_dir / "manifest-train.cfg").exists()
        log = (trained_dir / "loss.log").read_text().splitlines()
        assert log[0].startswith("# epoch")
        assert len(log) == 31

    def test_loss_decreases(self, trained_dir):
        rows = [line.split("\t") for line in
                (trained_dir / "loss.log").read_text().splitlines()[1:]]
        losses = [float(r[-1]) for r in rows]
        assert losses[-1] < losses[0]

    def test_deterministic_checkpoints(self, tmp_path, vbe_dataset):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            code = run_cli("train", "--dataset", str(vbe_dataset), "--variant",
                           "nonlinear", "--out", str(out), "--epochs", "10",
                           "--set", "hidden=16", "--set", "batch_size=8")
            assert code == 0
            outs.append((out / "model.snck").read_bytes())
        assert outs[0] == outs[1]

    def test_resume_bit_compatible(self, tmp_path, vbe_dataset):
        # single-stage learning rates so partial schedules agree
        common = ["--dataset", str(vbe_dataset), "--variant", "learned-linear",
                  "--set", "hidden=16", "--set", "batch_size=8",
                  "--set", "lr_nonlinear=1e-3", "--set", "lr_linear=0.1"]
        straight = tmp_path / "straight"
        assert run_cli("train", *common, "--out", str(straight),
                       "--epochs", "20") == 0
        half = tmp_path / "half"
        assert run_cli("train", *common, "--out", str(half),
                       "--epochs", "10") == 0
        resumed = tmp_path / "resumed"
        assert run_cli("train", *common, "--out", str(resumed),
                       "--epochs", "20",
                       "--resume", str(half / "model.snck")) == 0
        assert ((straight / "model.snck").read_bytes()
                == (resumed / "model.snck").read_bytes())

    @pytest.mark.parametrize("damage", ["half", "header", "padded", "system-tag",
                                        "nan"])
    def test_corrupt_dataset_io_error(self, tmp_path, vbe_dataset, damage, capsys):
        # "nan": the first payload value, after the 37-byte header (train split)
        data = vbe_dataset.read_bytes()
        nan = struct.pack("<d", np.nan)
        bad = tmp_path / "bad.snod"
        bad.write_bytes({"half": data[:len(data) // 2], "header": data[:20],
                         "padded": data + b"junk",
                         "system-tag": data[:36] + bytes([7]) + data[37:],
                         "nan": data[:37] + nan + data[45:]}[damage])
        code = run_cli("train", "--dataset", str(bad), "--variant", "nonlinear",
                       "--out", str(tmp_path / "o"), "--epochs", "1",
                       "--set", "hidden=4")
        assert code == 4
        assert str(bad) in capsys.readouterr().err

    def test_diverged_training_loss_log(self, tmp_path, vbe_dataset):
        # epochs 0-1 at the linear rate 1e-3; epoch 2's step of 1e20 on the taps
        # makes epoch 3's RK4 overflow
        common = ["--dataset", str(vbe_dataset), "--variant", "learned-linear",
                  "--epochs", "4", "--set", "hidden=8", "--set", "batch_size=8"]
        out = tmp_path / "diverged"
        assert run_cli("train", *common, "--out", str(out),
                       "--set", "lr_linear=1e-3,1e20") == 3
        # the same run at a small second rate: the same first three losses
        calm = tmp_path / "calm"
        assert run_cli("train", *common, "--out", str(calm),
                       "--set", "lr_linear=1e-3,1e-3") == 0
        losses = [line.split("\t")[-1]
                  for line in (calm / "loss.log").read_text().splitlines()[1:4]]
        # each finished epoch's real stage and rates, epoch 2 at the rate 1e20
        assert (out / "loss.log").read_text() == (
            "# epoch\tstage\tlr_nonlinear\tlr_linear\tloss\n"
            f"0\t0\t1.000e-03\t1.000e-03\t{losses[0]}\n"
            f"1\t0\t1.000e-03\t1.000e-03\t{losses[1]}\n"
            f"2\t1\t1.000e-04\t1.000e+20\t{losses[2]}\n")
        assert (out / "model.snck").exists()
        # the checkpoint is the state before the diverged epoch
        sidecar = sp.read_sidecar(f"{out / 'model.snck'}.txt")
        assert sidecar["epochs_completed"] == 3

    def test_resume_into_fresh_directory_one_header(self, tmp_path, vbe_dataset):
        common = ["--dataset", str(vbe_dataset), "--variant", "learned-linear",
                  "--set", "hidden=8", "--set", "batch_size=8",
                  "--set", "lr_nonlinear=1e-3", "--set", "lr_linear=0.1"]
        straight, half, resumed = tmp_path / "straight", tmp_path / "half", tmp_path / "r"
        assert run_cli("train", *common, "--out", str(straight), "--epochs", "4") == 0
        assert run_cli("train", *common, "--out", str(half), "--epochs", "2") == 0
        assert run_cli("train", *common, "--out", str(resumed), "--epochs", "4",
                       "--resume", str(half / "model.snck")) == 0
        lines = (straight / "loss.log").read_text().splitlines()
        assert (resumed / "loss.log").read_text().splitlines() == lines[:1] + lines[3:]

    def test_resume_in_place_then_diverged_keeps_rows(self, tmp_path, vbe_dataset):
        common = ["--dataset", str(vbe_dataset), "--variant", "learned-linear",
                  "--set", "hidden=8", "--set", "batch_size=8",
                  "--set", "lr_nonlinear=1e-3"]
        out = tmp_path / "run"
        assert run_cli("train", *common, "--out", str(out), "--epochs", "4",
                       "--set", "lr_linear=1e-3") == 0
        first = (out / "loss.log").read_text()
        # epochs 4-7 take the linear rate 1e20, so epoch 5's RK4 overflows
        assert run_cli("train", *common, "--out", str(out), "--epochs", "8",
                       "--set", "lr_linear=1e-3,1e20",
                       "--resume", str(out / "model.snck")) == 3
        text = (out / "loss.log").read_text()
        assert text.startswith(first)
        rest = text[len(first):].splitlines()
        assert len(rest) == 1 and rest[0].startswith("4\t0\t1.000e-03\t1.000e+20\t")
        assert sp.read_sidecar(f"{out / 'model.snck'}.txt")["epochs_completed"] == 5

    def test_resume_width_mismatch_writes_nothing(self, tmp_path, kse_dataset,
                                                  trained_dir, capsys):
        out = tmp_path / "o"
        assert run_cli("train", "--dataset", str(kse_dataset), "--variant",
                       "learned-linear", "--out", str(out), "--epochs", "4",
                       "--resume", str(trained_dir / "model.snck")) == 2
        assert "checkpoint width 64" in capsys.readouterr().err
        assert not list(out.glob("*"))

    def test_checkpoint_every(self, tmp_path, vbe_dataset, monkeypatch):
        common = ["--dataset", str(vbe_dataset), "--variant", "learned-linear",
                  "--epochs", "5", "--set", "hidden=8", "--set", "batch_size=8"]
        saved = []
        save_model, save_opt_state = node.save_model, node.save_opt_state

        def recording_save_model(path, model, sidecar=None):
            save_model(path, model, sidecar=sidecar)
            saved.append(sidecar["epochs_completed"])

        def keeping_save_opt_state(path, adam):
            # keep a copy of every checkpoint, named by its epochs_completed
            save_opt_state(path, adam)
            keep = tmp_path / f"epoch{saved[-1]}"
            keep.mkdir(exist_ok=True)
            for suffix in ("", ".txt", ".opt"):
                shutil.copy(f"{os.path.splitext(path)[0]}{suffix}",
                            keep / f"model.snck{suffix}")

        monkeypatch.setattr(node, "save_model", recording_save_model)
        monkeypatch.setattr(node, "save_opt_state", keeping_save_opt_state)
        straight = tmp_path / "straight"
        assert run_cli("train", *common, "--out", str(straight),
                       "--set", "checkpoint_every=2") == 0
        assert saved == [2, 4, 5]
        monkeypatch.undo()
        resumed = tmp_path / "resumed"
        assert run_cli("train", *common, "--out", str(resumed),
                       "--resume", str(tmp_path / "epoch4" / "model.snck")) == 0
        assert ((straight / "model.snck").read_bytes()
                == (resumed / "model.snck").read_bytes())

    def test_checkpoint_every_dividing_epochs_saves_last_once(self, tmp_path, vbe_dataset,
                                                               monkeypatch):
        saved = []
        save_model = node.save_model

        def recording_save_model(path, model, sidecar=None):
            save_model(path, model, sidecar=sidecar)
            saved.append(sidecar["epochs_completed"])

        monkeypatch.setattr(node, "save_model", recording_save_model)
        assert run_cli("train", "--dataset", str(vbe_dataset), "--variant",
                       "learned-linear", "--epochs", "4", "--set", "hidden=8",
                       "--set", "batch_size=8", "--set", "checkpoint_every=2",
                       "--out", str(tmp_path / "run")) == 0
        assert saved == [2, 4]

    @pytest.mark.parametrize("epochs,setting,code,message", [
        (4, [], 0, "nothing to train"), (2, [], 2, "4 epochs completed"),
        (6, ["--variant", "nonlinear"], 2, "variant=nonlinear"),
        (6, ["--set", "hidden=8,8"], 2, "hidden=8,8"),
        (6, ["--set", "activation=sigmoid"], 2, "activation=sigmoid")],
        ids=["at-the-end", "past-the-end", "other-variant", "other-hidden",
             "other-activation"])
    def test_resume_at_or_past_the_end_rewrites_nothing(self, tmp_path, vbe_dataset,
                                                        epochs, setting, code, message,
                                                        capsys):
        # a variant, hidden or activation that contradicts the checkpoint would
        # train it as another model: rejected before any file is touched
        common = ["--dataset", str(vbe_dataset), "--variant", "learned-linear",
                  "--set", "hidden=8", "--set", "batch_size=8"]
        out = tmp_path / "run"
        assert run_cli("train", *common, "--out", str(out), "--epochs", "4") == 0
        files = [out / name for name in ("model.snck", "model.snck.opt",
                                         "model.snck.txt", "loss.log",
                                         "manifest-train.cfg")]
        before = [f.read_bytes() for f in files]
        capsys.readouterr()
        assert run_cli("train", *common, *setting, "--out", str(out),
                       "--epochs", str(epochs), "--resume", str(out / "model.snck")) == code
        assert [f.read_bytes() for f in files] == before
        captured = capsys.readouterr()
        assert message in (captured.out if code == 0 else captured.err)
        if setting:
            assert "contradict the checkpoint" in captured.err

    def test_resume_into_fresh_directory_at_the_end_makes_nothing(self, tmp_path,
                                                                 vbe_dataset, trained_dir):
        # the checkpoint has all 30 epochs completed: no epoch to train, no output
        out = tmp_path / "o"
        assert run_cli("train", "--dataset", str(vbe_dataset),
                       "--variant", "learned-linear", "--out", str(out),
                       "--epochs", "30", "--set", "hidden=24",
                       "--resume", str(trained_dir / "model.snck")) == 0
        assert not out.exists()

    @pytest.mark.parametrize("run,lines", [
        ("trained_dir", ["activation=relu", "stencil_width=3", "stencil_symmetric=true",
                         "stencil_init_kind=normal", "stencil_init_scale=0.5",
                         "lr_nonlinear=0.001,0.0001", "lr_linear=1.0,0.1,0.01"]),
        ("kse_checkpoint", ["activation=sigmoid", "stencil_width=5",
                            "stencil_symmetric=false", "stencil_init_kind=uniform",
                            "stencil_init_scale=0.5773502691896257",
                            "lr_nonlinear=0.001,0.0001", "lr_linear="])],
        ids=["vbe-learned-linear", "kse-nonlinear"])
    def test_auto_keys_resolve_to_the_system_defaults(self, request, run, lines):
        # the manifest is the resolved config: each auto key takes its system's
        # value, the learning rates those of the system and variant
        out = request.getfixturevalue(run)
        out = out if out.is_dir() else out.parent
        manifest = (out / "manifest-train.cfg").read_text().splitlines()
        assert set(lines) <= set(manifest)

    def test_linear_hidden_activation_accepted(self, tmp_path, kse_dataset):
        assert run_cli("train", "--dataset", str(kse_dataset), "--variant", "nonlinear",
                       "--out", str(tmp_path / "o"), "--epochs", "1", "--set", "hidden=4",
                       "--set", "activation=linear") == 0

    def test_missing_dataset_io_error(self, tmp_path):
        code = run_cli("train", "--dataset", str(tmp_path / "nope.snod"),
                       "--variant", "nonlinear", "--out", str(tmp_path / "o"))
        assert code == 4

    def test_fixed_linear_stiff_substep_config_error(self, tmp_path, kse_dataset,
                                                     capsys):
        # d = 32, L = 22: h * min(symbol) = 0.05 * -415 at the default 5 substeps
        common = ["--dataset", str(kse_dataset), "--variant", "fixed-linear",
                  "--epochs", "1", "--set", "hidden=4", "--set", "batch_size=8"]
        assert run_cli("train", *common, "--out", str(tmp_path / "a")) == 2
        need = int(re.search(r"rollout_steps=(\d+) or more",
                             capsys.readouterr().err).group(1))
        assert run_cli("train", *common, "--out", str(tmp_path / "b"),
                       "--set", f"rollout_steps={need - 1}") == 2
        run_dir = tmp_path / "c"
        assert run_cli("train", *common, "--out", str(run_dir),
                       "--set", f"rollout_steps={need}") == 0
        evaluate = ["evaluate", "--dataset", str(kse_dataset), "--checkpoint",
                    str(run_dir / "model.snck"), "--out", str(tmp_path / "e"),
                    "--set", "n_ics=1", "--set", "horizon=0.5"]
        assert run_cli(*evaluate) == 2
        assert run_cli(*evaluate, "--set", f"rollout_steps={need}") == 0


@pytest.mark.parametrize("command", ["train", "evaluate", "rom"])
def test_checkpoint_of_another_width_exits_2_before_any_output(tmp_path, kse_dataset,
                                                               trained_dir, command, capsys):
    # a d=64 learned-linear checkpoint of 30 epochs against a d=32 dataset; train
    # names the width before the epochs completed past its 4
    ckpt, out = str(trained_dir / "model.snck"), tmp_path / "o"
    argv = {"train": ["--variant", "learned-linear", "--epochs", "4", "--resume", ckpt],
            "evaluate": ["--checkpoint", ckpt, "--set", "n_ics=1"],
            "rom": ["--rhs", ckpt, "--mode", "galerkin", "--dp", "3",
                    "--set", "total_time=1"]}[command]
    assert run_cli(command, "--dataset", str(kse_dataset), "--out", str(out), *argv) == 2
    assert ("checkpoint width 64 does not match the dataset width 32"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("setting, error", [
    ("d=33", "grid size must be even and >= 4, got 33"),
    ("d=2", "grid size must be even and >= 4, got 2"),
    # the domain is refused before the initial conditions' energy budget is drawn
    ("domain_length=-22", "domain length must be > 0, got -22.0"),
    ("domain_length=0", "domain length must be > 0, got 0.0")],
    ids=["33", "2", "L=-22", "L=0"])
@pytest.mark.parametrize("system", ["vbe", "kse"])
def test_odd_or_tiny_grid_exits_2_before_anything_is_solved(tmp_path, system, setting, error,
                                                           capsys, monkeypatch):
    def advance(*args, **kwargs):
        raise AssertionError("solved")
    monkeypatch.setattr(sp._Solver, "advance", advance)
    out = tmp_path / "newdir" / "x.snod"
    argv = tiny_vbe_args(out) if system == "vbe" else tiny_kse_args(out)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(*argv, "--set", setting) == 2
    assert error in capsys.readouterr().err
    assert not (tmp_path / "newdir").exists()


@pytest.mark.parametrize("d, length, error", [
    (33, 22.0, "grid size must be even and >= 4, got 33"),
    (2, 22.0, "grid size must be even and >= 4, got 2"),
    (64, -22.0, "domain length must be > 0, got -22.0")], ids=["33", "2", "L=-22"])
@pytest.mark.parametrize("command", ["train", "evaluate", "rom"])
def test_dataset_of_an_odd_or_tiny_grid_exits_4_before_any_output(tmp_path, trained_dir,
                                                                  command, d, length, error,
                                                                  capsys):
    # as the generator wrote a KSE grid before it refused one: a d=33 grid's
    # 17-entry symbol reads as d=32's, and d=2 made a 2-point basis; a negative
    # domain length flipped the sign of every wavenumber
    grid = 22.0 * np.arange(d) / d
    values = np.stack([np.sin(2 * np.pi * grid / 22.0 + 0.1 * t) for t in range(41)])
    data = tmp_path / "k.snod"
    sp.write_dataset(sp.SnapshotDataset(values[None], 0.25, length, "kse"), data)
    ckpt, out = str(trained_dir / "model.snck"), tmp_path / "o"
    argv = {"train": ["--variant", "learned-linear", "--epochs", "1"],
            "evaluate": ["--checkpoint", ckpt, "--set", "n_ics=1"],
            "rom": ["--mode", "galerkin", "--dp", "1", "--set", "total_time=1"]}[command]
    assert run_cli(command, "--dataset", str(data), "--out", str(out), *argv) == 4
    assert f"{data}: {error}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,setting", [
    ("train", "rollout_steps=0"), ("train", "batch_size=0"), ("train", "epochs=0"),
    ("train", "epochs=-3"), ("evaluate", "rollout_steps=0"),
    ("evaluate", "n_ics=0"), ("train", "hidden=0"), ("train", "hidden=16,0"),
    # a non-finite float is refused by its key, a negative rate by TrainConfig
    ("train", "lr_nonlinear=nan"), ("train", "lr_nonlinear=inf"),
    ("train", "weight_init_variance=nan"), ("train", "lr_nonlinear=-1e-3"),
    ("train", "lr_linear=1,-1"), ("evaluate", "noise=grid:nan"),
    ("evaluate", "noise=grid:inf")])
def test_non_positive_setting_config_error(tmp_path, vbe_dataset, trained_dir,
                                           command, setting, capsys):
    argv = {"train": ["train", "--variant", "nonlinear", "--set", "hidden=4"],
            "evaluate": ["evaluate", "--checkpoint", str(trained_dir / "model.snck"),
                         "--set", "horizon=0.1"]}[command]
    code = run_cli(*argv, "--dataset", str(vbe_dataset), "--out", str(tmp_path / "o"),
                   "--set", setting)
    assert code == 2
    assert setting.split("=")[0] in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ["train", "--set", "variant=bogus"],
    ["train", "--variant", "learned-linear", "--set", "activation=tanh"],
    ["train", "--variant", "learned-linear", "--set", "hidden=8,x"],
    ["train", "--variant", "learned-linear", "--set", "stencil_width=4"],
    ["train", "--variant", "learned-linear", "--set", "stencil_width=33"],
    ["train", "--variant", "learned-linear", "--set", "stencil_init_kind=bogus"],
    ["rom", "--dp", "7", "--set", "mode=bogus"],
    ["rom", "--dp", "40"],
    ["rom", "--dp", "7", "--set", "ic_index=121"],
    *(["rom", "--dp", str(d_p)] for d_p in range(7)),
    ["rom", "--dp", "8", "--sort", "variance"],
    ["rom", "--dp", "9..8"],
    ["rom", "--dp", "8", "--set", "total_time=1.1"],
    ["evaluate", "--noise", "fourier:0.1:0:100"],
    ["evaluate", "--set", "horizon=1.1"],
    ["evaluate", "--metric", "pdf", "--set", "pdf_time=1.1"],
    ["evaluate", "--metric", "spectrum", "--times", "0.3"],
    ["evaluate", "--metric", "spectrum", "--times", "0.5,1.25"],
    ["evaluate", "--metric", "lyapunov", "--set", "lyapunov_total_time=10.5"],
    ["evaluate", "--metric", "lyapunov", "--set", "lyapunov_total_time=1.0"],
    ["rom", "--dp", "7", "--set", "reference=bogus"],
    ["rom", "--dp", "7", "--set", "sort=bogus"],
    # rom has no seed: nothing in it is random
    ["rom", "--dp", "7", "--set", "seed=1"],
    ["evaluate", "--set", "metric=bogus"],
    ["evaluate", "--metric", "bogus"],
    ["generate", "--system", "vbe", "--set", "train_ics=0"],
    ["generate", "--system", "vbe", "--train-ics", "0"],
    # a negative test count would shorten the ensemble under its sidecar's split
    ["generate", "--system", "vbe", "--train-ics", "3", "--test-ics", "-1"],
    ["generate", "--system", "vbe", "--set", "test_ics=-1"],
    # a KSE cut outside (0, 1] would be taken from the end, or keep nothing
    *(["generate", "--system", "kse", "--set", f"train_fraction={f}"]
      for f in ("-0.25", "0", "1.5", "nan")),
    # refused before basis.sneb is written, and before the evaluate rollout
    ["rom", "--dp", "7", "--set", "pdf_bins=0"],
    ["evaluate", "--metric", "pdf", "--set", "pdf_bins=0"],
    # zero iterations would label a plain Galerkin row nlg
    ["rom", "--dp", "7", "--set", "slaving_iterations=0"],
    # a negative seed is refused by its key, before numpy sees it
    ["generate", "--system", "vbe", "--seed", "-1"],
    ["train", "--variant", "learned-linear", "--seed", "-1"],
    ["evaluate", "--noise", "grid:0.01", "--seed", "-1"],
    # a negative period would save as its absolute value does
    ["train", "--variant", "learned-linear", "--set", "checkpoint_every=-2"],
    # a non-finite viscosity, and a negative normal init variance, which numpy's
    # sqrt turns into nan weights
    ["generate", "--system", "vbe", "--train-ics", "1", "--set", "d=64",
     "--set", "viscosity=nan"],
    ["train", "--variant", "learned-linear", "--set", "weight_init_variance=-1"],
    ["train", "--variant", "learned-linear", "--set", "stencil_init_kind=normal",
     "--set", "stencil_init_scale=-1"],
    # malformed values and flags, each refused before anything is read
    ["rom", "--dp", "1..2..3..4"],
    ["rom", "--dp", "7", "--set", "total_time"],
    ["evaluate", "--noise", "grid:0.1:3"],
    ["generate", "--system", "bogus"]],
    ids=lambda argv: " ".join(argv))
def test_bad_setting_config_error(tmp_path, kse_dataset, kse_checkpoint, argv, capsys):
    # d = 32 KSE; the rom cases use the default nlg mode, whose slaved trailing
    # set may not hold the mean mode's zero eigenvalue
    dataset = ["--dataset", str(kse_dataset)]
    extra = {"generate": [],
             "train": [*dataset, "--epochs", "1", "--set", "hidden=4"],
             "rom": [*dataset, "--rhs", "true", "--set", "total_time=1.0"],
             "evaluate": [*dataset, "--checkpoint", str(kse_checkpoint),
                          "--set", "horizon=1.0"]}[argv[0]]
    code = run_cli(argv[0], *extra, *argv[1:], "--out", str(tmp_path / "o"))
    assert code == 2
    assert capsys.readouterr().err.startswith("config error: ")
    # nothing is written, not even an empty output directory
    assert not (tmp_path / "o").exists()
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["generate", "train", "evaluate"])
def test_negative_seed_names_the_key(tmp_path, kse_dataset, kse_checkpoint, command, capsys):
    # the output's parent directory is not made either
    extra = {"generate": ["--system", "kse"],
             "train": ["--dataset", str(kse_dataset), "--variant", "learned-linear"],
             "evaluate": ["--dataset", str(kse_dataset), "--checkpoint", str(kse_checkpoint),
                          "--noise", "grid:0.01"]}[command]
    out = tmp_path / "newdir" / ("x.snod" if command == "generate" else "o")
    assert run_cli(command, *extra, "--seed", "-1", "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith("config error: seed must be at least 0")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, message", [
    (["train", "--variant", "learned-linear", "--set", "stencil_symmetric=maybe"],
     "bad value for 'stencil_symmetric': 'maybe' (expected a boolean"),
    (["train", "--variant", "nonlinear"], "missing required key 'dataset'"),
    (["evaluate", "--checkpoint", "model.snck"], "missing required key 'dataset'"),
    (["rom", "--dp", "7"], "missing required key 'dataset'")],
    ids=["stencil_symmetric=maybe", "train-no-dataset", "evaluate-no-dataset",
         "rom-no-dataset"])
def test_bad_or_missing_key_is_named(tmp_path, kse_dataset, argv, message, capsys):
    dataset = [] if "dataset" in message else ["--dataset", str(kse_dataset)]
    assert run_cli(*argv, *dataset, "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err.startswith(f"config error: {message}")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("spelling", ["false", "no", "0", "FALSE"])
def test_false_spellings_train_an_asymmetric_stencil(tmp_path, vbe_dataset, spelling):
    out = tmp_path / "o"
    assert run_cli("train", "--dataset", str(vbe_dataset), "--variant", "learned-linear",
                   "--out", str(out), "--epochs", "1", "--set", "hidden=4",
                   "--set", f"stencil_symmetric={spelling}") == 0
    manifest = (out / "manifest-train.cfg").read_text().splitlines()
    assert "stencil_symmetric=false" in manifest


@pytest.mark.parametrize("command,flags", [
    ("generate", "--system --out --train-ics --test-ics --horizon --seed"),
    ("train", "--dataset --variant --out --epochs --seed --resume"),
    ("evaluate", "--dataset --checkpoint --out --metric --noise --times --seed"),
    ("rom", "--dataset --rhs --mode --sort --dp --out"),
    ("stencil-report", "--checkpoint --out")])
def test_flags_come_from_the_schema(command, flags):
    # the schema declares which keys have a flag; every subcommand also keeps
    # --config and --set
    subs = next(action for action in cli.build_parser()._actions
                if isinstance(action, argparse._SubParsersAction))
    options = {option for action in subs.choices[command]._actions
               for option in action.option_strings}
    assert options == {"-h", "--help", "--config", "--set", *flags.split()}


class TestDatasetSidecar:
    """The .txt sidecar a dataset's physics, split and initial conditions come from."""

    def _outputs(self, data, kind, tmp):
        if kind == "vbe":
            train = ["--variant", "fixed-linear"]
            rom = ["--mode", "galerkin", "--set", "ic_index=1"]
            horizon = "0.2"
        else:
            train = ["--variant", "learned-linear"]
            rom = ["--mode", "galerkin", "--sort", "variance", "--set", "ic_index=3"]
            horizon = "2.0"
        assert run_cli("train", "--dataset", str(data), *train, "--out", str(tmp / "t"),
                       "--epochs", "3", "--set", "hidden=8",
                       "--set", "batch_size=8") == 0
        assert run_cli("evaluate", "--dataset", str(data), "--checkpoint",
                       str(tmp / "t" / "model.snck"), "--out", str(tmp / "e"),
                       "--set", "n_ics=2", "--set", f"horizon={horizon}") == 0
        assert run_cli("rom", "--dataset", str(data), "--rhs", "true", "--dp", "8",
                       *rom, "--out", str(tmp / "r"), "--set", "total_time=1.0") == 0
        rows = [line.split(",")[:4] for line in
                (tmp / "r" / "rom.csv").read_text().splitlines()]
        return ([(tmp / name).read_bytes() for name in
                 ("t/model.snck", "t/model.snck.txt", "t/loss.log", "e/error.csv",
                  "r/basis.sneb", "r/reference_pdf.snpd")], rows)

    @pytest.mark.parametrize("kind", ["vbe", "kse"])
    def test_fallbacks_match_generator_defaults(self, tmp_path, kse_dataset, kind):
        # the sidecar holds the generator's defaults (viscosity 8e-4, solver step
        # 1e-3 for VBE or 0.05 for KSE, train_fraction 0.8), so without them
        # every output must stay the same; the VBE split is no physics default
        # (without it the ensemble is its own test set), so that line stays
        with_txt = tmp_path / "with"
        with_txt.mkdir()
        if kind == "vbe":
            assert run_cli("generate", "--system", "vbe", "--out",
                           str(with_txt / "d.snod"), "--train-ics", "3",
                           "--test-ics", "2", "--set", "d=32",
                           "--set", "horizon=0.3") == 0
        else:
            (with_txt / "d.snod").write_bytes(kse_dataset.read_bytes())
            (with_txt / "d.snod.txt").write_text(open(f"{kse_dataset}.txt").read())
        assert "solver_step=" in (with_txt / "d.snod.txt").read_text()
        bare = tmp_path / "bare"
        bare.mkdir()
        (bare / "d.snod").write_bytes((with_txt / "d.snod").read_bytes())
        if kind == "vbe":
            (bare / "d.snod.txt").write_text("train_trajectories=3\n")
        assert (self._outputs(with_txt / "d.snod", kind, with_txt)
                == self._outputs(bare / "d.snod", kind, bare))

    @pytest.mark.parametrize("command", ["train", "evaluate", "rom"])
    def test_bad_number_io_error(self, tmp_path, kse_dataset, kse_checkpoint, command,
                                 capsys):
        data = tmp_path / "d.snod"
        data.write_bytes(kse_dataset.read_bytes())
        (tmp_path / "d.snod.txt").write_text("system=kse\nsolver_step=abc\n")
        argv = {"train": ["train", "--variant", "nonlinear", "--set", "hidden=4"],
                "evaluate": ["evaluate", "--checkpoint", str(kse_checkpoint)],
                "rom": ["rom", "--rhs", "true", "--dp", "7"]}[command]
        code = run_cli(*argv, "--dataset", str(data), "--out", str(tmp_path / "o"))
        assert code == 4
        err = capsys.readouterr().err
        assert f"{data}.txt" in err and "solver_step" in err


    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_train_trajectories_below_one_io_error(self, tmp_path, vbe_dataset,
                                                   trained_dir, command, capsys):
        data = tmp_path / "d.snod"
        data.write_bytes(vbe_dataset.read_bytes())
        (tmp_path / "d.snod.txt").write_text(
            open(f"{vbe_dataset}.txt").read().replace("train_trajectories=3",
                                                      "train_trajectories=0"))
        argv = {"train": ["train", "--variant", "nonlinear", "--set", "hidden=4"],
                "evaluate": ["evaluate", "--checkpoint",
                             str(trained_dir / "model.snck")]}[command]
        code = run_cli(*argv, "--dataset", str(data), "--out", str(tmp_path / "o"))
        assert code == 4
        err = capsys.readouterr().err
        assert f"{data}.txt" in err and "train_trajectories" in err

    @pytest.mark.parametrize("fraction", ["-0.25", "0", "1.5"])
    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_train_fraction_outside_unit_interval_io_error(self, tmp_path, kse_dataset,
                                                           kse_checkpoint, command,
                                                           fraction, capsys):
        data = tmp_path / "d.snod"
        data.write_bytes(kse_dataset.read_bytes())
        (tmp_path / "d.snod.txt").write_text(
            open(f"{kse_dataset}.txt").read().replace("train_fraction=0.8",
                                                      f"train_fraction={fraction}"))
        argv = {"train": ["train", "--variant", "nonlinear", "--set", "hidden=4"],
                "evaluate": ["evaluate", "--checkpoint", str(kse_checkpoint)]}[command]
        code = run_cli(*argv, "--dataset", str(data), "--out", str(tmp_path / "o"))
        assert code == 4
        err = capsys.readouterr().err
        assert f"{data}.txt" in err and "train_fraction" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("viscosity", ["-0.1", "0", "inf", "nan"])
    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_viscosity_not_positive_and_finite_io_error(self, tmp_path, vbe_dataset,
                                                        trained_dir, command, viscosity,
                                                        capsys):
        # an anti-diffusive or non-finite operator is refused as read, not trained or
        # blamed on the ground truth
        data = tmp_path / "d.snod"
        data.write_bytes(vbe_dataset.read_bytes())
        sidecar = open(f"{vbe_dataset}.txt").read()
        assert "viscosity=0.0008\n" in sidecar
        (tmp_path / "d.snod.txt").write_text(
            sidecar.replace("viscosity=0.0008", f"viscosity={viscosity}"))
        argv = {"train": ["train", "--variant", "fixed-linear", "--epochs", "1",
                          "--set", "hidden=4"],
                "evaluate": ["evaluate", "--checkpoint", str(trained_dir / "model.snck"),
                             "--noise", "grid:0.01", "--set", "horizon=0.1"]}[command]
        code = run_cli(*argv, "--dataset", str(data), "--out", str(tmp_path / "o"))
        assert code == 4
        err = capsys.readouterr().err
        assert f"{data}.txt" in err and "viscosity" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["evaluate", "rom"])
    def test_solver_step_not_dividing_tau_io_error(self, tmp_path, vbe_dataset,
                                                   trained_dir, command, capsys):
        # the truth of a noised start would be solved at 0.06 per snapshot
        data = tmp_path / "d.snod"
        data.write_bytes(vbe_dataset.read_bytes())
        sidecar = open(f"{vbe_dataset}.txt").read()
        assert "solver_step=0.0025\n" in sidecar
        (tmp_path / "d.snod.txt").write_text(
            sidecar.replace("solver_step=0.0025", "solver_step=0.03"))
        argv = {"evaluate": ["evaluate", "--checkpoint", str(trained_dir / "model.snck"),
                             "--noise", "grid:0.01", "--set", "horizon=0.1"],
                "rom": ["rom", "--rhs", "true", "--dp", "8"]}[command]
        code = run_cli(*argv, "--dataset", str(data), "--out", str(tmp_path / "o"))
        assert code == 4
        err = capsys.readouterr().err
        assert f"{data}.txt" in err and "solver_step" in err
        assert not (tmp_path / "o").exists()


class TestEmptyTestSplit:
    """A dataset whose sidecar puts all of it in training trains, but is not
    scored: evaluate and rom --sort variance exit 2 and write nothing."""

    @pytest.fixture(scope="class")
    def datasets(self, tmp_path_factory, kse_dataset):
        root = tmp_path_factory.mktemp("no-test")
        vbe = root / "v.snod"
        assert run_cli("generate", "--system", "vbe", "--out", str(vbe),
                       "--train-ics", "3", "--test-ics", "0", "--set", "d=32",
                       "--set", "horizon=0.3") == 0
        kse = root / "k.snod"
        kse.write_bytes(kse_dataset.read_bytes())
        sidecar = open(f"{kse_dataset}.txt").read()
        assert "train_fraction=0.8" in sidecar
        (root / "k.snod.txt").write_text(sidecar.replace("train_fraction=0.8",
                                                         "train_fraction=1.0"))
        return {"vbe": vbe, "kse": kse}

    @pytest.mark.parametrize("kind", ["vbe", "kse"])
    def test_train_works_and_scoring_is_refused(self, tmp_path, datasets, kind, capsys):
        data = str(datasets[kind])
        run_dir = tmp_path / "t"
        assert run_cli("train", "--dataset", data, "--variant", "learned-linear",
                       "--out", str(run_dir), "--epochs", "2", "--set", "hidden=4",
                       "--set", "batch_size=8") == 0
        assert (run_dir / "model.snck").exists()
        capsys.readouterr()
        for argv in (["evaluate", "--checkpoint", str(run_dir / "model.snck"),
                      "--set", "n_ics=1", "--set", "horizon=0.5"],
                     ["rom", "--rhs", "true", "--mode", "galerkin", "--sort", "variance",
                      "--dp", "8", "--set", "total_time=1.0"]):
            out = tmp_path / argv[0]
            assert run_cli(*argv, "--dataset", data, "--out", str(out)) == 2
            assert "has no test split" in capsys.readouterr().err
            assert not out.exists()

    def test_refusal_names_the_largest_fraction_that_leaves_a_test_snapshot(
            self, tmp_path, capsys):
        # 81 snapshots: a train_fraction of 0.995 cuts round(80.595) = 81 of them,
        # so "below 1" is not enough; the advice names the split and the fraction
        def generate(name, fraction):
            data = tmp_path / name
            assert run_cli("generate", "--system", "kse", "--out", str(data),
                           "--horizon", "20", "--set", "d=32", "--set", "transient=10",
                           "--set", f"train_fraction={fraction!r}") == 0
            return data
        data = generate("k.snod", 0.995)
        capsys.readouterr()
        out = tmp_path / "rom"
        assert run_cli("rom", "--dataset", str(data), "--out", str(out), "--sort", "variance",
                       "--mode", "galerkin", "--dp", "8") == 2
        err = capsys.readouterr().err
        largest = sp.largest_testing_fraction(81)
        assert "has no test split" in err and "(1, 0, 32)" in err
        assert f"train_fraction of at most {largest!r}" in err
        assert not out.exists()
        assert sp.read_dataset(generate("largest.snod", largest)).split()[1].n_snap == 1
        above = float(np.nextafter(largest, 1.0))
        assert sp.read_dataset(generate("above.snod", above)).split()[1].n_snap == 0


@pytest.mark.parametrize("kind", ["vbe", "kse"])
def test_no_training_pair_exits_2_before_any_output(tmp_path, kind, capsys):
    # each of the 3 VBE training trajectories is one snapshot; a KSE cut keeps one
    # snapshot of 121
    data = tmp_path / "d.snod"
    generate = {"vbe": [*tiny_vbe_args(data), "--set", "horizon=0"],
                "kse": [*tiny_kse_args(data), "--set", "train_fraction=0.01"]}[kind]
    assert run_cli(*generate) == 0
    capsys.readouterr()
    out = tmp_path / "o"
    assert run_cli("train", "--dataset", str(data), "--variant", "nonlinear",
                   "--out", str(out), "--epochs", "1", "--set", "hidden=4") == 2
    err = capsys.readouterr().err
    shape = {"vbe": "(3, 1, 64)", "kse": "(1, 1, 32)"}[kind]
    setting = {"vbe": "horizon", "kse": "train_fraction"}[kind]
    assert "no training pair" in err and shape in err and setting in err
    assert not out.exists()


class TestCheckpointSidecar:
    @pytest.mark.parametrize("key", ["system", "domain_length"])
    @pytest.mark.parametrize("command", ["evaluate", "stencil-report"])
    def test_missing_physics_key_io_error(self, tmp_path, vbe_dataset, command, key,
                                          capsys):
        variant = "fixed-linear" if command == "evaluate" else "learned-linear"
        model = node.build_model(variant, [64, 8, 64], ["relu", "linear"],
                                 ("normal", 0.0, 1e-4), 0, system="vbe",
                                 viscosity=8e-4)
        sidecar = {"system": "vbe", "domain_length": 1.0, "viscosity": 8e-4,
                   "variant": variant, "epochs_completed": 0}
        del sidecar[key]
        ckpt = tmp_path / "model.snck"
        node.save_model(ckpt, model, sidecar=sidecar)
        argv = {"evaluate": ["evaluate", "--dataset", str(vbe_dataset),
                             "--out", str(tmp_path / "o")],
                "stencil-report": ["stencil-report"]}[command]
        assert run_cli(*argv, "--checkpoint", str(ckpt)) == 4
        err = capsys.readouterr().err
        assert f"{ckpt}.txt" in err and key in err

    @pytest.mark.parametrize("key, value", [
        ("domain_length", -1.0), ("viscosity", -1.0), ("viscosity", 0.0),
        ("viscosity", float("nan")), ("viscosity", float("inf")), ("system", "foo"),
        ("epochs_completed", -1)])
    def test_non_positive_domain_length_io_error(self, tmp_path, vbe_dataset, key, value,
                                                 capsys):
        model = node.build_model("fixed-linear", [64, 8, 64], ["relu", "linear"],
                                 ("normal", 0.0, 1e-4), 0, system="vbe")
        ckpt = tmp_path / "model.snck"
        sidecar = {"system": "vbe", "domain_length": 1.0, "variant": "fixed-linear"}
        node.save_model(ckpt, model, sidecar={**sidecar, key: value})
        assert run_cli("evaluate", "--dataset", str(vbe_dataset), "--checkpoint", str(ckpt),
                       "--out", str(tmp_path / "o")) == 4
        assert f"{ckpt}.txt: {key} must be" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key, value, dataset_value", [
        ("domain_length", 2.0, 1.0), ("system", "kse", "vbe"),
        ("viscosity", 0.01, 0.0008)])
    @pytest.mark.parametrize("command", ["evaluate", "rom", "train"])
    def test_fixed_linear_physics_of_another_dataset_config_error(
            self, tmp_path, vbe_dataset, command, key, value, dataset_value, capsys):
        # the fixed operator is built from the checkpoint's sidecar, so it must be
        # the dataset's operator: refused before the RK4 stiffness check and
        # before the output directory is made
        model = node.build_model("fixed-linear", [64, 8, 64], ["relu", "linear"],
                                 ("normal", 0.0, 1e-4), 0, system="vbe")
        ckpt = tmp_path / "model.snck"
        sidecar = {"system": "vbe", "domain_length": 1.0, "viscosity": 8e-4,
                   "variant": "fixed-linear", "epochs_completed": 1}
        node.save_model(ckpt, model, sidecar={**sidecar, key: value})
        node.save_opt_state(f"{ckpt}.opt", node.AdamState(model))
        out = tmp_path / "o"
        argv = {"evaluate": ["evaluate", "--checkpoint", str(ckpt), "--set", "n_ics=2",
                             "--set", "horizon=0.5"],
                "rom": ["rom", "--rhs", str(ckpt), "--dp", "11", "--mode", "galerkin",
                        "--set", "total_time=1"],
                "train": ["train", "--variant", "fixed-linear", "--epochs", "2",
                          "--set", "hidden=8", "--resume", str(ckpt)]}[command]
        assert run_cli(*argv, "--dataset", str(vbe_dataset), "--out", str(out)) == 2
        assert (f"checkpoint {key} {value} does not match the dataset {key} "
                f"{dataset_value}") in capsys.readouterr().err
        assert not out.exists()

    def test_kse_fixed_linear_viscosity_not_compared(self, tmp_path, kse_dataset):
        # the KSE operator has no viscosity, so another sidecar value builds the
        # dataset's operator
        model = node.build_model("fixed-linear", [32, 8, 32], ["relu", "linear"],
                                 ("normal", 0.0, 1e-4), 0, system="kse", domain_length=22.0)
        ckpt = tmp_path / "model.snck"
        node.save_model(ckpt, model, sidecar={"system": "kse", "domain_length": 22.0,
                                              "viscosity": 0.01, "variant": "fixed-linear"})
        assert run_cli("rom", "--dataset", str(kse_dataset), "--rhs", str(ckpt),
                       "--out", str(tmp_path / "o"), "--dp", "7", "--mode", "galerkin",
                       "--set", "total_time=1") == 0

    def test_resume_without_epochs_completed_io_error(self, tmp_path, vbe_dataset,
                                                       capsys):
        model = node.build_model("nonlinear", [64, 8, 64], ["relu", "linear"],
                                 ("normal", 0.0, 1e-4), 0)
        ckpt = tmp_path / "model.snck"
        node.save_model(ckpt, model, sidecar={"system": "vbe", "domain_length": 1.0,
                                              "variant": "nonlinear"})
        node.save_opt_state(f"{ckpt}.opt", node.AdamState(model))
        code = run_cli("train", "--dataset", str(vbe_dataset), "--variant", "nonlinear",
                       "--out", str(tmp_path / "o"), "--epochs", "2",
                       "--set", "hidden=8", "--resume", str(ckpt))
        assert code == 4
        err = capsys.readouterr().err
        assert f"{ckpt}.txt" in err and "epochs_completed" in err

    def test_resume_negative_epochs_completed_io_error(self, tmp_path, vbe_dataset,
                                                       capsys):
        model = node.build_model("nonlinear", [64, 8, 64], ["relu", "linear"],
                                 ("normal", 0.0, 1e-4), 0)
        ckpt = tmp_path / "model.snck"
        node.save_model(ckpt, model, sidecar={"system": "vbe", "domain_length": 1.0,
                                              "variant": "nonlinear",
                                              "epochs_completed": -1})
        node.save_opt_state(f"{ckpt}.opt", node.AdamState(model))
        code = run_cli("train", "--dataset", str(vbe_dataset), "--variant", "nonlinear",
                       "--out", str(tmp_path / "o"), "--epochs", "2",
                       "--set", "hidden=8", "--resume", str(ckpt))
        assert code == 4
        assert f"{ckpt}.txt: epochs_completed must be" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestEvaluate:
    def test_error_metric(self, tmp_path, vbe_dataset, trained_dir):
        out = tmp_path / "eval"
        code = run_cli("evaluate", "--dataset", str(vbe_dataset),
                       "--checkpoint", str(trained_dir / "model.snck"),
                       "--out", str(out), "--metric", "error",
                       "--set", "n_ics=2", "--set", "horizon=0.2")
        assert code == 0
        lines = (out / "error.csv").read_text().splitlines()
        header = [l for l in lines if not l.startswith("#")][0]
        assert header == "t,model"
        data = [l for l in lines if not l.startswith("#")][1:]
        assert len(data) == 5  # t = 0, 0.05, ..., 0.2
        assert float(data[0].split(",")[1]) == 0.0  # exact at t = 0

    def test_error_metric_with_noise(self, tmp_path, vbe_dataset, trained_dir):
        out = tmp_path / "eval_noise"
        code = run_cli("evaluate", "--dataset", str(vbe_dataset),
                       "--checkpoint", str(trained_dir / "model.snck"),
                       "--out", str(out), "--metric", "error",
                       "--noise", "grid:0.3",
                       "--set", "n_ics=2", "--set", "horizon=0.2")
        assert code == 0
        assert (out / "error.csv").exists()

    def test_spectrum_metric(self, tmp_path, vbe_dataset, trained_dir):
        out = tmp_path / "eval_spec"
        code = run_cli("evaluate", "--dataset", str(vbe_dataset),
                       "--checkpoint", str(trained_dir / "model.snck"),
                       "--out", str(out), "--metric", "spectrum",
                       "--times", "0.1,0.2", "--set", "n_ics=2",
                       "--set", "horizon=0.2")
        assert code == 0
        lines = (out / "spectrum.csv").read_text().splitlines()
        header = [l for l in lines if not l.startswith("#")][0]
        assert header.split(",") == ["k", "true_t0.1", "model_t0.1",
                                     "true_t0.2", "model_t0.2"]
        assert len([l for l in lines if not l.startswith("#")]) == 1 + 33

    def test_rerun_evaluate_identical(self, tmp_path, vbe_dataset, trained_dir):
        outs = []
        for name in ("e1", "e2"):
            out = tmp_path / name
            run_cli("evaluate", "--dataset", str(vbe_dataset),
                    "--checkpoint", str(trained_dir / "model.snck"),
                    "--out", str(out), "--metric", "error",
                    "--set", "n_ics=2", "--set", "horizon=0.2")
            outs.append((out / "error.csv").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("argv, solved", [
        (["--metric", "error"], False),
        (["--metric", "spectrum", "--times", "0.1,0.2"], False),
        (["--metric", "error", "--noise", "grid:1e-3"], True),
        (["--metric", "error", "--set", "horizon=0.6"], True),  # stored: 0.5
    ], ids=["error", "spectrum", "noise", "past-horizon"])
    def test_true_trajectories_solved_only_when_not_stored(
            self, tmp_path, vbe_dataset, trained_dir, monkeypatch, argv, solved):
        steps = []
        advance = sp.VbeSolver.advance

        def counted(solver, coeffs, nsteps):
            steps.append(nsteps)
            return advance(solver, coeffs, nsteps)

        monkeypatch.setattr(sp.VbeSolver, "advance", counted)
        out = tmp_path / "eval"
        code = run_cli("evaluate", "--dataset", str(vbe_dataset),
                       "--checkpoint", str(trained_dir / "model.snck"),
                       "--out", str(out), "--set", "n_ics=2", "--set", "horizon=0.2",
                       *argv)
        assert code == 0
        assert bool(steps) == solved
        if "error" in argv:
            lines = [l for l in (out / "error.csv").read_text().splitlines()
                     if not l.startswith("#")][1:]
            horizon = 0.6 if "horizon=0.6" in argv else 0.2
            assert len(lines) == int(round(horizon / 0.05)) + 1
            assert all(np.isfinite(float(l.split(",")[1])) for l in lines)

    def test_diverging_truth_exits_3(self, tmp_path, vbe_dataset, trained_dir, capsys):
        # starts this noisy blow the true solve up before any output is written
        out = tmp_path / "eval"
        code = run_cli("evaluate", "--dataset", str(vbe_dataset),
                       "--checkpoint", str(trained_dir / "model.snck"),
                       "--out", str(out), "--noise", "grid:1e200",
                       "--set", "n_ics=2", "--set", "horizon=0.2")
        assert code == 3
        assert "ground truth (row 0) went non-finite by t = " in capsys.readouterr().err
        assert not out.exists()

    def test_pdf_metric_steps_no_ensembles(self, tmp_path, kse_dataset, monkeypatch):
        run_dir = tmp_path / "run"
        assert run_cli("train", "--dataset", str(kse_dataset), "--variant",
                       "nonlinear", "--out", str(run_dir), "--epochs", "1",
                       "--set", "hidden=4") == 0

        def no_ensembles(*args, **kwargs):
            raise AssertionError("the pdf metric stepped the true ensemble")

        monkeypatch.setattr(sp.KseSolver, "advance", no_ensembles)
        out = tmp_path / "eval_pdf"
        code = run_cli("evaluate", "--dataset", str(kse_dataset),
                       "--checkpoint", str(run_dir / "model.snck"),
                       "--out", str(out), "--metric", "pdf",
                       "--set", "pdf_time=2.0")
        assert code == 0
        for name in ("model_pdf.snpd", "true_pdf.snpd", "pdf_kl.csv"):
            assert (out / name).exists()

    def test_lyapunov_uses_dataset_physics(self, tmp_path, monkeypatch):
        data = tmp_path / "v.snod"
        assert run_cli("generate", "--system", "vbe", "--out", str(data),
                       "--train-ics", "1", "--test-ics", "0", "--set", "d=32",
                       "--set", "horizon=0.1", "--set", "solver_step=0.01",
                       "--set", "viscosity=4e-3") == 0
        assert run_cli("train", "--dataset", str(data), "--variant", "nonlinear",
                       "--out", str(tmp_path / "run"), "--epochs", "1",
                       "--set", "hidden=4") == 0
        # a short transient keeps the test fast; the CLI and the direct call share it
        estimate = functools.partial(mt.lyapunov_time_estimate, transient=1.0)
        monkeypatch.setattr(mt, "lyapunov_time_estimate", estimate)
        out = tmp_path / "eval"
        assert run_cli("evaluate", "--dataset", str(data), "--checkpoint",
                       str(tmp_path / "run" / "model.snck"), "--out", str(out),
                       "--metric", "lyapunov",
                       "--set", "lyapunov_total_time=5.0") == 0
        direct = estimate(system="vbe", d=32, domain_length=1.0, solver_step=0.01,
                          viscosity=4e-3, total_time=5.0, seed=0)
        row = (out / "lyapunov.csv").read_text().splitlines()[-1]
        assert row.split(",")[0] == cli.fmt(direct.exponent)

    def test_non_finite_test_split_io_error(self, tmp_path, vbe_dataset, trained_dir,
                                            capsys):
        # the last payload value is in the last (test) trajectory
        data = vbe_dataset.read_bytes()
        offset = len(data) - 8
        bad = tmp_path / "nan.snod"
        bad.write_bytes(data[:offset] + struct.pack("<d", np.nan))
        code = run_cli("evaluate", "--dataset", str(bad),
                       "--checkpoint", str(trained_dir / "model.snck"),
                       "--out", str(tmp_path / "e"), "--set", "n_ics=2",
                       "--set", "horizon=0.2")
        assert code == 4
        err = capsys.readouterr().err
        assert str(bad) in err and f"non-finite value at offset {offset}" in err

    @pytest.mark.parametrize("metric,csv", [("error", "error.csv"),
                                            ("spectrum", "spectrum.csv")])
    def test_diverged_rollout_exits_3(self, tmp_path, vbe_dataset, metric, csv,
                                      capsys):
        # stencil taps of 1e5 put RK4 far outside its stability region
        ckpt = learned_linear_checkpoint(tmp_path / "model.snck", 64, [1e5] * 3, "vbe")
        out = tmp_path / "eval"
        code = run_cli("evaluate", "--dataset", str(vbe_dataset), "--checkpoint",
                       str(ckpt), "--out", str(out), "--metric", metric,
                       "--times", "0.5", "--set", "n_ics=2", "--set", "horizon=0.5")
        assert code == 3
        assert "initial conditions 0,1" in capsys.readouterr().err
        assert (out / csv).exists() and (out / "manifest-evaluate.cfg").exists()
        if metric == "error":
            rows = [l for l in (out / csv).read_text().splitlines()
                    if not l.startswith("#")][1:]
            assert float(rows[0].split(",")[1]) == 0.0
            assert rows[-1].split(",")[1] == "inf"

    def test_diverged_pdf_rollout_exits_3(self, tmp_path, kse_dataset, capsys):
        # taps of 1e5 blow the one pdf rollout up; its finite leading snapshots
        # still make the written PDF
        ckpt = learned_linear_checkpoint(tmp_path / "model.snck", 32, [1e5] * 5, "kse")
        out = tmp_path / "eval"
        code = run_cli("evaluate", "--dataset", str(kse_dataset), "--checkpoint",
                       str(ckpt), "--out", str(out), "--metric", "pdf",
                       "--set", "pdf_time=5.0")
        assert code == 3
        for name in ("model_pdf.snpd", "true_pdf.snpd", "pdf_kl.csv",
                     "manifest-evaluate.cfg"):
            assert (out / name).exists()
        finite = mt.read_joint_pdf(out / "model_pdf.snpd").total_count // 32
        assert 0 < finite < 21
        err = capsys.readouterr().err
        assert f"initial conditions 0, first at t = {finite * 0.25:g}\n" in err

    def test_disjoint_pdf_kl_is_inf_and_exits_0(self, tmp_path, vbe_dataset, capsys):
        # a 4-epoch model's statistics share no bin with the data's: the worst
        # KL, written as inf without a warning, and no divergence, as every
        # state stays finite
        run_dir = tmp_path / "run"
        assert run_cli("train", "--dataset", str(vbe_dataset), "--variant",
                       "fixed-linear", "--out", str(run_dir), "--epochs", "4",
                       "--seed", "1") == 0
        out = tmp_path / "eval"
        code = run_cli("evaluate", "--dataset", str(vbe_dataset), "--checkpoint",
                       str(run_dir / "model.snck"), "--out", str(out), "--metric",
                       "pdf", "--set", "pdf_time=5.0")
        assert code == 0
        lines = (out / "pdf_kl.csv").read_text().splitlines()
        assert lines[-2].split(",") == ["kl", "overlap", "model_oob_fraction", "kl_support",
                                        "mass_off"]
        row = lines[-1].split(",")
        assert row[:2] == ["inf", "0.0"]
        assert row[3:] == ["inf", "1.0"]
        assert "Warning" not in capsys.readouterr().err

    def test_bad_metric_config_error(self, tmp_path, vbe_dataset, trained_dir):
        code = run_cli("evaluate", "--dataset", str(vbe_dataset),
                       "--checkpoint", str(trained_dir / "model.snck"),
                       "--out", str(tmp_path / "x"),
                       "--set", "metric=entropy")
        assert code == 2


class TestRom:
    def test_true_rhs_sweep(self, tmp_path, kse_dataset):
        out = tmp_path / "rom"
        code = run_cli("rom", "--dataset", str(kse_dataset), "--rhs", "true",
                       "--mode", "nlg", "--dp", "8,10", "--out", str(out),
                       "--set", "total_time=10.0", "--set", "dt=0.05")
        assert code == 0
        lines = (out / "rom.csv").read_text().splitlines()
        data = [l for l in lines if not l.startswith("#")]
        assert data[0] == "d_p,mode,kl,overlap,runtime_s,kl_support,mass_off"
        assert len(data) == 3
        assert (out / "basis.sneb").exists()
        basis = rom_mod.read_eigenbasis(out / "basis.sneb")
        assert basis.d == 32

    def test_kl_support_where_the_kl_goes_negative(self, tmp_path):
        # a 2-epoch fixed-linear model's d_p = 30 row sums to a negative KL at
        # overlap 1.0, as part of its mass leaves the PDF's range; renormalised
        # over the shared bins it cannot go below zero, and the lost mass shows
        data, run, out = tmp_path / "k.snod", tmp_path / "run", tmp_path / "rom"
        assert run_cli("generate", "--system", "kse", "--out", str(data), "--horizon", "20",
                       "--set", "d=32", "--set", "transient=10", "--seed", "7") == 0
        assert run_cli("train", "--dataset", str(data), "--variant", "fixed-linear",
                       "--out", str(run), "--epochs", "2", "--set", "hidden=4",
                       "--set", "batch_size=8", "--set", "rollout_steps=40",
                       "--seed", "7") == 0
        assert run_cli("rom", "--dataset", str(data), "--rhs", str(run / "model.snck"),
                       "--out", str(out), "--dp", "28,30", "--set", "total_time=1") == 0
        lines = [l for l in (out / "rom.csv").read_text().splitlines()
                 if not l.startswith("#")]
        assert lines[0].split(",")[5:] == ["kl_support", "mass_off"]
        rows = {row[0]: [float(x) for x in row[2:]] for row in
                (line.split(",") for line in lines[1:])}
        assert sorted(rows) == ["28", "30"]
        kl, overlap, _, kl_support, off = rows["30"]
        assert kl < 0.0 and overlap == 1.0
        assert kl_support > 0.0 and 0.0 < off < 1.0
        assert all(row[3] >= 0.0 and 0.0 <= row[4] <= 1.0 for row in rows.values())

    def test_overlap_on_the_support_reads_exactly_one(self, tmp_path):
        # the variance-sorted galerkin sweep's d_p = 28 row summed its overlap to
        # 1.0000000000000002, though all its in-range mass sits on the reference
        data, out = tmp_path / "k.snod", tmp_path / "r"
        assert run_cli("generate", "--system", "kse", "--out", str(data), "--horizon", "20",
                       "--set", "d=32", "--set", "transient=10", "--seed", "1") == 0
        assert run_cli("rom", "--dataset", str(data), "--out", str(out), "--mode",
                       "galerkin", "--sort", "variance", "--dp", "11,15,28",
                       "--set", "total_time=2") == 0
        rows = [line.split(",") for line in (out / "rom.csv").read_text().splitlines()
                if not line.startswith("#")][1:]
        assert [(row[0], row[3]) for row in rows] == [("11", "1.0"), ("15", "1.0"),
                                                      ("28", "1.0")]

    def test_old_manifest_with_seed_reruns(self, tmp_path, kse_dataset):
        # manifests of older versions carry seed=, which rom never used
        out = tmp_path / "rom"
        argv = ["--dataset", str(kse_dataset), "--rhs", "true", "--mode", "galerkin",
                "--dp", "8", "--set", "total_time=1.0", "--set", "dt=0.05"]
        assert run_cli("rom", *argv, "--out", str(out)) == 0
        manifest = (out / "manifest-rom.cfg").read_text()
        assert not any(line.startswith("seed") for line in manifest.splitlines())
        assert "# seed:" not in (out / "rom.csv").read_text()
        old = tmp_path / "old.cfg"
        old.write_text(manifest + "seed=0\n")
        assert run_cli("rom", "--config", str(old), "--out", str(tmp_path / "again")) == 0
        assert ((tmp_path / "again" / "basis.sneb").read_bytes()
                == (out / "basis.sneb").read_bytes())

    def test_sort_orders_differ(self, tmp_path, kse_dataset):
        bases = {}
        for sort in ("eigenvalue", "variance"):
            out = tmp_path / f"rom_{sort}"
            code = run_cli("rom", "--dataset", str(kse_dataset), "--rhs", "true",
                           "--mode", "galerkin", "--dp", "8", "--out", str(out),
                           "--sort", sort,
                           "--set", "total_time=5.0", "--set", "dt=0.05")
            assert code == 0
            bases[sort] = rom_mod.read_eigenbasis(out / "basis.sneb")
        assert not np.array_equal(bases["eigenvalue"].eigenvalues,
                                  bases["variance"].eigenvalues)

    def test_full_dimension_self_reference_kl_near_zero(self, tmp_path, kse_dataset):
        # d_p = d retains the stiffest eigenvalue (~ -415), so RK4 needs
        # dt below ~2.78/415
        out = tmp_path / "rom_full"
        code = run_cli("rom", "--dataset", str(kse_dataset), "--rhs", "true",
                       "--mode", "galerkin", "--dp", "32", "--out", str(out),
                       "--set", "total_time=5.0", "--set", "dt=0.005",
                       "--set", "reference=self")
        assert code == 0
        data = [l for l in (out / "rom.csv").read_text().splitlines()
                if not l.startswith("#")][1]
        kl = float(data.split(",")[2])
        assert abs(kl) < 1e-2


    def test_diverged_row_exits_3(self, tmp_path, kse_dataset, capsys):
        # d_p = 32 keeps the stiffest mode, far outside RK4's region at dt=0.05
        out = tmp_path / "rom_bad"
        code = run_cli("rom", "--dataset", str(kse_dataset), "--rhs", "true",
                       "--mode", "galerkin", "--dp", "8,32", "--out", str(out),
                       "--set", "dt=0.05", "--set", "total_time=5.0")
        assert code == 3
        assert "d_p = 32" in capsys.readouterr().err
        data = [l for l in (out / "rom.csv").read_text().splitlines()
                if not l.startswith("#")][1:]
        assert [row.split(",")[:3] for row in data][1] == ["32", "galerkin", "nan"]
        assert np.isfinite(float(data[0].split(",")[2]))
        assert (out / "manifest-rom.cfg").exists()
        # the diverging row leaves row 8 as it is alone
        solo = tmp_path / "rom_solo"
        assert run_cli("rom", "--dataset", str(kse_dataset), "--rhs", "true",
                       "--mode", "galerkin", "--dp", "8", "--out", str(solo),
                       "--set", "dt=0.05", "--set", "total_time=5.0") == 0
        alone = [l for l in (solo / "rom.csv").read_text().splitlines()
                 if not l.startswith("#")][1]
        assert data[0].split(",")[:4] == alone.split(",")[:4]

    def test_every_dp_checked_before_any_row(self, tmp_path, kse_dataset, monkeypatch,
                                             capsys):
        # d_p = 3 leaves the mean mode's zero eigenvalue to slave; d_p = 23 is fine
        calls = []
        factory = node.TrueRhs.tendency_kernel

        def counted(self, shape):
            kernel = factory(self, shape)
            return lambda c_p, lift: calls.append(c_p.shape) or kernel(c_p, lift)

        monkeypatch.setattr(node.TrueRhs, "tendency_kernel", counted)
        out = tmp_path / "rom_check"
        code = run_cli("rom", "--dataset", str(kse_dataset), "--rhs", "true",
                       "--mode", "nlg", "--dp", "23,3", "--out", str(out),
                       "--set", "total_time=5.0")
        assert code == 2
        assert "trailing eigenvalue" in capsys.readouterr().err
        assert not (out / "rom.csv").exists()
        assert calls == []


    def test_variance_sort_names_the_way_out(self, tmp_path, kse_dataset, capsys):
        # KSE conserves the mean: the variance sort puts its zero eigenvalue last,
        # among the slaved coordinates of every d_p < d
        argv = ["rom", "--dataset", str(kse_dataset), "--rhs", "true", "--mode", "nlg",
                "--out", str(tmp_path / "r"), "--set", "total_time=1.0"]
        assert run_cli(*argv, "--sort", "variance", "--dp", "8") == 2
        err = capsys.readouterr().err
        assert "cannot slave" in err and "variance sort" in err
        assert "sort=eigenvalue" in err and "mode=galerkin" in err
        assert run_cli(*argv, "--sort", "eigenvalue", "--dp", "3") == 2
        err = capsys.readouterr().err
        assert "cannot slave" in err and "sort=eigenvalue" not in err

    def test_bad_dp_exits_2_before_the_reference_rollout(self, tmp_path, kse_dataset,
                                                         monkeypatch):
        # d_p = 3 leaves the mean mode's zero eigenvalue to slave; the full
        # reference=self rollout over total_time = 100 would diverge (exit 3)
        calls = []
        rollout = node.rollout

        def counted(*args, **kwargs):
            calls.append(args)
            return rollout(*args, **kwargs)

        monkeypatch.setattr(node, "rollout", counted)
        out = tmp_path / "rom_bad_dp"
        code = run_cli("rom", "--dataset", str(kse_dataset), "--mode", "nlg",
                       "--dp", "3", "--out", str(out), "--set", "reference=self",
                       "--set", "total_time=100")
        assert code == 2
        assert not (out / "reference_pdf.snpd").exists()
        assert not (out / "basis.sneb").exists()
        assert calls == []

    def test_slow_slaved_eigenvalue_exits_2(self, tmp_path, capsys):
        # a 1-epoch learned stencil has the eigenvalue pair -0.03325 at 8, 9 below
        # 0.44-0.81 retained: slaving onto it read KL=inf with exit 0 at d_p 4, 7, 8
        data = tmp_path / "k.snod"
        assert run_cli("generate", "--system", "kse", "--out", str(data), "--horizon", "20",
                       "--set", "d=32", "--set", "transient=10") == 0
        assert run_cli("train", "--dataset", str(data), "--variant", "learned-linear",
                       "--out", str(tmp_path / "run"), "--epochs", "1", "--set", "hidden=4",
                       "--set", "batch_size=8") == 0
        argv = ["rom", "--dataset", str(data), "--rhs", str(tmp_path / "run" / "model.snck"),
                "--set", "total_time=1"]
        out = tmp_path / "rom"
        capsys.readouterr()
        with pytest.warns(UserWarning, match="not symmetric"):
            code = run_cli(*argv, "--mode", "nlg", "--dp", "4,7,8,11,15", "--out", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert "trailing eigenvalue 8 (-0.03325)" in err and "cannot slave" in err
        assert not out.exists()
        # slaving from d_p 11 on, past the pair, runs with a finite KL in every row
        for mode in ("nlg", "ppg"):
            with pytest.warns(UserWarning, match="not symmetric"):
                assert run_cli(*argv, "--mode", mode, "--dp", "11,15",
                               "--out", str(tmp_path / mode)) == 0
            rows = [line.split(",") for line in (tmp_path / mode / "rom.csv").read_text()
                    .splitlines() if not line.startswith("#")][1:]
            assert [r[0] for r in rows] == ["11", "15"]
            assert all(np.isfinite(float(r[2])) and float(r[3]) > 0 for r in rows), rows

    @pytest.mark.parametrize("rhs", ["true", "damping"])
    def test_unstable_self_reference_exits_2(self, tmp_path, kse_dataset, rhs,
                                             monkeypatch, capsys):
        # at the default dt = 0.01 the full rollout's RK4 amplifies damped modes:
        # the true KSE symbol at d = 32 reaches about -415 and the stencil
        # [500, -1000, 500] -2000, against RK4's limit of -2.785 / dt
        if rhs == "damping":
            rhs = str(learned_linear_checkpoint(tmp_path / "model.snck", 32,
                                                [500.0, -1000.0, 500.0], "kse"))
        calls = []
        monkeypatch.setattr(node, "rollout", lambda *args, **kw: calls.append(args))
        out = tmp_path / "rom_unstable"
        argv = ["rom", "--dataset", str(kse_dataset), "--rhs", rhs, "--mode", "galerkin",
                "--dp", "8", "--set", "total_time=5.0", "--set", "reference=self"]
        assert run_cli(*argv, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "reference=self" in err and "amplify" in err
        assert not out.exists()
        assert calls == []
        # the dt it names passes the guard and runs
        dt = re.search(r"use dt=(\S+) \(save_interval/", err).group(1)
        monkeypatch.undo()
        assert run_cli(*argv, "--out", str(tmp_path / "rom_stable"),
                       "--set", f"dt={dt}") == 0

    def test_diverged_self_reference_exits_3(self, tmp_path, kse_dataset, capsys):
        # a growing operator (sigma >= 0) passes the stability guard and blows up
        ckpt = learned_linear_checkpoint(tmp_path / "model.snck", 32,
                                         [-500.0, 1000.0, -500.0], "kse")
        out = tmp_path / "rom_self"
        code = run_cli("rom", "--dataset", str(kse_dataset), "--rhs", str(ckpt),
                       "--mode", "galerkin", "--dp", "8", "--out", str(out),
                       "--set", "total_time=5.0", "--set", "reference=self")
        assert code == 3
        assert not (out / "rom.csv").exists()
        # the same rollout outside the CLI: the first non-finite snapshot
        times, traj = node.rollout(node.load_model(ckpt),
                                   sp.read_dataset(kse_dataset).values[0, 0],
                                   5.0, 0.25, 25)
        bad = ~np.all(np.isfinite(traj), axis=1)
        assert 0 < bad.argmax() < 21
        assert f"by t = {times[bad.argmax()]:g}\n" in capsys.readouterr().err


class TestCsv:
    def test_spectrum_csv(self, tmp_path):
        path = tmp_path / "spec.csv"
        cli.write_table(path, "energy spectrum", {"seed": 0}, ["k", "true", "model"],
                        [[str(k), cli.fmt(1.0), cli.fmt(0.0)] for k in range(4)])
        text = path.read_text().splitlines()
        assert text[0].startswith("# quantity:")
        assert "k,true,model" in text
        assert text[-1].startswith("3,")

    def test_error_csv(self, tmp_path):
        path = tmp_path / "err.csv"
        cli.write_table(path, "ensemble error", {"noise": 0.3}, ["t", "fixed-linear"],
                        [[cli.fmt(t), cli.fmt(e)] for t, e in [(0.0, 0.0), (0.5, 0.25)]])
        lines = path.read_text().splitlines()
        assert "t,fixed-linear" in lines


class TestStencilReport:
    def test_report_and_csv(self, tmp_path, vbe_dataset, trained_dir, capsys):
        csv_out = tmp_path / "stencil.csv"
        code = run_cli("stencil-report", "--checkpoint",
                       str(trained_dir / "model.snck"), "--out", str(csv_out))
        assert code == 0
        printed = capsys.readouterr().out
        assert "optimal taps:" in printed and "cosine similarity" in printed
        text = csv_out.read_text()
        assert "tap_index,optimal,learned" in text
        cosine = float(text.splitlines()[-1].split("=")[1])
        assert -1.0 <= cosine <= 1.0

    def test_kse_optimal_taps(self, tmp_path, capsys):
        # -d2 - d4 at Delta = 22/32
        ckpt = learned_linear_checkpoint(tmp_path / "model.snck", 32, [1.0] * 5, "kse")
        assert run_cli("stencil-report", "--checkpoint", str(ckpt)) == 0
        printed = capsys.readouterr().out.splitlines()
        optimal = next(l for l in printed if l.startswith("optimal taps:")).split()[2:]
        assert optimal == ["-4.4762", "15.7891", "-22.6258", "15.7891", "-4.4762"]

    def test_width_mismatch_config_error(self, tmp_path, capsys):
        ckpt = learned_linear_checkpoint(tmp_path / "model.snck", 64, [1.0] * 5, "vbe")
        out = tmp_path / "st.csv"
        assert run_cli("stencil-report", "--checkpoint", str(ckpt), "--out", str(out)) == 2
        assert ("learned width 5 does not match the optimal stencil width 3"
                in capsys.readouterr().err)
        assert not out.exists()
