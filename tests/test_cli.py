"""End-to-end command pipeline: configs, manifests, artifacts, exit codes."""

import os

import numpy as np
import pytest

from stabnode import cli
from stabnode import metrics as mt
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
        code = run_cli(*tiny_vbe_args(tmp_path / "x.snod"),
                       "--set", "solver_step=3e-3")
        assert code == 2
        assert not (tmp_path / "x.snod").exists()

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

    def test_blow_up_exit_code(self, tmp_path):
        out = tmp_path / "bad.snod"
        code = run_cli("generate", "--system", "vbe", "--out", str(out),
                       "--train-ics", "1", "--test-ics", "0",
                       "--set", "d=64", "--set", "horizon=3.0",
                       "--set", "tau=0.5", "--set", "solver_step=0.5")
        assert code == 3

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
def trained_dir(tmp_path_factory, vbe_dataset):
    out = tmp_path_factory.mktemp("run")
    code = run_cli("train", "--dataset", str(vbe_dataset), "--variant",
                   "learned-linear", "--out", str(out), "--epochs", "30",
                   "--set", "hidden=24", "--set", "batch_size=16",
                   "--set", "stencil_init_scale=0.5")
    assert code == 0
    return out


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

    @pytest.mark.parametrize("damage", ["half", "header", "padded"])
    def test_corrupt_dataset_io_error(self, tmp_path, vbe_dataset, damage, capsys):
        data = vbe_dataset.read_bytes()
        bad = tmp_path / "bad.snod"
        bad.write_bytes({"half": data[:len(data) // 2], "header": data[:20],
                         "padded": data + b"junk"}[damage])
        code = run_cli("train", "--dataset", str(bad), "--variant", "nonlinear",
                       "--out", str(tmp_path / "o"), "--epochs", "1",
                       "--set", "hidden=4")
        assert code == 4
        assert str(bad) in capsys.readouterr().err

    def test_missing_dataset_io_error(self, tmp_path):
        code = run_cli("train", "--dataset", str(tmp_path / "nope.snod"),
                       "--variant", "nonlinear", "--out", str(tmp_path / "o"))
        assert code == 4


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

    def test_bad_metric_config_error(self, tmp_path, vbe_dataset, trained_dir):
        code = run_cli("evaluate", "--dataset", str(vbe_dataset),
                       "--checkpoint", str(trained_dir / "model.snck"),
                       "--out", str(tmp_path / "x"),
                       "--set", "metric=entropy")
        assert code == 2


class TestRom:
    @pytest.fixture(scope="class")
    def kse_dataset(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("ksedata") / "kse.snod"
        run_cli(*tiny_kse_args(out))
        return out

    def test_true_rhs_sweep(self, tmp_path, kse_dataset):
        out = tmp_path / "rom"
        code = run_cli("rom", "--dataset", str(kse_dataset), "--rhs", "true",
                       "--mode", "nlg", "--dp", "8,10", "--out", str(out),
                       "--set", "total_time=10.0", "--set", "dt=0.05")
        assert code == 0
        lines = (out / "rom.csv").read_text().splitlines()
        data = [l for l in lines if not l.startswith("#")]
        assert data[0] == "d_p,mode,kl,overlap,runtime_s"
        assert len(data) == 3
        assert (out / "basis.sneb").exists()
        basis = rom_mod.read_eigenbasis(out / "basis.sneb")
        assert basis.d == 32

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
