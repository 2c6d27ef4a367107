"""Command-line pipeline: generate, train, evaluate, rom, stencil-report.

Configuration is flat key=value text with `include <path>` support; CLI
flags override config keys, unknown keys are hard errors.  Every command
writes a manifest (resolved config plus input hashes as comments) that
reproduces the run bit-identically.  Relative artifact paths resolve under
$SNODE_DATA_DIR when it is set.

Exit codes: 0 success; 2 config error; 3 numerical divergence, including a
`rom` sweep with a diverged (non-finite KL) row, whose rows and manifest are
still written; 4 I/O error or a corrupt (truncated, padded, bad-header)
binary artifact.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time

import numpy as np

from . import __version__
from . import diffcore as dc
from . import metrics as mt
from . import neural_ode as node
from . import rom as rom_mod
from . import spectral as sp


class ConfigError(ValueError):
    pass


# config machinery -----------------------------------------------------------

def parse_config_file(path) -> dict:
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("include "):
                inc = line.split(None, 1)[1].strip()
                inc = os.path.join(os.path.dirname(os.path.abspath(path)), inc)
                values.update(parse_config_file(inc))
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, val = line.split("=", 1)
            values[key.strip()] = val.strip()
    return values


def _parse_bool(text):
    low = str(text).strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _parse_floats(text):
    return tuple(float(x) for x in str(text).split(",") if x != "")


def _parse_ints(text):
    return tuple(int(x) for x in str(text).split(",") if x != "")


def parse_dp_list(text) -> list:
    """Accept `a..b`, `a..b..step`, or a comma list."""
    text = str(text)
    if ".." in text:
        parts = text.split("..")
        if len(parts) == 2:
            lo, hi, step = int(parts[0]), int(parts[1]), 1
        elif len(parts) == 3:
            lo, hi, step = int(parts[0]), int(parts[1]), int(parts[2])
        else:
            raise ConfigError(f"bad dimension range {text!r}")
        return list(range(lo, hi + 1, step))
    return list(_parse_ints(text))


_PARSERS = {"int": int, "float": float, "str": str, "bool": _parse_bool,
            "floats": _parse_floats, "dps": parse_dp_list}

AUTO = "auto"

# keys that manifests of older versions carry but that never changed a result
RETIRED_KEYS = {"threads"}


def resolve_config(schema: dict, file_values: dict, overrides: dict) -> dict:
    """defaults <- config file <- CLI overrides; unknown keys are rejected,
    retired keys in a config file dropped so old manifests still rerun."""
    file_values = {k: v for k, v in file_values.items() if k not in RETIRED_KEYS}
    for source, values in (("config file", file_values), ("command line", overrides)):
        for key in values:
            if key not in schema:
                raise ConfigError(f"unknown key {key!r} from {source}; known keys: "
                                  + ", ".join(sorted(schema)))
    out = {}
    for key, (kind, default) in schema.items():
        if key in overrides and overrides[key] is not None:
            raw = overrides[key]
        elif key in file_values:
            raw = file_values[key]
        else:
            raw = default
        if raw is None:
            raise ConfigError(f"missing required key {key!r}")
        if isinstance(raw, str) and raw == AUTO:
            out[key] = AUTO
            continue
        try:
            out[key] = _PARSERS[kind](raw)
        except (ValueError, TypeError) as err:
            raise ConfigError(f"bad value for {key!r}: {raw!r} ({err})") from err
    return out


def config_text(config: dict) -> str:
    lines = []
    for key in sorted(config):
        val = config[key]
        if isinstance(val, tuple):
            val = ",".join(repr(v) if isinstance(v, float) else str(v) for v in val)
        elif isinstance(val, list):
            val = ",".join(str(v) for v in val)
        elif isinstance(val, bool):
            val = "true" if val else "false"
        elif isinstance(val, float):
            val = repr(val)
        lines.append(f"{key}={val}")
    return "\n".join(lines) + "\n"


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(path, command: str, config: dict, input_hashes: dict) -> None:
    header = [f"# stabnode {__version__} manifest for `snode {command}`",
              "# rerun: snode " + command + " --config <this file>"]
    for name in sorted(input_hashes):
        header.append(f"# sha256.{name}={input_hashes[name]}")
    with open(path, "w") as fh:
        fh.write("\n".join(header) + "\n" + config_text(config))


def resolve_path(path: str) -> str:
    root = os.environ.get("SNODE_DATA_DIR")
    if root and not os.path.isabs(path):
        return os.path.join(root, path)
    return path


# generate --------------------------------------------------------------------

GENERATE_SCHEMA_COMMON = {
    "system": ("str", None),
    "out": ("str", None),
    "d": ("int", AUTO),
    "domain_length": ("float", AUTO),
    "seed": ("int", "0"),
}

GENERATE_SCHEMA_VBE = {
    "train_ics": ("int", "1000"),
    "test_ics": ("int", "100"),
    "horizon": ("float", "5.0"),
    "tau": ("float", "0.05"),
    "solver_step": ("float", "1e-3"),
    "viscosity": ("float", "8e-4"),
    "peak_wavenumber": ("float", "10.0"),
    "ic_amplitude": ("float", AUTO),
}

GENERATE_SCHEMA_KSE = {
    "horizon": ("float", "2000.0"),
    "tau": ("float", "0.25"),
    "solver_step": ("float", "0.05"),
    "transient": ("float", "500.0"),
    "train_fraction": ("float", "0.8"),
}


def cmd_generate(config: dict) -> int:
    system = config["system"]
    if config["d"] == AUTO:
        config["d"] = 512 if system == "vbe" else 64
    if config["domain_length"] == AUTO:
        config["domain_length"] = 1.0 if system == "vbe" else 22.0
    out = resolve_path(config["out"])
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    # the schema admits only vbe and kse; a ValueError here is a bad setting
    try:
        if system == "vbe":
            amp = None if config["ic_amplitude"] == AUTO else config["ic_amplitude"]
            ds = sp.generate_vbe_dataset(
                n_train=config["train_ics"], n_test=config["test_ics"], d=config["d"],
                domain_length=config["domain_length"], viscosity=config["viscosity"],
                horizon=config["horizon"], tau=config["tau"], dt=config["solver_step"],
                peak_wavenumber=config["peak_wavenumber"], amplitude=amp,
                base_seed=config["seed"])
            sidecar = {"system": "vbe", "train_trajectories": config["train_ics"],
                       "solver_step": config["solver_step"],
                       "viscosity": config["viscosity"],
                       "peak_wavenumber": config["peak_wavenumber"],
                       "base_seed": config["seed"]}
        else:
            ds = sp.generate_kse_dataset(
                d=config["d"], domain_length=config["domain_length"],
                horizon=config["horizon"], tau=config["tau"],
                h=config["solver_step"], transient=config["transient"],
                seed=config["seed"])
            sidecar = {"system": "kse", "train_fraction": config["train_fraction"],
                       "solver_step": config["solver_step"],
                       "transient": config["transient"], "base_seed": config["seed"]}
    except ValueError as err:
        raise ConfigError(str(err)) from err
    sp.write_dataset(ds, out, manifest=sidecar)
    write_manifest(f"{out}.manifest.cfg", "generate", config,
                   {"dataset": sha256_file(out)})
    print(f"wrote {out}: {ds.n_traj} trajectories x {ds.n_snap} snapshots, "
          f"d={ds.d}, tau={ds.tau}")
    return 0


# train -----------------------------------------------------------------------

TRAIN_SCHEMA = {
    "dataset": ("str", None),
    "out": ("str", None),
    "variant": ("str", None),
    "epochs": ("int", "1000"),
    "batch_size": ("int", "256"),
    "rollout_steps": ("int", "5"),
    "seed": ("int", "0"),
    "hidden": ("str", "200,200,200"),
    "activation": ("str", AUTO),
    "weight_init_variance": ("float", "1e-2"),
    "stencil_width": ("int", AUTO),
    "stencil_symmetric": ("bool", AUTO),
    "stencil_init_kind": ("str", AUTO),
    "stencil_init_scale": ("float", AUTO),
    "lr_nonlinear": ("floats", AUTO),
    "lr_linear": ("floats", AUTO),
    "checkpoint_every": ("int", "0"),
    "resume": ("str", ""),
}


def _train_split(ds: sp.SnapshotDataset, sidecar: dict) -> sp.SnapshotDataset:
    if ds.system == "vbe":
        n_train = int(sidecar.get("train_trajectories", ds.n_traj))
        return ds.split_trajectories(n_train)[0] if n_train < ds.n_traj else ds
    frac = float(sidecar.get("train_fraction", 0.8))
    return ds.split_chronological(frac)[0]


def _test_split(ds: sp.SnapshotDataset, sidecar: dict) -> sp.SnapshotDataset:
    if ds.system == "vbe":
        n_train = int(sidecar.get("train_trajectories", ds.n_traj))
        if n_train < ds.n_traj:
            return ds.split_trajectories(n_train)[1]
        return ds
    frac = float(sidecar.get("train_fraction", 0.8))
    return ds.split_chronological(frac)[1]


def _dataset_sidecar(dataset_path: str) -> dict:
    sidecar_path = f"{dataset_path}.txt"
    if os.path.exists(sidecar_path):
        return node.read_sidecar(sidecar_path)
    return {}


def _resolve_train_defaults(config: dict, system: str) -> None:
    if config["activation"] == AUTO:
        config["activation"] = "relu" if system == "vbe" else "sigmoid"
    if config["stencil_width"] == AUTO:
        config["stencil_width"] = 3 if system == "vbe" else 5
    if config["stencil_symmetric"] == AUTO:
        config["stencil_symmetric"] = system == "vbe"
    if config["stencil_init_kind"] == AUTO:
        config["stencil_init_kind"] = "normal" if system == "vbe" else "uniform"
    if config["stencil_init_scale"] == AUTO:
        # Burgers linear-branch init variance capped at 1.0 by default
        config["stencil_init_scale"] = (1.0 if system == "vbe"
                                        else float(np.sqrt(1.0 / 3.0)))
    maker = node.vbe_train_config if system == "vbe" else node.kse_train_config
    defaults = maker(config["epochs"], config["variant"])
    if config["lr_nonlinear"] == AUTO:
        config["lr_nonlinear"] = defaults.lr_nonlinear
    if config["lr_linear"] == AUTO:
        config["lr_linear"] = defaults.lr_linear


def cmd_train(config: dict) -> int:
    dataset_path = resolve_path(config["dataset"])
    ds = sp.read_dataset(dataset_path)
    sidecar = _dataset_sidecar(dataset_path)
    system = ds.system
    _resolve_train_defaults(config, system)
    train_ds = _train_split(ds, sidecar)

    out_dir = resolve_path(config["out"])
    os.makedirs(out_dir, exist_ok=True)
    ckpt_path = os.path.join(out_dir, "model.snck")
    opt_path = f"{ckpt_path}.opt"

    hidden = list(_parse_ints(config["hidden"]))
    sizes = [ds.d] + hidden + [ds.d]
    acts = [config["activation"]] * len(hidden) + ["linear"]
    if config["stencil_init_kind"] == "normal":
        st_init = ("normal", 0.0, config["stencil_init_scale"])
    else:
        bound = config["stencil_init_scale"]
        st_init = ("uniform", -bound, bound)

    start_epoch = 0
    adam = None
    if config["resume"]:
        resume_path = resolve_path(config["resume"])
        model = node.load_model(resume_path)
        adam = node.load_opt_state(f"{resume_path}.opt", model)
        start_epoch = int(node.read_sidecar(f"{resume_path}.txt")["epochs_completed"])
    else:
        model = node.build_model(
            config["variant"], sizes, acts,
            ("normal", 0.0, config["weight_init_variance"]), config["seed"],
            system=system, domain_length=ds.domain_length,
            viscosity=float(sidecar.get("viscosity", 8e-4)),
            stencil_width=config["stencil_width"],
            stencil_symmetric=config["stencil_symmetric"],
            stencil_init=st_init)

    train_cfg = node.TrainConfig(
        config["epochs"], tuple(config["lr_nonlinear"]),
        tuple(config["lr_linear"]), batch_size=config["batch_size"],
        rollout_steps=config["rollout_steps"], seed=config["seed"])

    meta = {"system": system, "domain_length": ds.domain_length,
            "viscosity": float(sidecar.get("viscosity", 8e-4)),
            "variant": config["variant"], "dataset_sha256": sha256_file(dataset_path)}

    def writer(epoch, mdl, opt):
        node.save_model(ckpt_path, mdl, sidecar={**meta, "epochs_completed": epoch})
        node.save_opt_state(opt_path, opt)

    try:
        result = node.train(model, train_ds, train_cfg, start_epoch=start_epoch,
                            adam=adam, checkpoint_every=config["checkpoint_every"],
                            on_checkpoint=writer)
    except node.TrainingDiverged as err:
        with open(os.path.join(out_dir, "loss.log"), "w") as fh:
            fh.write("# epoch\tstage\tlr_nonlinear\tlr_linear\tloss\n")
            for i, loss in enumerate(err.history):
                fh.write(f"{start_epoch + i}\t-\t-\t-\t{loss:.10e}\n")
        raise

    writer(result.final_epoch, model, result.adam)
    mode = "a" if start_epoch else "w"
    with open(os.path.join(out_dir, "loss.log"), mode) as fh:
        if not start_epoch:
            fh.write("# epoch\tstage\tlr_nonlinear\tlr_linear\tloss\n")
        fh.write("\n".join(result.log_lines) + "\n")
    write_manifest(os.path.join(out_dir, "manifest-train.cfg"), "train", config,
                   {"dataset": meta["dataset_sha256"],
                    "checkpoint": sha256_file(ckpt_path)})
    print(f"trained {config['variant']} on {system} for "
          f"{config['epochs'] - start_epoch} epochs; final loss "
          f"{result.loss_history[-1]:.6e}; checkpoint {ckpt_path}")
    return 0


# evaluate ----------------------------------------------------------------------

EVALUATE_SCHEMA = {
    "dataset": ("str", None),
    "checkpoint": ("str", None),
    "out": ("str", None),
    "metric": ("str", "error"),
    "n_ics": ("int", "20"),
    "horizon": ("float", AUTO),
    "times": ("floats", "1,2,3,4,5"),
    "noise": ("str", "none"),
    "rollout_steps": ("int", "5"),
    "seed": ("int", "0"),
    "pdf_time": ("float", "2000.0"),
    "pdf_bins": ("int", "100"),
    "lyapunov_time": ("float", "22.0"),
    "lyapunov_total_time": ("float", "2000.0"),
}


def _parse_noise(spec: str):
    if spec == "none":
        return None
    parts = spec.split(":")
    if parts[0] == "grid" and len(parts) == 2:
        return ("grid", float(parts[1]))
    if parts[0] == "fourier" and len(parts) == 4:
        return ("fourier", float(parts[1]), int(parts[2]), int(parts[3]))
    raise ConfigError(f"bad noise spec {spec!r}; use grid:EPS or fourier:EPS:KLO:KHI")


def _true_solver(ds: sp.SnapshotDataset, sidecar: dict):
    step = float(sidecar.get("solver_step", 1e-3 if ds.system == "vbe" else 0.05))
    if ds.system == "vbe":
        return sp.VbeSolver(ds.d, ds.domain_length,
                            float(sidecar.get("viscosity", 8e-4)), step), step
    return sp.KseSolver(ds.d, ds.domain_length, step), step


def cmd_evaluate(config: dict) -> int:
    dataset_path = resolve_path(config["dataset"])
    ds = sp.read_dataset(dataset_path)
    sidecar = _dataset_sidecar(dataset_path)
    model = node.load_model(resolve_path(config["checkpoint"]))
    out_dir = resolve_path(config["out"])
    os.makedirs(out_dir, exist_ok=True)
    noise = _parse_noise(config["noise"])
    if config["horizon"] == AUTO:
        config["horizon"] = 5.0 if ds.system == "vbe" else 90.0

    test_ds = _test_split(ds, sidecar)
    meta = {"dataset": os.path.basename(dataset_path),
            "checkpoint": os.path.basename(config["checkpoint"]),
            "noise": config["noise"], "seed": config["seed"],
            "system": ds.system}
    metric = config["metric"]

    if metric == "lyapunov":
        est = mt.lyapunov_time_estimate(
            system=ds.system, d=ds.d, domain_length=ds.domain_length,
            solver_step=float(sidecar.get("solver_step", 0.05)),
            total_time=config["lyapunov_total_time"], seed=config["seed"])
        path = os.path.join(out_dir, "lyapunov.csv")
        with open(path, "w") as fh:
            fh.write("\n".join(mt.csv_header("leading Lyapunov exponent", meta)))
            fh.write("\nexponent,lyapunov_time,segments\n")
            tau_l = "" if est.lyapunov_time is None else mt.fmt(est.lyapunov_time)
            fh.write(f"{mt.fmt(est.exponent)},{tau_l},{est.n_segments}\n")
        write_manifest(os.path.join(out_dir, "manifest-evaluate.cfg"), "evaluate",
                       config, {"dataset": sha256_file(dataset_path)})
        print(f"lyapunov exponent {est.exponent:.4f} -> tau_L "
              f"{est.lyapunov_time}")
        return 0

    n_ics = min(config["n_ics"], test_ds.n_traj if ds.system == "vbe"
                else test_ds.n_snap)
    solver, step = _true_solver(ds, sidecar)
    rng_seed = config["seed"]

    # assemble (possibly noised) initial conditions from the test split
    ics = []
    for i in range(n_ics):
        if ds.system == "vbe":
            u0 = test_ds.values[i, 0]
        else:
            u0 = test_ds.values[0, i]
        f = sp.Field(u0, ds.domain_length)
        if noise is not None and noise[0] == "grid":
            f = mt.add_noise_grid(f, noise[1], seed=rng_seed + i)
        elif noise is not None:
            f = mt.add_noise_fourier(f, noise[1], noise[2], noise[3],
                                     seed=rng_seed + i)
        ics.append(f.values)

    horizon, tau = config["horizon"], ds.tau
    ics = np.stack(ics)
    n_snap = int(round(horizon / tau)) + 1
    true_set = np.empty((n_ics, n_snap, ds.d))
    true_set[:, 0] = ics
    sp.fill_trajectories(solver, np.fft.rfft(ics) / ds.d, true_set,
                         int(round(tau / step)), tau)
    times, model_set = node.rollout(model, ics, (n_snap - 1) * tau, tau,
                                    config["rollout_steps"])

    if metric == "error":
        if ds.system == "vbe":
            curve = mt.relative_error(true_set, model_set, times, "relative-l2")
        else:
            curve = mt.relative_error(true_set, model_set, times,
                                      "attractor-normalized",
                                      attractor_snapshots=test_ds.snapshots(),
                                      seed=config["seed"])
            meta["normalization_D"] = curve.normalization
            meta["lyapunov_time"] = config["lyapunov_time"]
        meta["norm"] = ("relative L2 per time" if ds.system == "vbe"
                        else "mean squared error over D")
        mt.write_error_csv(os.path.join(out_dir, "error.csv"),
                           {"model": curve}, meta)
        print(f"error curve over t in [0, {horizon}]: final "
              f"{curve.errors[-1]:.4e} (skipped {curve.skipped})")
    elif metric == "spectrum":
        spectra = {}
        k = sp.wavenumber_indices(ds.d)
        for t_want in config["times"]:
            idx = int(round(t_want / tau))
            if not 0 <= idx < true_set.shape[1]:
                raise ConfigError(f"time {t_want} outside the evaluated horizon")
            spectra[f"true_t{t_want:g}"] = mt.energy_spectrum(true_set[:, idx])
            spectra[f"model_t{t_want:g}"] = mt.energy_spectrum(model_set[:, idx])
        mt.write_spectrum_csv(os.path.join(out_dir, "spectrum.csv"), k, spectra, meta)
        print(f"wrote spectra at t={list(config['times'])}")
    elif metric == "pdf":
        n_save = int(round(config["pdf_time"] / tau))
        _, traj = node.rollout(model, ics[0], n_save * tau, tau,
                               config["rollout_steps"])
        finite = traj[np.all(np.isfinite(traj), axis=1)]
        pdf = mt.joint_pdf(finite, ds.domain_length, bins=config["pdf_bins"])
        mt.write_joint_pdf(os.path.join(out_dir, "model_pdf.snpd"), pdf)
        ref = mt.joint_pdf(test_ds.snapshots(), ds.domain_length,
                           bins=config["pdf_bins"])
        mt.write_joint_pdf(os.path.join(out_dir, "true_pdf.snpd"), ref)
        kl = mt.kl_divergence(pdf, ref)
        with open(os.path.join(out_dir, "pdf_kl.csv"), "w") as fh:
            fh.write("\n".join(mt.csv_header("KL(model||true) of (u_x,u_xx) PDF",
                                             meta)))
            fh.write("\nkl,overlap,model_oob_fraction\n")
            fh.write(f"{mt.fmt(kl)},{mt.fmt(mt.support_overlap(pdf, ref))},"
                     f"{mt.fmt(pdf.oob_fraction)}\n")
        print(f"joint-PDF KL divergence {kl:.4e}")
    else:
        raise ConfigError(f"unknown metric {metric!r}")

    write_manifest(os.path.join(out_dir, "manifest-evaluate.cfg"), "evaluate",
                   config, {"dataset": sha256_file(dataset_path)})
    return 0


# rom ---------------------------------------------------------------------------

ROM_SCHEMA = {
    "dataset": ("str", None),
    "out": ("str", None),
    "rhs": ("str", "true"),
    "mode": ("str", "nlg"),
    "sort": ("str", "eigenvalue"),
    "dp": ("dps", None),
    "total_time": ("float", "2000.0"),
    "save_interval": ("float", "0.25"),
    "dt": ("float", "0.01"),
    "slaving_iterations": ("int", "1"),
    "ic_index": ("int", "0"),
    "pdf_bins": ("int", "100"),
    "reference": ("str", "dataset"),
    "seed": ("int", "0"),
}


def cmd_rom(config: dict) -> int:
    dataset_path = resolve_path(config["dataset"])
    ds = sp.read_dataset(dataset_path)
    sidecar = _dataset_sidecar(dataset_path)
    out_dir = resolve_path(config["out"])
    os.makedirs(out_dir, exist_ok=True)

    if config["rhs"] == "true":
        model = node.TrueRhs(ds.system, ds.d, ds.domain_length,
                             viscosity=float(sidecar.get("viscosity", 8e-4)))
        rhs_hash = "true"
    else:
        ckpt = resolve_path(config["rhs"])
        model = node.load_model(ckpt)
        rhs_hash = sha256_file(ckpt)

    basis = rom_mod.eig_symmetric(rom_mod.rom_linear_matrix(model))
    if config["sort"] == "variance":
        test_ds = _test_split(ds, sidecar)
        basis = rom_mod.variance_sort(basis, model, test_ds.snapshots())
    elif config["sort"] != "eigenvalue":
        raise ConfigError(f"unknown sort {config['sort']!r}")
    rom_mod.write_eigenbasis(os.path.join(out_dir, "basis.sneb"), basis)

    u0 = ds.values[0, config["ic_index"]] if ds.system == "kse" \
        else ds.values[config["ic_index"], 0]
    if config["reference"] == "dataset":
        reference = mt.joint_pdf(ds.snapshots(), ds.domain_length,
                                 bins=config["pdf_bins"])
    elif config["reference"] == "self":
        # full (untruncated) rollout of the same RHS, same integrator settings
        save = config["save_interval"]
        _, traj = node.rollout(model, u0, round(config["total_time"] / save) * save,
                               save, int(round(save / config["dt"])))
        finite = traj[np.all(np.isfinite(traj), axis=1)]
        reference = mt.joint_pdf(finite, ds.domain_length, bins=config["pdf_bins"])
    else:
        raise ConfigError(f"unknown reference {config['reference']!r}")
    mt.write_joint_pdf(os.path.join(out_dir, "reference_pdf.snpd"), reference)
    rows = []
    for d_p in config["dp"]:
        start = time.perf_counter()
        try:
            _, states = rom_mod.rom_integrate(
                basis, d_p, model, u0, config["total_time"], config["mode"],
                config["save_interval"], config["dt"],
                config["slaving_iterations"])
            pdf = mt.joint_pdf(states, ds.domain_length, bins=config["pdf_bins"])
            kl = mt.kl_divergence(pdf, reference)
            overlap = mt.support_overlap(pdf, reference)
        except node.DivergenceError:
            kl, overlap = float("nan"), 0.0
        elapsed = time.perf_counter() - start
        rows.append((d_p, config["mode"], kl, overlap, elapsed))
        print(f"d_p={d_p:3d} mode={config['mode']} KL={kl:.5e} "
              f"overlap={overlap:.3f} ({elapsed:.1f}s)")

    meta = {"rhs": config["rhs"], "sort": config["sort"],
            "total_time": config["total_time"], "dt": config["dt"],
            "seed": config["seed"]}
    with open(os.path.join(out_dir, "rom.csv"), "w") as fh:
        fh.write("\n".join(mt.csv_header(
            "KL(ROM||true) of (u_x,u_xx) joint PDF vs retained dimension", meta)))
        fh.write("\nd_p,mode,kl,overlap,runtime_s\n")
        for d_p, mode, kl, overlap, elapsed in rows:
            fh.write(f"{d_p},{mode},{mt.fmt(kl)},{mt.fmt(overlap)},{elapsed:.3f}\n")
    write_manifest(os.path.join(out_dir, "manifest-rom.cfg"), "rom", config,
                   {"dataset": sha256_file(dataset_path), "rhs": rhs_hash})
    diverged = [d_p for d_p, _, kl, _, _ in rows if not np.isfinite(kl)]
    if diverged:
        print("numerical divergence: non-finite KL for d_p = "
              + ",".join(map(str, diverged)), file=sys.stderr)
        return 3
    return 0


# stencil report -----------------------------------------------------------------

STENCIL_SCHEMA = {
    "checkpoint": ("str", None),
    "out": ("str", ""),
}


def optimal_stencil(system: str, d: int, domain_length: float,
                    viscosity: float = 8e-4) -> np.ndarray:
    """Central-difference taps of the system's true linear term.

    VBE (width 3): nu/Delta^2 * [1, -2, 1].  KSE (width 5): second plus
    fourth derivative, -[0,1,-2,1,0]/Delta^2 - [1,-4,6,-4,1]/Delta^4.
    """
    delta = domain_length / d
    if system == "vbe":
        return viscosity / delta**2 * np.array([1.0, -2.0, 1.0])
    if system == "kse":
        d2 = np.array([0.0, 1.0, -2.0, 1.0, 0.0]) / delta**2
        d4 = np.array([1.0, -4.0, 6.0, -4.0, 1.0]) / delta**4
        return -d2 - d4
    raise ConfigError(f"unknown system {system!r}")


def cmd_stencil_report(config: dict) -> int:
    ckpt = resolve_path(config["checkpoint"])
    model = node.load_model(ckpt)
    if model.variant != "learned-linear":
        raise ConfigError("stencil report needs a learned-linear checkpoint")
    meta = node.read_sidecar(f"{ckpt}.txt")
    system = meta["system"]
    d = model.width
    length = float(meta["domain_length"])
    optimal = optimal_stencil(system, d, length,
                              float(meta.get("viscosity", 8e-4)))
    learned = model.stencil.effective_taps()
    if learned.size != optimal.size:
        raise ConfigError(f"learned width {learned.size} does not match the "
                          f"optimal stencil width {optimal.size} for {system}")
    cosine = float(np.dot(learned, optimal)
                   / (np.linalg.norm(learned) * np.linalg.norm(optimal)))
    print(f"system: {system} (d={d}, L={length})")
    print("optimal taps: " + " ".join(f"{t:12.4f}" for t in optimal))
    print("learned taps: " + " ".join(f"{t:12.4f}" for t in learned))
    print(f"cosine similarity: {cosine:.6f}")
    if config["out"]:
        path = resolve_path(config["out"])
        with open(path, "w") as fh:
            fh.write("# quantity: learned vs optimal linear-branch taps\n")
            fh.write("tap_index,optimal,learned\n")
            for i, (o, l) in enumerate(zip(optimal, learned)):
                fh.write(f"{i},{mt.fmt(o)},{mt.fmt(l)}\n")
            fh.write(f"# cosine_similarity={mt.fmt(cosine)}\n")
    return 0


# entry point ---------------------------------------------------------------------

def _add_common(sub):
    sub.add_argument("--config", help="flat key=value config file")
    sub.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                     help="override any config key")


def _collect_overrides(args, mapping: dict) -> dict:
    overrides = {}
    for flag, key in mapping.items():
        val = getattr(args, flag, None)
        if val is not None:
            overrides[key] = val
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, val = item.split("=", 1)
        overrides[key] = val
    return overrides


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snode",
        description="stabilized neural ODEs: data, training, evaluation, ROM")
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("generate", help="generate ground-truth datasets")
    _add_common(gen)
    gen.add_argument("--system", choices=["vbe", "kse"])
    gen.add_argument("--out")
    gen.add_argument("--train-ics", dest="train_ics")
    gen.add_argument("--test-ics", dest="test_ics")
    gen.add_argument("--horizon")
    gen.add_argument("--seed")

    tr = subs.add_parser("train", help="train an RHS model on a dataset")
    _add_common(tr)
    tr.add_argument("--dataset")
    tr.add_argument("--variant",
                    choices=["nonlinear", "fixed-linear", "learned-linear"])
    tr.add_argument("--out")
    tr.add_argument("--epochs")
    tr.add_argument("--seed")
    tr.add_argument("--resume")

    ev = subs.add_parser("evaluate", help="metrics for a trained model")
    _add_common(ev)
    ev.add_argument("--dataset")
    ev.add_argument("--checkpoint")
    ev.add_argument("--out")
    ev.add_argument("--metric",
                    choices=["error", "spectrum", "pdf", "lyapunov"])
    ev.add_argument("--noise")
    ev.add_argument("--times")
    ev.add_argument("--seed")

    rm = subs.add_parser("rom", help="reduced-order model sweep")
    _add_common(rm)
    rm.add_argument("--dataset")
    rm.add_argument("--rhs", help="'true' or a checkpoint path")
    rm.add_argument("--mode", choices=["galerkin", "nlg", "ppg"])
    rm.add_argument("--sort", choices=["eigenvalue", "variance"])
    rm.add_argument("--dp")
    rm.add_argument("--out")

    st = subs.add_parser("stencil-report",
                         help="learned vs optimal linear-branch taps")
    _add_common(st)
    st.add_argument("--checkpoint")
    st.add_argument("--out")
    return parser


_COMMANDS = {
    "generate": (cmd_generate, None,
                 {"system": "system", "out": "out", "train_ics": "train_ics",
                  "test_ics": "test_ics", "horizon": "horizon", "seed": "seed"}),
    "train": (cmd_train, TRAIN_SCHEMA,
              {"dataset": "dataset", "variant": "variant", "out": "out",
               "epochs": "epochs", "seed": "seed", "resume": "resume"}),
    "evaluate": (cmd_evaluate, EVALUATE_SCHEMA,
                 {"dataset": "dataset", "checkpoint": "checkpoint", "out": "out",
                  "metric": "metric", "noise": "noise", "times": "times",
                  "seed": "seed"}),
    "rom": (cmd_rom, ROM_SCHEMA,
            {"dataset": "dataset", "rhs": "rhs", "mode": "mode", "sort": "sort",
             "dp": "dp", "out": "out"}),
    "stencil-report": (cmd_stencil_report, STENCIL_SCHEMA,
                       {"checkpoint": "checkpoint", "out": "out"}),
}


def _generate_schema(file_values: dict, overrides: dict) -> dict:
    system = overrides.get("system") or file_values.get("system")
    if system not in ("vbe", "kse"):
        raise ConfigError("generate needs system=vbe or system=kse")
    schema = dict(GENERATE_SCHEMA_COMMON)
    schema.update(GENERATE_SCHEMA_VBE if system == "vbe" else GENERATE_SCHEMA_KSE)
    return schema


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    runner, schema, flag_map = _COMMANDS[args.command]
    file_values = parse_config_file(args.config) if args.config else {}
    overrides = _collect_overrides(args, flag_map)
    if args.command == "generate":
        schema = _generate_schema(file_values, overrides)
    config = resolve_config(schema, file_values, overrides)
    return runner(config)


def main(argv=None) -> int:
    try:
        code = run(argv)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (sp.BlowUpError, node.DivergenceError, node.TrainingDiverged) as err:
        print(f"numerical divergence: {err}", file=sys.stderr)
        return 3
    except sp.ArtifactError as err:
        print(f"corrupt artifact: {err}", file=sys.stderr)
        return 4
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 4
    return code


if __name__ == "__main__":
    sys.exit(main())
