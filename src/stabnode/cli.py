"""Command-line pipeline: generate, train, evaluate, rom, stencil-report.

Configuration is flat key=value text with `include <path>` support; CLI
flags override config keys, unknown keys are hard errors.  Each command's
schema declares every key once (a `Key`), and the flags, the value checks
and the per-system defaults all come from it.  Every command
writes a manifest (resolved config plus input hashes as comments) that
reproduces the run bit-identically.  Relative artifact paths resolve under
$SNODE_DATA_DIR when it is set.

`evaluate --metric error|spectrum` reads the true trajectories of noise-free
Burgers test starts from the dataset, within its stored horizon; noisy
starts, longer horizons and Kuramoto-Sivashinsky starts are solved again.

`rom` integrates its whole d_p sweep in lockstep, one batched nonlinear
evaluation per RK4 stage, so a row's `runtime_s` is the shared integration
wall time plus that row's PDF/KL time.  With the true RHS every row is
bit-identical to a run of its d_p alone; with a checkpoint RHS the batched
network evaluation matches it only to rounding.

Text outputs, every CSV through `write_table`: `generate` writes
`<out>.manifest.cfg`; `train` `loss.log` and `manifest-train.cfg`; `evaluate`
`error.csv`, `spectrum.csv`, `pdf_kl.csv` or `lyapunov.csv`, and
`manifest-evaluate.cfg`; `rom` `rom.csv` and `manifest-rom.cfg`;
`stencil-report --out` a tap CSV.  `loss.log` holds a header and one row per
finished epoch, appended as the epoch finishes: a fresh run truncates it, a
resumed run appends and writes the header only to a missing or empty file.
`pdf_kl.csv` and `rom.csv` end each row with `kl_support`, the KL of the two
PDFs renormalised over their shared bins (>= 0), and `mass_off`, the model's
sample fraction out of range or on bins the reference lacks; `kl` can go
below zero when that mass is not 0.  A diverged `rom` row reads nan in both.

`train --resume` of a checkpoint with all `epochs` completed writes nothing
and exits 0; a `checkpoint_every` save of the last epoch is not repeated.

`generate`, `train`, `evaluate` and `rom` create their output directory only
once every check has passed, and `generate` only once its data are solved.

Exit codes: 0 success; 2 config error: a value outside its key's kind,
allowed values or minimum (a count, e.g. `pdf_bins` or `slaving_iterations`,
or a `hidden` width, below 1; a size, `test_ics`, a `seed` or
`checkpoint_every`, below 0; a float, e.g. `lr_nonlinear` or `viscosity`,
that is nan or inf), from any
source, rejected before any command runs; or any other setting the pipeline
rejects (a
ValueError other than an artifact error), e.g. a bad noise spec or band (a
nan or inf noise level included), a stencil not narrower than the grid, a
`generate` `domain_length` that is not above 0 (before anything is solved),
a `train` learning rate below 0 or a negative normal init variance
(`weight_init_variance`, or `stencil_init_scale` of the normal kind; before
any output is written), an `evaluate --checkpoint`, `rom --rhs`
or `train --resume` checkpoint of another width than the dataset, or a
fixed-linear one whose sidecar system, domain_length or (VBE) viscosity is
not the dataset's (before anything is solved or written), a
`train --resume` checkpoint of another
variant, hidden sizes or activation than the config, or with more epochs
completed than `epochs` (before any file is written), a `generate` KSE
`train_fraction` outside (0, 1] or a `generate` grid size `d` that is odd or
below 4 (`spectral.require_grid`, before anything is solved), a `train` dataset whose training split holds no training pair (a
VBE horizon below tau, or a KSE cut that keeps one snapshot or none; before
any output is written), an `evaluate --metric error|spectrum|pdf` or
`rom --sort variance` dataset with an empty test split (every VBE trajectory
or KSE snapshot in training; before any output is written), a
`stencil-report` of a checkpoint
without a learned stencil, a `rom` checkpoint RHS without a
linear branch (before any output is written), an ic_index or d_p
outside the dataset, an empty d_p list, a d_p that leaves a zero
eigenvalue to slave (every d_p is checked before any row runs), a time span
its interval does not divide (`spectral.save_count`, before any integration:
`generate` horizon, tau and KSE transient, `rom` total_time and
save_interval, `evaluate` horizon, pdf_time, `times` and
lyapunov_total_time), a lyapunov_total_time that keeps no segment after the
leading tenth is discarded, or an RK4 step that amplifies a damped mode
(one rule, `neural_ode.min_stable_substeps`: a fixed-linear substep
tau/rollout_steps, or a `rom --reference self` dt, before any output is
written); 3
numerical divergence: a `generate`, `evaluate` true or `--metric lyapunov`
trajectory, named by time and seed (or row), before any output is written;
a `rom` row whose states went non-finite (its KL reads nan), a
`rom --reference self` rollout at a stable dt (before any row runs), an
`evaluate --metric error|spectrum|pdf` model trajectory that went non-finite,
whose outputs and manifest are still written, or a `train` gradient whose
prediction went non-finite, which saves the last good epoch.  A KL of PDFs
that share no bin reads inf and is not a divergence; 4 I/O error, a corrupt
(truncated, padded, bad-header, unknown-tag or NaN/Inf-payload) binary
artifact, a dataset whose grid size is odd or below 4 or whose domain
length is not above 0 (as an older version wrote; read before any output is
written), a sidecar `domain_length` that is not above 0, a sidecar
`viscosity` that is not finite and above 0 or `epochs_completed` below 0
(read before any output is written), a checkpoint whose variant tag
contradicts its stencil block, a sidecar number that does not parse, a
dataset sidecar `train_trajectories` below 1 or past the file's
trajectory count, `train_fraction` outside (0, 1] or
`solver_step` that does not divide the dataset's tau, a checkpoint sidecar
without `system` or `domain_length` where the physics is needed, or with a
`system` other than vbe or kse (before any output is written), or a
`train --resume` checkpoint sidecar without `epochs_completed`.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time
from typing import NamedTuple

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


def _parse_float(text):
    """A finite float: nan and inf pass no check downstream, so none is taken."""
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def _parse_floats(text):
    return tuple(_parse_float(x) for x in str(text).split(",") if x != "")


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


# a count is an int of at least 1, counts a comma list of them, and a size an
# int of at least 0
_PARSERS = {"int": int, "count": int, "counts": _parse_ints, "size": int,
            "float": _parse_float, "str": str, "bool": _parse_bool, "floats": _parse_floats,
            "dps": parse_dp_list}

AUTO = "auto"

# keys in older manifests that never changed a result, dropped where a command lacks them
RETIRED_KEYS = {"threads", "seed"}


class Key(NamedTuple):
    """Everything about one config key.

    ``default`` is config text, None for a required key, or the per-system
    values ``{system: value}`` (``{(system, variant): value}`` for the
    learning rates) that `auto` stands for until :func:`fill_auto`.
    ``choices`` closes the set of values; ``flag`` gives the key a
    ``--key-name`` option.
    """

    kind: str
    default: object = None
    choices: tuple = ()
    flag: bool = False


def resolve_config(schema: dict, file_values: dict, overrides: dict) -> dict:
    """defaults <- config file <- CLI overrides; unknown keys are rejected,
    retired keys a command lacks dropped from a config file so old manifests rerun, and
    every value checked against its key's kind, choices and, for a count or
    each entry of counts, the minimum of 1 (0 for a size).  `auto` is accepted
    only for keys whose default it is or that have per-system defaults."""
    file_values = {k: v for k, v in file_values.items()
                   if k in schema or k not in RETIRED_KEYS}
    for source, values in (("config file", file_values), ("command line", overrides)):
        for key in values:
            if key not in schema:
                raise ConfigError(f"unknown key {key!r} from {source}; known keys: "
                                  + ", ".join(sorted(schema)))
    out = {}
    for key, spec in schema.items():
        default = AUTO if isinstance(spec.default, dict) else spec.default
        raw = overrides.get(key)
        if raw is None:
            raw = file_values.get(key, default)
        if raw is None:
            raise ConfigError(f"missing required key {key!r}")
        if raw == AUTO and default == AUTO:
            out[key] = AUTO
            continue
        try:
            value = _PARSERS[spec.kind](raw)
        except (ValueError, TypeError) as err:
            raise ConfigError(f"bad value for {key!r}: {raw!r} ({err})") from err
        if spec.choices and value not in spec.choices:
            raise ConfigError(f"unknown {key} {value!r}; use one of "
                              + ", ".join(spec.choices))
        if spec.kind == "count" and value < 1:
            raise ConfigError(f"{key} must be at least 1, got {value}")
        if spec.kind == "counts" and any(v < 1 for v in value):
            raise ConfigError(f"every {key} entry must be at least 1, got {raw}")
        if spec.kind == "size" and value < 0:
            raise ConfigError(f"{key} must be at least 0, got {value}")
        out[key] = value
    return out


def fill_auto(schema: dict, config: dict, system: str) -> None:
    """Once the system is known, each per-system key still at `auto` takes
    its system's value (the learning rates: its system's and variant's)."""
    for key, spec in schema.items():
        if config[key] == AUTO and isinstance(spec.default, dict):
            by = spec.default
            config[key] = by[system] if system in by else by[system, config["variant"]]


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


def fmt(x) -> str:
    """Full-precision scalar formatting for CSV cells."""
    return repr(float(x))


def write_table(path, quantity: str, meta: dict, columns: list, rows: list) -> None:
    """The one CSV layout: a quantity line, sorted meta comment lines, the
    column line, then one line per row of already-formatted cells."""
    lines = [f"# quantity: {quantity}"]
    lines += [f"# {key}: {meta[key]}" for key in sorted(meta)]
    lines.append(",".join(columns))
    lines += [",".join(row) for row in rows]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def resolve_path(path: str) -> str:
    root = os.environ.get("SNODE_DATA_DIR")
    if root and not os.path.isabs(path):
        return os.path.join(root, path)
    return path


# generate --------------------------------------------------------------------

GENERATE_SCHEMA_COMMON = {
    "system": Key("str", choices=("vbe", "kse"), flag=True),
    "out": Key("str", flag=True),
    "d": Key("int", {"vbe": 512, "kse": 64}),
    "domain_length": Key("float", {"vbe": 1.0, "kse": 22.0}),
    "seed": Key("size", "0", flag=True),
}

GENERATE_SCHEMA_VBE = {
    "train_ics": Key("count", "1000", flag=True),
    "test_ics": Key("size", "100", flag=True),
    "horizon": Key("float", "5.0", flag=True),
    "tau": Key("float", "0.05"),
    "solver_step": Key("float", "1e-3"),
    "viscosity": Key("float", "8e-4"),
    "peak_wavenumber": Key("float", "10.0"),
    "ic_amplitude": Key("float", AUTO),  # auto: the generator's amplitude rule
}

GENERATE_SCHEMA_KSE = {
    "horizon": Key("float", "2000.0", flag=True),
    "tau": Key("float", "0.25"),
    "solver_step": Key("float", "0.05"),
    "transient": Key("float", "500.0"),
    "train_fraction": Key("float", "0.8"),
}


def cmd_generate(config: dict) -> int:
    system = config["system"]
    fill_auto(GENERATE_SCHEMA_COMMON, config, system)
    out = resolve_path(config["out"])
    if system == "vbe":
        amp = None if config["ic_amplitude"] == AUTO else config["ic_amplitude"]
        ds = sp.generate_vbe_dataset(
            n_train=config["train_ics"], n_test=config["test_ics"], d=config["d"],
            domain_length=config["domain_length"], viscosity=config["viscosity"],
            horizon=config["horizon"], tau=config["tau"], dt=config["solver_step"],
            peak_wavenumber=config["peak_wavenumber"], amplitude=amp,
            base_seed=config["seed"])
        sidecar = {"system": "vbe", "train_trajectories": config["train_ics"],
                   "solver_step": config["solver_step"], "viscosity": config["viscosity"],
                   "peak_wavenumber": config["peak_wavenumber"], "base_seed": config["seed"]}
    else:
        fraction = config["train_fraction"]
        if not 0 < fraction <= 1:  # read_sidecar refuses it too
            raise ConfigError(f"train_fraction must be in (0, 1], got {fraction}")
        ds = sp.generate_kse_dataset(
            d=config["d"], domain_length=config["domain_length"],
            horizon=config["horizon"], tau=config["tau"],
            h=config["solver_step"], transient=config["transient"],
            seed=config["seed"])
        sidecar = {"system": "kse", "train_fraction": config["train_fraction"],
                   "solver_step": config["solver_step"],
                   "transient": config["transient"], "base_seed": config["seed"]}
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    sp.write_dataset(ds, out, manifest=sidecar)
    write_manifest(f"{out}.manifest.cfg", "generate", config,
                   {"dataset": sha256_file(out)})
    print(f"wrote {out}: {ds.n_traj} trajectories x {ds.n_snap} snapshots, "
          f"d={ds.d}, tau={ds.tau}")
    return 0


# train -----------------------------------------------------------------------

TRAIN_SCHEMA = {
    "dataset": Key("str", flag=True),
    "variant": Key("str", choices=tuple(node.VARIANT_TAGS), flag=True),
    "out": Key("str", flag=True),
    "epochs": Key("count", "1000", flag=True),
    "batch_size": Key("count", "256"),
    "rollout_steps": Key("count", "5"),
    "seed": Key("size", "0", flag=True),
    "hidden": Key("counts", "200,200,200"),
    "activation": Key("str", {"vbe": "relu", "kse": "sigmoid"},
                      tuple(dc.ACTIVATION_TAGS)),
    "weight_init_variance": Key("float", "1e-2"),
    "stencil_width": Key("int", {"vbe": 3, "kse": 5}),
    "stencil_symmetric": Key("bool", {"vbe": True, "kse": False}),
    "stencil_init_kind": Key("str", {"vbe": "normal", "kse": "uniform"},
                             ("normal", "uniform")),
    # Burgers linear-branch init variance capped at 1.0 by default
    "stencil_init_scale": Key("float", {"vbe": 1.0, "kse": float(np.sqrt(1.0 / 3.0))}),
    "lr_nonlinear": Key("floats", {sv: nonlinear for sv, (nonlinear, _)
                                   in node.LEARNING_RATES.items()}),
    "lr_linear": Key("floats", {sv: linear for sv, (_, linear)
                                in node.LEARNING_RATES.items()}),
    "checkpoint_every": Key("size", "0"),  # 0: no periodic checkpoint
    "resume": Key("str", "", flag=True),
}


def _require_stable_rk4(symbol: np.ndarray, interval: float, substeps: int,
                        message) -> None:
    """ConfigError(``message(need)``) when ``substeps`` RK4 steps over
    ``interval`` are fewer than the ``need`` that
    :func:`~stabnode.neural_ode.min_stable_substeps` gives for the real part of
    ``symbol``, so they amplify a mode the linear term damps: the one stability
    rule of ``train``, ``evaluate`` and ``rom --reference self``."""
    need = node.min_stable_substeps(symbol.real, interval)
    if substeps < need:
        raise ConfigError(message(need))


def _require_stable_substeps(model, tau: float, rollout_steps: int) -> None:
    """ConfigError when an RK4 substep amplifies a mode the fixed linear term damps."""
    if model.variant == "fixed-linear":
        _require_stable_rk4(
            model.linear_symbol(), tau, rollout_steps,
            lambda need: f"rollout_steps={rollout_steps} makes RK4 amplify modes the "
                         f"fixed linear term damps; use rollout_steps={need} or more")


# how each system's generator leaves a training pair, two snapshots in a row
_TRAIN_SPLIT_SETTING = {"vbe": "a horizon of one tau or more",
                        "kse": "a train_fraction and horizon that keep two snapshots or more"}


def _load_checkpoint(path: str, ds: sp.SnapshotDataset) -> node.RhsModel:
    """The model saved at ``path``; ConfigError when it is not as wide as the
    dataset ``ds``, or when it is fixed-linear and the sidecar physics its
    operator is built from is not the dataset's: system, domain_length and,
    for vbe, the only operator viscosity enters, viscosity.  Checked before
    anything is solved or written."""
    model = node.load_model(path)
    if model.width != ds.d:
        raise ConfigError(f"checkpoint width {model.width} does not match the "
                          f"dataset width {ds.d}")
    if model.variant == "fixed-linear":
        for key, saved, data in zip(("system", "domain_length", "viscosity"),
                                    node.checkpoint_physics(path),
                                    (ds.system, ds.domain_length, ds.viscosity)):
            if saved != data and (key != "viscosity" or ds.system == "vbe"):
                raise ConfigError(f"checkpoint {key} {saved} does not match the "
                                  f"dataset {key} {data}")
    return model


def cmd_train(config: dict) -> int:
    dataset_path = resolve_path(config["dataset"])
    ds = sp.read_dataset(dataset_path)
    system = ds.system
    fill_auto(TRAIN_SCHEMA, config, system)
    train_ds = ds.split()[0]
    if train_ds.pair_starts().size == 0:
        raise ConfigError(f"{dataset_path} has no training pair: its training split has "
                          f"shape {train_ds.values.shape}; generate it with "
                          f"{_TRAIN_SPLIT_SETTING[system]}")

    hidden = list(config["hidden"])
    sizes = [ds.d] + hidden + [ds.d]
    acts = [config["activation"]] * len(hidden) + ["linear"]
    kind, scale = config["stencil_init_kind"], config["stencil_init_scale"]
    st_init = (kind, 0.0, scale) if kind == "normal" else (kind, -scale, scale)

    start_epoch = 0
    adam = None
    if config["resume"]:
        resume_path = resolve_path(config["resume"])
        model = _load_checkpoint(resume_path, ds)
        adam = node.load_opt_state(f"{resume_path}.opt", model)
        start_epoch = sp.read_sidecar(f"{resume_path}.txt",
                                      required=("epochs_completed",))["epochs_completed"]
        # before the output directory is made or any file is rewritten
        if (model.variant, model.term.layer_sizes, model.term.activations) != (
                config["variant"], sizes, acts):
            raise ConfigError(
                f"variant={config['variant']}, hidden={','.join(map(str, hidden))} "
                f"and activation={config['activation']} contradict the checkpoint, a "
                f"{model.variant} model with layers {model.term.layer_sizes} and "
                f"activations {model.term.activations}")
        if start_epoch > config["epochs"]:
            raise ConfigError(f"checkpoint has {start_epoch} epochs completed, past "
                              f"epochs={config['epochs']}")
    else:
        model = node.build_model(
            config["variant"], sizes, acts,
            ("normal", 0.0, config["weight_init_variance"]), config["seed"],
            system=system, domain_length=ds.domain_length, viscosity=ds.viscosity,
            stencil_width=config["stencil_width"],
            stencil_symmetric=config["stencil_symmetric"],
            stencil_init=st_init)

    _require_stable_substeps(model, train_ds.tau, config["rollout_steps"])
    train_cfg = node.TrainConfig(
        config["epochs"], config["lr_nonlinear"], config["lr_linear"],
        batch_size=config["batch_size"], rollout_steps=config["rollout_steps"],
        seed=config["seed"])
    if start_epoch == config["epochs"]:
        print(f"nothing to train: {resume_path} has all {start_epoch} epochs completed")
        return 0

    out_dir = resolve_path(config["out"])
    os.makedirs(out_dir, exist_ok=True)
    ckpt_path = os.path.join(out_dir, "model.snck")
    opt_path = f"{ckpt_path}.opt"
    meta = {"system": system, "domain_length": ds.domain_length,
            "viscosity": ds.viscosity, "variant": config["variant"],
            "dataset_sha256": sha256_file(dataset_path)}

    if adam is None:
        adam = node.AdamState(model)
    finished = start_epoch

    def writer(epoch, mdl, opt):
        node.save_model(ckpt_path, mdl, sidecar={**meta, "epochs_completed": epoch})
        node.save_opt_state(opt_path, opt)

    def checkpoint_due(epoch):
        return config["checkpoint_every"] and epoch % config["checkpoint_every"] == 0

    # line-buffered, so each epoch's row is in the file once the epoch finishes
    with open(os.path.join(out_dir, "loss.log"), "a" if config["resume"] else "w",
              buffering=1) as log:
        if log.tell() == 0:
            log.write("# epoch\tstage\tlr_nonlinear\tlr_linear\tloss\n")

        def on_epoch(epoch, loss, stage, lr_nl, lr_lin, mdl, opt):
            nonlocal finished
            finished = epoch + 1
            log.write(f"{epoch}\t{stage}\t{lr_nl:.3e}\t{lr_lin:.3e}\t{loss:.10e}\n")
            if checkpoint_due(finished):
                writer(finished, mdl, opt)

        try:
            result = node.train(model, train_ds, train_cfg, start_epoch=start_epoch,
                                adam=adam, on_epoch=on_epoch)
        except node.DivergenceError:
            writer(finished, model, adam)  # the last good state: no update diverged
            raise

    if not checkpoint_due(finished):  # else on_epoch saved the last epoch
        writer(finished, model, adam)
    write_manifest(os.path.join(out_dir, "manifest-train.cfg"), "train", config,
                   {"dataset": meta["dataset_sha256"],
                    "checkpoint": sha256_file(ckpt_path)})
    print(f"trained {config['variant']} on {system} for "
          f"{config['epochs'] - start_epoch} epochs; final loss "
          f"{result.loss_history[-1]:.6e}; checkpoint {ckpt_path}")
    return 0


# evaluate ----------------------------------------------------------------------

EVALUATE_SCHEMA = {
    "dataset": Key("str", flag=True),
    "checkpoint": Key("str", flag=True),
    "out": Key("str", flag=True),
    "metric": Key("str", "error", ("error", "spectrum", "pdf", "lyapunov"), flag=True),
    "n_ics": Key("count", "20"),
    "horizon": Key("float", {"vbe": 5.0, "kse": 90.0}),
    "noise": Key("str", "none", flag=True),
    "times": Key("floats", "1,2,3,4,5", flag=True),
    "rollout_steps": Key("count", "5"),
    "seed": Key("size", "0", flag=True),
    "pdf_time": Key("float", "2000.0"),
    "pdf_bins": Key("count", "100"),
    "lyapunov_time": Key("float", "22.0"),
    "lyapunov_total_time": Key("float", "2000.0"),
}


def _parse_noise(spec: str):
    if spec == "none":
        return None
    parts = spec.split(":")
    usage = f"bad noise spec {spec!r}; use grid:EPS or fourier:EPS:KLO:KHI"
    try:
        if parts[0] == "grid" and len(parts) == 2:
            return ("grid", _parse_float(parts[1]))
        if parts[0] == "fourier" and len(parts) == 4:
            return ("fourier", _parse_float(parts[1]), int(parts[2]), int(parts[3]))
    except ValueError as err:
        raise ConfigError(f"{usage} ({err})") from None
    raise ConfigError(usage)


def _test_split(ds, path) -> sp.SnapshotDataset:
    """The dataset's test split; ConfigError when it is empty, as scoring on
    the training data in its place would pass silently."""
    test_ds = ds.split()[1]
    if test_ds.values.size == 0:
        if ds.system == "kse":  # the generator's setting that leaves a test split
            setting = (f"a train_fraction of at most "
                       f"{sp.largest_testing_fraction(ds.n_snap)!r} (the cut rounds "
                       f"{ds.n_snap} * train_fraction)")
        else:
            setting = "test_ics of 1 or more"
        raise ConfigError(f"{path} has no test split to score on: its test split has "
                          f"shape {test_ds.values.shape}; generate it with {setting}")
    return test_ds


def cmd_evaluate(config: dict) -> int:
    dataset_path = resolve_path(config["dataset"])
    ds = sp.read_dataset(dataset_path)
    model = _load_checkpoint(resolve_path(config["checkpoint"]), ds)
    fill_auto(EVALUATE_SCHEMA, config, ds.system)
    noise = _parse_noise(config["noise"])
    out_dir = resolve_path(config["out"])  # made once the metric is computed

    meta = {"dataset": os.path.basename(dataset_path),
            "checkpoint": os.path.basename(config["checkpoint"]),
            "noise": config["noise"], "seed": config["seed"],
            "system": ds.system}
    code = 0
    if config["metric"] == "lyapunov":
        est = mt.lyapunov_time_estimate(
            system=ds.system, d=ds.d, domain_length=ds.domain_length,
            solver_step=ds.solver_step, viscosity=ds.viscosity,
            total_time=config["lyapunov_total_time"], seed=config["seed"])
        tau_l = "" if est.lyapunov_time is None else fmt(est.lyapunov_time)
        os.makedirs(out_dir, exist_ok=True)
        write_table(os.path.join(out_dir, "lyapunov.csv"), "leading Lyapunov exponent",
                    meta, ["exponent", "lyapunov_time", "segments"],
                    [[fmt(est.exponent), tau_l, str(est.n_segments)]])
        print(f"lyapunov exponent {est.exponent:.4f} -> tau_L "
              f"{est.lyapunov_time}")
    else:
        code = _evaluate_rollouts(config, _test_split(ds, dataset_path), model, noise,
                                  out_dir, meta)
    write_manifest(os.path.join(out_dir, "manifest-evaluate.cfg"), "evaluate",
                   config, {"dataset": sha256_file(dataset_path)})
    return code


def _evaluate_rollouts(config: dict, test_ds, model, noise, out_dir: str,
                       meta: dict) -> int:
    """The error, spectrum and pdf metrics against the test split: write the
    metric's CSV and return 3 if a model trajectory went non-finite, else 0."""
    metric = config["metric"]
    _require_stable_substeps(model, test_ds.tau, config["rollout_steps"])
    horizon, tau = config["horizon"], test_ds.tau
    if metric == "spectrum":  # snapshot indices, checked before any rollout
        picks = [sp.save_count(t, tau) for t in config["times"]]
        if max(picks, default=0) > sp.save_count(horizon, tau):
            raise ConfigError(f"time {max(config['times'])} is past the horizon {horizon}")

    # assemble (possibly noised) initial conditions from the test split
    ics = []
    for i, u0 in enumerate(test_ds.initial_conditions()[:config["n_ics"]]):
        if noise is not None and noise[0] == "grid":
            u0 = mt.add_noise_grid(u0, noise[1], seed=config["seed"] + i)
        elif noise is not None:
            u0 = mt.add_noise_fourier(u0, *noise[1:], seed=config["seed"] + i)
        ics.append(u0)

    ics = np.stack(ics)
    if metric in ("error", "spectrum"):
        true_set = test_ds.true_trajectories(ics, sp.save_count(horizon, tau) + 1)
        times, model_set = node.rollout(model, ics, horizon, tau, config["rollout_steps"])
    else:  # pdf: one long rollout from the first initial condition
        times, model_set = node.rollout(model, ics[:1], config["pdf_time"], tau,
                                        config["rollout_steps"])
    bad = ~np.all(np.isfinite(model_set), axis=-1)  # (initial condition, snapshot)
    os.makedirs(out_dir, exist_ok=True)

    if metric == "error":
        if test_ds.system == "vbe":
            curve = mt.relative_error(true_set, model_set, times, "relative-l2")
        else:
            curve = mt.relative_error(true_set, model_set, times,
                                      "attractor-normalized",
                                      attractor_snapshots=test_ds.snapshots(),
                                      seed=config["seed"])
            meta["normalization_D"] = curve.normalization
            meta["lyapunov_time"] = config["lyapunov_time"]
        meta["norm"] = ("relative L2 per time" if test_ds.system == "vbe"
                        else "mean squared error over D")
        write_table(os.path.join(out_dir, "error.csv"), "ensemble error", meta,
                    ["t", "model"],
                    [[fmt(t), fmt(e)] for t, e in zip(curve.times, curve.errors)])
        print(f"error curve over t in [0, {horizon}]: final "
              f"{curve.errors[-1]:.4e} (skipped {curve.skipped})")
    elif metric == "spectrum":
        spectra = {}
        for t_want, idx in zip(config["times"], picks):
            spectra[f"true_t{t_want:g}"] = mt.energy_spectrum(true_set[:, idx])
            spectra[f"model_t{t_want:g}"] = mt.energy_spectrum(model_set[:, idx])
        write_table(os.path.join(out_dir, "spectrum.csv"),
                    "energy spectrum E(k) = <0.5 |u_hat(k)|^2>, "
                    "forward transform normalized by 1/d", meta, ["k", *spectra],
                    [[str(k), *map(fmt, row)] for k, row in
                     zip(sp.wavenumber_indices(test_ds.d), zip(*spectra.values()))])
        print(f"wrote spectra at t={list(config['times'])}")
    else:
        pdf = mt.joint_pdf(model_set[0][~bad[0]], test_ds.domain_length,
                           bins=config["pdf_bins"])
        mt.write_joint_pdf(os.path.join(out_dir, "model_pdf.snpd"), pdf)
        ref = mt.joint_pdf(test_ds.snapshots(), test_ds.domain_length,
                           bins=config["pdf_bins"])
        mt.write_joint_pdf(os.path.join(out_dir, "true_pdf.snpd"), ref)
        kl = mt.kl_divergence(pdf, ref)
        write_table(os.path.join(out_dir, "pdf_kl.csv"),
                    "KL(model||true) of (u_x,u_xx) PDF", meta,
                    ["kl", "overlap", "model_oob_fraction", "kl_support", "mass_off"],
                    [[fmt(kl), fmt(mt.support_overlap(pdf, ref)), fmt(pdf.oob_fraction),
                      fmt(mt.kl_support(pdf, ref)), fmt(mt.mass_off(pdf, ref))]])
        print(f"joint-PDF KL divergence {kl:.4e}")

    if bad.any():
        which = ",".join(map(str, np.flatnonzero(bad.any(axis=1))))
        first = times[bad.any(axis=0).argmax()]
        print(f"numerical divergence: non-finite model trajectory for initial "
              f"conditions {which}, first at t = {first:g}", file=sys.stderr)
        return 3
    return 0


# rom ---------------------------------------------------------------------------

ROM_SCHEMA = {
    "dataset": Key("str", flag=True),
    "rhs": Key("str", "true", flag=True),
    "mode": Key("str", "nlg", rom_mod.MODES, flag=True),
    "sort": Key("str", "eigenvalue", tuple(rom_mod.ORDERING_TAGS), flag=True),
    "dp": Key("dps", flag=True),
    "out": Key("str", flag=True),
    "total_time": Key("float", "2000.0"),
    "save_interval": Key("float", "0.25"),
    "dt": Key("float", "0.01"),
    "slaving_iterations": Key("count", "1"),
    "ic_index": Key("int", "0"),
    "pdf_bins": Key("count", "100"),
    "reference": Key("str", "dataset", ("dataset", "self")),
}


def cmd_rom(config: dict) -> int:
    dataset_path = resolve_path(config["dataset"])
    ds = sp.read_dataset(dataset_path)
    out_dir = resolve_path(config["out"])

    if config["rhs"] == "true":
        model = node.TrueRhs(ds.system, ds.d, ds.domain_length, viscosity=ds.viscosity)
        rhs_hash = "true"
    else:
        ckpt = resolve_path(config["rhs"])
        model = _load_checkpoint(ckpt, ds)
        rhs_hash = sha256_file(ckpt)

    basis = rom_mod.fourier_basis(model.linear_symbol())
    if config["sort"] == "variance":
        basis = rom_mod.variance_sort(basis, model,
                                      _test_split(ds, dataset_path).snapshots())
    # every d_p, before anything is written or the reference is rolled out
    *_, sub = rom_mod.check_sweep(basis, config["dp"], config["mode"], config["total_time"],
                                  config["save_interval"], config["dt"])
    if config["reference"] == "self":  # its full-dimension rollout steps every mode
        interval = config["save_interval"]
        _require_stable_rk4(
            model.linear_symbol(), interval, sub,
            lambda need: f"reference=self: dt={config['dt']:g} makes the full rollout's "
                         f"RK4 amplify modes the linear term damps; use dt="
                         f"{interval / need!r} (save_interval/{need}) or a smaller "
                         f"divisor of save_interval")
    starts = ds.initial_conditions()
    if not 0 <= config["ic_index"] < len(starts):
        raise ConfigError(f"ic_index must be in 0..{len(starts) - 1}")
    u0 = starts[config["ic_index"]]
    os.makedirs(out_dir, exist_ok=True)
    rom_mod.write_eigenbasis(os.path.join(out_dir, "basis.sneb"), basis)

    if config["reference"] == "dataset":
        reference = mt.joint_pdf(ds.snapshots(), ds.domain_length,
                                 bins=config["pdf_bins"])
    else:  # self: the full (untruncated) rollout of the same RHS and integrator
        traj = node.rollout(model, u0, config["total_time"], config["save_interval"], sub)[1]
        sp.finite_truth(traj[None], config["save_interval"], what="reference=self rollout")
        reference = mt.joint_pdf(traj, ds.domain_length, bins=config["pdf_bins"])
    mt.write_joint_pdf(os.path.join(out_dir, "reference_pdf.snpd"), reference)
    start = time.perf_counter()
    _, sweep = rom_mod.rom_integrate(
        basis, config["dp"], model, u0, config["total_time"], config["mode"],
        config["save_interval"], config["dt"], config["slaving_iterations"])
    shared = time.perf_counter() - start
    rows, diverged = [], []
    for d_p, states in zip(config["dp"], sweep):
        start = time.perf_counter()
        kl, overlap, kl_support, off = float("nan"), 0.0, float("nan"), float("nan")
        if np.all(np.isfinite(states)):
            pdf = mt.joint_pdf(states, ds.domain_length, bins=config["pdf_bins"])
            kl = mt.kl_divergence(pdf, reference)
            overlap = mt.support_overlap(pdf, reference)
            kl_support, off = mt.kl_support(pdf, reference), mt.mass_off(pdf, reference)
        else:
            diverged.append(d_p)
        elapsed = shared + time.perf_counter() - start
        rows.append((d_p, config["mode"], kl, overlap, elapsed, kl_support, off))
        print(f"d_p={d_p:3d} mode={config['mode']} KL={kl:.5e} "
              f"overlap={overlap:.3f} ({elapsed:.1f}s)")

    meta = {"rhs": config["rhs"], "sort": config["sort"],
            "total_time": config["total_time"], "dt": config["dt"]}
    write_table(os.path.join(out_dir, "rom.csv"),
                "KL(ROM||true) of (u_x,u_xx) joint PDF vs retained dimension", meta,
                ["d_p", "mode", "kl", "overlap", "runtime_s", "kl_support", "mass_off"],
                [[str(d_p), mode, fmt(kl), fmt(overlap), f"{elapsed:.3f}", fmt(kl_support),
                  fmt(off)] for d_p, mode, kl, overlap, elapsed, kl_support, off in rows])
    write_manifest(os.path.join(out_dir, "manifest-rom.cfg"), "rom", config,
                   {"dataset": sha256_file(dataset_path), "rhs": rhs_hash})
    if diverged:
        print("numerical divergence: non-finite ROM states for d_p = "
              + ",".join(map(str, diverged)), file=sys.stderr)
        return 3
    return 0


# stencil report -----------------------------------------------------------------

STENCIL_SCHEMA = {
    "checkpoint": Key("str", flag=True),
    "out": Key("str", "", flag=True),
}


def optimal_stencil(system: str, d: int, domain_length: float,
                    viscosity: float = 8e-4) -> np.ndarray:
    """Central-difference taps of the system's true linear term.

    VBE (width 3): nu/Delta^2 * [1, -2, 1].  KSE (width 5): second plus
    fourth derivative, -[0,1,-2,1,0]/Delta^2 - [1,-4,6,-4,1]/Delta^4.  Any
    ``system`` but vbe is KSE: ``node.checkpoint_physics`` refuses others.
    """
    delta = domain_length / d
    if system == "vbe":
        return viscosity / delta**2 * np.array([1.0, -2.0, 1.0])
    d2 = np.array([0.0, 1.0, -2.0, 1.0, 0.0]) / delta**2
    d4 = np.array([1.0, -4.0, 6.0, -4.0, 1.0]) / delta**4
    return -d2 - d4


def cmd_stencil_report(config: dict) -> int:
    ckpt = resolve_path(config["checkpoint"])
    model = node.load_model(ckpt)
    if model.variant != "learned-linear":
        raise ConfigError("stencil report needs a learned-linear checkpoint")
    system, length, viscosity = node.checkpoint_physics(ckpt)
    d = model.width
    optimal = optimal_stencil(system, d, length, viscosity)
    learned = model.linear.effective_taps()
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
        # the cosine closes the file as a one-cell comment row
        write_table(resolve_path(config["out"]),
                    "learned vs optimal linear-branch taps", {},
                    ["tap_index", "optimal", "learned"],
                    [[str(i), fmt(o), fmt(w)]
                     for i, (o, w) in enumerate(zip(optimal, learned))]
                    + [[f"# cosine_similarity={fmt(cosine)}"]])
    return 0


# entry point ---------------------------------------------------------------------

def _collect_overrides(args) -> dict:
    """Every flag given on the command line, then each --set KEY=VALUE."""
    overrides = {key: val for key, val in vars(args).items()
                 if val is not None and key not in ("command", "config", "set")}
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, val = item.split("=", 1)
        overrides[key] = val
    return overrides


def _generate_schema(file_values: dict, overrides: dict) -> dict:
    system = overrides.get("system") or file_values.get("system")
    if system not in GENERATE_SCHEMA_COMMON["system"].choices:
        raise ConfigError("generate needs system=vbe or system=kse")
    return {**GENERATE_SCHEMA_COMMON,
            **(GENERATE_SCHEMA_VBE if system == "vbe" else GENERATE_SCHEMA_KSE)}


# name: (runner, schema (for generate, the keys of both systems), help, description)
_COMMANDS = {
    "generate": (cmd_generate, {**GENERATE_SCHEMA_COMMON, **GENERATE_SCHEMA_VBE,
                                **GENERATE_SCHEMA_KSE},
                 "generate ground-truth datasets", None),
    "train": (cmd_train, TRAIN_SCHEMA, "train an RHS model on a dataset", None),
    "evaluate": (
        cmd_evaluate, EVALUATE_SCHEMA, "metrics for a trained model",
        "error and spectrum compare with the test split's true trajectories: read "
        "from the dataset for noise-free Burgers starts within its horizon, solved "
        "again otherwise"),
    "rom": (
        cmd_rom, ROM_SCHEMA, "reduced-order model sweep",
        "integrate every retained dimension d_p of the sweep in lockstep, one batched "
        "nonlinear evaluation per RK4 stage, with the rhs 'true' or a checkpoint path; "
        "a row's runtime_s is the shared integration wall time plus its own PDF/KL "
        "time, and with a checkpoint RHS a row matches a run of its d_p alone only "
        "to rounding"),
    "stencil-report": (cmd_stencil_report, STENCIL_SCHEMA,
                       "learned vs optimal linear-branch taps", None),
}


def build_parser() -> argparse.ArgumentParser:
    """One subcommand per command; its flags are the schema keys declared with one."""
    parser = argparse.ArgumentParser(
        prog="snode",
        description="stabilized neural ODEs: data, training, evaluation, ROM")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (_, schema, help_text, description) in _COMMANDS.items():
        sub = subs.add_parser(name, help=help_text, description=description)
        sub.add_argument("--config", help="flat key=value config file")
        sub.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                         help="override any config key")
        for key, spec in schema.items():
            if spec.flag:
                sub.add_argument("--" + key.replace("_", "-"), dest=key,
                                 metavar="{" + ",".join(spec.choices) + "}"
                                 if spec.choices else None)
    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    runner, schema, *_ = _COMMANDS[args.command]
    file_values = parse_config_file(args.config) if args.config else {}
    overrides = _collect_overrides(args)
    if args.command == "generate":
        schema = _generate_schema(file_values, overrides)
    config = resolve_config(schema, file_values, overrides)
    return runner(config)


def main(argv=None) -> int:
    try:
        code = run(argv)
    except sp.DivergenceError as err:
        print(f"numerical divergence: {err}", file=sys.stderr)
        return 3
    except sp.ArtifactError as err:
        print(f"corrupt artifact: {err}", file=sys.stderr)
        return 4
    except ValueError as err:  # a ConfigError, or a setting a library call rejects
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 4
    return code


if __name__ == "__main__":
    sys.exit(main())
