"""The benchmark's workloads: sizes, set-up, CLI stages and output checks.

Each workload runs two `snode` commands in-process through
`stabnode.cli.main`: `generate`, then one model stage (`train`, `evaluate` or
`rom`).  Inputs derive from the workload seed only.  `check` reads the outputs
back and returns one named pass/fail entry per operation.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

import numpy as np

from stabnode import neural_ode as node
from stabnode import spectral as sp

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference_energies.json"

# VBE initial conditions come in blocks of consecutive IC seeds; the workload
# seed picks a block, so reference energies can be stored for every block.
VBE_SEED_BLOCKS = 32
VBE_BLOCK_ICS = 18

# Per-snapshot energies are sums of float64 grid means over up to 18
# trajectories of 1000 solver steps; a change in summation order moves them by
# far less than 1e6 ulps, a change in the solution by far more.
ENERGY_RTOL = 1e6 * np.finfo(np.float64).eps
MEAN_ATOL = 1e-12
KSE_ENERGY_BAND = (0.2, 3.0)   # 0.5 <u^2> on the L=22 attractor: 0.4-1.6 seen
ROM_MIN_OVERLAP = 0.9


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


def vbe_base_seed(seed: int) -> int:
    return VBE_BLOCK_ICS * (seed % VBE_SEED_BLOCKS)


def snapshot_energies(values: np.ndarray) -> np.ndarray:
    """0.5 <u^2> over the grid, per trajectory and snapshot."""
    return 0.5 * np.mean(values * values, axis=-1)


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _data_rows(path) -> list[list[str]]:
    """Comma-separated rows of a CSV written by stabnode, header dropped."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


# shared VBE pieces -----------------------------------------------------------------

@dataclass(frozen=True)
class VbeData:
    """A Burgers ensemble written by `snode generate --system vbe`."""

    d: int
    train_ics: int
    test_ics: int
    horizon: float
    tau: float = 0.05

    @property
    def n_traj(self) -> int:
        return self.train_ics + self.test_ics

    @property
    def n_snap(self) -> int:
        return int(round(self.horizon / self.tau)) + 1

    def reference_key(self) -> str:
        return f"vbe d={self.d} ics={self.n_traj} horizon={self.horizon}"

    def generate_argv(self, out: str, seed: int) -> list[str]:
        return ["generate", "--system", "vbe", "--out", out,
                "--train-ics", str(self.train_ics), "--test-ics", str(self.test_ics),
                "--horizon", repr(self.horizon), "--seed", str(vbe_base_seed(seed)),
                "--set", f"d={self.d}", "--set", f"tau={self.tau!r}"]

    def check(self, path: str, seed: int, reference: dict) -> list[Check]:
        ds = sp.read_dataset(path)
        shape = (self.n_traj, self.n_snap, self.d)
        if ds.values.shape != shape:
            return [Check("dataset shape", False, f"{ds.values.shape} != {shape}")]
        energy = snapshot_energies(ds.values)
        drift = float(np.max(np.abs(np.mean(ds.values, axis=-1))))
        rise = float(np.max(np.diff(energy, axis=1) / energy[:, :-1]))
        checks = [Check("dataset shape", True),
                  Check("zero mean", drift <= MEAN_ATOL, f"max |mean| {drift:.3e}"),
                  Check("energy non-increasing", rise <= ENERGY_RTOL,
                        f"max relative rise {rise:.3e}")]
        table = reference.get(self.reference_key(), {})
        block = str(seed % VBE_SEED_BLOCKS)
        if block not in table:
            checks.append(Check("reference energies", False,
                                f"no reference for {self.reference_key()} block {block}"))
            return checks
        want = np.array(table[block])
        got = energy.sum(axis=0)
        err = float(np.max(np.abs(got - want) / want))
        checks.append(Check("reference energies", err <= ENERGY_RTOL,
                            f"max relative deviation {err:.3e}"))
        return checks


def _loss_history(path) -> list[float]:
    with open(path) as fh:
        return [float(ln.split("\t")[-1]) for ln in fh if not ln.startswith("#")]


# workloads --------------------------------------------------------------------------

@dataclass(frozen=True)
class VbeTrain:
    """Burgers at the paper grid, learned-linear model, full-batch training."""

    name: ClassVar[str] = "vbe-train"
    model_stage: ClassVar[str] = "train"
    data: VbeData = VbeData(d=512, train_ics=13, test_ics=1, horizon=1.0)
    epochs: int = 20
    hidden: str = "200,200,200"
    batch_size: int = 256
    rollout_steps: int = 5

    def sizes(self) -> dict:
        return {"d": self.data.d, "ics": self.data.n_traj, "horizon": self.data.horizon,
                "pairs": self.data.train_ics * (self.data.n_snap - 1),
                "variant": "learned-linear", "hidden": self.hidden,
                "activation": "relu", "epochs": self.epochs,
                "batch_size": self.batch_size, "rollout_steps": self.rollout_steps}

    def setup(self, rep_dir: str, seed: int) -> None:
        pass

    def stages(self, rep_dir: str, seed: int) -> list[tuple[str, list[str]]]:
        ds = os.path.join(rep_dir, "vbe.snod")
        return [("generate", self.data.generate_argv(ds, seed)),
                ("train", ["train", "--dataset", ds, "--variant", "learned-linear",
                           "--out", os.path.join(rep_dir, "run"),
                           "--epochs", str(self.epochs), "--seed", str(seed),
                           "--set", f"hidden={self.hidden}",
                           "--set", f"batch_size={self.batch_size}",
                           "--set", f"rollout_steps={self.rollout_steps}"])]

    def check(self, rep_dir: str, seed: int, reference: dict, extras: dict) -> list[Check]:
        checks = self.data.check(os.path.join(rep_dir, "vbe.snod"), seed, reference)
        losses = _loss_history(os.path.join(rep_dir, "run", "loss.log"))
        ok = (len(losses) == self.epochs and all(map(math.isfinite, losses))
              and losses[-1] < losses[0])
        checks.append(Check("train loss finite and below first epoch", ok,
                            f"{len(losses)} epochs, first {losses[0]:.6e}, "
                            f"last {losses[-1]:.6e}" if losses else "no loss lines"))
        if losses:
            extras["train_loss_final"] = losses[-1]
        model = node.load_model(os.path.join(rep_dir, "run", "model.snck"))
        checks.append(Check("checkpoint readable", model.variant == "learned-linear"))
        return checks

    def digest(self, rep_dir: str) -> dict:
        return {name: file_digest(os.path.join(rep_dir, name))
                for name in ("vbe.snod", "run/model.snck", "run/loss.log")}


@dataclass(frozen=True)
class VbeEnsemble:
    """Burgers ensemble rollouts of a fixed model against the true solver."""

    name: ClassVar[str] = "vbe-ensemble"
    model_stage: ClassVar[str] = "evaluate"
    data: VbeData = VbeData(d=512, train_ics=2, test_ics=16, horizon=1.0)
    hidden: str = "200,200,200"
    weight_init_variance: float = 1e-4
    stencil_init_variance: float = 1e-4
    rollout_steps: int = 5

    def sizes(self) -> dict:
        return {"d": self.data.d, "ics": self.data.n_traj, "rollouts": self.data.test_ics,
                "horizon": self.data.horizon, "variant": "learned-linear",
                "hidden": self.hidden, "rollout_steps": self.rollout_steps}

    def setup(self, rep_dir: str, seed: int) -> None:
        """Write the evaluated checkpoint: untrained, small weights, so every
        rollout stays finite to the horizon."""
        d = self.data.d
        hidden = [int(h) for h in self.hidden.split(",")]
        model = node.build_model(
            "learned-linear", [d] + hidden + [d], ["relu"] * len(hidden) + ["linear"],
            ("normal", 0.0, self.weight_init_variance), seed, system="vbe",
            stencil_width=3, stencil_symmetric=True,
            stencil_init=("normal", 0.0, self.stencil_init_variance))
        node.save_model(os.path.join(rep_dir, "model.snck"), model,
                        sidecar={"system": "vbe", "domain_length": 1.0,
                                 "viscosity": 8e-4, "variant": "learned-linear",
                                 "epochs_completed": 0})

    def stages(self, rep_dir: str, seed: int) -> list[tuple[str, list[str]]]:
        ds = os.path.join(rep_dir, "vbe.snod")
        return [("generate", self.data.generate_argv(ds, seed)),
                ("evaluate", ["evaluate", "--dataset", ds,
                              "--checkpoint", os.path.join(rep_dir, "model.snck"),
                              "--out", os.path.join(rep_dir, "eval"),
                              "--metric", "error", "--seed", str(seed),
                              "--set", f"n_ics={self.data.test_ics}",
                              "--set", f"horizon={self.data.horizon!r}",
                              "--set", f"rollout_steps={self.rollout_steps}"])]

    def check(self, rep_dir: str, seed: int, reference: dict, extras: dict) -> list[Check]:
        checks = self.data.check(os.path.join(rep_dir, "vbe.snod"), seed, reference)
        rows = _data_rows(os.path.join(rep_dir, "eval", "error.csv"))
        errors = [float(r[1]) for r in rows]
        checks.append(Check("error curve length", len(errors) == self.data.n_snap,
                            f"{len(errors)} rows"))
        checks.append(Check("error zero at t=0", bool(errors) and errors[0] == 0.0))
        # the ensemble error is infinite at a time as soon as one rollout has
        # diverged by then, so a finite curve means every rollout is finite
        finite = bool(errors) and all(map(math.isfinite, errors))
        checks += [Check(f"rollout {i} finite to the horizon", finite)
                   for i in range(self.data.test_ics)]
        return checks

    def digest(self, rep_dir: str) -> dict:
        return {name: file_digest(os.path.join(rep_dir, name))
                for name in ("vbe.snod", "model.snck", "eval/error.csv")}


@dataclass(frozen=True)
class KseRom:
    """One KSE attractor trajectory, then a nonlinear-Galerkin ROM sweep."""

    name: ClassVar[str] = "kse-rom"
    model_stage: ClassVar[str] = "rom"
    d: int = 64
    transient: float = 100.0
    horizon: float = 300.0
    tau: float = 0.25
    dps: tuple = (7, 15, 23)
    total_time: float = 50.0

    @property
    def n_snap(self) -> int:
        return int(round(self.horizon / self.tau)) + 1

    def sizes(self) -> dict:
        return {"d": self.d, "domain_length": 22.0, "transient": self.transient,
                "horizon": self.horizon, "tau": self.tau, "rom_mode": "nlg",
                "rom_rhs": "true", "dp": list(self.dps), "rom_total_time": self.total_time}

    def setup(self, rep_dir: str, seed: int) -> None:
        pass

    def stages(self, rep_dir: str, seed: int) -> list[tuple[str, list[str]]]:
        ds = os.path.join(rep_dir, "kse.snod")
        return [("generate", ["generate", "--system", "kse", "--out", ds,
                              "--horizon", repr(self.horizon), "--seed", str(seed),
                              "--set", f"d={self.d}", "--set", f"tau={self.tau!r}",
                              "--set", f"transient={self.transient!r}"]),
                ("rom", ["rom", "--dataset", ds, "--rhs", "true", "--mode", "nlg",
                         "--dp", ",".join(map(str, self.dps)),
                         "--out", os.path.join(rep_dir, "rom"),
                         "--set", f"total_time={self.total_time!r}"])]

    def check(self, rep_dir: str, seed: int, reference: dict, extras: dict) -> list[Check]:
        ds = sp.read_dataset(os.path.join(rep_dir, "kse.snod"))
        shape = (1, self.n_snap, self.d)
        if ds.values.shape != shape:
            return [Check("dataset shape", False, f"{ds.values.shape} != {shape}")]
        energy = snapshot_energies(ds.values)
        drift = float(np.max(np.abs(np.mean(ds.values, axis=-1))))
        lo, hi = KSE_ENERGY_BAND
        checks = [Check("dataset shape", True),
                  Check("zero mean", drift <= MEAN_ATOL, f"max |mean| {drift:.3e}"),
                  Check("energy in attractor band",
                        lo <= float(energy.min()) and float(energy.max()) <= hi,
                        f"energy in [{energy.min():.3f}, {energy.max():.3f}]")]
        rows = _data_rows(os.path.join(rep_dir, "rom", "rom.csv"))
        checks.append(Check("one ROM row per d_p", [int(r[0]) for r in rows] == list(self.dps)))
        ok_rows = 0
        for r in rows:
            kl, overlap = float(r[2]), float(r[3])
            ok = math.isfinite(kl) and overlap >= ROM_MIN_OVERLAP
            ok_rows += ok
            checks.append(Check(f"ROM row d_p={r[0]} finite KL, overlap >= "
                                f"{ROM_MIN_OVERLAP}", ok, f"KL {kl:.4e} overlap {overlap:.3f}"))
        extras["rom_rows"] = len(rows)
        extras["rom_rows_ok"] = ok_rows
        return checks

    def digest(self, rep_dir: str) -> dict:
        out = {name: file_digest(os.path.join(rep_dir, name))
               for name in ("kse.snod", "rom/basis.sneb", "rom/reference_pdf.snpd")}
        # the runtime column differs between runs; KL and overlap must not
        rows = _data_rows(os.path.join(rep_dir, "rom", "rom.csv"))
        out["rom/rom.csv"] = hashlib.sha256(
            repr([r[:4] for r in rows]).encode()).hexdigest()
        return out


WORKLOADS = {w.name: w for w in (VbeTrain(), VbeEnsemble(), KseRom())}

# Reduced sizes for the self-test: same code paths, about a second each.
SMOKE = {
    "vbe-train": VbeTrain(data=VbeData(d=128, train_ics=2, test_ics=1, horizon=0.2),
                          epochs=3, hidden="16,16", batch_size=8),
    "vbe-ensemble": VbeEnsemble(data=VbeData(d=128, train_ics=1, test_ics=2, horizon=0.2),
                                hidden="16,16"),
    "kse-rom": KseRom(transient=60.0, horizon=100.0, dps=(7, 15), total_time=5.0),
}
