"""Pipeline benchmark for stabnode: CLI stage timings and a traced per-layer run.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload vbe-train --seed 1 --seconds 30 --trace 0

One run repeats the workload's pipeline (set-up, `generate`, model stage,
output checks) until the next repetition would end after `--seconds`, each
repetition in a fresh directory under `.perfbench_work/`.  With `--trace 0`
it reports the end-to-end metrics as means over repetitions, stage times
rescaled by the machine speed around them (see `CALIB_REFERENCE_S`).  With
`--trace 1` it alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones plus the tracing overhead.  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.  The line before it records the environment and stage sizes.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import tracing

# One compute thread: the load is this process alone, and on a small shared
# host a second BLAS thread makes training times follow the other vCPU's load.
# It must be set before numpy is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import stabnode.cli; "
                "print(time.perf_counter() - t)")

END_TO_END = (("setup_s", "s"), ("generate_s", "s"), ("model_s", "s"),
              ("pipeline_s", "s"), ("peak_rss_mb", "MB"))

# Machine-speed calibration.  The host switches between a fast and a slow
# mode (about 1.6x apart) at second scale and drifts by +-20% between
# 20-second windows, coherently for the FFT- and interpreter-bound code these
# workloads run.  Every repetition times a fixed BLAS-free burst before each
# stage and after the last, and divides each stage's wall time by the mean of
# the two bursts around it, times CALIB_REFERENCE_S.  That constant is the
# mean burst on the machine where the benchmark was written, so the times stay
# close to wall seconds there.  Import time does not follow the bursts, so
# setup_s (a fresh-interpreter import plus the workload's set-up, once per
# repetition, median over repetitions) is not rescaled.
CALIB_ITERATIONS = 4000
CALIB_REFERENCE_S = 0.13


def import_stabnode() -> None:
    """Put the checkout's sources first on the path and import the CLI."""
    if not (SRC / "stabnode" / "cli.py").is_file():
        raise ImportError(f"no stabnode sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import stabnode.cli
    if Path(stabnode.cli.__file__).resolve().parent != SRC / "stabnode":
        raise ImportError(f"stabnode imported from {stabnode.cli.__file__}, "
                          f"not from {SRC}")


def import_seconds() -> float:
    """Time `import stabnode.cli` in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-I", "-c", IMPORT_PROBE, str(SRC)],
                         capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout.strip())


def calibration_burst() -> float:
    """Seconds for a fixed numpy loop shaped like one dealiased Burgers step
    on 512 points: small FFTs, elementwise work, no BLAS and no stabnode."""
    import numpy as np
    d = 512
    k = np.arange(d // 2 + 1)
    keep = k <= d // 3
    iq = 1j * k
    c = np.exp(-0.01 * k) * np.exp(2j * np.pi * np.sqrt(k)) / d
    start = time.perf_counter()
    for _ in range(CALIB_ITERATIONS):
        u = np.fft.irfft(np.where(keep, c, 0.0) * d, n=d)
        c = 0.5 * c + 1e-3 * np.where(keep, iq * np.fft.rfft(u * u) / d, 0.0)
    return time.perf_counter() - start


@dataclass
class Rep:
    traced: bool
    setup_s: float
    stage_s: dict
    wall_s: float
    checks: list
    extras: dict
    digest: dict
    calib_s: list
    scaled_s: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    loss_gradient_s: list = field(default_factory=list)


def run_cli(argv: list[str], log) -> int | str:
    """One `snode` command in-process; its output goes to the repetition log."""
    from stabnode import cli
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        try:
            return cli.main(argv)
        except Exception:  # a crash is a failed operation, not a failed benchmark
            traceback.print_exc(file=log)
            return "exception"


# `workloads` imports stabnode, so it is imported only after import_stabnode().

def run_rep(workload, seed: int, rep_dir: Path, reference: dict, traced: bool) -> Rep:
    """Set up, run the stages and check the outputs in a fresh `rep_dir`."""
    start = time.perf_counter()
    setup_s = import_seconds()
    t0 = time.perf_counter()
    rep_dir.mkdir(parents=True)
    try:
        workload.setup(str(rep_dir), seed)
        setup_s += time.perf_counter() - t0
        return _run_stages(workload, seed, rep_dir, reference, traced, start, setup_s)
    finally:
        shutil.rmtree(rep_dir)


def _run_stages(workload, seed, rep_dir, reference, traced, start, setup_s) -> Rep:
    from workloads import Check

    tracer = tracing.Tracer()
    patched = tracing.installed(tracer) if traced else contextlib.nullcontext()
    stage_s, checks, extras, digest, calib_s = {}, [], {}, {}, []
    stages = workload.stages(str(rep_dir), seed)
    with open(rep_dir / "commands.log", "w") as log, patched:
        for i, (stage, argv) in enumerate(stages):
            calib_s.append(calibration_burst())
            gc.collect()
            t0 = time.perf_counter()
            with tracer.span(f"cli.{stage}") if traced else contextlib.nullcontext():
                code = run_cli(argv, log)
            stage_s[stage] = time.perf_counter() - t0
            checks.append(Check(f"{stage} exits 0", code == 0, f"exit {code}"))
            if code != 0:
                checks += [Check(f"{later} exits 0", False, "not run")
                           for later, _ in stages[i + 1:]]
                break
        calib_s.append(calibration_burst())
    if all(c.ok for c in checks):
        try:
            checks += workload.check(str(rep_dir), seed, reference, extras)
            digest = workload.digest(str(rep_dir))
        except (OSError, ValueError, IndexError) as err:
            checks.append(Check("outputs readable", False, repr(err)))
    if not all(c.ok for c in checks):
        WORK.mkdir(exist_ok=True)
        shutil.copy(rep_dir / "commands.log", WORK / f"{rep_dir.parent.name}-{rep_dir.name}.log")
    rep = Rep(traced, setup_s, stage_s, time.perf_counter() - start, checks, extras, digest,
              calib_s)
    for i, (stage, wall) in enumerate(stage_s.items()):
        rep.scaled_s[stage] = wall * CALIB_REFERENCE_S / statistics.mean(calib_s[i:i + 2])
    if traced:
        rep.layers = tracing.layer_metrics(tracer, extras)
        rep.loss_gradient_s = tracing.durations(tracer, "neural_ode.loss_gradient")
        rep.extras["missing"] = list(tracer.missing)
    return rep


def measure(workload, seed: int, seconds: float, trace: bool, run_dir: Path) -> dict:
    from workloads import Check, load_reference

    reference = load_reference()
    reps: list[Rep] = []
    start = time.perf_counter()
    while True:
        # a traced run needs an untraced repetition and two traced ones, so
        # that the pooled loss_gradient samples reach 40 on vbe-train
        n_traced = sum(r.traced for r in reps)
        required = not reps or (trace and (n_traced < 2 or n_traced == len(reps)))
        if not required:
            typical = statistics.median(r.wall_s for r in reps)
            if time.perf_counter() - start + typical > seconds:
                break
        traced = trace and len(reps) % 2 == 1
        reps.append(run_rep(workload, seed, run_dir / f"rep{len(reps)}", reference, traced))

    checks = [c for r in reps for c in r.checks]
    first = reps[0].digest
    checks += [Check(f"rep {i} outputs identical to rep 0", bool(first) and r.digest == first)
               for i, r in enumerate(reps[1:], 1)]

    calib_s = [c for r in reps for c in r.calib_s]
    raw = {}
    plain = [r for r in reps if not r.traced]
    stage = workload.model_stage
    pipeline = [sum(r.stage_s.values()) for r in plain]
    if trace:
        traced = [r for r in reps if r.traced]
        metrics = {name: statistics.median(r.layers[name] for r in traced)
                   for name in traced[0].layers}
        metrics.update(tracing.loss_gradient_percentiles(
            [s for r in traced for s in r.loss_gradient_s]))
        traced_pipeline = statistics.mean(sum(r.stage_s.values()) for r in traced)
        metrics["trace.overhead_pct"] = 100.0 * (traced_pipeline / statistics.mean(pipeline) - 1.0)
        units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
    else:
        raw = {
            "generate_s": statistics.mean(r.stage_s.get("generate", 0.0) for r in plain),
            "model_s": statistics.mean(r.stage_s.get(stage, 0.0) for r in plain),
            "pipeline_s": statistics.mean(pipeline),
        }
        metrics = {
            "setup_s": statistics.median(r.setup_s for r in reps),
            "generate_s": statistics.mean(r.scaled_s.get("generate", 0.0) for r in plain),
            "model_s": statistics.mean(r.scaled_s.get(stage, 0.0) for r in plain),
            "pipeline_s": statistics.mean(sum(r.scaled_s.values()) for r in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
    failed = [c for c in checks if not c.ok]
    return {
        "result": {"correct": not failed, "attempted": len(checks), "failed": len(failed),
                   "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}},
        "record": {
            "reps": [{"traced": r.traced, "setup_s": r.setup_s, "stage_s": r.stage_s,
                      "scaled_s": r.scaled_s, "wall_s": r.wall_s, "extras": r.extras}
                     for r in reps],
            "calib_s": calib_s,
            "speed_factor": statistics.mean(calib_s) / CALIB_REFERENCE_S,
            "raw_s": raw,
            "failed_checks": [f"{c.name}: {c.detail}" for c in failed],
            "checks": len(checks),
        },
    }


def _blas_threads() -> int | None:
    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "stabnode").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(workload, seed: int, seconds: int, trace: bool) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "commit": _commit(), "source_sha256": _source_digest(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(), "python": platform.python_version(),
        "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "load": "one process, no worker threads or processes of its own",
        "stage_sizes": workload.sizes(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        import_stabnode()
    except ImportError as err:
        print(f"perfbench: cannot import stabnode: {err}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              + ", ".join(WORKLOADS), file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    os.environ.pop("SNODE_DATA_DIR", None)
    run_dir = WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    try:
        out = measure(workload, args.seed, args.seconds, bool(args.trace), run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    record = {"env": environment(workload, args.seed, args.seconds, bool(args.trace)),
              **out["record"], "result": out["result"]}
    with open(WORK / f"{run_dir.name}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"env": record["env"], "speed_factor": record["speed_factor"],
                      "raw_s": record["raw_s"], "failed_checks": record["failed_checks"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
