"""Regenerate perfbench/reference_energies.json.

For every VBE ensemble the workloads generate (full and self-test sizes) and
every seed block, this runs `snode generate` and stores the per-snapshot
energy 0.5 <u^2>, summed over the ensemble's trajectories.  Run it only when
a workload's VBE sizes change, from the root of a checkout whose solver is
trusted:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys

import run


def main() -> int:
    run.import_stabnode()
    from stabnode import cli, spectral as sp
    from workloads import REFERENCE_PATH, SMOKE, VBE_SEED_BLOCKS, WORKLOADS, snapshot_energies

    datasets = {w.data.reference_key(): (w.data, range(VBE_SEED_BLOCKS))
                for w in WORKLOADS.values() if hasattr(w, "data")}
    datasets.update({w.data.reference_key(): (w.data, range(1))
                     for w in SMOKE.values() if hasattr(w, "data")})
    tmp = run.WORK / "reference"
    tables = {}
    try:
        for key, (data, blocks) in datasets.items():
            tables[key] = {}
            for block in blocks:
                tmp.mkdir(parents=True, exist_ok=True)
                out = str(tmp / "vbe.snod")
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(data.generate_argv(out, block))
                if code != 0:
                    raise SystemExit(f"generate failed for {key} block {block}")
                energy = snapshot_energies(sp.read_dataset(out).values).sum(axis=0)
                tables[key][str(block)] = [float(e) for e in energy]
                print(f"{key} block {block}", file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(tables, fh, indent=0)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
