"""Record bench/reference.npz, the gate's reference, from the sources in ./src.

    python3 bench/record_reference.py

Runs the default-seed inputs of every workload through `steerlab.cli.main`,
refuses to record if any output breaks an invariant, and stores the grid
fingerprints (flag-column sha256, flags and values per preset) plus the
first N_POINT / N_THRESHOLD request results.  Re-record only when a change
to the package is meant to change its results, and say so where the change
is described.
"""
from __future__ import annotations

import itertools
import json
import sys
import tempfile

import numpy as np

import gate
import run
import workloads

N_POINT = 1000
N_THRESHOLD = 300


def _call(cli, op) -> str:
    rc, out, err, _ = run.call_main(cli, op.argv)
    if rc != 0:
        raise SystemExit(f"{op.kind}[{op.index}] exited {rc}: {err}")
    return out


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from steerlab import cli

    seed = workloads.DEFAULT_SEED
    data = {"seed": np.array(seed), "commit": np.array(run._commit())}
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        for op in workloads.grid_ops(tmp):
            _call(cli, op)
            csv_text, manifest = gate.read_grid_outputs(op.meta["out"])
            bad = gate.check_grid(csv_text, manifest, None)
            if bad:
                raise SystemExit(f"{op.meta['preset']}: {bad}")
            digest, flags, values = gate.grid_fingerprint(gate.parse_grid(csv_text)[1])
            preset = op.meta["preset"]
            data[f"grid.{preset}.sha256"] = np.array(digest)
            data[f"grid.{preset}.flags"] = flags
            data[f"grid.{preset}.values"] = values

    ops = list(itertools.islice(workloads.point_stream(seed, workloads.load_presets(run.SRC)),
                                N_POINT))
    flags, methods, values = [], [], []
    for op in ops:
        text = _call(cli, op)
        bad = gate.check_point(0, text, None)
        if bad:
            raise SystemExit(f"point[{op.index}]: {bad}")
        f, m, v = gate.point_record(json.loads(text))
        flags.append(f)
        methods.append(m)
        values.append(v)
    data["point.argv_sha256"] = np.array(gate.argv_digest(ops))
    data["point.flags"] = np.array(flags, dtype=np.uint8)
    data["point.method"] = np.array(methods)
    data["point.values"] = np.array(values)

    ops = list(itertools.islice(workloads.threshold_stream(seed), N_THRESHOLD))
    found, values = [], []
    for op in ops:
        text = _call(cli, op)
        bad = gate.check_threshold(0, text, op.meta, None)
        if bad:
            raise SystemExit(f"threshold[{op.index}]: {bad}")
        f, v = gate.threshold_record(json.loads(text), op.meta["analytic_key"])
        found.append(f)
        values.append(v)
    data["threshold.argv_sha256"] = np.array(gate.argv_digest(ops))
    data["threshold.found"] = np.array(found)
    data["threshold.values"] = np.array(values)

    np.savez_compressed(run.REFERENCE, **data)
    print(f"wrote {run.REFERENCE} at commit {data['commit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
