"""steerlab benchmark: three workloads through the public `steerlab.cli.main`.

    python3 bench/run.py --workload {grid,point,threshold} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from ./src.
Every workload is a closed loop with one client and the default worker count
(no --jobs, STEERLAB_JOBS unset).  Outputs are checked by gate.py; an
operation (one preset sweep or one request) fails if it raises, returns a
non-zero exit code or fails the gate.

--trace 0 measures the end-to-end metrics; times are scaled by the machine
speed that speed.py samples during the run.  --trace 1 runs each operation
untraced and then traced, and reports per-layer metrics from the spans of
spans.py plus the tracing overhead.  The last line of stdout is the
JSON result; a run record (machine, versions, src line count) precedes it
and is also written to .bench_out/.  See README.md for the rationale.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gate
import spans
import speed
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = BENCH / "reference.npz"
WORKLOADS = ("grid", "point", "threshold")
# fresh interpreters timed for setup_s, after one untimed launch that
# compiles the bytecode of a fresh checkout
SETUP_LAUNCHES = 7
# untraced operations run before the tracer is installed to replay them
PAIR_CHUNK_S = 0.5


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed (default: the seed the reference was recorded with)")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def measure_setup(launches: int) -> list[float]:
    """Seconds from launching a fresh interpreter until `import steerlab.cli`
    completes, one value per launch (monotonic clock, shared by processes).

    Not scaled for machine speed: a speed kernel run in the child right after
    the import over-corrected (see README.md).
    """
    env = dict(os.environ)
    env.pop("STEERLAB_JOBS", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    code = "import time, steerlab.cli; print(repr(time.monotonic()))"
    times = []
    for k in range(launches + 1):
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        if k:
            times.append(float(proc.stdout.split()[-1]) - t0)
    return times


def run_record(args, reference_commit: str, extra: dict) -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "cpu": cpu, "commit": _commit(), "reference_commit": reference_commit,
        "src_py_lines": src_lines, **extra,
    }


def _commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    head = ROOT / ".git" / "HEAD"
    with contextlib.suppress(OSError):
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def call_main(cli, argv, paused=lambda: 0.0) -> tuple[int | None, str, str, float]:
    """(exit code or None if main raised, stdout, stderr, seconds in main).

    `paused()` gives the seconds spent outside the program so far (in the
    speed sampler); they are not counted as time in main.
    """
    out, err = io.StringIO(), io.StringIO()
    rc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        p0 = paused()
        t0 = time.perf_counter()
        try:
            rc = cli.main(list(argv))
        except Exception as exc:  # a raising operation is a failed one
            err.write(f"{type(exc).__name__}: {exc}")
        except SystemExit as exc:  # argparse rejected the argv
            rc = exc.code if isinstance(exc.code, int) else 2
        elapsed = time.perf_counter() - t0 - (paused() - p0)
    return rc, out.getvalue(), err.getvalue(), elapsed


class Runner:
    """Runs operations of one workload and checks their outputs."""

    def __init__(self, workload: str, seed: int, cli, ref, out_dir: Path):
        self.workload, self.seed, self.cli, self.ref = workload, seed, cli, ref
        self.out_dir = out_dir
        self.failures: list[str] = []
        self.sampler: speed.Sampler | None = None
        # reference rows apply to default-seed requests the reference covers,
        # and only when the generator still produces the recorded inputs
        self.ref_rows = 0
        self.ref_inputs_ok = True
        if workload != "grid" and seed == ref.seed:
            n = ref.count(workload)
            head = list(itertools.islice(self._stream(), n))
            self.ref_rows = n
            self.ref_inputs_ok = gate.argv_digest(head) == ref.argv_digest(workload)

    def _stream(self):
        if self.workload == "point":
            return workloads.point_stream(self.seed, workloads.load_presets(SRC))
        return workloads.threshold_stream(self.seed)

    def batches(self):
        """Grid: passes over the three presets; otherwise single requests."""
        if self.workload == "grid":
            ops = workloads.grid_ops(self.out_dir)
            while True:
                yield ops
        for op in self._stream():
            yield [op]

    def call(self, op) -> tuple[int | None, str, float]:
        paused = (lambda: self.sampler.spent) if self.sampler else (lambda: 0.0)
        rc, out, err, elapsed = call_main(self.cli, op.argv, paused)
        if rc != 0 and err:
            self.failures.append(f"{op.kind}[{op.index}]: {err.strip()[:300]}")
        return rc, out, elapsed

    def check(self, op, rc, text) -> tuple[list[str], str, float]:
        """(violations, digest of the output, cells or results produced)."""
        if rc is None:
            return ["raised"], "", 0.0
        if op.kind == "grid":
            if rc != 0:
                return [f"exit code {rc}"], "", 0.0
            csv_text, manifest = gate.read_grid_outputs(op.meta["out"])
            bad = gate.check_grid(csv_text, manifest, self.ref.grid(op.meta["preset"]))
            return bad, gate.sha256(csv_text), float(csv_text.count("\n") - 1)
        row = None
        if op.index < self.ref_rows:
            if not self.ref_inputs_ok:
                return ["inputs differ from the recorded reference"], "", 1.0
            row = self.ref.point(op.index) if op.kind == "point" else self.ref.threshold(op.index)
        if op.kind == "point":
            bad = gate.check_point(rc, text, row)
        else:
            bad = gate.check_threshold(rc, text, op.meta, row)
        return bad, gate.sha256(text), 1.0

    def run_op(self, op, tracer=None) -> tuple[bool, float, str, float]:
        """(passed the gate, seconds in main, output digest, cells produced)."""
        if tracer is None:
            rc, text, elapsed = self.call(op)
            bad, digest, cells = self._safe_check(op, rc, text)
        else:
            tracer.begin_request(op.index)
            with tracer.span("bench.request"):
                with tracer.span("cli.main"):
                    rc, text, elapsed = self.call(op)
                with tracer.span("bench.check"):
                    bad, digest, cells = self._safe_check(op, rc, text)
            tracer.end_request()
        if bad:
            self.failures.append(f"{op.kind}[{op.index}]: {'; '.join(bad)}")
        return not bad, elapsed, digest, cells

    def _safe_check(self, op, rc, text):
        try:
            return self.check(op, rc, text)
        except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"], "", 0.0

    def run_for(self, seconds: float) -> Pass:
        """Run batches until the next one would end past `seconds`; at least one.

        The speed sampler runs throughout; each operation's factor is the
        sampled machine speed around it.
        """
        p = Pass()
        bounds = array("d")
        with speed.Sampler() as self.sampler:
            t0 = time.perf_counter()
            for batch in self.batches():
                b0 = time.perf_counter()
                for op in batch:
                    bounds.append(time.perf_counter())
                    ok, elapsed, _, cells = self.run_op(op)
                    bounds.append(time.perf_counter())
                    p.seconds.append(elapsed)
                    p.cells += cells
                    p.failed += not ok
                now = time.perf_counter()
                if now - t0 + (now - b0) > seconds:
                    break
        sampler, self.sampler = self.sampler, None
        if not sampler.at:
            sampler.sample()
        p.factors = array("d", (sampler.factor(bounds[i], bounds[i + 1])
                                for i in range(0, len(bounds), 2)))
        return p


@dataclass
class Pass:
    """One measuring loop, kept compact so that memory does not grow with speed."""

    seconds: array = field(default_factory=lambda: array("d"))  # time in main
    factors: array = field(default_factory=lambda: array("d"))  # machine-speed factor
    cells: float = 0.0
    failed: int = 0


def end_to_end(p: Pass, setup: list[float]) -> tuple[dict, dict]:
    raw = np.frombuffer(p.seconds)
    factors = np.frombuffer(p.factors)
    scaled = raw / factors
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "cells_per_s": {"value": p.cells / scaled.sum(), "unit": "cells/s"},
        "p50_ms": {"value": float(np.percentile(scaled, 50)) * 1e3, "unit": "ms"},
        "p90_ms": {"value": float(np.percentile(scaled, 90)) * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
        "success_ratio": {"value": (len(raw) - p.failed) / len(raw), "unit": "ratio"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
    }
    pct = (50, 90, 99)
    record = {
        "ops": len(raw), "setup_launches_s": setup,
        "scaled_ms": dict(zip(map("p{}".format, pct), np.percentile(scaled, pct) * 1e3)),
        "raw_ms": dict(zip(map("p{}".format, pct), np.percentile(raw, pct) * 1e3)),
        "raw_cells_per_s": p.cells / raw.sum(),
        "speed_factor": dict(zip(("min", "p50", "max"), np.percentile(factors, (0, 50, 100)))),
    }
    return metrics, record


def traced(runner: Runner, seconds: float, save_to: Path) -> tuple[dict, int, int, str]:
    """Operations untraced and then traced, chunk by chunk, for `seconds`.

    A chunk is PAIR_CHUNK_S of untraced operations, replayed at once with the
    tracer installed.  Pairing keeps both runs of an operation in the same
    machine-speed regime, so the difference of their wall times is the
    tracing overhead.  Returns (metrics, attempted, failed, accounting table).
    """
    tracer = spans.Tracer()
    walls = {"plain": 0.0, "traced": 0.0}
    counts = {"ops": 0, "failed": 0}
    sites: list[str] = []
    chunk: list = []

    def replay(plain_s: float) -> None:
        walls["plain"] += plain_s
        t = time.perf_counter()
        with spans.installed(tracer) as wrapped:
            results = [(op, digest, ok, runner.run_op(op, tracer)) for op, digest, ok in chunk]
        walls["traced"] += time.perf_counter() - t
        sites[:] = wrapped
        for op, digest, ok, (traced_ok, _, traced_digest, _) in results:
            if traced_digest != digest:
                traced_ok = False
                runner.failures.append(f"{op.kind}[{op.index}]: traced output differs")
            counts["ops"] += 1
            counts["failed"] += (not ok) + (not traced_ok)
        chunk.clear()

    t0 = c0 = time.perf_counter()
    for batch in runner.batches():
        b0 = time.perf_counter()
        for op in batch:
            ok, _, digest, _ = runner.run_op(op)
            chunk.append((op, digest, ok))
            if time.perf_counter() - c0 >= PAIR_CHUNK_S:
                replay(time.perf_counter() - c0)
                c0 = time.perf_counter()
        now = time.perf_counter()
        if now - t0 + (now - b0) > seconds:
            break
    if chunk:
        replay(time.perf_counter() - c0)
    tracer.save(save_to)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in spans.layer_metrics(
        tracer, counts["ops"], walls["traced"], walls["plain"]).items()}
    table = spans.accounting_table(tracer, walls["traced"])
    return metrics, 2 * counts["ops"], counts["failed"], f"call sites: {', '.join(sites)}\n{table}"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "steerlab" / "cli.py").is_file():
        print(f"error: no steerlab sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("STEERLAB_JOBS", None)
    sys.path.insert(0, str(SRC))
    setup = [] if args.trace else measure_setup(SETUP_LAUNCHES)
    from steerlab import cli
    if Path(cli.__file__).resolve().parent != (SRC / "steerlab").resolve():
        print(f"error: steerlab imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    ref = gate.Reference(REFERENCE)
    if args.seed is None:
        args.seed = ref.seed
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        runner = Runner(args.workload, args.seed, cli, ref, tmp)
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            metrics, attempted, failed, table = traced(
                runner, args.seconds, OUT / f"spans-{tag}.npz")
            print(table)
            extra = {"ops": attempted // 2}
        else:
            p = runner.run_for(args.seconds)
            metrics, extra = end_to_end(p, setup)
            attempted, failed = len(p.seconds), p.failed
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    record = run_record(args, str(ref.data["commit"]), extra)
    (OUT / f"record-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    for line in runner.failures[:10]:
        print("FAIL", line, file=sys.stderr)
    print("record:", json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
