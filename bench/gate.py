"""Correctness gate: the verdict fingerprint and the physical invariants.

Each check returns a list of violations; an operation with any violation
counts as failed.  Nothing is clipped or skipped.

* grid: sha256 of the flag columns equal to the reference; margins,
  current_b and sigma within VALUE_TOL of it, cell by cell.
* point / threshold on the default seed: values within VALUE_TOL of the
  reference, the threshold root within ROOT_REL_TOL * bar_eps.
* any seed: exit code 0, residual <= RESIDUAL_TOL, continuity within
  VALUE_TOL, sigma >= -VALUE_TOL, Bell => two-way steerable => entangled, and a
  threshold that is found with its root inside its bracket.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

VALUE_TOL = 1e-12
ROOT_REL_TOL = 1e-10          # the CLI bisection stops at 1e-10 * bar_eps
RESIDUAL_TOL = 1e-10
# sigma >= 0 up to rounding, as in the acceptance suite's transport check: at
# (near-)equilibrium cells sigma is a product of two rounding-level numbers,
# e.g. -1.8e-32 on fig9b's delta_mu = 0 row
SIGMA_FLOOR = -VALUE_TOL

GRID_COLUMNS = ("x", "y", "entangled", "steer_ab", "steer_ba", "bell",
                "margin_ent", "margin_ab", "margin_ba", "margin_bell",
                "current_b", "sigma", "positivity_ok")
GRID_FLAGS = ("entangled", "steer_ab", "steer_ba", "bell", "positivity_ok")
GRID_VALUES = ("margin_ent", "margin_ab", "margin_ba", "margin_bell", "current_b", "sigma")

POINT_VALUES = ("margin_ent", "margin_ab", "margin_ba", "margin_bell",
                "current_a", "current_b", "sigma", "min_eigenvalue",
                "pop_00", "pop_11", "pop_minus", "pop_plus")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _close(a: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray:
    """Elementwise |a - b| <= tol, with NaN matching NaN only."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    both_nan = np.isnan(a) & np.isnan(b)
    with np.errstate(invalid="ignore"):
        return both_nan | (np.abs(a - b) <= tol)


def _hierarchy(bell, steer_ab, steer_ba, entangled) -> bool:
    return (not bell or (steer_ab and steer_ba)) and (not (steer_ab or steer_ba) or entangled)


# ---------------------------------------------------------------- grid

def parse_grid(text: str) -> tuple[list[str], np.ndarray]:
    lines = text.splitlines()
    return lines[0].split(","), np.array([ln.split(",") for ln in lines[1:]])


def grid_fingerprint(cells: np.ndarray) -> tuple[str, np.ndarray, np.ndarray]:
    """(sha256 of the flag columns, flags as uint8, values as float64)."""
    fi = [GRID_COLUMNS.index(c) for c in GRID_FLAGS]
    vi = [GRID_COLUMNS.index(c) for c in GRID_VALUES]
    flag_text = "\n".join(",".join(row) for row in cells[:, fi].tolist())
    return sha256(flag_text), cells[:, fi].astype(np.uint8), cells[:, vi].astype(float)


def check_grid(csv_text: str, manifest_text: str, ref: dict | None) -> list[str]:
    """ref: {"sha256", "flags", "values"} recorded for this preset."""
    header, cells = parse_grid(csv_text)
    if tuple(header) != GRID_COLUMNS:
        return [f"unexpected CSV columns {header}"]
    bad = []
    manifest = json.loads(manifest_text)
    if manifest["outputs"] and list(manifest["outputs"].values())[0] != f"sha256:{sha256(csv_text)}":
        bad.append("manifest checksum does not match the CSV")
    if manifest["masked_cells"] != 0:
        bad.append(f"{manifest['masked_cells']} masked cells")
    digest, flags, values = grid_fingerprint(cells)
    col = {c: i for i, c in enumerate(GRID_FLAGS)}
    e, ab, ba, bell, pos = (flags[:, col[c]].astype(bool) for c in GRID_FLAGS)
    if not pos.all():
        bad.append(f"{int((~pos).sum())} cells violate positivity")
    sigma = values[:, GRID_VALUES.index("sigma")]
    if not (sigma >= SIGMA_FLOOR).all():
        bad.append(f"{int((~(sigma >= SIGMA_FLOOR)).sum())} cells with sigma < {SIGMA_FLOOR} "
                   f"(min {np.nanmin(sigma):.3g})")
    hier = (~bell | (ab & ba)) & (~(ab | ba) | e)
    if not hier.all():
        bad.append(f"{int((~hier).sum())} cells break Bell => steerable => entangled")
    if ref is not None:
        if len(cells) != len(ref["values"]):
            return bad + [f"{len(cells)} cells, reference has {len(ref['values'])}"]
        if digest != ref["sha256"]:
            bad.append(f"flag columns differ from the reference in "
                       f"{int((flags != ref['flags']).any(axis=1).sum())} cells")
        ok = _close(values, ref["values"], VALUE_TOL)
        if not ok.all():
            worst = np.nanmax(np.abs(values - ref["values"]))
            bad.append(f"{int((~ok).any(axis=1).sum())} cells differ from the reference "
                       f"by more than {VALUE_TOL} (worst {worst:.3g})")
    return bad


def read_grid_outputs(csv_path: str) -> tuple[str, str]:
    p = Path(csv_path)
    return p.read_text(), Path(str(p) + ".manifest.json").read_text()


# ---------------------------------------------------------------- point

def point_record(report: dict) -> tuple[tuple, str, np.ndarray]:
    """(flags, method, values) of a `steady` report.

    Flags: entangled, steer_a_to_b, steer_b_to_a, bell, positivity_ok;
    values in POINT_VALUES order.
    """
    c, t = report["correlations"], report["transport"]
    flags = (c["entangled"], c["steer_a_to_b"], c["steer_b_to_a"], c["bell"],
             report["positivity_ok"])
    values = [c["margin_ent"], c["margin_ab"], c["margin_ba"], c["margin_bell"],
              t["current_a"], t["current_b"], t["sigma"], report["min_eigenvalue"],
              *c["eigen_populations"]]
    return tuple(bool(f) for f in flags), c["method"], np.array([float(v) for v in values])


def check_point(rc: int, text: str, ref: tuple | None) -> list[str]:
    """ref: (flags, method, values) for this request, or None off the default seed."""
    if rc != 0:
        return [f"exit code {rc}"]
    report = json.loads(text)
    if report["correlations"] is None:
        return ["no classification in the report"]
    bad = []
    if not report["residual"] <= RESIDUAL_TOL:
        bad.append(f"residual {report['residual']:.3g}")
    t = report["transport"]
    if not abs(t["current_a"] + t["current_b"]) <= VALUE_TOL:
        bad.append(f"continuity broken: {t['current_a'] + t['current_b']:.3g}")
    if not t["sigma"] >= SIGMA_FLOOR:
        bad.append(f"sigma {t['sigma']:.3g} < {SIGMA_FLOOR}")
    flags, method, values = point_record(report)
    e, ab, ba, bell, pos = flags
    if not pos:
        bad.append("positivity violated")
    if not _hierarchy(bell, ab, ba, e):
        bad.append("Bell => steerable => entangled broken")
    if ref is not None:
        r_flags, r_method, r_values = ref
        if flags != tuple(r_flags) or method != r_method:
            bad.append(f"verdicts {flags}/{method} differ from the reference "
                       f"{tuple(r_flags)}/{r_method}")
        ok = _close(values, r_values, VALUE_TOL)
        if not ok.all():
            names = [n for n, good in zip(POINT_VALUES, ok) if not good]
            bad.append(f"values differ from the reference beyond {VALUE_TOL}: {names}")
    return bad


# ---------------------------------------------------------------- threshold

def threshold_record(report: dict, analytic_key: str) -> tuple[bool, np.ndarray]:
    """(found, [kappa_threshold, closed-form prediction])."""
    root = report["kappa_threshold"]
    return bool(report["found"]), np.array(
        [float("nan") if root is None else float(root), float(report["analytic"][analytic_key])])


def check_threshold(rc: int, text: str, meta: dict, ref: tuple | None) -> list[str]:
    """meta: the op's bracket, analytic_key and bar_eps; ref: (found, values)."""
    if rc != 0:
        return [f"exit code {rc}"]
    report = json.loads(text)
    found, values = threshold_record(report, meta["analytic_key"])
    if not found:
        return ["threshold not found in its bracket"]
    bad = []
    root = values[0]
    lo, hi = meta["bracket"]
    if not lo <= root <= hi:
        bad.append(f"root {root!r} outside the requested bracket [{lo!r}, {hi!r}]")
    f_lo, f_hi = report["bracket"]
    if not f_lo <= root <= f_hi:
        bad.append(f"root {root!r} outside its final bracket [{f_lo!r}, {f_hi!r}]")
    if ref is not None:
        r_found, r_values = ref
        if found != bool(r_found):
            bad.append("found differs from the reference")
        if not abs(root - r_values[0]) <= ROOT_REL_TOL * meta["bar_eps"]:
            bad.append(f"root differs from the reference by {abs(root - r_values[0]):.3g}")
        if not _close(values[1:], r_values[1:], VALUE_TOL).all():
            bad.append("closed-form prediction differs from the reference")
    return bad


# ---------------------------------------------------------------- reference

class Reference:
    """Recorded outputs of the default-seed inputs (see record_reference.py)."""

    def __init__(self, path: Path):
        with np.load(path, allow_pickle=False) as z:
            self.data = {k: z[k] for k in z.files}
        self.seed = int(self.data["seed"])

    def grid(self, preset: str) -> dict:
        return {"sha256": str(self.data[f"grid.{preset}.sha256"]),
                "flags": self.data[f"grid.{preset}.flags"],
                "values": self.data[f"grid.{preset}.values"]}

    def argv_digest(self, kind: str) -> str:
        return str(self.data[f"{kind}.argv_sha256"])

    def count(self, kind: str) -> int:
        return len(self.data[f"{kind}.values"])

    def point(self, i: int) -> tuple:
        d = self.data
        return (tuple(bool(f) for f in d["point.flags"][i]), str(d["point.method"][i]),
                d["point.values"][i])

    def threshold(self, i: int) -> tuple:
        return bool(self.data["threshold.found"][i]), self.data["threshold.values"][i]


def argv_digest(ops) -> str:
    """Digest of the argument lists of a sequence of ops (separator-safe)."""
    return sha256(json.dumps([list(op.argv) for op in ops]))

