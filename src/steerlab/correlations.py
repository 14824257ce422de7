"""Entanglement, directional steerability, and Bell-nonlocality classification.

Every state classified here is an X state: only the diagonal and the
anti-diagonal are nonzero, so `classify` takes the six X entries (rho11,
rho22, rho33, rho44, rho23, rho14) of each state, as steady.steady_state
returns them, and no other state can be passed.  Two routes are implemented
and cross-checked:

* closed-form inequalities on the X entries (valid while the outer coherence
  rho14 is negligible against rho23), and
* the exact X-state block test: partially depolarize the steering party's
  qubit, which keeps the X shape, and test the mapped state by the two 2x2
  blocks of its partial transpose.  It alone classifies X states whose
  rho14 is not negligible (then with no CHSH verdict).

For an X state with rho14 = 0 the two routes are algebraically identical
(the closed-form threshold equals 3*rho'11*rho'44 of the mapped state), so
any disagreement is a defect and raises, never a warning.

`classify` classifies N states at once, each quantity one row of a stack
over the cells: X entries (6, N), validity tests and closed-form margins
(4, N), block-test margins (3, N).  A single point is the one-cell batch.
"""
from __future__ import annotations

import enum
import math
from typing import NamedTuple

import numpy as np

from .errors import InternalConsistencyError
from .model import lower_eigenvalue

# strict-greater slack at criterion boundaries
MARGIN_TOL = 1e-12
# PPT negativity threshold
PPT_TOL = 1e-10

_DEPOL = 1.0 / math.sqrt(3.0)
# populations @ _MAP_DIAGONALS: the diagonals of rho and of its A->B map
# rho/sqrt(3) + (1 - 1/sqrt(3)) (1/2 (x) rho_B) and B->A map (rho_A (x) 1/2),
# (12,).  Both maps scale the coherences by 1/sqrt(3).
_MAP_DIAGONALS = np.hstack([np.eye(4)] + [
    _DEPOL * np.eye(4) + 0.5 * (3.0 - math.sqrt(3.0)) / 3.0 * np.kron(*pair)
    for pair in ((np.ones((2, 2)), np.eye(2)), (np.eye(2), np.ones((2, 2))))])
# each mapped diagonal as (d11, d22 | d44, d33): the two blocks' diagonals
_BLOCK_ORDER = np.array([k + j for k in (0, 4, 8) for j in (0, 1, 3, 2)])
# (map, |rho23| or |rho14|, cell) scale of the coherences
_COHERENCE_SCALE = np.array([1.0, _DEPOL, _DEPOL])[:, None, None]
# flag rows (entangled, A->B, B->A, Bell): each of _STRONGER implies _WEAKER
_STRONGER, _WEAKER = np.array([1, 2, 3, 3]), np.array([0, 0, 1, 2])


class Method(enum.Enum):
    X_CLOSED_FORM = "x-closed-form"
    GENERAL_PPT = "general-ppt"
    BOTH = "both"


# validity conditions of an X state, in the order they are tested
XSTATE_FAULTS = (
    "negative population beyond tolerance",
    "populations must sum to 1",
    "|rho23|^2 exceeds rho22*rho33: block not positive",
    "|rho14|^2 exceeds rho11*rho44: block not positive",
)


def _x_rows(x: np.ndarray) -> np.ndarray:
    """The (6, N) real rows rho11, rho22, rho33, rho44, |rho23|, |rho14| of the
    X entries x (N, 6); the moduli are hypot(Re, Im)."""
    real, imag = x.real.T, x.imag.T
    rows = np.empty((6, len(x)))
    rows[:4] = real[:4]
    np.hypot(real[4:], imag[4:], out=rows[4:])
    return rows


def xstate_faults(rows: np.ndarray) -> np.ndarray:
    """The XSTATE_FAULTS tests of the X rows (6, N) as (4, N) booleans, true
    where a cell violates the condition; a cell's fault code is its first
    true row."""
    r11, r22, r33, r44 = rows[:4]
    # (|rho14|^2 > rho11 rho44 + 1e-9, |rho23|^2 > rho22 rho33 + 1e-9)
    moduli = rows[:3:-1]
    blocks = moduli * moduli > rows[:2] * rows[3:1:-1] + 1e-9
    # fmin skips nan, so a nan population fails no test, as each test alone
    return np.array((np.fmin.reduce(rows[:4]) < -1e-9,
                     abs(r11 + r22 + r33 + r44 - 1.0) > 1e-12, blocks[1], blocks[0]))


def _ppt_margins(rows: np.ndarray) -> np.ndarray:
    """-(smallest partial-transpose eigenvalue) of rho, its A->B map and its
    B->A map, as (3, N), from the X rows (6, N).

    Each map is again an X state, and the partial transpose of an X state
    splits into the blocks [[rho11, rho23], [rho23*, rho44]] and
    [[rho22, rho14], [rho14*, rho33]] (Peres 1996).
    """
    # the (N, 4) @ (4, 12) product: other layouts may round entries differently
    d = (np.ascontiguousarray(rows[:4].T) @ _MAP_DIAGONALS).T[_BLOCK_ORDER]
    d = d.reshape(3, 2, 2, rows.shape[1])
    low = lower_eigenvalue(d[:, 0], d[:, 1], _COHERENCE_SCALE * rows[4:])
    return -np.minimum(low[:, 0], low[:, 1])


def _rho14_inert(rows: np.ndarray) -> np.ndarray:
    """True when dropping rho14 from the closed forms cannot flip a verdict.

    rho14 enters only (a) the second partial-transpose block, direct and
    mapped, active only when |rho14|^2 approaches rho22*rho33, and (b) the
    CHSH correlation entries at relative order |rho14|/|rho23|.  Both are
    bounded far below any margin this model's steady states realize once
    rho14 is small in the senses below (it is O(gamma) at most).  (N,), from
    the X rows (6, N).
    """
    _, r22, r33, _, r23, r14 = rows
    branch = r14 * r14 <= 1e-3 * r22 * r33 + 1e-18
    return branch & (r14 <= np.maximum(0.01 * r23, 5e-3))


def _closed_margins(rows: np.ndarray) -> np.ndarray:
    """Closed-form (entanglement, A->B, B->A, CHSH) margins (4, N) of the X
    rows (6, N).

    Steering margins are |rho23|^2 - (f_a +/- f_b), where f_b =
    (1/4)(rho11 - rho44)(rho22 - rho33) sets the asymmetry.  CHSH combines two
    sufficient branches with OR: |rho23|^2 > 1/8, or
    |rho23|^2 > 1/4 - (1/4)(2(rho22+rho33)-1)^2; its margin is the larger
    branch slack.
    """
    r11, r22, r33, r44, r23, _ = rows
    coh2 = r23 * r23
    inner = r22 + r33
    # population functionals of the steering inequalities
    f_a = (
        (2 + math.sqrt(3)) / 2 * r11 * r44
        + (2 - math.sqrt(3)) / 2 * r22 * r33
        + 0.25 * (r11 + r44) * inner
    )
    f_b = 0.25 * (r11 - r44) * (r22 - r33)
    u = 2.0 * inner - 1.0
    # the CHSH threshold min(1/8, t): rounding is monotone, so coh2 minus it
    # is max(coh2 - 1/8, coh2 - t) bit for bit
    chsh = np.minimum(0.125, 0.25 - 0.25 * u * u)
    return coh2 - np.array((r11 * r44, f_a + f_b, f_a - f_b, chsh))


def check_hierarchy(flags) -> None:
    """Bell => two-way steerable => entangled over stacked flags (4, ...),
    rows entangled, A->B, B->A and Bell, elementwise; a violation raises."""
    flags = np.asarray(flags)
    broken = flags[_STRONGER] > flags[_WEAKER]
    if np.count_nonzero(broken[2:]):
        raise InternalConsistencyError(
            "hierarchy violated: Bell nonlocal but not two-way steerable")
    if np.count_nonzero(broken):
        raise InternalConsistencyError("hierarchy violated: steerable but not entangled")


class Classification(NamedTuple):
    """Verdicts and margins of the N X states passed to classify, over their
    cell axis, and the route.

    Margins are left-minus-right values of the respective inequalities
    (probability-squared units on the closed-form route, eigenvalue units on
    the X-state block test).  fault >= 0 marks a state whose X entries
    violate XSTATE_FAULTS[fault]; such a cell carries no verdict (flags
    False, margins nan).  method is the route of the batch: GENERAL_PPT if
    any cell with a verdict needed the block test alone (a large rho14),
    else the closed form (X_CLOSED_FORM, or BOTH when cross-checked).
    checked is true where both routes classified the cell: the closed-form
    cells of a dual=True call, which raises unless the routes agree there
    (see _cross_check).
    """

    entangled: np.ndarray
    margin_ent: np.ndarray
    steer_a_to_b: np.ndarray
    margin_ab: np.ndarray
    steer_b_to_a: np.ndarray
    margin_ba: np.ndarray
    bell: np.ndarray
    margin_bell: np.ndarray
    method: Method
    fault: np.ndarray
    checked: np.ndarray


def classify(x: np.ndarray, dual: bool = True) -> Classification:
    """Classify local-basis X states given by their X entries (N, 6):
    rho11, rho22, rho33, rho44, rho23 and rho14 (SteadyArrays.local_x).

    Where rho14 is inert the closed forms supply the margins; with dual=True
    the exact X-state block test runs as well and any verdict disagreement
    raises.  Other X states fall back to the block test alone (bell False,
    margin nan).
    """
    rows = _x_rows(x)
    failed = xstate_faults(rows)
    bad = np.logical_or.reduce(failed)
    fault = np.full(len(bad), -1)
    n_bad = np.count_nonzero(bad)
    closed = _rho14_inert(rows)
    if n_bad:
        fault[bad] = failed[:, bad].argmax(axis=0)
        closed &= ~bad
    n_closed = np.count_nonzero(closed)
    margins = _closed_margins(rows)
    flags = margins > MARGIN_TOL
    # the block test alone where the closed form does not apply; a faulty
    # state gets no verdict
    general = _ppt_margins(rows) if dual or n_closed < len(closed) else None
    if n_closed < len(closed):
        route2 = np.where(bad, np.nan, general)
        margins[:3] = np.where(closed, margins[:3], route2)
        flags[:3] = np.where(closed, flags[:3], route2 > PPT_TOL)
        margins[3, ~closed] = np.nan
        flags[3] &= closed
    if dual:
        _cross_check(closed, flags, margins, general)
    check_hierarchy(flags)
    if n_bad + n_closed < len(closed):
        method = Method.GENERAL_PPT
    else:
        method = Method.BOTH if dual else Method.X_CLOSED_FORM
    return Classification(flags[0], margins[0], flags[1], margins[1], flags[2], margins[2],
                          flags[3], margins[3], method, fault,
                          closed if dual else np.zeros(len(closed), dtype=bool))


def _cross_check(closed, flags, margins, general: np.ndarray) -> None:
    """Raise where, on a closed-form cell, the two routes disagree on a verdict
    that neither places within 1e-9 of its threshold."""
    disagree = closed & (flags[:3] != (general > PPT_TOL))
    if np.count_nonzero(disagree):
        # the entanglement margins are on different scales; only the
        # closed-form one is tested against the 1e-9 band
        k, i = np.nonzero(disagree)
        c, g = margins[k, i], general[k, i]
        sure = (abs(c) > 1e-9) & ((k == 0) | (abs(g) > 1e-9))
        if np.count_nonzero(sure):
            j = sure.argmax()
            raise InternalConsistencyError(
                f"{('entanglement', 'steering A->B', 'steering B->A')[k[j]]}: closed form "
                f"says {bool(c[j] > MARGIN_TOL)} (margin {c[j]:.3g}), "
                f"general route says {bool(g[j] > PPT_TOL)}"
            )
