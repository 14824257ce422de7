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

`classify` classifies N states at once over a leading cell axis; a single
point is the one-cell batch.
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
_COHERENCE_SCALE = np.array([1.0, _DEPOL, _DEPOL])


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


def xstate_fault(x) -> np.ndarray:
    """Index into XSTATE_FAULTS of the first violated condition, or -1, per cell.

    x carries the X entries rho11..rho14 as scalars or arrays over cells.
    """
    r23, r14 = abs(x.rho23), abs(x.rho14)
    failed = (
        (x.rho11 < -1e-9) | (x.rho22 < -1e-9) | (x.rho33 < -1e-9) | (x.rho44 < -1e-9),
        abs(x.rho11 + x.rho22 + x.rho33 + x.rho44 - 1.0) > 1e-12,
        r23 * r23 > x.rho22 * x.rho33 + 1e-9,
        r14 * r14 > x.rho11 * x.rho44 + 1e-9,
    )
    fault = np.full(np.shape(failed[0]), -1)
    if np.count_nonzero(failed[0] | failed[1] | failed[2] | failed[3]):
        for code in reversed(range(len(failed))):
            fault = np.where(failed[code], code, fault)
    return fault


class XState(NamedTuple):
    """Entries of X-shaped two-qubit states in the local basis, as arrays over
    leading cell axes (or scalars).

    The closed forms use rho23 and rho14 only through abs(), so _x_entries
    stores the moduli there, as hypot(Re, Im).
    """

    rho11: float
    rho22: float
    rho33: float
    rho44: float
    rho23: float
    rho14: float


def _x_entries(x: np.ndarray) -> XState:
    # [()] turns the entries of a single (6,) vector into numpy scalars
    pops, rho23, rho14 = x[..., :4].real, x[..., 4], x[..., 5]
    return XState(pops[..., 0][()], pops[..., 1][()], pops[..., 2][()], pops[..., 3][()],
                  np.hypot(rho23.real, rho23.imag)[()], np.hypot(rho14.real, rho14.imag)[()])


def _ppt_margins(x: XState) -> np.ndarray:
    """-(smallest partial-transpose eigenvalue) of rho, its A->B map and its
    B->A map, as (..., 3), elementwise over cells.

    Each map is again an X state, and the partial transpose of an X state
    splits into the blocks [[rho11, rho23], [rho23*, rho44]] and
    [[rho22, rho14], [rho14*, rho33]] (Peres 1996).
    """
    pops = np.stack([x.rho11, x.rho22, x.rho33, x.rho44], axis=-1)
    d = (pops @ _MAP_DIAGONALS).reshape(pops.shape[:-1] + (3, 4))
    r23 = np.multiply.outer(abs(x.rho23), _COHERENCE_SCALE)
    r14 = np.multiply.outer(abs(x.rho14), _COHERENCE_SCALE)
    return -np.minimum(lower_eigenvalue(d[..., 0], d[..., 3], r23),
                       lower_eigenvalue(d[..., 1], d[..., 2], r14))


def _rho14_inert(x: XState):
    """True when dropping rho14 from the closed forms cannot flip a verdict.

    rho14 enters only (a) the second partial-transpose block, direct and
    mapped, active only when |rho14|^2 approaches rho22*rho33, and (b) the
    CHSH correlation entries at relative order |rho14|/|rho23|.  Both are
    bounded far below any margin this model's steady states realize once
    rho14 is small in the senses below (it is O(gamma) at most).  Elementwise
    over cells.
    """
    r14 = abs(x.rho14)
    branch = r14 * r14 <= 1e-3 * x.rho22 * x.rho33 + 1e-18
    small = r14 <= np.maximum(0.01 * abs(x.rho23), 5e-3)
    return branch & small


def _closed_margins(x: XState):
    """Closed-form (entanglement, A->B, B->A, CHSH) margins, elementwise over cells.

    Steering margins are |rho23|^2 - (f_a +/- f_b), where f_b =
    (1/4)(rho11 - rho44)(rho22 - rho33) sets the asymmetry.  CHSH combines two
    sufficient branches with OR: |rho23|^2 > 1/8, or
    |rho23|^2 > 1/4 - (1/4)(2(rho22+rho33)-1)^2; its margin is the larger
    branch slack.
    """
    r23 = abs(x.rho23)
    coh2 = r23 * r23
    # population functionals of the steering inequalities
    f_a = (
        (2 + math.sqrt(3)) / 2 * x.rho11 * x.rho44
        + (2 - math.sqrt(3)) / 2 * x.rho22 * x.rho33
        + 0.25 * (x.rho11 + x.rho44) * (x.rho22 + x.rho33)
    )
    f_b = 0.25 * (x.rho11 - x.rho44) * (x.rho22 - x.rho33)
    u = 2.0 * (x.rho22 + x.rho33) - 1.0
    bell = np.maximum(coh2 - 0.125, coh2 - (0.25 - 0.25 * u * u))
    return coh2 - x.rho11 * x.rho44, coh2 - (f_a + f_b), coh2 - (f_a - f_b), bell


def check_hierarchy(entangled, steer_a_to_b, steer_b_to_a, bell) -> None:
    """Bell => two-way steerable => entangled, elementwise over booleans or
    boolean arrays; a violation raises."""
    if np.count_nonzero(bell > (steer_a_to_b & steer_b_to_a)):
        raise InternalConsistencyError(
            "hierarchy violated: Bell nonlocal but not two-way steerable"
        )
    if np.count_nonzero((steer_a_to_b | steer_b_to_a) > entangled):
        raise InternalConsistencyError(
            "hierarchy violated: steerable but not entangled"
        )


class Classification(NamedTuple):
    """Verdicts and margins of the X states passed to classify, over their
    leading cell axes (all but the last axis of the (..., 6) input), and the
    route.

    Margins are left-minus-right values of the respective inequalities
    (probability-squared units on the closed-form route, eigenvalue units on
    the X-state block test).  fault >= 0 marks a state whose X entries
    violate XSTATE_FAULTS[fault]; such a cell carries no verdict (flags
    False, margins nan).  method is the route of the batch: GENERAL_PPT if
    any cell with a verdict needed the block test alone (a large rho14),
    else the closed form (X_CLOSED_FORM, or BOTH when cross-checked).
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


def classify(x: np.ndarray, dual: bool = True) -> Classification:
    """Classify local-basis X states given by their X entries (..., 6):
    rho11, rho22, rho33, rho44, rho23 and rho14 (SteadyArrays.local_x).

    Where rho14 is inert the closed forms supply the margins; with dual=True
    the exact X-state block test runs as well and any verdict disagreement
    raises.  Other X states fall back to the block test alone (bell False,
    margin nan).
    """
    x = _x_entries(x)
    fault = xstate_fault(x)
    closed = (fault < 0) & _rho14_inert(x)
    # the block test alone where the closed form does not apply; a faulty
    # state gets no verdict
    run = (fault < 0) & ~closed
    margins = list(_closed_margins(x))
    flags = [c > MARGIN_TOL for c in margins]
    general = _ppt_margins(x) if dual or np.count_nonzero(~closed) else None
    if np.count_nonzero(~closed):
        for k in range(3):
            g = np.where(run, general[..., k], np.nan)
            flags[k] = np.where(closed, flags[k], g > PPT_TOL)
            margins[k] = np.where(closed, margins[k], g)
        flags[3] = closed & flags[3]
        margins[3] = np.where(closed, margins[3], np.nan)
    if dual:
        _cross_check(closed, margins, general)
    check_hierarchy(*flags)
    if np.count_nonzero(run):
        method = Method.GENERAL_PPT
    else:
        method = Method.BOTH if dual else Method.X_CLOSED_FORM
    return Classification(flags[0], margins[0], flags[1], margins[1], flags[2], margins[2],
                          flags[3], margins[3], method, fault)


def _cross_check(closed: np.ndarray, closed_margins, general: np.ndarray) -> None:
    """Raise where, on a closed-form cell, the two routes disagree on a verdict
    that neither places within 1e-9 of its threshold."""
    for k, name in enumerate(("entanglement", "steering A->B", "steering B->A")):
        c, g = closed_margins[k], general[..., k][()]
        # the entanglement margins are on different scales; only the
        # closed-form one is tested against the 1e-9 band
        sure = abs(c) > 1e-9 if k == 0 else (abs(c) > 1e-9) & (abs(g) > 1e-9)
        bad = closed & ((c > MARGIN_TOL) != (g > PPT_TOL)) & sure
        if np.count_nonzero(bad):
            i = np.argmax(np.reshape(bad, -1))
            c, g = np.reshape(c, -1)[i], np.reshape(g, -1)[i]
            raise InternalConsistencyError(
                f"{name}: closed form says {bool(c > MARGIN_TOL)} (margin {c:.3g}), "
                f"general route says {bool(g > PPT_TOL)}"
            )
