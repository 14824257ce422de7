"""Entanglement, directional steerability, and Bell-nonlocality classification.

Two routes are implemented and cross-checked:

* closed-form inequalities on the X-shaped density matrix (valid while the
  outer coherence rho14 is negligible against rho23), and
* the general route: partially depolarize the steering party's qubit and test
  the mapped state for entanglement via the partial transpose.

For an X state with rho14 = 0 the two routes are algebraically identical
(the closed-form threshold equals 3*rho'11*rho'44 of the mapped state), so
any disagreement is a defect and raises, never a warning.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import InternalConsistencyError, NotXStateError, RegimeError
from .model import Basis, DensityMatrix4, EigenSystem, Phase

# strict-greater slack at criterion boundaries
MARGIN_TOL = 1e-12
# PPT negativity threshold
PPT_TOL = 1e-10
# largest non-X entry an X state may carry
X_TOL = 1e-10

_DEPOL = 1.0 / math.sqrt(3.0)
_DEPOL_REST = (3.0 - math.sqrt(3.0)) / 3.0


class Direction(enum.Enum):
    A_TO_B = "a->b"
    B_TO_A = "b->a"


class Method(enum.Enum):
    X_CLOSED_FORM = "x-closed-form"
    GENERAL_PPT = "general-ppt"
    BOTH = "both"


@dataclass(frozen=True)
class XState:
    """Entries of an X-shaped two-qubit state in the local basis."""

    rho11: float
    rho22: float
    rho33: float
    rho44: float
    rho23: complex
    rho14: complex

    def __post_init__(self):
        pops = (self.rho11, self.rho22, self.rho33, self.rho44)
        if min(pops) < -1e-9:
            raise ValueError(f"negative population beyond tolerance: {pops}")
        if abs(sum(pops) - 1.0) > 1e-12:
            raise ValueError(f"populations must sum to 1, got {sum(pops)}")
        if abs(self.rho23) ** 2 > self.rho22 * self.rho33 + 1e-9:
            raise ValueError("|rho23|^2 exceeds rho22*rho33: block not positive")
        if abs(self.rho14) ** 2 > self.rho11 * self.rho44 + 1e-9:
            raise ValueError("|rho14|^2 exceeds rho11*rho44: block not positive")


@dataclass(frozen=True)
class SteeringFactors:
    """Population functionals entering the closed-form steering inequalities."""

    f_a: float
    f_b: float


def steering_factors(x: XState) -> SteeringFactors:
    f_a = (
        (2 + math.sqrt(3)) / 2 * x.rho11 * x.rho44
        + (2 - math.sqrt(3)) / 2 * x.rho22 * x.rho33
        + 0.25 * (x.rho11 + x.rho44) * (x.rho22 + x.rho33)
    )
    f_b = 0.25 * (x.rho11 - x.rho44) * (x.rho22 - x.rho33)
    return SteeringFactors(f_a=f_a, f_b=f_b)


def extract_xstate(rho: DensityMatrix4) -> XState:
    """Read off the X entries; reject any other entry above X_TOL."""
    if rho.basis is not Basis.LOCAL:
        raise ValueError("X structure is defined in the local basis")
    m = rho.entries
    x_mask = np.zeros((4, 4), dtype=bool)
    x_mask[np.diag_indices(4)] = True
    x_mask[0, 3] = x_mask[3, 0] = True
    x_mask[1, 2] = x_mask[2, 1] = True
    worst = float(np.max(np.abs(m[~x_mask])))
    if worst > X_TOL:
        raise NotXStateError(f"non-X entry of magnitude {worst:.3g} exceeds {X_TOL}")
    return XState(
        rho11=m[0, 0].real,
        rho22=m[1, 1].real,
        rho33=m[2, 2].real,
        rho44=m[3, 3].real,
        rho23=complex(m[1, 2]),
        rho14=complex(m[0, 3]),
    )


def _depolarized(m: np.ndarray) -> np.ndarray:
    """rho and its A->B and B->A partially depolarized maps, stacked as (3,4,4).

    A->B gives rho/sqrt(3) + (1 - 1/sqrt(3)) (1/2 (x) rho_B); B->A mirrors the
    construction onto qubit B's slot.  The reduced states are partial traces
    of the (a, b, a', b') view of rho.
    """
    t = m.reshape(2, 2, 2, 2)
    half = np.eye(2) / 2
    rest_ab = half[:, None, :, None] * np.trace(t, axis1=0, axis2=2)[None, :, None, :]
    rest_ba = np.trace(t, axis1=1, axis2=3)[:, None, :, None] * half[None, :, None, :]
    return np.stack([m,
                     _DEPOL * m + _DEPOL_REST * rest_ab.reshape(4, 4),
                     _DEPOL * m + _DEPOL_REST * rest_ba.reshape(4, 4)])


def _general_margins(m: np.ndarray) -> np.ndarray:
    """-(smallest partial-transpose eigenvalue) of rho, its A->B map and its B->A map."""
    return -np.linalg.eigvalsh(partial_transpose_b(_depolarized(m)))[:, 0]


def steering_map(rho: DensityMatrix4, direction: Direction) -> DensityMatrix4:
    """Partially depolarize the steering party's qubit.

    The output is a valid state whose entanglement witnesses steerability in
    the given direction (see _depolarized for the construction).
    """
    if rho.basis is not Basis.LOCAL:
        raise ValueError("steering_map expects the local basis")
    m = _depolarized(rho.entries)[1 if direction is Direction.A_TO_B else 2]
    return DensityMatrix4(entries=m, basis=Basis.LOCAL)


def partial_transpose_b(m: np.ndarray) -> np.ndarray:
    """Transpose qubit B of a (..., 4, 4) array of two-qubit matrices."""
    lead = m.shape[:-2]
    return m.reshape(*lead, 2, 2, 2, 2).swapaxes(-3, -1).reshape(*lead, 4, 4)


def ppt_entangled(rho: DensityMatrix4) -> tuple[bool, float]:
    """Entanglement via the partial transpose on qubit B.

    Returns (flag, margin) with margin = -(smallest transpose eigenvalue);
    the flag requires the eigenvalue below -1e-10.
    """
    min_eig = float(np.linalg.eigvalsh(partial_transpose_b(rho.entries))[0])
    return min_eig < -PPT_TOL, -min_eig


def _rho14_inert(x: XState) -> bool:
    """True when dropping rho14 from the closed forms cannot flip a verdict.

    rho14 enters only (a) the second partial-transpose block, direct and
    mapped, active only when |rho14|^2 approaches rho22*rho33, and (b) the
    CHSH correlation entries at relative order |rho14|/|rho23|.  Both are
    bounded far below any margin this model's steady states realize once
    rho14 is small in the senses below (it is O(gamma) at most).
    """
    branch = abs(x.rho14) ** 2 <= 1e-3 * x.rho22 * x.rho33 + 1e-18
    small = abs(x.rho14) <= max(0.01 * abs(x.rho23), 5e-3)
    return branch and small


def xstate_steering(x: XState) -> tuple[tuple[bool, float], tuple[bool, float]]:
    """Closed-form steering verdicts ((A->B flag, margin), (B->A flag, margin)).

    Margins are |rho23|^2 - (f_a +/- f_b).  Valid only while rho14 is inert
    (see _rho14_inert); outside that regime RegimeError sends callers to the
    general route.
    """
    if not _rho14_inert(x):
        raise RegimeError(
            f"|rho14|={abs(x.rho14):.3g} not negligible against |rho23|={abs(x.rho23):.3g}"
        )
    f = steering_factors(x)
    coh2 = abs(x.rho23) ** 2
    m_ab = coh2 - (f.f_a + f.f_b)
    m_ba = coh2 - (f.f_a - f.f_b)
    return (m_ab > MARGIN_TOL, m_ab), (m_ba > MARGIN_TOL, m_ba)


def general_steering(rho: DensityMatrix4, direction: Direction) -> tuple[bool, float]:
    """Steerability via entanglement of the depolarized state (ground truth)."""
    return ppt_entangled(steering_map(rho, direction))


def chsh_bell(x: XState) -> tuple[bool, float]:
    """CHSH violation criterion for X states with negligible rho14.

    Two sufficient branches, combined with OR:
    |rho23|^2 > 1/8, or |rho23|^2 > 1/4 - (1/4)(2(rho22+rho33)-1)^2.
    The margin is the larger branch slack.
    """
    coh2 = abs(x.rho23) ** 2
    branch1 = coh2 - 0.125
    u = 2.0 * (x.rho22 + x.rho33) - 1.0
    branch2 = coh2 - (0.25 - 0.25 * u * u)
    margin = max(branch1, branch2)
    return margin > MARGIN_TOL, margin


def eigen_populations(
    rho_local: DensityMatrix4, eig: EigenSystem
) -> tuple[float, float, float, float]:
    """(p00, p11, p_minus, p_plus): weights on |00>, |11>, psi-, psi+."""
    v = eig.vectors
    pops = np.einsum("ik,ij,jk->k", v.conj(), rho_local.entries, v).real
    if eig.phase is Phase.WEAK:
        return pops[0], pops[3], pops[1], pops[2]
    return pops[1], pops[2], pops[0], pops[3]


@dataclass(frozen=True)
class CorrelationReport:
    """Classification verdicts with raw inequality margins.

    Margins are left-minus-right values of the respective inequalities
    (probability-squared units on the closed-form route, eigenvalue units on
    the PPT route).  The chain bell => two-way steerable => entangled is
    asserted at construction.
    """

    entangled: bool
    margin_ent: float
    steer_a_to_b: bool
    margin_ab: float
    steer_b_to_a: bool
    margin_ba: float
    bell: bool
    margin_bell: float
    method: Method
    eigen_populations: tuple[float, float, float, float] | None = None

    def __post_init__(self):
        if self.bell and not (self.steer_a_to_b and self.steer_b_to_a):
            raise InternalConsistencyError(
                "hierarchy violated: Bell nonlocal but not two-way steerable"
            )
        if (self.steer_a_to_b or self.steer_b_to_a) and not self.entangled:
            raise InternalConsistencyError(
                "hierarchy violated: steerable but not entangled"
            )


def classify(
    rho: DensityMatrix4,
    eig: EigenSystem | None = None,
    dual: bool = True,
) -> CorrelationReport:
    """Full classification of a local-basis state.

    When the state is X-shaped with an inert rho14 the closed forms supply
    the margins; with dual=True (the default) the general depolarize-and-PPT
    route runs as well and any verdict disagreement raises.  Other input
    falls back to the general route alone.
    """
    if rho.basis is not Basis.LOCAL:
        raise ValueError("classify expects the local basis")
    try:
        x = extract_xstate(rho)
        closed = xstate_steering(x)
    except (NotXStateError, RegimeError):
        closed = None
    # (flag, margin) of entanglement, A->B and B->A steering on the general route
    gen = ([(m > PPT_TOL, m) for m in _general_margins(rho.entries).tolist()]
           if dual or closed is None else None)

    if closed is None:
        (ent_flag, ent_margin), (ab_flag, ab_margin), (ba_flag, ba_margin) = gen
        # no general CHSH route is defined for non-X states in this package
        bell_flag, bell_margin = False, float("nan")
        method = Method.GENERAL_PPT
    else:
        (ab_flag, ab_margin), (ba_flag, ba_margin) = closed
        ent_margin = abs(x.rho23) ** 2 - x.rho11 * x.rho44
        ent_flag = ent_margin > MARGIN_TOL
        bell_flag, bell_margin = chsh_bell(x)
        method = Method.X_CLOSED_FORM
        if dual:
            (ppt_flag, _), gen_ab, gen_ba = gen
            for name, xf, xm, gf, gm in (
                ("entanglement", ent_flag, ent_margin, ppt_flag, None),
                ("steering A->B", ab_flag, ab_margin, *gen_ab),
                ("steering B->A", ba_flag, ba_margin, *gen_ba),
            ):
                if xf != gf and abs(xm) > 1e-9 and (gm is None or abs(gm) > 1e-9):
                    raise InternalConsistencyError(
                        f"{name}: closed form says {xf} (margin {xm:.3g}), "
                        f"general route says {gf}"
                    )
            method = Method.BOTH
    return CorrelationReport(
        entangled=ent_flag,
        margin_ent=ent_margin,
        steer_a_to_b=ab_flag,
        margin_ab=ab_margin,
        steer_b_to_a=ba_flag,
        margin_ba=ba_margin,
        bell=bell_flag,
        margin_bell=bell_margin,
        method=method,
        eigen_populations=eigen_populations(rho, eig) if eig is not None else None,
    )
