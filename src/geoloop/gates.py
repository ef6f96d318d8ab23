"""Single-loop geometric gate construction and gate comparison metrics.

The single-loop schedule drives a chosen Bloch-sphere state around a closed
four-segment path (z, x, z, -y axes) that cancels its dynamical phase
internally, leaving a pure geometric phase of -pi/2. The resulting gate has
the closed form

    U(chi) = [[-i cos(chi), -i sin(chi)],
              [-i sin(chi),  i cos(chi)]]
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ControlSegment, Schedule, as_float, unitarity_defect


class ChiOutOfRangeError(ValueError):
    """chi outside [0, pi/2]: the last segment would need negative duration."""


class DimensionMismatchError(ValueError):
    """Gate matrices have different dimensions."""


@dataclass(frozen=True)
class GateReport:
    """Comparison of two gate matrices.

    max_entry_deviation is global-phase-sensitive; trace_fidelity
    |tr(U^dag V)| / dim is global-phase-blind.
    """

    max_entry_deviation: float
    trace_fidelity: float
    unitarity_defect: float


def u_gate(gamma: float, chi: float, phi: float) -> np.ndarray:
    """Cyclic-evolution gate with phase gamma on the (chi, phi) axis states.

    The plus-branch state at (chi, phi) is an eigenvector with eigenvalue
    e^{i gamma}, the minus branch with e^{-i gamma}.
    """
    eg = np.exp(1j * gamma)
    c2 = math.cos(chi / 2) ** 2
    s2 = math.sin(chi / 2) ** 2
    off = 1j * math.sin(gamma) * math.sin(chi)
    return np.array(
        [
            [eg * c2 + np.conj(eg) * s2, off * np.exp(-1j * phi)],
            [off * np.exp(1j * phi), eg * s2 + np.conj(eg) * c2],
        ],
        dtype=complex,
    )


def check_chi(chi: float) -> None:
    """Require chi in [0, pi/2], the range of the single-loop gate."""
    if not 0.0 <= as_float("chi", chi) <= math.pi / 2:
        raise ChiOutOfRangeError(f"chi out of range [0, pi/2], got {chi}")


def single_loop_schedule(chi: float, omega: float, omega2: float) -> Schedule:
    """Four-segment loop realizing the geometric gate u_chi(chi).

    Segments: z for pi/(2 omega), x for pi/omega2, z for pi/(2 omega),
    then -y for (pi - 2 chi)/omega2. chi = pi/2 makes the last segment a
    legal zero-duration identity.
    """
    check_chi(chi)
    omega, omega2 = as_float("omega", omega), as_float("omega2", omega2)
    if not (0 < omega < math.inf and 0 < omega2 < math.inf):  # NaN-safe
        raise ValueError("omega and omega2 must be finite and > 0")
    return Schedule(
        segments=(
            ControlSegment(axis=(0, 0, 1), omega=omega, duration=math.pi / (2 * omega)),
            ControlSegment(axis=(1, 0, 0), omega=omega2, duration=math.pi / omega2),
            ControlSegment(axis=(0, 0, 1), omega=omega, duration=math.pi / (2 * omega)),
            ControlSegment(
                axis=(0, -1, 0), omega=omega2, duration=(math.pi - 2 * chi) / omega2
            ),
        ),
        label=f"single-loop chi={chi:.12g}",
    )


def u_chi(chi: float) -> np.ndarray:
    """Closed form of the single-loop gate: pure geometric phase -pi/2."""
    c, s = math.cos(chi), math.sin(chi)
    return np.array([[-1j * c, -1j * s], [-1j * s, 1j * c]], dtype=complex)


def compare_gates(u: np.ndarray, v: np.ndarray) -> GateReport:
    """Entrywise (global-phase-sensitive) comparison of two gate matrices."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != v.shape:
        raise DimensionMismatchError(f"shapes {u.shape} and {v.shape} differ")
    dim = u.shape[0]
    return GateReport(
        max_entry_deviation=float(np.max(np.abs(u - v))),
        trace_fidelity=float(abs(np.trace(u.conj().T @ v)) / dim),
        unitarity_defect=max(unitarity_defect(u), unitarity_defect(v)),
    )


def commutator_norm(u: np.ndarray, v: np.ndarray) -> float:
    """Frobenius norm of uv - vu."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    return float(np.linalg.norm(u @ v - v @ u, ord="fro"))
