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

import numpy as np

from .core import unitarity_defect
from .records import _Record, _setfield, as_finite

# Re-exported: perfbench/tracing.py times it as gates.single_loop_schedule.
from .records import single_loop_schedule


class DimensionMismatchError(ValueError):
    """Gate matrices are not two square matrices of one dimension."""


class GateReport(_Record):
    """Comparison of two gate matrices.

    max_entry_deviation is global-phase-sensitive; trace_fidelity
    |tr(U^dag V)| / dim is global-phase-blind.
    """

    __slots__ = ("max_entry_deviation", "trace_fidelity", "unitarity_defect")
    max_entry_deviation: float
    trace_fidelity: float
    unitarity_defect: float

    def __init__(
        self, max_entry_deviation: float, trace_fidelity: float, unitarity_defect: float
    ):
        _setfield(self, "max_entry_deviation", max_entry_deviation)
        _setfield(self, "trace_fidelity", trace_fidelity)
        _setfield(self, "unitarity_defect", unitarity_defect)


def u_gate(gamma: float, chi: float, phi: float) -> np.ndarray:
    """Cyclic-evolution gate with phase gamma on the (chi, phi) axis states.

    The plus-branch state at (chi, phi) is an eigenvector with eigenvalue
    e^{i gamma}, the minus branch with e^{-i gamma}. A NaN or infinite angle
    raises InvalidFieldError naming it.
    """
    gamma, chi, phi = as_finite("gamma", gamma), as_finite("chi", chi), as_finite("phi", phi)
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


def u_chi(chi: float) -> np.ndarray:
    """Closed form of the single-loop gate: pure geometric phase -pi/2.

    Any finite chi; a NaN or infinite one raises InvalidFieldError.
    """
    chi = as_finite("chi", chi)
    c, s = math.cos(chi), math.sin(chi)
    return np.array([[-1j * c, -1j * s], [-1j * s, 1j * c]], dtype=complex)


def compare_gates(u: np.ndarray, v: np.ndarray) -> GateReport:
    """Entrywise (global-phase-sensitive) comparison of two gate matrices.

    u and v must be square matrices of one shape; any other pair of shapes
    raises DimensionMismatchError. A matrix with an infinite or NaN entry, or
    a pair whose products overflow, raises ValueError.
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != v.shape:
        raise DimensionMismatchError(f"shapes {u.shape} and {v.shape} differ")
    if u.ndim != 2 or not u.shape[0] == u.shape[1] > 0:
        raise DimensionMismatchError(f"need square matrices, got shape {u.shape}")
    dim = u.shape[0]
    # Non-finite entries (inf - inf) and overflowing products would warn;
    # the finiteness tests below turn them into one ValueError instead.
    with np.errstate(all="ignore"):
        # np.maximum.reduce is ndarray.max, and np.add.reduce of the diagonal
        # is ndarray.trace, without their wrappers.
        deviation = float(np.maximum.reduce(abs(u - v), None))
        # An inf or NaN entry in either matrix makes the deviation non-finite.
        if math.isfinite(deviation):
            fidelity = float(abs(np.add.reduce((u.conj().T @ v).diagonal())) / dim)
            defect = max(unitarity_defect(u), unitarity_defect(v))
            if math.isfinite(fidelity) and math.isfinite(defect):
                return GateReport(deviation, fidelity, defect)
    raise ValueError("gate matrices must be finite, with products that do not overflow")


def commutator_norm(u: np.ndarray, v: np.ndarray) -> float:
    """Frobenius norm of uv - vu."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    return float(np.linalg.norm(u @ v - v @ u, ord="fro"))
