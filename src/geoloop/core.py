"""States, Bloch vectors, and exact propagators of piecewise-constant drives.

Everything here is closed-form 2x2 linear algebra with hbar = 1: a drive
segment with unit axis n, angular frequency omega, and duration tau generates
H = (omega/2) (n . sigma) and the propagator U = exp(-i H tau), evaluated
through the axis-angle identity rather than a series expansion. Every
propagator in the package comes from one batched kernel, ``su2``.
"""

from __future__ import annotations

import math

import numpy as np

from .records import (
    ControlSegment, InvalidFieldError, Schedule, _Record, _setfield, as_finite, check_type
)

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)

STATE_INPUT_TOL = 1e-9


class NonNormalizedStateError(ValueError):
    """State amplitudes are not normalized."""


class QubitState(_Record):
    """Pure qubit state (amp_up, amp_down) in the computational basis."""

    __slots__ = ("amp_up", "amp_down")
    amp_up: complex
    amp_down: complex

    def __init__(self, amp_up: complex, amp_down: complex):
        if isinstance(amp_up, str) or isinstance(amp_down, str):
            raise TypeError("amplitudes must be numbers, not text")  # complex() parses text
        try:
            # As Python numbers a square above 1.8e308 raises OverflowError,
            # as does an integer beyond the float range; numpy's would warn.
            amp_up, amp_down = complex(amp_up), complex(amp_down)
            norm = abs(amp_up) ** 2 + abs(amp_down) ** 2
        except OverflowError:
            norm = math.inf
        if not abs(norm - 1.0) <= STATE_INPUT_TOL:  # NaN-safe
            raise NonNormalizedStateError(
                f"|amp_up|^2 + |amp_down|^2 = {norm!r}, expected 1"
            )
        # Renormalize the residual so downstream algebra sees norm 1 to 1e-12.
        scale = 1.0 / math.sqrt(norm)
        _setfield(self, "amp_up", amp_up * scale)
        _setfield(self, "amp_down", amp_down * scale)

    def as_vector(self) -> np.ndarray:
        return np.array([self.amp_up, self.amp_down], dtype=complex)


class BlochVector(_Record):
    """Unit vector on the Bloch sphere."""

    __slots__ = ("x", "y", "z")
    x: float
    y: float
    z: float

    def __init__(self, x: float, y: float, z: float):
        _setfield(self, "x", x)
        _setfield(self, "y", y)
        _setfield(self, "z", z)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)


def wrap_phase(theta: float) -> float:
    """Reduce an angle or phase to the branch (-pi, pi]."""
    w = math.remainder(theta, 2.0 * math.pi)
    if w == -math.pi:
        w = math.pi
    return w


def state_from_angles(chi: float, phi: float, branch: str = "plus") -> QubitState:
    """Cyclic-basis state at spherical coordinates (chi, phi).

    The plus branch points along (chi, phi) on the Bloch sphere, the minus
    branch is its orthogonal complement (antipodal point). Angles outside
    the nominal ranges are reduced mod 2*pi to (-pi, pi]; a NaN or infinite
    angle raises InvalidFieldError naming it.
    """
    chi = wrap_phase(as_finite("chi", chi))
    phi = wrap_phase(as_finite("phi", phi))
    c, s = math.cos(chi / 2), math.sin(chi / 2)
    em = np.exp(-0.5j * phi)
    ep = np.exp(0.5j * phi)
    if branch == "plus":
        return QubitState(em * c, ep * s)
    if branch == "minus":
        return QubitState(-em * s, ep * c)
    raise InvalidFieldError("branch", f"branch must be 'plus' or 'minus', got {branch!r}")


def bloch_points(spinors: np.ndarray) -> np.ndarray:
    """Bloch vectors of normalized spinors: shape (..., 2) -> (..., 3).

    Global phases drop out.
    """
    a, b = spinors[..., 0], spinors[..., 1]
    ab = np.conj(a) * b
    points = np.empty(ab.shape + (3,))
    np.multiply(ab.real, 2.0, out=points[..., 0])
    np.multiply(ab.imag, 2.0, out=points[..., 1])
    np.subtract(np.square(abs(a)), np.square(abs(b)), out=points[..., 2])
    return points


def bloch_vector(state: QubitState) -> BlochVector:
    """Map a normalized state to its Bloch vector; global phase drops out."""
    check_type("state", state, QubitState)
    return BlochVector(*bloch_points(state.as_vector()).tolist())


def su2(axes, theta) -> np.ndarray:
    """Stack of rotations exp(-i (theta/2) n . sigma), shape theta.shape + (2, 2).

    Closed form U = cos(theta/2) I - i sin(theta/2) (n . sigma). axes has
    shape (..., 3) and broadcasts against theta, so one axis serves a whole
    array of angles and k axes serve a (trials, k) array of angles. Call it
    once per schedule, not once per 2x2: its cost is per call.
    """
    axes = np.asarray(axes, dtype=float)
    half = np.asarray(theta, dtype=float) / 2
    cos, sin = np.cos(half), np.sin(half)
    sx, sy, sz = sin * axes[..., 0], sin * axes[..., 1], sin * axes[..., 2]
    u = np.empty(sx.shape + (2, 2), dtype=complex)
    re, im = u.real, u.imag
    re[..., 0, 0] = re[..., 1, 1] = cos
    im[..., 0, 0] = -sz
    im[..., 1, 1] = sz
    re[..., 0, 1] = -sy
    re[..., 1, 0] = sy
    im[..., 0, 1] = im[..., 1, 0] = -sx
    return u


def drive_arrays(segments) -> tuple[np.ndarray, np.ndarray]:
    """Axes, shape (k, 3), and rotation angles omega * tau, shape (k,)."""
    axes = np.array([seg.axis for seg in segments], dtype=float).reshape(-1, 3)
    theta = np.array([seg.omega * seg.duration for seg in segments], dtype=float)
    return axes, theta


def segment_unitary(seg: ControlSegment) -> np.ndarray:
    """Exact propagator exp(-i H tau) of one segment (see ``su2``)."""
    check_type("seg", seg, ControlSegment)
    return su2(seg.axis, seg.omega * seg.duration)


def ordered_product(steps) -> np.ndarray:
    """steps[-1] @ ... @ steps[0] for a sequence of (..., 2, 2) stacks.

    The first step acts first; an empty sequence gives the identity.
    """
    if len(steps) == 0:
        return IDENTITY_2.copy()
    u = steps[0]
    for step in steps[1:]:
        u = step @ u
    return u


def schedule_unitary(sched: Schedule) -> np.ndarray:
    """Time-ordered product of segment propagators (first segment rightmost)."""
    check_type("sched", sched, Schedule)
    return ordered_product(su2(*drive_arrays(sched.segments)))


def propagate(sched: Schedule, initial: QubitState) -> QubitState:
    """Final state after the whole schedule."""
    check_type("initial", initial, QubitState)
    vec = schedule_unitary(sched) @ initial.as_vector()
    return QubitState(vec[0], vec[1])


def as_matrix(field: str, value) -> np.ndarray:
    """value as a complex array; TypeError naming field if numpy holds it as text or objects."""
    array = np.asarray(value)
    if array.dtype.kind not in "biufc":
        raise TypeError(f"{field} must be an array of numbers, got {type(value).__name__}")
    return array.astype(complex, copy=False)


def unitarity_defect(u: np.ndarray) -> float:
    """Max-entry deviation of U†U from the identity."""
    gram = u.conj().T @ u
    # The product is a new C-ordered array, so this strided view is its diagonal.
    gram.reshape(-1)[:: len(gram) + 1] -= 1
    return float(np.maximum.reduce(abs(gram), None))
