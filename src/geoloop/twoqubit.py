"""Conditional geometric gates on an NMR-style J-coupled qubit pair.

Qubit a is driven; qubit b conditions the drive through the sigma_z x sigma_z
coupling. An accessory field tuned to omega_a - pi*J makes the effective
field on qubit a equal to pi*J*sigma_z when b is up and zero when b is down,
so a y-pulse / coupling / y-pulse sandwich closes a geometric loop on the
b = up block only. Basis order is |uu>, |du>, |ud>, |dd> with qubit a
varying fastest.
"""

from __future__ import annotations

import math

import numpy as np

from .core import IDENTITY_2, SIGMA_Z, drive_arrays, ordered_product, su2
from .gates import u_chi
from .records import (
    ConditionalSchedule,
    ControlSegment,
    CouplingStep,
    InvalidCouplingError,
    InvalidFieldError,
    Schedule,
    _Record,
    _setfield,
    as_finite,
    as_float,
    check_chi,
    check_coupling,
    check_turn,
    check_type,
    single_loop_schedule,
)

IDENTITY_4 = np.eye(4, dtype=complex)


class MissingAccessoryError(ValueError):
    """No accessory-field frequency set on the parameters."""


class NmrParams(_Record):
    """Frequencies and coupling of the two-spin system, stored as finite floats."""

    __slots__ = ("omega_a", "omega_b", "coupling_j", "accessory")
    omega_a: float
    omega_b: float
    coupling_j: float
    accessory: float | None

    def __init__(
        self, omega_a: float, omega_b: float, coupling_j: float, accessory: float | None = None
    ):
        _setfield(self, "omega_a", as_finite("omega_a", omega_a))
        _setfield(self, "omega_b", as_finite("omega_b", omega_b))
        _setfield(self, "coupling_j", as_finite("coupling_j", coupling_j))
        if accessory is not None:
            accessory = as_finite("accessory", accessory)
        _setfield(self, "accessory", accessory)

    def with_matched_accessory(self) -> "NmrParams":
        """Accessory tuned to omega_a - pi*J: b = down sees zero field."""
        accessory = self.omega_a - math.pi * self.coupling_j
        return NmrParams(self.omega_a, self.omega_b, self.coupling_j, accessory)


def nmr_hamiltonian(p: NmrParams) -> np.ndarray:
    """(omega_a sz_a + omega_b sz_b + pi J sz_a sz_b) / 2, diagonal here.

    Raises ValueError if a diagonal entry overflows the float range before
    the halving.
    """
    check_type("p", p, NmrParams)
    pj = math.pi * p.coupling_j
    # One diagonal entry sums |omega_a|, |omega_b| and |pi J| in this order.
    if not math.isfinite(abs(p.omega_a) + abs(p.omega_b) + abs(pj)):
        raise ValueError(f"Hamiltonian entries overflow the float range for {p}")
    sz_a = np.kron(IDENTITY_2, SIGMA_Z)  # qubit a on the fast index
    sz_b = np.kron(SIGMA_Z, IDENTITY_2)
    return 0.5 * (p.omega_a * sz_a + p.omega_b * sz_b + pj * np.kron(SIGMA_Z, SIGMA_Z))


def effective_field_a(p: NmrParams, b_state: str) -> float:
    """sigma_z coefficient c of qubit a's effective Hamiltonian (c/2) sigma_z.

    c = omega_a - accessory + pi*J for b up, - pi*J for b down. With the
    matched accessory omega_a - pi*J this is 2*pi*J (up) and 0 (down).
    Raises ValueError if c overflows the float range.
    """
    check_type("p", p, NmrParams)
    if p.accessory is None:
        raise MissingAccessoryError("NmrParams.accessory is not set")
    if b_state == "up":
        sign = 1.0
    elif b_state == "down":
        sign = -1.0
    else:
        raise InvalidFieldError("b_state", f"b_state must be 'up' or 'down', got {b_state!r}")
    c = p.omega_a - p.accessory + sign * math.pi * p.coupling_j
    if not math.isfinite(c):  # Python floats overflow to inf without a warning
        raise ValueError(f"effective field on qubit a overflows the float range for {p}")
    return c


def two_qubit_schedule(
    omega: float, p: NmrParams, mode: str = "natural"
) -> ConditionalSchedule:
    """y-pulse / coupling / y-pulse sandwich realizing the conditional gate.

    Step durations are pi/2/omega, 1/(2 J), pi/2/omega. A J whose
    interval 1/(2 J) or rate 2 pi J overflows raises InvalidCouplingError,
    and an omega whose pulse duration overflows InvalidFieldError.
    """
    check_type("p", p, NmrParams)
    j = p.coupling_j
    check_coupling(j)  # before dividing by J
    interval = 1.0 / (2.0 * j)
    if interval == math.inf:  # a subnormal J
        message = f"coupling interval 1/(2 J) overflows for coupling_j = {j!r}"
        raise InvalidCouplingError("coupling_j", message)
    omega = as_float("omega", omega)
    if omega <= 0:
        raise InvalidFieldError("omega", f"omega must be > 0, got {omega}")
    pulse = check_turn("omega", omega, math.pi / 2 / omega)  # 2 * omega can overflow
    y_pulse = ControlSegment((0.0, 1.0, 0.0), omega, pulse)
    return ConditionalSchedule(
        (y_pulse, CouplingStep(interval, j), y_pulse),
        mode,
        f"conditional loop J={j:.12g}",
    )


def two_qubit_unitary(sched: ConditionalSchedule) -> np.ndarray:
    """Propagator of the conditional schedule in the effective picture.

    The coupling step applies exp(-i pi J sigma_z tau), a z rotation by
    2 pi J tau, only on the b = up block; drive segments act on both blocks
    in natural mode and on the b = up block alone in line-selective mode.
    The 2x2 propagators come from one ``su2`` call and are assembled once.
    """
    check_type("sched", sched, ConditionalSchedule)
    steps = su2(*drive_arrays(sched.steps))
    u = np.zeros((4, 4), dtype=complex)
    u[:2, :2] = ordered_product(steps)
    if sched.mode == "natural":
        drives = [
            step for step, kind in zip(steps, sched.steps) if not isinstance(kind, CouplingStep)
        ]
        u[2:, 2:] = ordered_product(drives)
    else:
        u[2, 2] = u[3, 3] = 1.0
    return u


def line_selective_unitary(sched: Schedule) -> np.ndarray:
    """4x4 gate of a single-qubit schedule driven on qubit a line-selectively.

    Its gate acts on b = up, the identity on b = down: a controlled gate.
    """
    return two_qubit_unitary(ConditionalSchedule(sched.segments, "line_selective"))


def controlled_u(chi: float, omega: float, omega2: float) -> np.ndarray:
    """Controlled geometric gate: u_chi(chi) on b = up, identity on b = down."""
    return line_selective_unitary(single_loop_schedule(chi, omega, omega2))


_U2_LINE_SELECTIVE = np.diag([-1j, 1j, 1, 1])
_U2_NATURAL = _U2_LINE_SELECTIVE.copy()
_U2_NATURAL[2:, 2:] = [[0, -1], [1, 0]]  # b = down: a half turn about y
_U2_NATURAL.flags.writeable = _U2_LINE_SELECTIVE.flags.writeable = False


def u2_natural() -> np.ndarray:
    """Reference conditional gate of the natural-mode sequence, a new array per call."""
    return _U2_NATURAL.copy()


def u2_line_selective() -> np.ndarray:
    """Reference conditional phase gate of the line-selective sequence, a new array per call."""
    return _U2_LINE_SELECTIVE.copy()


def controlled_u_reference(chi: float) -> np.ndarray:
    """Directly assembled controlled gate: u_chi block plus identity block."""
    check_chi(chi)
    u = IDENTITY_4.copy()
    u[:2, :2] = u_chi(chi)
    return u
