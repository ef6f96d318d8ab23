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
from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import ControlSegment, IDENTITY_2, SIGMA_Z, ordered_product, su2
from .gates import ChiOutOfRangeError, single_loop_schedule, u_chi

IDENTITY_4 = np.eye(4, dtype=complex)


class MissingAccessoryError(ValueError):
    """No accessory-field frequency set on the parameters."""


class InvalidCouplingError(ValueError):
    """Coupling constant J must be positive to define the coupling interval."""


@dataclass(frozen=True)
class NmrParams:
    """Frequencies and coupling of the two-spin system; all finite."""

    omega_a: float
    omega_b: float
    coupling_j: float
    accessory: float | None = None

    def __post_init__(self):
        names = ["omega_a", "omega_b", "coupling_j"]
        if self.accessory is not None:
            names.append("accessory")
        for name in names:
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")

    def with_matched_accessory(self) -> "NmrParams":
        """Accessory tuned to omega_a - pi*J: b = down sees zero field."""
        return NmrParams(
            omega_a=self.omega_a,
            omega_b=self.omega_b,
            coupling_j=self.coupling_j,
            accessory=self.omega_a - math.pi * self.coupling_j,
        )


@dataclass(frozen=True)
class CouplingStep:
    """Interval with the drive off and the J-coupling on.

    In the effective (accessory-dressed) picture this applies
    exp(-i * pi * J * sigma_z * duration) on qubit a when b is up and the
    identity when b is down. NaN and infinite values are rejected.
    """

    duration: float
    coupling_j: float

    def __post_init__(self):
        if not 0.0 < self.coupling_j < math.inf:
            raise InvalidCouplingError(
                f"coupling_j must be finite and > 0, got {self.coupling_j}"
            )
        if not 0.0 <= self.duration < math.inf:
            raise ValueError(f"duration must be finite and >= 0, got {self.duration}")


ConditionalStep = Union[ControlSegment, CouplingStep]


@dataclass(frozen=True)
class ConditionalSchedule:
    """Ordered conditional steps on qubit a plus the conditioning mode.

    natural: drive pulses hit qubit a regardless of b; only the coupling
    step is conditional. line_selective: the pulses are resonant only when
    b is up, so the whole sequence acts on the b = up block.
    """

    steps: tuple[ConditionalStep, ...]
    mode: str = "natural"
    label: str = ""

    def __post_init__(self):
        if self.mode not in ("natural", "line_selective"):
            raise ValueError(f"unknown mode {self.mode!r}")
        object.__setattr__(self, "steps", tuple(self.steps))


def nmr_hamiltonian(p: NmrParams) -> np.ndarray:
    """(omega_a sz_a + omega_b sz_b + pi J sz_a sz_b) / 2, diagonal here."""
    sz_a = np.kron(IDENTITY_2, SIGMA_Z)  # qubit a on the fast index
    sz_b = np.kron(SIGMA_Z, IDENTITY_2)
    return 0.5 * (
        p.omega_a * sz_a
        + p.omega_b * sz_b
        + math.pi * p.coupling_j * np.kron(SIGMA_Z, SIGMA_Z)
    )


def effective_field_a(p: NmrParams, b_state: str) -> float:
    """sigma_z coefficient c of qubit a's effective Hamiltonian (c/2) sigma_z.

    c = omega_a - accessory + pi*J for b up, - pi*J for b down. With the
    matched accessory omega_a - pi*J this is 2*pi*J (up) and 0 (down).
    """
    if p.accessory is None:
        raise MissingAccessoryError("NmrParams.accessory is not set")
    if b_state == "up":
        sign = 1.0
    elif b_state == "down":
        sign = -1.0
    else:
        raise ValueError(f"b_state must be 'up' or 'down', got {b_state!r}")
    return p.omega_a - p.accessory + sign * math.pi * p.coupling_j


def two_qubit_schedule(
    omega: float, p: NmrParams, mode: str = "natural"
) -> ConditionalSchedule:
    """y-pulse / coupling / y-pulse sandwich realizing the conditional gate.

    Step durations are pi/(2 omega), 1/(2 J), pi/(2 omega).
    """
    if p.coupling_j <= 0:
        raise InvalidCouplingError(f"coupling_j must be > 0, got {p.coupling_j}")
    if omega <= 0:
        raise ValueError(f"omega must be > 0, got {omega}")
    y_pulse = ControlSegment(axis=(0, 1, 0), omega=omega, duration=math.pi / (2 * omega))
    return ConditionalSchedule(
        steps=(
            y_pulse,
            CouplingStep(duration=1.0 / (2.0 * p.coupling_j), coupling_j=p.coupling_j),
            y_pulse,
        ),
        mode=mode,
        label=f"conditional loop J={p.coupling_j:.12g}",
    )


def two_qubit_unitary(sched: ConditionalSchedule) -> np.ndarray:
    """Propagator of the conditional schedule in the effective picture.

    The coupling step applies exp(-i pi J sigma_z tau), a z rotation by
    2 pi J tau, only on the b = up block; drive segments act on both blocks
    in natural mode and on the b = up block alone in line-selective mode.
    The two 2x2 blocks come from one ``su2`` call and are assembled once.
    """
    natural = sched.mode == "natural"
    axes, theta, acts_on_down = [], [], []
    for step in sched.steps:
        if isinstance(step, CouplingStep):
            axes.append((0.0, 0.0, 1.0))
            theta.append(2.0 * math.pi * step.coupling_j * step.duration)
            acts_on_down.append(False)
        else:
            axes.append(step.axis)
            theta.append(step.omega * step.duration)
            acts_on_down.append(natural)
    steps = su2(np.reshape(axes, (-1, 3)), theta)
    u = np.zeros((4, 4), dtype=complex)
    u[:2, :2] = ordered_product(steps)
    u[2:, 2:] = ordered_product(steps[acts_on_down])
    return u


def controlled_u(chi: float, omega: float, omega2: float) -> np.ndarray:
    """Controlled geometric gate: u_chi(chi) on b = up, identity on b = down.

    Built by running the full single-loop drive on qubit a under
    line-selective conditioning.
    """
    loop = single_loop_schedule(chi, omega, omega2)  # raises ChiOutOfRangeError
    cond = ConditionalSchedule(
        steps=loop.segments,
        mode="line_selective",
        label=f"controlled u_chi chi={chi:.12g}",
    )
    return two_qubit_unitary(cond)


def u2_natural() -> np.ndarray:
    """Reference conditional gate of the natural-mode sequence."""
    return np.array(
        [
            [-1j, 0, 0, 0],
            [0, 1j, 0, 0],
            [0, 0, 0, -1],
            [0, 0, 1, 0],
        ],
        dtype=complex,
    )


def u2_line_selective() -> np.ndarray:
    """Reference conditional phase gate of the line-selective sequence."""
    return np.array(
        [
            [-1j, 0, 0, 0],
            [0, 1j, 0, 0],
            [0, 0, 1, 0],
            [0, 0, 0, 1],
        ],
        dtype=complex,
    )


def controlled_u_reference(chi: float) -> np.ndarray:
    """Directly assembled controlled gate: u_chi block plus identity block."""
    if not 0.0 <= chi <= math.pi / 2:
        raise ChiOutOfRangeError(f"chi must be in [0, pi/2], got {chi}")
    u = IDENTITY_4.copy()
    u[:2, :2] = u_chi(chi)
    return u
