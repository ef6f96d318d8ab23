"""The schedule model: drive segments, coupling steps and the schedules they form.

This is the layer that every other module builds on, and it needs no numpy:
building, reading, writing and checking a schedule costs no numeric import.
Constructors validate their fields here, once, and the numeric modules
import these names from here.
"""

from __future__ import annotations

import math
import operator
from typing import Union

NORM_TOL = 1e-12


class InvalidFieldError(ValueError):
    """A constructor rejected the value of one field, named by ``field``."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


class NonUnitAxisError(InvalidFieldError):
    """Rotation axis is not a unit vector."""


class InvalidCouplingError(InvalidFieldError):
    """Coupling constant J must be positive to define the coupling interval."""


class ChiOutOfRangeError(InvalidFieldError):
    """chi outside [0, pi/2]: the last segment would need negative duration."""


_setfield = object.__setattr__


def _restore(cls, values):
    """Rebuild a record from its field values without re-running __init__."""
    record = object.__new__(cls)
    for name, value in zip(cls._fields, values):
        _setfield(record, name, value)
    return record


class _Record:
    """Immutable value record: its fields, two or more, are its classes' ``__slots__``.

    Fields are set once, in ``__init__`` through ``_setfield``; a checked
    field is stored as the built-in value its check accepted (BlochPath
    keeps arrays). Assigning or deleting a field afterwards raises
    AttributeError. Records compare and hash by their field values, and
    only against records of the same class; the repr lists the fields by
    name. Pickling and copying restore the stored values as they are,
    without validating them again.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        slots = (vars(klass).get("__slots__", ()) for klass in reversed(cls.__mro__))
        cls._fields = tuple(name for names in slots for name in names)
        cls.__match_args__ = cls._fields
        cls._values = staticmethod(operator.attrgetter(*cls._fields))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(
            f"{name}={value!r}" for name, value in zip(self._fields, self._values(self))
        )
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return _restore, (self.__class__, self._values(self))


def check_type(field: str, value, cls: type) -> None:
    """Raise TypeError naming field unless value is an instance of cls."""
    if not isinstance(value, cls):
        raise TypeError(f"{field} must be a {cls.__name__}, got {type(value).__name__}")


_TEXT = (str, bytes, bytearray)  # float() parses these; no number field takes them


def as_float(field: str, value) -> float:
    """float(value) of a number, naming field for text or an integer beyond the float range."""
    if type(value) is float:
        return value
    if isinstance(value, _TEXT):
        raise InvalidFieldError(field, f"{field} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        message = f"{field} is an integer beyond the float range"
        raise InvalidFieldError(field, message) from None


def as_finite(field: str, value) -> float:
    """as_float(field, value), naming field if it is NaN or infinite."""
    number = as_float(field, value)
    if not math.isfinite(number):
        raise InvalidFieldError(field, f"{field} must be finite, got {value}")
    return number


def _shown(number) -> str:
    """str(number) for a message, or a stand-in where it has more digits than str() may print."""
    try:
        return str(number)
    except ValueError:
        return "<integer beyond the int-string limit>"


def as_int(field: str, value, minimum: int | None = None) -> int:
    """value as an int: an integer, not a bool, and >= minimum if given; naming field if not."""
    if not isinstance(value, bool):
        try:
            number = operator.index(value)
        except TypeError:
            pass
        else:
            if minimum is None or number >= minimum:
                return number
            raise InvalidFieldError(field, f"{field} must be >= {minimum}, got {_shown(value)}")
    raise InvalidFieldError(field, f"{field} must be an integer, got {value!r}")


def as_nonnegative(field: str, value) -> float:
    """as_float(field, value), naming field unless it is finite and >= 0."""
    number = as_float(field, value)
    if not 0.0 <= number < math.inf:  # NaN-safe
        raise InvalidFieldError(field, f"{field} must be finite and >= 0, got {value}")
    return number


def check_duration(omega: float, duration: float) -> float:
    """Require a finite duration >= 0 and a finite rotation angle omega * duration.

    omega is the float rate. Returns the duration as a float.
    """
    value = as_nonnegative("duration", duration)
    if not math.isfinite(omega * value):  # finite factors can overflow
        message = f"rotation angle {omega!r} * {duration!r} is not finite"
        raise InvalidFieldError("duration", message)
    return value


def check_turn(field: str, rate: float, angle: float) -> tuple[float, float]:
    """(rate, angle / rate): a rate, finite and > 0, and the duration of its turn.

    Raises InvalidFieldError naming field, the argument that gave the rate,
    if the rate is out of range or so small that the duration overflows.
    """
    omega = as_float(field, rate)
    if not 0.0 < omega < math.inf:  # NaN-safe
        raise InvalidFieldError(field, f"{field} must be finite and > 0, got {rate}")
    duration = angle / omega
    if duration == math.inf:
        message = f"{field} = {omega!r} is too small: its turn's duration overflows"
        raise InvalidFieldError(field, message)
    return omega, duration


def check_coupling(coupling_j: float) -> float:
    """coupling_j as a float: a finite coupling constant J > 0 whose rate 2 pi J is finite."""
    j = as_float("coupling_j", coupling_j)
    if not 0.0 < j < math.inf:
        message = f"coupling_j must be finite and > 0, got {coupling_j}"
    elif 2.0 * math.pi * j == math.inf:  # CouplingStep.omega
        message = f"coupling rate 2 pi J overflows for coupling_j = {j!r}"
    else:
        return j
    raise InvalidCouplingError("coupling_j", message)


def _entries(field: str, entries, kinds: tuple) -> tuple:
    """entries as a tuple, each one an instance of a class in kinds."""
    entries = tuple(entries)
    for entry in entries:
        if not isinstance(entry, kinds):
            names = " or ".join(kind.__name__ for kind in kinds)
            message = f"{field} must hold {names} records, got {type(entry).__name__}"
            raise InvalidFieldError(field, message)
    return entries


def _check_label(label) -> None:
    """Require Unicode text: a string without surrogate code points.

    A surrogate cannot be written as UTF-8, and a file's escaped high
    surrogate followed by an escaped low one reads back as one character.
    """
    if not isinstance(label, str):
        raise InvalidFieldError("label", f"label must be a string, got {label!r}")
    if not label.isascii():
        try:
            label.encode()  # UTF-8 refuses exactly the surrogates
        except UnicodeEncodeError:
            message = f"label must not hold surrogate code points, got {label!r}"
            raise InvalidFieldError("label", message) from None


class ControlSegment(_Record):
    """One piece of a piecewise-constant drive: H = (omega/2) (axis . sigma).

    Zero-duration segments are legal and act as the identity. NaN and
    infinite values, and an overflowing angle omega * duration, are rejected.
    """

    __slots__ = ("axis", "omega", "duration")
    axis: tuple[float, float, float]
    omega: float
    duration: float

    def __init__(self, axis: tuple[float, float, float], omega: float, duration: float):
        try:
            ax = tuple([c if type(c) is float else as_float("axis", c) for c in axis])
        except TypeError:  # not a sequence, or a component float() cannot take
            message = f"axis must be a sequence of 3 numbers, got {axis!r}"
            raise NonUnitAxisError("axis", message) from None
        if len(ax) != 3:
            raise NonUnitAxisError("axis", f"axis must have 3 components, got {len(ax)}")
        x, y, z = ax
        norm = math.sqrt(x * x + y * y + z * z)
        if not abs(norm - 1.0) <= NORM_TOL:  # NaN-safe
            raise NonUnitAxisError("axis", f"axis norm {norm!r} differs from 1")
        rate = as_nonnegative("omega", omega)
        _setfield(self, "duration", check_duration(rate, duration))
        _setfield(self, "axis", ax)
        _setfield(self, "omega", rate)

    def hamiltonian(self):
        """The 2x2 matrix (omega/2) (axis . sigma), as a numpy array."""
        from .core import SIGMA_X, SIGMA_Y, SIGMA_Z

        nx, ny, nz = self.axis
        return 0.5 * self.omega * (nx * SIGMA_X + ny * SIGMA_Y + nz * SIGMA_Z)


class Schedule(_Record):
    """Ordered list of drive segments; empty schedule is the identity."""

    __slots__ = ("segments", "label")
    segments: tuple[ControlSegment, ...]
    label: str

    def __init__(self, segments: tuple[ControlSegment, ...] = (), label: str = ""):
        _setfield(self, "segments", _entries("segments", segments, (ControlSegment,)))
        _check_label(label)
        _setfield(self, "label", label)

    def __len__(self) -> int:
        return len(self.segments)

    def __iter__(self):
        return iter(self.segments)


class CouplingStep(_Record):
    """Interval with the drive off and the J-coupling on.

    In the effective (accessory-dressed) picture this applies
    exp(-i * pi * J * sigma_z * duration) on qubit a when b is up and the
    identity when b is down: a z rotation at 2 pi J, which ``axis`` and
    ``omega`` expose as a ControlSegment does. NaN and infinite values, and
    an overflowing angle 2 pi J * duration, are rejected.
    """

    __slots__ = ("duration", "coupling_j")
    duration: float
    coupling_j: float

    axis = (0.0, 0.0, 1.0)

    def __init__(self, duration: float, coupling_j: float):
        _setfield(self, "coupling_j", check_coupling(coupling_j))
        _setfield(self, "duration", check_duration(self.omega, duration))

    @property
    def omega(self) -> float:
        """Angular frequency 2 pi J of the effective z rotation."""
        return 2.0 * math.pi * self.coupling_j


ConditionalStep = Union[ControlSegment, CouplingStep]


class ConditionalSchedule(_Record):
    """Ordered conditional steps on qubit a plus the conditioning mode.

    natural: drive pulses hit qubit a regardless of b; only the coupling
    step is conditional. line_selective: the pulses are resonant only when
    b is up, so the whole sequence acts on the b = up block.
    """

    __slots__ = ("steps", "mode", "label")
    steps: tuple[ConditionalStep, ...]
    mode: str
    label: str

    def __init__(
        self, steps: tuple[ConditionalStep, ...], mode: str = "natural", label: str = ""
    ):
        _setfield(self, "steps", _entries("steps", steps, (ControlSegment, CouplingStep)))
        if mode not in ("natural", "line_selective"):
            raise InvalidFieldError("mode", f"unknown mode {mode!r}")
        _check_label(label)
        _setfield(self, "mode", mode)
        _setfield(self, "label", label)


def check_chi(chi: float) -> None:
    """Require chi in [0, pi/2], the range of the single-loop gate."""
    if not 0.0 <= as_float("chi", chi) <= math.pi / 2:
        raise ChiOutOfRangeError("chi", f"chi out of range [0, pi/2], got {chi}")


def single_loop_schedule(chi: float, omega: float, omega2: float) -> Schedule:
    """Four-segment loop realizing the geometric gate u_chi(chi).

    Segments: z for pi/2/omega, x for pi/omega2, z for pi/2/omega,
    then -y for (pi - 2 chi)/omega2. chi = pi/2 makes the last segment a
    legal zero-duration identity. An omega or omega2 that is not finite
    and > 0, or so small that a duration overflows, raises
    InvalidFieldError naming it (``check_turn``).
    """
    check_chi(chi)
    omega, quarter = check_turn("omega", omega, math.pi / 2)  # 2 * omega can overflow
    omega2, half = check_turn("omega2", omega2, math.pi)
    z_turn = ControlSegment((0.0, 0.0, 1.0), omega, quarter)
    return Schedule(
        (
            z_turn,
            ControlSegment((1.0, 0.0, 0.0), omega2, half),
            z_turn,
            ControlSegment((0.0, -1.0, 0.0), omega2, (math.pi - 2 * chi) / omega2),
        ),
        f"single-loop chi={chi:.12g}",
    )
