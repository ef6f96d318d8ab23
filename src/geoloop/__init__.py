"""Single-loop nonadiabatic geometric quantum gate toolkit.

Builds piecewise-constant pulse schedules whose closed Bloch-sphere loops
cancel the dynamical phase internally, propagates qubit states exactly,
decomposes accumulated phases into dynamical and geometric parts, and
certifies the resulting one- and two-qubit gate matrices.

The public names below are imported from their modules on first use
(PEP 562), so ``import geoloop`` alone loads no submodule and no numpy.
"""

import importlib

__version__ = "0.1.0"

# Submodule -> the public names it defines.
_MODULES = {
    "records": (
        "ConditionalSchedule",
        "ControlSegment",
        "CouplingStep",
        "Schedule",
        "single_loop_schedule",
    ),
    "core": (
        "BlochVector",
        "QubitState",
        "bloch_vector",
        "propagate",
        "schedule_unitary",
        "segment_unitary",
        "state_from_angles",
    ),
    "gates": ("GateReport", "commutator_norm", "compare_gates", "u_chi", "u_gate"),
    "noise": ("NoiseSpec", "SweepResult", "fidelity_sweep", "perturb_schedule"),
    "phases": (
        "BlochPath",
        "NonCyclicError",
        "OpenPathError",
        "PhaseDecomposition",
        "dynamical_phase",
        "geometric_phase",
        "is_cyclic",
        "sample_path",
        "solid_angle",
        "total_phase",
    ),
    "schedule_io": (
        "ScheduleParseError",
        "load_schedule",
        "parse_schedule",
        "save_schedule",
        "serialize_schedule",
    ),
    "twoqubit": (
        "NmrParams",
        "controlled_u",
        "effective_field_a",
        "nmr_hamiltonian",
        "two_qubit_schedule",
        "two_qubit_unitary",
    ),
}
_HOME = {name: module for module, names in _MODULES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _MODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_MODULES))
