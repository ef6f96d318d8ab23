"""The package namespace: every public name stays, and importing it is cheap."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import geoloop

# Every public name the package exported before it imported lazily, with the
# module that defines it.
PUBLIC = {
    "BlochPath": "phases",
    "BlochVector": "core",
    "ConditionalSchedule": "records",
    "ControlSegment": "records",
    "CouplingStep": "records",
    "GateReport": "gates",
    "NmrParams": "twoqubit",
    "NoiseSpec": "noise",
    "NonCyclicError": "phases",
    "OpenPathError": "phases",
    "PhaseDecomposition": "phases",
    "QubitState": "core",
    "Schedule": "records",
    "ScheduleParseError": "schedule_io",
    "SweepResult": "noise",
    "bloch_vector": "core",
    "commutator_norm": "gates",
    "compare_gates": "gates",
    "controlled_u": "twoqubit",
    "dynamical_phase": "phases",
    "effective_field_a": "twoqubit",
    "fidelity_sweep": "noise",
    "geometric_phase": "phases",
    "is_cyclic": "phases",
    "load_schedule": "schedule_io",
    "nmr_hamiltonian": "twoqubit",
    "parse_schedule": "schedule_io",
    "perturb_schedule": "noise",
    "propagate": "core",
    "sample_path": "phases",
    "save_schedule": "schedule_io",
    "schedule_unitary": "core",
    "segment_unitary": "core",
    "serialize_schedule": "schedule_io",
    "single_loop_schedule": "records",
    "solid_angle": "phases",
    "state_from_angles": "core",
    "total_phase": "phases",
    "two_qubit_schedule": "twoqubit",
    "two_qubit_unitary": "twoqubit",
    "u_chi": "gates",
    "u_gate": "gates",
}
SUBMODULES = ["core", "gates", "noise", "phases", "records", "schedule_io", "twoqubit"]


def loaded_after(code):
    """Names of the modules loaded once a fresh interpreter has run code."""
    env = {**os.environ, "PYTHONPATH": str(Path(geoloop.__file__).parents[1])}
    probe = f"{code}\nimport sys\nprint(' '.join(sorted(sys.modules)))"
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, check=True, timeout=60)
    return set(run.stdout.split())


@pytest.mark.parametrize("name", PUBLIC)
def test_public_name_is_its_modules_object(name):
    assert name in geoloop.__all__
    assert name in dir(geoloop)
    module = getattr(geoloop, PUBLIC[name])
    assert getattr(geoloop, name) is getattr(module, name)
    assert module.__name__ == f"geoloop.{PUBLIC[name]}"


def test_all_lists_exactly_the_public_names():
    assert sorted(geoloop.__all__) == sorted(PUBLIC)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from geoloop import *", namespace)
    for name in PUBLIC:
        assert namespace[name] is getattr(geoloop, name)


def test_submodules_and_version_are_attributes():
    assert geoloop.__version__ == "0.1.0"
    for name in SUBMODULES:
        assert name in dir(geoloop)
        assert getattr(geoloop, name).__name__ == f"geoloop.{name}"


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'hadamard'"):
        geoloop.hadamard


def test_import_geoloop_loads_no_numpy():
    modules = loaded_after("import geoloop")
    assert "numpy" not in modules
    assert {m for m in modules if m.startswith("geoloop")} == {"geoloop"}


def test_schedule_records_load_no_numpy():
    modules = loaded_after("import geoloop\ngeoloop.single_loop_schedule(0.5, 1.0, 1.0)\n"
                           "from geoloop.schedule_io import parse_schedule")
    assert "numpy" not in modules


def test_numeric_names_import_on_first_use():
    modules = loaded_after("import geoloop\ngeoloop.u_chi(0.5)")
    assert {"numpy", "geoloop.gates", "geoloop.core"} <= modules
    assert "geoloop.noise" not in modules


SOURCES = Path(geoloop.__file__).parent
# (module, name) imported only to be offered again: the benchmark times
# gates.single_loop_schedule under that name.
REEXPORTS = {("gates", "single_loop_schedule")}


def module_tree(module):
    return ast.parse((SOURCES / f"{module}.py").read_text(encoding="utf-8"))


def defined_names(tree):
    """The names a module binds at its top level itself, not by importing them."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


@pytest.mark.parametrize("module", sorted(path.stem for path in SOURCES.glob("*.py")))
def test_names_come_from_their_home_and_are_used(module):
    # Every "from .home import name", at any depth, takes name from the
    # module that defines it and binds a name that this module reads
    # (annotations included); whole-module imports are not checked.
    tree = module_tree(module)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    faults = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom) and node.level == 1 and node.module):
            continue
        home = defined_names(module_tree(node.module))
        for alias in node.names:
            if alias.name not in home:
                faults.append(f"{alias.name} is not defined in {node.module}")
            if (alias.asname or alias.name) not in used and (module, alias.name) not in REEXPORTS:
                faults.append(f"{alias.name} is imported but not used")
    assert not faults
