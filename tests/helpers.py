"""Independent numerical oracles used by the tests.

These deliberately avoid the closed forms under test: the matrix
exponential is a Taylor series with scaling and squaring, and the
dynamical-phase quadrature propagates states through an eigendecomposition
of the Hamiltonian. The module also holds input generators shared by
several test files.
"""

import numpy as np
from hypothesis import strategies as st


def series_expm(m: np.ndarray, terms: int = 30) -> np.ndarray:
    """exp(m) by scaling-and-squaring of the truncated Taylor series."""
    m = np.asarray(m, dtype=complex)
    norm = np.max(np.abs(m))
    squarings = max(0, int(np.ceil(np.log2(norm))) + 1) if norm > 0 else 0
    scaled = m / (2**squarings)
    result = np.eye(m.shape[0], dtype=complex)
    term = np.eye(m.shape[0], dtype=complex)
    for k in range(1, terms + 1):
        term = term @ scaled / k
        result = result + term
    for _ in range(squarings):
        result = result @ result
    return result


def quadrature_dynamical_phase(sched, initial, steps_per_segment: int = 10_000) -> float:
    """Midpoint-rule integral of -<psi(t)|H|psi(t)> over the schedule.

    States at the midpoints come from an eigendecomposition of each
    segment's Hamiltonian, not from the library's propagators.
    """
    phase = 0.0
    vec = initial.as_vector()
    for seg in sched:
        h = seg.hamiltonian()
        w, v = np.linalg.eigh(h)
        coeff = v.conj().T @ vec
        dt = seg.duration / steps_per_segment
        mids = (np.arange(steps_per_segment) + 0.5) * dt
        # Eigenbasis amplitudes at every midpoint; <H> = sum_i w_i |amp_i|^2.
        amps = np.exp(-1j * np.outer(mids, w)) * coeff[None, :]
        expect = np.einsum("ti,i,ti->t", np.conj(amps), w, amps).real
        phase -= float(np.sum(expect) * dt)
        vec = v @ (np.exp(-1j * w * seg.duration) * coeff)
    return phase


PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def series_rotation(axis, theta) -> np.ndarray:
    """exp(-i theta/2 n.sigma) by the series exponential."""
    n_sigma = sum(c * p for c, p in zip(axis, PAULI))
    return series_expm(-0.5j * theta * n_sigma)


def random_unit_axis(rng) -> tuple:
    v = rng.standard_normal(3)
    v /= np.linalg.norm(v)
    return tuple(v)


# Hypothesis strategy for unit rotation axes.
unit_axes = (
    st.tuples(*[st.floats(-1, 1, allow_nan=False)] * 3)
    .filter(lambda v: sum(c * c for c in v) > 1e-6)
    .map(lambda v: tuple(np.array(v) / np.linalg.norm(v)))
)
