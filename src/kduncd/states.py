"""Constructive state families and randomized basis pairs used for verification.

The coset family realizes every point of the classical hyperbola
n_A * n_B = d for the DFT pair: a state uniformly supported on an arithmetic
progression of step d/p with a linear phase has A-support p, B-support d/p,
and an everywhere nonnegative KD table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kd import (
    StateVector, TransitionKind, TransitionMatrix, _index, dft_matrix, transition_from_unitary
)
from .linalg import nullspace_basis

__all__ = [
    "CosetSpec",
    "coset_classical_state",
    "mub_from_parts",
    "random_mub_pair",
    "random_state_in_subspace",
]


@dataclass(frozen=True)
class CosetSpec:
    """Parameters of a classical coset state: A-support size p dividing d,
    plus offsets of the progression in each basis."""

    d: int
    p: int
    a_shift: int = 0
    b_shift: int = 0

    def __post_init__(self) -> None:
        d, p, _, _ = map(_index, (self.d, self.p, self.a_shift, self.b_shift))
        if d < 1:
            raise ValueError("dimension must be positive")
        if p < 1 or d % p != 0:
            raise ValueError(f"support size {p} must divide dimension {d}")


def coset_classical_state(spec: CosetSpec) -> StateVector:
    """State with <a_i|psi> = w^(i*b_shift)/sqrt(p) on i = a_shift (mod d/p).

    Its B-support is the dual progression {j = b_shift (mod p)}, so the
    profile lands exactly on the hyperbola: (n_a, n_b) = (p, d/p).
    """
    d, p = spec.d, spec.p
    q = d // p
    amps = np.zeros(d, dtype=complex)
    for m in range(p):
        i = (spec.a_shift + m * q) % d
        amps[i] = np.exp(2j * np.pi * ((i * spec.b_shift) % d) / d) / math.sqrt(p)
    amps.setflags(write=False)
    return StateVector(d=d, amps_a=amps, norm=1.0)


def random_state_in_subspace(
    u: TransitionMatrix,
    s_set,
    t_set,
    seed: int | np.random.Generator | None = None,
) -> StateVector:
    """Random unit state in the subspace with A-support inside ``s_set`` and
    B-support inside ``t_set``: one draw of ``_subspace_sampler``."""
    amps = _subspace_sampler(u, s_set, t_set)(np.random.default_rng(seed), 1)[0]
    amps.setflags(write=False)
    return StateVector(d=u.d, amps_a=amps, norm=1.0)


def _subspace_sampler(u: TransitionMatrix, s_set, t_set):
    """``draw(rng, count)``: ``count`` random unit states, as rows of A
    amplitudes, in the subspace with A-support inside ``s_set`` and B-support
    inside ``t_set``.

    The subspace is the nullspace of the transition submatrix with rows
    outside ``s_set`` and columns in ``t_set``; it is computed once, and each
    row's coefficients over its basis are drawn complex Gaussian and
    normalized.
    """
    d = u.d
    s = sorted(set(map(_index, s_set)))
    t = sorted(set(map(_index, t_set)))
    if not s or not t:
        raise ValueError("support sets must be nonempty")
    if s[0] < 0 or s[-1] >= d or t[0] < 0 or t[-1] >= d:
        raise ValueError("support index out of range")
    rows = [i for i in range(d) if i not in set(s)]
    basis = nullspace_basis(u.numeric[np.ix_(rows, t)])
    if not basis:
        raise ValueError("the constrained subspace is trivial")

    def draw(rng: np.random.Generator, count: int) -> np.ndarray:
        shape = (count, len(basis))
        g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        beta = np.zeros((count, len(t)), dtype=complex)
        for coeff, vec in zip(g.T, basis):
            beta += coeff[:, None] * vec
        # Each row takes the 1-D norm and the states are columns of the
        # product, so one row rounds exactly as the per-state sampler that
        # wrote existing witness files did.
        for row in beta:
            row /= np.linalg.norm(row)
        amps_b = np.zeros((d, count), dtype=complex)
        amps_b[t] = beta.T
        return np.ascontiguousarray((u.numeric @ amps_b).T)

    return draw


def mub_from_parts(
    d: int,
    phases_a: np.ndarray,
    phases_b: np.ndarray,
    perm: np.ndarray,
) -> TransitionMatrix:
    """Mutually unbiased pair D1 . F . D2 . P from explicit phase angles and a
    column permutation; identity parts reproduce the DFT itself."""
    if d < 2:
        raise ValueError("dimension must be at least 2")
    pa = np.asarray(phases_a, dtype=float)
    pb = np.asarray(phases_b, dtype=float)
    sigma = np.asarray(perm, dtype=int)
    if pa.shape != (d,) or pb.shape != (d,):
        raise ValueError("phase vectors must have length d")
    if sorted(sigma.tolist()) != list(range(d)):
        raise ValueError("perm must be a permutation of 0..d-1")
    f = dft_matrix(d).numeric
    u = (np.exp(1j * pa)[:, None] * f * np.exp(1j * pb)[None, :])[:, sigma]
    return transition_from_unitary(u, kind=TransitionKind.GENERAL_MUB)


def random_mub_pair(d: int, seed: int | np.random.Generator | None = None) -> TransitionMatrix:
    """Random mutually unbiased pair: the DFT dressed with random unit-modulus
    diagonal phases on both sides and a random column permutation."""
    rng = np.random.default_rng(seed)
    phases_a = rng.uniform(0.0, 2.0 * np.pi, size=d)
    phases_b = rng.uniform(0.0, 2.0 * np.pi, size=d)
    perm = rng.permutation(d)
    return mub_from_parts(d, phases_a, phases_b, perm)
