"""Basis pairs, Kirkwood-Dirac quasiprobability tables, and state classification.

Given orthonormal bases A and B linked by a unitary transition matrix U with
U[i, j] = <a_i|b_j>, the KD table of a pure state is

    Q[i, j] = <a_i|psi> <psi|b_j> <b_j|a_i>.

It sums to one and its row/column marginals are the Born probabilities in the
two bases.  A state is KD classical when every Q[i, j] is real and
nonnegative, and nonclassical otherwise.  For the DFT basis pair the verdict
is fully determined by the support sizes: classical exactly when
n_A * n_B == d, nonclassical exactly when n_A * n_B > d.
"""

from __future__ import annotations

import json
import math
import sys
import warnings
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from pathlib import Path

import numpy as np

__all__ = [
    "Classicality",
    "KDDist",
    "StateVector",
    "SupportProfile",
    "SupportThresholdError",
    "TransitionKind",
    "TransitionMatrix",
    "Verdict",
    "b_amplitudes",
    "basis_state",
    "classify_state",
    "dft_matrix",
    "kd_distribution",
    "load_state",
    "predict_classicality_dft",
    "save_state",
    "state_from_amplitudes",
    "support_profile",
    "support_uncertainty_bound",
    "theorem5_sufficient",
    "transition_from_unitary",
]

DEFAULT_SUPPORT_EPS = 1e-10
DEFAULT_CLASSICALITY_EPS = 1e-10

_UNITARITY_TOL = 1e-10
_MUB_MODULUS_TOL = 1e-10
_DFT_PATTERN_TOL = 1e-12
_FLOAT_MAX = sys.float_info.max


class TransitionKind(str, Enum):
    DFT = "dft"
    GENERAL_MUB = "general_mub"
    GENERAL = "general"


class Verdict(str, Enum):
    CLASSICAL = "classical"
    NONCLASSICAL = "nonclassical"


class SupportThresholdError(ValueError):
    """Support sizes violate the uncertainty floor, so the support
    threshold is misconfigured for this state."""


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """Unitary transition matrix between two orthonormal bases.

    ``numeric`` holds the complex entries <a_i|b_j>.  For the DFT kind the
    exact rank engine works on the unscaled entries w^(i*j) instead: rank is
    invariant under the global 1/sqrt(d), and sqrt(d) is irrational in the
    cyclotomic field for non-square d.
    """

    d: int
    kind: TransitionKind
    numeric: np.ndarray


def _validate_unitary(a: np.ndarray) -> None:
    d = a.shape[0]
    if a.shape != (d, d):
        raise ValueError("transition matrix must be square")
    gram = a @ a.conj().T
    if np.max(np.abs(gram - np.eye(d))) > _UNITARITY_TOL:
        raise ValueError("matrix is not unitary within tolerance")


def transition_from_unitary(
    array: np.ndarray, kind: TransitionKind = TransitionKind.GENERAL
) -> TransitionMatrix:
    """Wrap and validate a unitary as a transition matrix of the given kind."""
    a = np.array(array, dtype=complex)
    _validate_unitary(a)
    d = a.shape[0]
    if kind in (TransitionKind.DFT, TransitionKind.GENERAL_MUB):
        if np.max(np.abs(np.abs(a) - 1.0 / math.sqrt(d))) > _MUB_MODULUS_TOL:
            raise ValueError("mutually unbiased kind requires |U_ij| = 1/sqrt(d)")
    if kind is TransitionKind.DFT:
        if np.max(np.abs(a - _dft_entries(d))) > _DFT_PATTERN_TOL:
            raise ValueError("DFT kind requires entries w^(i*j)/sqrt(d)")
    a.setflags(write=False)
    return TransitionMatrix(d=d, kind=kind, numeric=a)


def _dft_entries(d: int) -> np.ndarray:
    """The unitary DFT entries w^(i*j)/sqrt(d), w = exp(2*pi*i/d)."""
    idx = np.arange(d)
    return np.exp(2j * np.pi * (np.outer(idx, idx) % d) / d) / math.sqrt(d)


@lru_cache(maxsize=None)
def dft_matrix(d: int) -> TransitionMatrix:
    """The DFT transition matrix."""
    if d < 1:
        raise ValueError("dimension must be a positive integer")
    return transition_from_unitary(_dft_entries(d), kind=TransitionKind.DFT)


@dataclass(frozen=True, eq=False)
class StateVector:
    """Pure state given by its amplitudes in the A basis.

    ``norm`` records the norm of the raw input before normalization; the
    stored amplitudes are always unit norm.  The B-representation is derived
    on demand from the transition matrix rather than stored.
    """

    d: int
    amps_a: np.ndarray
    norm: float = 1.0


def state_from_amplitudes(amps) -> StateVector:
    a = np.array(amps, dtype=complex).reshape(-1)
    if not np.isfinite(a).all():
        raise ValueError("state amplitudes must be finite")
    scale = 1.0
    with np.errstate(over="ignore", under="ignore"):
        nrm = float(np.linalg.norm(a))
    if not 0.0 < nrm < math.inf:
        # the sum of squares under- or overflowed: divide the float view by the
        # largest part first (complex division by a subnormal real overflows)
        scale = float(np.abs(a.view(float)).max(initial=0.0)) or 1.0
        a = (a.view(float) / scale).view(complex)
        nrm = float(np.linalg.norm(a))
    if nrm == 0.0:
        raise ValueError("state vector must be nonzero")
    a = a / nrm
    a.setflags(write=False)
    return StateVector(d=a.size, amps_a=a, norm=scale * nrm)


def basis_state(d: int, i: int) -> StateVector:
    if not 0 <= i < d:
        raise ValueError("basis index out of range")
    a = np.zeros(d, dtype=complex)
    a[i] = 1.0
    a.setflags(write=False)
    return StateVector(d=d, amps_a=a, norm=1.0)


def _require_same_dim(psi: StateVector, u: TransitionMatrix) -> None:
    if psi.d != u.d:
        raise ValueError(f"state dimension {psi.d} does not match basis dimension {u.d}")


def b_amplitudes(psi: StateVector, u: TransitionMatrix) -> np.ndarray:
    """Amplitudes <b_j|psi> derived from the A representation."""
    _require_same_dim(psi, u)
    return _to_b(u, psi.amps_a)


# Row-wise forms of the support threshold and the KD violation rule: a state
# is one row of A amplitudes, a block is a stack of rows.


def _to_b(u: TransitionMatrix, amps_a: np.ndarray) -> np.ndarray:
    return (u.numeric.conj().T @ amps_a.T).T


def _support_masks(amps_a: np.ndarray, u: TransitionMatrix, eps: float) -> np.ndarray:
    """Each row's support masks in the A and B bases, stacked (see ``support_profile``)."""
    mags = np.abs(np.stack([amps_a, _to_b(u, amps_a)]))
    top = mags.max(axis=-1, keepdims=True)
    if not top.all():
        raise ValueError("zero vector has no support")
    return mags > eps * top


def _kd_table(amps_a: np.ndarray, u: TransitionMatrix) -> np.ndarray:
    return amps_a[..., :, None] * _to_b(u, amps_a).conj()[..., None, :] * u.numeric.conj()


def _violation(q: np.ndarray) -> np.ndarray:
    """How far each KD cell is from real and nonnegative: max(|Im Q|, -Re Q)."""
    return np.maximum(np.abs(q.imag), -q.real)


def _nonclassical(amps_a: np.ndarray, u: TransitionMatrix) -> np.ndarray:
    """Row-wise ``classify_state`` at its default eps: True where some cell violates."""
    return _violation(_kd_table(amps_a, u)).max(axis=(-2, -1)) > DEFAULT_CLASSICALITY_EPS


@dataclass(frozen=True, eq=False)
class KDDist:
    """The d x d complex quasiprobability table Q[i, j]."""

    q: np.ndarray

    def total(self) -> complex:
        return complex(self.q.sum())

    def marginal_a(self) -> np.ndarray:
        """Row sums; equal |<a_i|psi>|^2 for a unit state."""
        return self.q.sum(axis=1)

    def marginal_b(self) -> np.ndarray:
        """Column sums; equal |<b_j|psi>|^2 for a unit state."""
        return self.q.sum(axis=0)


def kd_distribution(psi: StateVector, u: TransitionMatrix) -> KDDist:
    """Quasiprobability table Q[i, j] = <a_i|psi> <psi|b_j> <b_j|a_i>."""
    _require_same_dim(psi, u)
    q = _kd_table(psi.amps_a, u)
    q.setflags(write=False)
    return KDDist(q=q)


@dataclass(frozen=True)
class SupportProfile:
    """Index sets and counts of the nonvanishing amplitudes in both bases."""

    d: int
    s_set: frozenset[int]
    t_set: frozenset[int]
    n_a: int
    n_b: int
    epsilon: float


def support_profile(
    psi: StateVector, u: TransitionMatrix, eps: float = DEFAULT_SUPPORT_EPS
) -> SupportProfile:
    """Support sets in the A and B bases.

    The threshold is relative: an amplitude counts as nonzero when its
    magnitude exceeds ``eps`` times the largest magnitude in that basis.
    """
    if eps < 0:
        raise ValueError("support threshold must be nonnegative")
    _require_same_dim(psi, u)
    in_a, in_b = _support_masks(psi.amps_a, u, eps)
    s_set = frozenset(np.flatnonzero(in_a).tolist())
    t_set = frozenset(np.flatnonzero(in_b).tolist())
    return SupportProfile(
        d=psi.d, s_set=s_set, t_set=t_set, n_a=len(s_set), n_b=len(t_set), epsilon=eps
    )


@dataclass(frozen=True)
class Classicality:
    """Verdict plus, for nonclassical states, the most violating table cell."""

    verdict: Verdict
    witness: tuple[int, int, complex] | None = None

    def __post_init__(self) -> None:
        if (self.verdict is Verdict.NONCLASSICAL) != (self.witness is not None):
            raise ValueError("nonclassical verdicts carry a witness cell, classical ones do not")


def classify_state(
    psi: StateVector, u: TransitionMatrix, eps: float = DEFAULT_CLASSICALITY_EPS
) -> Classicality:
    """Classical iff every KD table entry is real and nonnegative within eps.

    A cell violates when |Im Q| > eps or Re Q < -eps; the witness is the cell
    maximizing max(|Im Q|, -Re Q), ties resolved in row-major order.
    """
    table = kd_distribution(psi, u).q
    violation = _violation(table)
    flat = int(np.argmax(violation))
    i, j = divmod(flat, table.shape[1])
    if violation[i, j] <= eps:
        return Classicality(verdict=Verdict.CLASSICAL)
    return Classicality(verdict=Verdict.NONCLASSICAL, witness=(i, j, complex(table[i, j])))


def support_uncertainty_bound(u: TransitionMatrix) -> float:
    """The floor of n_A * n_B over all states: max over cells of |U_ij|^-2.

    Infinite when some transition amplitude vanishes exactly (the bound is
    then vacuous for supports avoiding that cell's bases).
    """
    mags = np.abs(u.numeric)
    low = float(mags.min())
    if low == 0.0:
        return math.inf
    return float((1.0 / low) ** 2)


def predict_classicality_dft(profile: SupportProfile) -> Verdict:
    """DFT-pair verdict from support sizes alone: classical iff
    n_a * n_b == d, nonclassical iff the product exceeds d."""
    product = profile.n_a * profile.n_b
    if product < profile.d:
        raise SupportThresholdError(
            f"support product {product} below dimension {profile.d}; "
            "support threshold is misconfigured"
        )
    if product == profile.d:
        return Verdict.CLASSICAL
    return Verdict.NONCLASSICAL


def theorem5_sufficient(profile: SupportProfile, u: TransitionMatrix) -> bool:
    """Sufficient nonclassicality flag for mutually unbiased basis pairs.

    True when n_a > d/2 or n_b > d/2, which forces a nonclassical verdict for
    any non-basis state.  False means the criterion is silent, not that the
    state is classical.
    """
    if u.kind not in (TransitionKind.DFT, TransitionKind.GENERAL_MUB):
        raise ValueError("criterion requires a DFT or general MUB transition kind")
    if profile.n_a <= 1 or profile.n_b <= 1:
        raise ValueError("criterion excludes basis vectors (n_a or n_b equal to 1)")
    return 2 * profile.n_a > u.d or 2 * profile.n_b > u.d


# ---------------------------------------------------------------------------
# state file format: {"d": int, "amps_a": [[re, im], ...]}


def save_state(path: str | Path, psi: StateVector) -> None:
    payload = {
        "d": psi.d,
        "amps_a": [[float(a.real), float(a.imag)] for a in psi.amps_a],
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def load_state(path: str | Path) -> StateVector:
    """Load a state file, normalizing and warning when the norm is off.

    The file must hold an integer ``d`` and, in ``amps_a``, d amplitudes,
    each a ``[re, im]`` pair of finite numbers.
    """
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(payload, dict) or type(payload.get("d")) is not int:
        raise ValueError(f"{path}: a state file is a JSON object with an integer d")
    d = payload["d"]
    raw = payload["amps_a"]
    if not isinstance(raw, list) or len(raw) != d:
        raise ValueError(f"{path}: amps_a must list d={d} amplitudes")
    for i, amp in enumerate(raw):
        # NaN fails the comparison, and so does an int too large for a float
        pair = isinstance(amp, list) and len(amp) == 2
        if not (pair and all(type(x) in (int, float) and abs(x) <= _FLOAT_MAX for x in amp)):
            raise ValueError(
                f"{path}: amplitude {i} is {json.dumps(amp)}, not a [re, im] pair of finite numbers"
            )
    psi = state_from_amplitudes([complex(re, im) for re, im in raw])
    if abs(psi.norm - 1.0) > 1e-6:
        warnings.warn(f"state norm {psi.norm:.8g} deviates from 1; normalizing", stacklevel=2)
    return psi
