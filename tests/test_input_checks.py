"""Each public entry point refuses a malformed input with its own message."""

import re

import numpy as np
import pytest

from kduncd import (
    CosetSpec,
    TransitionKind,
    basis_state,
    check_submatrix_conditions,
    dft_matrix,
    enumerate_diagram,
    mub_from_parts,
    random_mub_pair,
    random_state_in_subspace,
    transition_from_unitary,
)


@pytest.mark.parametrize(
    "call, bad",
    [
        (lambda v: basis_state(4, v), 1.5),
        (lambda v: basis_state(v, 1), 4.0),
        (dft_matrix, "3"),
        (dft_matrix, 2.5),
        (dft_matrix, 4.0),
    ],
    ids=["basis-index", "basis-d", "dft-str", "dft-fraction", "dft-float"],
)
def test_dimensions_and_basis_indices_must_be_integers(call, bad):
    dft_matrix(4)  # a cached d=4 matrix must not answer for 4.0
    with pytest.raises(ValueError, match=f"^index {re.escape(repr(bad))} is not an integer$"):
        call(bad)
    # numpy integers keep working
    assert dft_matrix(np.int64(4)).d == 4
    assert basis_state(np.int64(4), np.intp(1)).amps_a[1] == 1


_DFT4 = dft_matrix(4)
_PHASES = np.zeros(3)


_REFUSALS = [
    (lambda: enumerate_diagram(_DFT4, engine="fast"), "unknown engine 'fast'"),
    (
        lambda: enumerate_diagram(random_mub_pair(4, 1), engine="exact"),
        "exact engine requires the DFT transition matrix",
    ),
    (lambda: check_submatrix_conditions(_DFT4, [4], [0]), "row index out of range"),
    (lambda: transition_from_unitary(np.ones((2, 3))), "transition matrix must be square"),
    (
        lambda: transition_from_unitary(random_mub_pair(4, 1).numeric, kind=TransitionKind.DFT),
        "DFT kind requires entries w^(i*j)/sqrt(d)",
    ),
    (lambda: random_state_in_subspace(_DFT4, [], [0]), "support sets must be nonempty"),
    (lambda: random_state_in_subspace(_DFT4, [4], [0]), "support index out of range"),
    (
        lambda: mub_from_parts(1, np.zeros(1), np.zeros(1), np.arange(1)),
        "dimension must be at least 2",
    ),
    (
        lambda: mub_from_parts(3, np.zeros(2), _PHASES, np.arange(3)),
        "phase vectors must have length d",
    ),
    (
        lambda: mub_from_parts(3, _PHASES, _PHASES, np.array([0, 0, 1])),
        "perm must be a permutation of 0..d-1",
    ),
    (lambda: CosetSpec(d=0, p=1), "dimension must be positive"),
]


@pytest.mark.parametrize("call, message", _REFUSALS, ids=[m for _, m in _REFUSALS])
def test_malformed_inputs_are_refused(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
