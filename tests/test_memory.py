"""Memory budgets of a surrogate build, counted in ensemble-sized arrays.

A budget is the tracemalloc peak of one call above what was allocated
before it, divided by the nbytes of the (m_y, n) state ensemble. numpy
reports its array buffers to tracemalloc, so the count is deterministic and
the same on every machine; LAPACK's workspaces are not in it.
"""
from __future__ import annotations

import sys
import tracemalloc

import numpy as np
import pytest

from romda import toymodel
from romda.experiments import build_surrogates
from romda.pod import fit_pod
from romda.surrogate import Standardizer

N = 400
PARAMS = toymodel.sample_parameters(N, 7)  # (n, 4)
ENSEMBLE_NBYTES = toymodel.default_grid().n_state * N * np.dtype(float).itemsize


def peak_ensembles(call):
    """``call()`` and its tracemalloc peak in ensembles."""
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak / ENSEMBLE_NBYTES


def test_propagate_holds_its_output_and_two_variables_of_scratch() -> None:
    # The output, the depth turned friction and one denominator: 5/3.
    states, peak = peak_ensembles(lambda: toymodel.propagate(PARAMS))
    assert states.nbytes == ENSEMBLE_NBYTES
    assert peak <= 1.8


def test_fit_pod_holds_at_most_two_and_a_half_ensembles_above_its_input() -> None:
    states = toymodel.propagate(PARAMS)
    z_states = Standardizer.fit(states).transform(states)
    basis, peak = peak_ensembles(lambda: fit_pod(z_states))
    assert basis.n_members == N
    assert peak <= 2.5


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="before Python 3.11 a caller holds its arguments until the call returns")
def test_a_build_holds_at_most_four_and_a_half_ensembles() -> None:
    # propagate included: the physical ensemble is passed on without a name,
    # so the build releases it once it is standardized.
    (built, _), peak = peak_ensembles(lambda: build_surrogates(
        PARAMS.T, toymodel.propagate(PARAMS), toymodel.PARAMETER_BOUNDS, ("podpce", "poden"),
        pce_degree=1, split_seed=1, modes=6,
    ))
    assert sorted(built) == ["poden", "podpce"]
    assert peak <= 4.5
