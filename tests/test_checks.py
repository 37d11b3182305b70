"""The library functions apply the input rules of the sweep configurations
and the command line: a bool, text, NaN or infinity (and, for a count, a
float) fails naming the field, wherever the value enters."""
import numpy as np
import pytest

from romda import toymodel
from romda.assimilate import AssimilationProblem
from romda.experiments import TwinConfig, build_surrogates, inject_noise
from romda.pce import PceConfig, select_degree
from romda.pod import fit_pod, truncate

RNG = np.random.default_rng(0)
PARAMS = RNG.uniform([0.0, 2.0], [1.0, 3.0], (12, 2)).T  # in the box [0, 1] x [2, 3]
STATES = np.vstack([PARAMS, PARAMS**2, PARAMS.prod(axis=0)])
BOX = [[0.0, 1.0], [2.0, 3.0]]
Y_T = np.ones(toymodel.default_grid().n_state)  # a toy-model state


def build(bounds=BOX, **keys) -> None:
    keys = {"pce_degree": 1, "modes": 1, **keys}
    build_surrogates(PARAMS, STATES, bounds, ("podpce", "poden"), split_seed=0, **keys)


def problem(**alpha) -> None:
    AssimilationProblem(x_b=np.array([0.5, 2.5]), background_cov=np.eye(2), y_o=np.zeros(3),
                        observation_cov=np.ones(3), bounds=np.array(BOX), **alpha)


def degree(max_degree) -> None:
    x, y = PARAMS.T, STATES[:1].T
    select_degree(x[:8], y[:8], x[8:], y[8:], PceConfig(np.array(BOX), max_degree))


# name: (field, a good value, call(value)); a field with an integer good value is a count.
CALLS = {
    "truncate-modes": ("modes", 2, lambda v: truncate(fit_pod(STATES), modes=v)),
    "truncate-evr": ("evr_threshold", 0.9, lambda v: truncate(fit_pod(STATES), evr_threshold=v)),
    "build-degree": ("pce_degree", 2, lambda v: build(pce_degree=v)),
    "build-evr": ("evr_threshold", 0.9, lambda v: build(modes=None, evr_threshold=v)),
    "build-bounds": ("bounds", 1.0, lambda v: build(bounds=[[0.0, v], [2.0, 3.0]])),
    "select-degree": ("max_degree", 2, degree),
    "inject-noise": ("noise_level", 0.1, lambda v: inject_noise(Y_T, v, 0)),
    "problem-alpha-b": ("alpha_b", 2.0, lambda v: problem(alpha_b=v)),
    "problem-alpha-r": ("alpha_r", 2.0, lambda v: problem(alpha_r=v)),
    "twin-x_t": ("x_t", 2.2, lambda v: TwinConfig(x_t=[70.0, 4.6, 1.2, v])),
}
BAD = {"true": True, "text": "1", "nan": float("nan"), "infinity": float("inf")}


def cases():
    for name, (field, good, call) in CALLS.items():
        bad = {**BAD, "2.5": 2.5} if isinstance(good, int) else BAD
        yield pytest.param(field, call, good, bad, id=name)


@pytest.mark.parametrize("field, call, good, bad", cases())
def test_a_bad_value_fails_naming_its_field(field, call, good, bad) -> None:
    call(good)  # so that each rejection below is of the value alone
    for value in bad.values():
        with pytest.raises(ValueError, match=f"^{field}: "):
            call(value)
