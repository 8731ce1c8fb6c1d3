import re

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import tanloss.optim as optim
from tanloss.network import PARAM_NAMES, ModelSizes, init_params
from tanloss.optim import RmsPropState, rmsprop_step

mp.mp.dps = 40

SIZES = ModelSizes(input_dim=5, verb_dim=2, state_dim=2, gru1_hidden=3, gru2_hidden=2,
                   head_hidden=3)


def fresh():
    params = init_params(SIZES, seed=0)
    return params, RmsPropState.fresh(params)


def zeros(params):
    return params.like(np.zeros_like(params.data))


def test_zero_gradient_leaves_params_and_decays_cache():
    params, state = fresh()
    state.cache.gru1.W_z[:] = 1.0
    before = {k: v.copy() for k, v in params.flat().items()}
    rmsprop_step(params, zeros(params).data, state)
    for name, arr in params.flat().items():
        assert np.array_equal(arr, before[name])
    assert np.allclose(state.cache.gru1.W_z, 0.9)


def test_first_step_magnitude_matches_hand_evaluation():
    # theta=0, g=1: cache becomes 0.1 and the update is lr / (sqrt(0.1) + eps).
    params, state = fresh()
    params.gru1.b_z[:] = 0.0
    grads = zeros(params)
    grads.gru1.b_z[:] = 1.0
    rmsprop_step(params, grads.data, state)
    expected = float(mp.mpf("1e-4") / (mp.sqrt(mp.mpf("0.1")) + mp.mpf("1e-8")))
    assert abs(abs(params.gru1.b_z[0]) - expected) < 1e-12
    assert state.cache.gru1.b_z[0] == pytest.approx(0.1)


def test_second_identical_step_is_smaller():
    params, state = fresh()
    grads = zeros(params)
    grads.gru1.b_z[:] = 1.0
    rmsprop_step(params, grads.data, state)
    first = abs(params.gru1.b_z[0])
    rmsprop_step(params, grads.data, state)
    second = abs(params.gru1.b_z[0] + first)  # net movement of the second step
    assert second < first
    assert state.cache.gru1.b_z[0] == pytest.approx(0.19)


@given(st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
       st.sampled_from([-1.0, 1.0]))
def test_update_opposes_gradient_and_respects_first_step_bound(magnitude, sign):
    params, state = fresh()
    g = sign * magnitude
    grads = zeros(params)
    grads.verb_head.b2[:] = g
    rmsprop_step(params, grads.data, state)
    delta = params.verb_head.b2[0]
    assert np.sign(delta) == -np.sign(g)
    assert abs(delta) <= state.lr / np.sqrt(1.0 - state.rho)


def test_deterministic():
    results = []
    for _ in range(2):
        params, state = fresh()
        grads = np.full_like(params.data, 0.3)
        rmsprop_step(params, grads, state)
        results.append({k: v.copy() for k, v in params.flat().items()})
    for name in results[0]:
        assert np.array_equal(results[0][name], results[1][name])


def test_non_finite_gradient_names_coordinate():
    params, state = fresh()
    grads = zeros(params)
    grads.gru2.U_h[1, 0] = np.nan
    with pytest.raises(ValueError, match=r"gru2\.U_h\[1, 0\]"):
        rmsprop_step(params, grads.data, state)


def test_shape_mismatch_rejected():
    params, state = fresh()
    grads = zeros(params).data[:-1]
    with pytest.raises(ValueError, match="shape"):
        rmsprop_step(params, grads, state)


@pytest.mark.parametrize("block", [7, optim.BLOCK])
def test_flat_step_equals_the_per_array_formula_bit_for_bit(block, monkeypatch):
    # A block of 7 elements cuts across every array boundary.
    monkeypatch.setattr(optim, "BLOCK", block)
    rng = np.random.default_rng(block)
    params, state = fresh()
    params.data[:] = rng.normal(size=params.data.size)
    state.cache.data[:] = rng.random(state.cache.data.size)
    grads = {name: rng.normal(size=arr.shape) * 10.0 ** rng.integers(-4, 4)
             for name, arr in params.flat().items()}
    expected = {}
    for name, theta in params.flat().items():
        g = grads[name]
        cache = state.rho * state.cache.flat()[name] + (1.0 - state.rho) * (g * g)
        expected[name] = (theta - g / (np.sqrt(cache) + state.eps) * state.lr, cache)
    grads = np.concatenate([grads[name].ravel() for name in PARAM_NAMES])
    rmsprop_step(params, grads, state)
    for name, (theta, cache) in expected.items():
        assert params.flat()[name].tobytes() == theta.tobytes(), name
        assert state.cache.flat()[name].tobytes() == cache.tobytes(), name


@pytest.mark.parametrize("name", PARAM_NAMES)
def test_non_finite_gradient_in_any_array_is_named_and_moves_nothing(name):
    params, state = fresh()
    rng = np.random.default_rng(len(name))
    state.cache.data[:] = rng.random(state.cache.data.size)
    grads = params.like(rng.normal(size=params.data.size))
    view = grads.flat()[name]
    coord = tuple(int(rng.integers(d)) for d in view.shape)
    view[coord] = np.inf if rng.random() < 0.5 else np.nan
    before = params.data.copy(), state.cache.data.copy()
    with pytest.raises(ValueError, match=re.escape(f"{name}{list(coord)}")):
        rmsprop_step(params, grads.data, state)
    assert params.data.tobytes() == before[0].tobytes()
    assert state.cache.data.tobytes() == before[1].tobytes()
