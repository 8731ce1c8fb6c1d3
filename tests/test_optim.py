import itertools
import re
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tanloss.optim as optim
from tanloss.corpus import Sample, pad_batch
from tanloss.losses import tangent_loss_grad
from tanloss.network import PARAM_NAMES, ModelParams, ModelSizes, backward, forward, init_params
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
    data = zeros(params).data
    # Too short, and of the right size but the wrong shape.
    for grads in (data[:-1], data.reshape(-1, 1), data.reshape(1, -1)):
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


# Toy size (the quickstart's) and a size at which, with CHUNK cut to 2**14,
# every product is formed in several row panels.  With CHUNK cut, toy size
# too takes the panel walk instead of forming the gradient whole.
FACTORED_SIZES = [
    ModelSizes(input_dim=62, verb_dim=8, state_dim=6, gru1_hidden=64, gru2_hidden=32,
               head_hidden=32),
    ModelSizes(input_dim=12, verb_dim=4, state_dim=3, gru1_hidden=300, gru2_hidden=400,
               head_hidden=20),
]


def random_batch(sizes, rng, lengths):
    samples = [Sample(tokens=rng.integers(0, sizes.input_dim - 1, size=n).tolist(),
                      verb_label=rng.integers(0, 2, sizes.verb_dim).astype(float),
                      state_label=rng.integers(0, 2, sizes.state_dim).astype(float))
               for n in lengths]
    return pad_batch(samples, pad_index=sizes.input_dim - 1)


def products(grads):
    return [p for p in grads.pieces if isinstance(p, optim.Product)]


def columns(grads):
    return [p for p in grads.pieces if isinstance(p, optim.Columns)]


def batch_gradient(params, batch, out=None):
    verb, state, trace = forward(params, batch)
    return backward(params, batch, trace, tangent_loss_grad(batch.verb_labels, verb),
                    tangent_loss_grad(batch.state_labels, state), out=out)


class TestFactoredGradient:
    @pytest.mark.parametrize("chunk", [1 << 14, optim.CHUNK])
    @pytest.mark.parametrize("sizes", FACTORED_SIZES, ids=["toy", "gru300x400"])
    def test_steps_match_the_formed_gradient_bit_for_bit(self, sizes, chunk, monkeypatch):
        monkeypatch.setattr(optim, "CHUNK", chunk)
        runs = []
        for formed in (False, True):
            rng = np.random.default_rng(3)
            params = init_params(sizes, seed=4)
            state = RmsPropState.fresh(params)
            full = params.like(np.empty_like(params.data))
            for _ in range(4):
                batch = random_batch(sizes, rng, rng.integers(1, 9, size=6))
                if formed:
                    batch_gradient(params, batch, out=full)
                    rmsprop_step(params, full.data, state)
                else:
                    grads = batch_gradient(params, batch)
                    assert len(products(grads)) == 7 and len(columns(grads)) == 1
                    assert len(grads.pieces) == 12
                    rmsprop_step(params, grads, state)
            runs.append((params.data.tobytes(), state.cache.data.tobytes()))
        assert runs[0] == runs[1]

    def test_products_span_several_panels(self):
        grads = batch_gradient(init_params(FACTORED_SIZES[1], seed=4),
                               random_batch(FACTORED_SIZES[1], np.random.default_rng(0),
                                            [3, 8, 5]))
        # The five GRU products; each head's W1 (20 x 400) fits one panel.
        assert all(len(list(optim._panels(*p.shape, 1 << 14))) > 2 for p in products(grads)[:5])
        for p in products(grads) + columns(grads):
            rows, cols = p.shape
            panels = list(optim._panels(rows, cols, 1 << 14))
            # The panels tile the rows in order, each within the limit and
            # none a lone row.
            assert [lo for lo, _ in panels] == [0] + [hi for _, hi in panels[:-1]]
            assert panels[-1][1] == rows
            assert all(2 <= hi - lo and (hi - lo) * cols <= 1 << 14 for lo, hi in panels)

    @pytest.mark.parametrize("product", range(5))
    def test_finite_factors_whose_product_overflows_are_named_and_move_nothing(self, product):
        sizes = FACTORED_SIZES[0]
        rng = np.random.default_rng(product)
        params = init_params(sizes, seed=1)
        state = RmsPropState.fresh(params)
        state.cache.data[:] = rng.random(params.data.size)
        grads = batch_gradient(params, random_batch(sizes, rng, [4, 7, 2, 5]))
        p = products(grads)[product]
        row, col = int(rng.integers(p.a.shape[1])), int(rng.integers(p.b.shape[1]))
        p.a[:, row] = 1e300
        p.b[:, col] = 1e10
        assert np.all(np.isfinite(p.a)) and np.all(np.isfinite(p.b))
        flat = np.empty_like(params.data)
        with np.errstate(over="ignore", invalid="ignore"):
            optim.form_gradient(grads.pieces, flat)
        with pytest.raises(ValueError) as on_flat:
            rmsprop_step(params, flat, state)
        before = params.data.copy(), state.cache.data.copy()
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError) as factored:
            rmsprop_step(params, grads, state)
        assert str(factored.value) == str(on_flat.value)
        array = ["gru1.U", "gru1.U", "gru2.W", "gru2.U", "gru2.U"][product]
        assert re.fullmatch(rf"non-finite gradient at {re.escape(array)}_[zrh]\[\d+, \d+\]",
                            str(factored.value))
        assert params.data.tobytes() == before[0].tobytes()
        assert state.cache.data.tobytes() == before[1].tobytes()

    # With CHUNK cut to 2**14 the toy-size step walks the columns piece
    # itself instead of a gradient formed whole.
    @pytest.mark.parametrize("chunk", [1 << 14, optim.CHUNK])
    @pytest.mark.parametrize("seed", range(2))
    def test_non_finite_input_column_is_named_at_its_token_and_moves_nothing(self, seed, chunk,
                                                                             monkeypatch):
        monkeypatch.setattr(optim, "CHUNK", chunk)
        sizes = FACTORED_SIZES[0]
        rng = np.random.default_rng(seed)
        params = init_params(sizes, seed=1)
        state = RmsPropState.fresh(params)
        state.cache.data[:] = rng.random(params.data.size)
        grads = batch_gradient(params, random_batch(sizes, rng, [4, 7, 2, 5]))
        (cols,) = columns(grads)
        row, j = int(rng.integers(cols.values.shape[0])), int(rng.integers(len(cols.index)))
        cols.values[row, j] = np.nan if seed % 2 else -np.inf
        n = sizes.gru1_hidden
        before = params.data.copy(), state.cache.data.copy()
        with pytest.raises(ValueError, match=re.escape(
                f"gru1.W_{'zrh'[row // n]}[{row % n}, {int(cols.index[j])}]")):
            rmsprop_step(params, grads, state)
        assert params.data.tobytes() == before[0].tobytes()
        assert state.cache.data.tobytes() == before[1].tobytes()

    def test_an_unproven_finite_product_is_scanned_and_applied(self):
        sizes = FACTORED_SIZES[0]
        rng = np.random.default_rng(8)
        params = init_params(sizes, seed=1)
        grads = batch_gradient(params, random_batch(sizes, rng, [4, 7, 2, 5]))
        p = products(grads)[2]                      # gru2.W
        p.a[0, 5] = 1e299
        assert not p.proven_finite()
        flat = np.empty_like(params.data)
        optim.form_gradient(grads.pieces, flat)
        assert np.all(np.isfinite(flat)) and np.abs(flat).max() > 1e290
        results = []
        for g in (flat, grads):
            theta, state = params.like(params.data.copy()), RmsPropState.fresh(params)
            with np.errstate(over="ignore"):
                rmsprop_step(theta, g, state)
            results.append((theta.data.tobytes(), state.cache.data.tobytes()))
        assert results[0] == results[1]

    def test_the_finite_scan_forms_no_product_whole(self, monkeypatch):
        # At GRU 300/400 the gru2.W gradient is 1200 x 300, 2.88 MB formed
        # whole; with CHUNK cut to 2**14 its row panels are 54 rows.
        monkeypatch.setattr(optim, "CHUNK", 1 << 14)
        sizes = FACTORED_SIZES[1]
        rng = np.random.default_rng(8)
        params = init_params(sizes, seed=1)
        state = RmsPropState.fresh(params)
        grads = batch_gradient(params, random_batch(sizes, rng, [4, 7, 2, 5]))
        p = products(grads)[2]                      # gru2.W
        p.a[0, 5] = 1e299
        assert not p.proven_finite()
        tracemalloc.start()
        try:
            with np.errstate(over="ignore"):
                rmsprop_step(params, grads, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * p.size

    def test_dense_part_of_the_wrong_length_is_rejected(self):
        params, state = fresh()
        grads = batch_gradient(params, random_batch(SIZES, np.random.default_rng(0), [3, 2]))
        grads.pieces[-1] = grads.pieces[-1][:-1]
        with pytest.raises(ValueError, match="shape"):
            rmsprop_step(params, grads, state)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_the_walk_visits_the_layout_once_in_order_in_panels(data):
    sizes = ModelSizes(
        input_dim=data.draw(st.integers(2, 9)), verb_dim=data.draw(st.integers(1, 4)),
        state_dim=data.draw(st.integers(1, 4)), gru1_hidden=data.draw(st.integers(1, 40)),
        gru2_hidden=data.draw(st.integers(1, 40)), head_hidden=data.draw(st.integers(1, 8)))
    chunk = data.draw(st.sampled_from([1 << 5, 1 << 8, 1 << 11, optim.CHUNK]))
    lengths = data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=5))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    params = init_params(sizes, seed=0)
    grads = batch_gradient(params, random_batch(sizes, rng, lengths))
    # A drawn set of present columns, any of them, in place of the batch's.
    shape = params.gru1.W.shape
    index = np.array(data.draw(st.lists(st.integers(0, shape[1] - 1), unique=True)), dtype=np.intp)
    index.sort()
    grads.pieces[0] = optim.Columns(rng.normal(size=(shape[0], len(index))), index, shape)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optim, "CHUNK", chunk)
        runs = [(at, g.copy()) for at, g in optim._walk(grads.pieces)]
    # Each element once, in layout order.
    sizes_run = [g.size for _, g in runs]
    assert [at for at, _ in runs] == list(itertools.accumulate(sizes_run[:-1], initial=0))
    assert sum(sizes_run) == params.data.size
    at = 0
    for piece in grads.pieces:
        mine = [g for start, g in runs if at <= start < at + piece.size]
        if not isinstance(piece, np.ndarray):
            rows, cols = piece.shape
            panel_rows = [g.size // cols for g in mine]
            assert all(g.size % cols == 0 for g in mine) and sum(panel_rows) == rows
            # No panel is a lone row unless the product is one row; above 2
            # rows a panel holds at most CHUNK elements, but the last may
            # take one leftover row more.
            assert all(k >= min(2, rows) for k in panel_rows)
            assert all(k <= 2 or k * cols <= chunk for k in panel_rows[:-1])
            assert panel_rows[-1] <= max(2, chunk // cols) + 1
        if isinstance(piece, optim.Product):
            whole = (piece.a.T @ piece.b).ravel()
            np.testing.assert_allclose(np.concatenate(mine), whole, rtol=1e-12,
                                       atol=1e-12 * np.abs(whole).max())
        elif isinstance(piece, optim.Columns):
            # The values in their columns, zeros elsewhere, bit for bit.
            whole = np.zeros(piece.shape)
            whole[:, piece.index] = piece.values
            assert np.concatenate(mine).tobytes() == whole.tobytes()
        else:
            (run,) = mine
            assert run.tobytes() == piece.tobytes()
        at += piece.size
