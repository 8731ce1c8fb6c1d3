import contextlib
import io
import json
import math
import struct
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tanloss.network as network
import tanloss.optim as optim
from tanloss import cli
from tanloss.corpus import Sample, pad_batch
from tanloss.losses import tangent_loss_grad
from tanloss.network import (PARAM_NAMES, Checkpoint, CheckpointError, ModelParams, ModelSizes,
                             backward, check_fingerprint, forward, init_params, load_checkpoint,
                             save_checkpoint)
from tanloss.optim import RmsPropState
from tanloss.training import gradient_check

TOY = ModelSizes(input_dim=6, verb_dim=2, state_dim=2, gru1_hidden=3, gru2_hidden=2, head_hidden=4)


def make_batch(sizes, lengths, seed=0, width=None):
    """A batch of random samples of the given lengths, padded to ``width``
    steps when given, else to the longest."""
    rng = np.random.default_rng(seed)
    samples = []
    for length in lengths:
        verb = np.zeros(sizes.verb_dim)
        verb[rng.integers(0, sizes.verb_dim)] = 1.0
        state = np.zeros(sizes.state_dim)
        state[rng.integers(0, sizes.state_dim)] = 1.0
        samples.append(Sample(
            tokens=rng.integers(0, sizes.input_dim - 1, size=length).tolist(),
            verb_label=verb, state_label=state))
    batch = pad_batch(samples, pad_index=sizes.input_dim - 1)
    if width is not None:
        batch.token_matrix = np.pad(batch.token_matrix,
                                    ((0, 0), (0, width - batch.token_matrix.shape[1])),
                                    constant_values=sizes.input_dim - 1)
    return batch


class TestInit:
    def test_same_seed_is_bit_identical(self):
        a = init_params(TOY, seed=11)
        b = init_params(TOY, seed=11)
        for name, arr in a.flat().items():
            assert np.array_equal(arr, b.flat()[name])

    def test_different_seeds_differ(self):
        a = init_params(TOY, seed=1)
        b = init_params(TOY, seed=2)
        assert any(not np.array_equal(arr, b.flat()[name]) for name, arr in a.flat().items())

    def test_shapes(self):
        sizes = ModelSizes(input_dim=60, verb_dim=3, state_dim=4, gru1_hidden=16,
                           gru2_hidden=8, head_hidden=5)
        params = init_params(sizes, seed=0)
        assert params.gru1.W_z.shape == (16, 60)
        assert params.gru2.U_h.shape == (8, 8)
        assert params.verb_head.W2.shape == (3, 5)
        assert params.state_head.W2.shape == (4, 5)
        assert np.all(params.gru1.b_z == 0)

    # Sizes whose gru1 gates and head W1 span several draw blocks.
    BLOCKS = ModelSizes(input_dim=50, verb_dim=3, state_dim=4, gru1_hidden=70, gru2_hidden=9,
                        head_hidden=60)

    @pytest.mark.parametrize("block", [7, 1000, network.BLOCK])
    def test_each_weight_is_one_uniform_draw_in_the_documented_order(self, block, monkeypatch):
        monkeypatch.setattr(network, "BLOCK", block)
        params = init_params(self.BLOCKS, seed=13)
        rng = np.random.default_rng(13)
        names = [f"{layer}.{kind}_{gate}" for layer in ("gru1", "gru2") for kind in "WU"
                 for gate in "zrh"]
        names += [f"{head}.{w}" for head in ("verb_head", "state_head") for w in ("W1", "W2")]
        weights = params.flat()
        for name in names:
            shape = weights[name].shape
            limit = np.sqrt(6.0 / sum(shape))
            assert weights[name].tobytes() == rng.uniform(-limit, limit, shape).tobytes(), name

    def test_every_bias_is_zero_whatever_the_buffer_held(self, monkeypatch):
        # A buffer full of NaN in place of the fresh one: init must write
        # every element, the biases too.
        monkeypatch.setattr(ModelParams, "new", classmethod(
            lambda cls, sizes: cls(np.full(network._count(sizes), np.nan), sizes)))
        params = init_params(self.BLOCKS, seed=2)
        biases = {name: arr for name, arr in params.flat().items() if arr.ndim == 1}
        assert len(biases) == 2 * 3 + 2 * 2
        for name, arr in biases.items():
            assert np.all(arr == 0.0), name
        assert np.all(np.isfinite(params.data))

    def test_bad_size_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            init_params(ModelSizes(input_dim=0, verb_dim=2, state_dim=2), seed=0)


class TestFusedLayout:
    GATES = ("W_z", "W_r", "W_h", "U_z", "U_r", "U_h", "b_z", "b_r", "b_h")

    def models(self, tmp_path):
        params = init_params(TOY, seed=3)
        save_checkpoint(Checkpoint(params=params, epoch=1, best_val_error=0.5, seeds={}),
                        tmp_path / "m.bin")
        return {"init": params, "copy": params.like(params.data.copy()),
                "loaded": load_checkpoint(tmp_path / "m.bin").params}

    def test_writing_through_a_gate_view_changes_forward(self, tmp_path):
        batch = make_batch(TOY, [3, 5])
        for origin, params in self.models(tmp_path).items():
            for layer in ("gru1", "gru2"):
                for name in self.GATES:
                    before, _, _ = forward(params, batch)
                    view = getattr(getattr(params, layer), name)
                    saved = view.copy()
                    view[...] += 0.25
                    after, _, _ = forward(params, batch)
                    view[...] = saved
                    assert not np.array_equal(before, after), (origin, layer, name)

    def test_gate_views_tile_the_fused_arrays(self, tmp_path):
        for params in self.models(tmp_path).values():
            for layer in (params.gru1, params.gru2):
                n = layer.U.shape[1]
                for kind, fused in (("W", layer.W), ("U", layer.U), ("b", layer.b)):
                    assert fused.shape[0] == 3 * n and fused.flags.c_contiguous
                    for i, gate in enumerate("zrh"):
                        view = getattr(layer, f"{kind}_{gate}")
                        assert view.base is params.data and fused.base is params.data
                        assert np.shares_memory(view, fused[i * n:(i + 1) * n])

    def test_gradients_come_back_as_views_of_fused_buffers(self):
        params = init_params(TOY, seed=2)
        batch = make_batch(TOY, [3, 4])
        verb, state, trace = forward(params, batch)
        grads = backward(params, batch, trace, tangent_loss_grad(batch.verb_labels, verb),
                         tangent_loss_grad(batch.state_labels, state))
        for layer in ("gru1", "gru2"):
            for kind in "WUb":
                views = [grads[f"{layer}.{kind}_{gate}"] for gate in "zrh"]
                assert views[0].base is not None
                assert all(v.base is views[0].base for v in views)


def formed_in_nan(params, grads):
    """The gradient's pieces formed into a buffer of NaN, so that an element
    they fail to write stays NaN."""
    return params.like(optim.form_gradient(grads.pieces, np.full_like(params.data, np.nan)))


class TestFlatBuffer:
    def test_constructor_rejects_a_buffer_of_the_wrong_length_or_dtype(self):
        data = init_params(TOY, seed=3).data
        assert ModelParams(data, TOY).data is data
        with pytest.raises(ValueError, match=rf"got float64 of shape \({data.size - 1},\)"):
            ModelParams(data[:-1].copy(), TOY)
        with pytest.raises(ValueError, match="got float32"):
            ModelParams(data.astype(np.float32), TOY)

    def test_loaded_parameters_and_cache_are_one_buffer_each(self, tmp_path):
        params = init_params(TOY, seed=3)
        cache = params.like(np.abs(params.data) + 0.5)
        save_checkpoint(Checkpoint(params=params, epoch=1, best_val_error=0.5, seeds={},
                                   rmsprop=RmsPropState(cache)),
                        tmp_path / "m.bin")
        loaded = load_checkpoint(tmp_path / "m.bin")
        assert loaded.params.data.tobytes() == params.data.tobytes()
        assert all(v.base is loaded.params.data for v in loaded.params.flat().values())
        views = list(loaded.rmsprop.cache.flat().values())
        assert views[0].base.size == params.data.size
        assert all(v.base is views[0].base for v in views)

    def test_gradient_maps_every_name_to_its_formed_arrays(self, monkeypatch):
        # Chunks of 2**14 elements put each product's rows in several panels.
        monkeypatch.setattr(optim, "CHUNK", 1 << 14)
        params = init_params(SPLIT, seed=2)
        batch = make_batch(SPLIT, [3, 7, 1, 5], seed=1)
        verb, state, trace = forward(params, batch)
        args = (params, batch, trace, tangent_loss_grad(batch.verb_labels, verb),
                tangent_loss_grad(batch.state_labels, state))
        grads = backward(*args)
        assert list(grads) == list(PARAM_NAMES) and len(grads) == len(PARAM_NAMES)
        # gru1.W as columns, five GRU and two head W1 products, and the
        # flat arrays between them: the biases and the heads' W2.
        assert [type(p).__name__ for p in grads.pieces] == (
            ["Columns"] + ["Product"] * 2 + ["ndarray"] + ["Product"] * 3 + ["ndarray"]
            + (["Product"] + ["ndarray"] * 3) * 2)
        flat = [p for p in grads.pieces if isinstance(p, np.ndarray)]
        assert all(p.ndim == 1 for p in flat)
        head = SPLIT.head_hidden
        assert sum(p.size for p in flat) == (3 * (SPLIT.gru1_hidden + SPLIT.gru2_hidden)
                                             + (head + 1) * (SPLIT.verb_dim + SPLIT.state_dim)
                                             + 2 * head)
        assert all(grads[name].base is grads.formed.data for name in PARAM_NAMES)
        # The pieces of a second backward, formed into a buffer of NaN, write
        # every element, with the same bits.
        again = optim.form_gradient(backward(*args).pieces, np.full_like(params.data, np.nan))
        assert again.tobytes() == grads.formed.data.tobytes()
        assert grads.formed.data.tobytes() == np.concatenate(
            [g.ravel() for g in grads.values()]).tobytes()

    def test_one_step_batch_has_zero_recurrent_gradients(self):
        params = init_params(TOY, seed=2)
        batch = make_batch(TOY, [1, 1], width=4)
        verb, state, trace = forward(params, batch)
        out = formed_in_nan(params, backward(params, batch, trace,
                                             tangent_loss_grad(batch.verb_labels, verb),
                                             tangent_loss_grad(batch.state_labels, state)))
        for layer in (out.gru1, out.gru2):
            assert np.all(layer.U == 0) and np.any(layer.b != 0)
        assert np.all(np.isfinite(out.data))


def scalar_reference_forward(params, tokens):
    """Independent re-evaluation of the model on one sample, written with
    plain Python loops so it shares nothing with the vectorized path."""

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    def step(layer, x, h):
        n = len(h)
        z = [sig(sum(layer.W_z[i][j] * x[j] for j in range(len(x)))
                 + sum(layer.U_z[i][k] * h[k] for k in range(n)) + layer.b_z[i])
             for i in range(n)]
        r = [sig(sum(layer.W_r[i][j] * x[j] for j in range(len(x)))
                 + sum(layer.U_r[i][k] * h[k] for k in range(n)) + layer.b_r[i])
             for i in range(n)]
        hc = [math.tanh(sum(layer.W_h[i][j] * x[j] for j in range(len(x)))
                        + sum(layer.U_h[i][k] * r[k] * h[k] for k in range(n)) + layer.b_h[i])
              for i in range(n)]
        return [(1.0 - z[i]) * h[i] + z[i] * hc[i] for i in range(n)]

    def head(p, h):
        hidden = [max(0.0, sum(p.W1[i][j] * h[j] for j in range(len(h))) + p.b1[i])
                  for i in range(p.W1.shape[0])]
        return [sig(sum(p.W2[i][j] * hidden[j] for j in range(len(hidden))) + p.b2[i])
                for i in range(p.W2.shape[0])]

    input_dim = params.gru1.W_z.shape[1]
    h1 = [0.0] * params.gru1.W_z.shape[0]
    h2 = [0.0] * params.gru2.W_z.shape[0]
    for token in tokens:
        x = [1.0 if j == token else 0.0 for j in range(input_dim)]
        h1 = step(params.gru1, x, h1)
        h2 = step(params.gru2, h1, h2)
    return head(params.verb_head, h2), head(params.state_head, h2)


class TestForward:
    def test_zero_params_output_half(self):
        params = init_params(TOY, seed=0)
        for arr in params.flat().values():
            arr[:] = 0.0
        batch = make_batch(TOY, [3, 4])
        verb, state, _ = forward(params, batch)
        assert np.all(verb == 0.5) and np.all(state == 0.5)

    def test_outputs_strictly_inside_unit_interval(self):
        params = init_params(TOY, seed=1)
        verb, state, _ = forward(params, make_batch(TOY, [2, 5, 7]))
        for out in (verb, state):
            assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_matches_scalar_reference(self):
        params = init_params(TOY, seed=7)
        batch = make_batch(TOY, [4, 6], seed=2)
        verb, state, _ = forward(params, batch)
        for r in range(len(batch)):
            tokens = batch.token_matrix[r][: batch.lengths[r]].tolist()
            ref_verb, ref_state = scalar_reference_forward(params, tokens)
            assert np.allclose(verb[r], ref_verb, rtol=0, atol=1e-12)
            assert np.allclose(state[r], ref_state, rtol=0, atol=1e-12)

    def test_padding_invariance_same_batch(self):
        params = init_params(TOY, seed=4)
        batch = make_batch(TOY, [3, 5], seed=1)
        overpadded = make_batch(TOY, [3, 5], seed=1, width=11)
        v1, s1, _ = forward(params, batch)
        v2, s2, _ = forward(params, overpadded)
        assert np.array_equal(v1, v2) and np.array_equal(s1, s2)

    def test_padding_invariance_across_batches(self):
        params = init_params(TOY, seed=4)
        rng = np.random.default_rng(8)
        shared = Sample(tokens=rng.integers(0, TOY.input_dim - 1, size=4).tolist(),
                        verb_label=np.array([1.0, 0.0]), state_label=np.array([0.0, 1.0]))
        other = Sample(tokens=rng.integers(0, TOY.input_dim - 1, size=9).tolist(),
                       verb_label=np.array([1.0, 0.0]), state_label=np.array([0.0, 1.0]))
        alone = pad_batch([shared], pad_index=TOY.input_dim - 1)
        padded_more = pad_batch([shared, other], pad_index=TOY.input_dim - 1)
        v1, s1, _ = forward(params, alone)
        v2, s2, _ = forward(params, padded_more)
        # Different batch shapes may take different BLAS kernels, so allow
        # ulp-level rounding here; padding at fixed composition is bit-exact.
        assert np.allclose(v1[0], v2[0], rtol=0, atol=1e-12)
        assert np.allclose(s1[0], s2[0], rtol=0, atol=1e-12)

    def test_trace_holds_four_values_per_unit_and_packed_row(self):
        # z, r, hc and h_out per packed row and GRU unit: the state entering
        # a step and r * h are rebuilt by backward, not kept.
        sizes = ModelSizes(input_dim=20, verb_dim=3, state_dim=3, gru1_hidden=64,
                           gru2_hidden=32, head_hidden=4)
        params = init_params(sizes, seed=0)
        batch = make_batch(sizes, [8, 7, 5, 8, 3, 8, 6, 1] * 8, seed=1)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            outputs = forward(params, batch)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        units, packed = sizes.gru1_hidden + sizes.gru2_hidden, int(batch.lengths.sum())
        # Slack for the tokens, the heads' trace and the outputs.
        assert held <= 8 * packed * (4 * units + units // 2)
        assert len(outputs) == 3

    def test_deterministic(self):
        params = init_params(TOY, seed=5)
        batch = make_batch(TOY, [3, 6])
        v1, s1, _ = forward(params, batch)
        v2, s2, _ = forward(params, batch)
        assert np.array_equal(v1, v2) and np.array_equal(s1, s2)

    def test_zero_length_rejected(self):
        params = init_params(TOY, seed=0)
        batch = make_batch(TOY, [3])
        batch.lengths[0] = 0
        with pytest.raises(ValueError, match="length"):
            forward(params, batch)

    def test_token_out_of_range_rejected(self):
        params = init_params(TOY, seed=0)
        batch = make_batch(TOY, [3])
        batch.token_matrix[0, 0] = TOY.input_dim
        with pytest.raises(ValueError, match="out of range"):
            forward(params, batch)


# Sizes at which the panels engage in both layers: layer 1's recurrent
# products from 4 running rows, layer 2's from 3, and layer 2's input
# projection of 3 to PANEL_MAX_ROWS packed rows.
SPLIT = ModelSizes(input_dim=12, verb_dim=4, state_dim=3, gru1_hidden=300, gru2_hidden=400,
                   head_hidden=20)


@pytest.fixture
def panel_calls(monkeypatch):
    """The shape of h.T, (width, rows of h), in every panel product, as
    np.matmul sees it: plain products go through the ``@`` operator."""
    calls, matmul = [], np.matmul

    def spy(a, b, *args, **kwargs):
        calls.append(b.shape)
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    return calls


class TestFewRowProduct:
    @pytest.mark.parametrize("shape", [(900, 300), (1200, 400), (2400, 800)])
    def test_matches_one_product(self, shape, panel_calls):
        rng = np.random.default_rng(0)
        M = rng.standard_normal(shape)
        rows, width = shape
        for k in range(1, 21):
            h = rng.standard_normal((k, width))
            want = h @ M.T
            panel_calls.clear()
            got = network._few_row_product(h, M)
            assert got.shape == want.shape
            if 2 <= k <= network.PANEL_MAX_ROWS and k * width * rows > network.SMALL_GEMM_MNK:
                panel = network.SMALL_GEMM_MNK // (k * width)
                assert panel_calls == [(width, k)] * -(-rows // panel), k
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), k
            else:
                assert panel_calls == [], k
                assert np.array_equal(got, want), k

    def test_forward_splits_in_both_layers(self, panel_calls):
        params = init_params(SPLIT, seed=3)
        forward(params, make_batch(SPLIT, range(1, 21), seed=2))
        widths = {width for width, _ in panel_calls}
        assert widths == {SPLIT.gru1_hidden, SPLIT.gru2_hidden}
        # One sentence: only layer 2's input projection has several rows.
        # Its result is the trace, whose step rows must stay contiguous.
        panel_calls.clear()
        trace = forward(params, make_batch(SPLIT, [6], seed=2))[2]
        assert set(panel_calls) == {(SPLIT.gru1_hidden, 6)}
        assert trace.gru2.zr.flags.c_contiguous and trace.gru2.hc.flags.c_contiguous

    def test_padding_invariance_bit_exact_where_products_split(self):
        params = init_params(SPLIT, seed=3)
        results = []
        for width in (None, 26):
            batch = make_batch(SPLIT, range(1, 21), seed=2, width=width)
            verb, state, trace = forward(params, batch)
            results.append((verb, state, backward(
                params, batch, trace, tangent_loss_grad(batch.verb_labels, verb),
                tangent_loss_grad(batch.state_labels, state))))
        (v1, s1, g1), (v2, s2, g2) = results
        assert np.array_equal(v1, v2) and np.array_equal(s1, s2)
        for name in g1:
            assert np.array_equal(g1[name], g2[name]), name

    def test_finite_differences_where_products_split(self):
        assert gradient_check(SPLIT, seed=1, n_coords=40, lengths=tuple(range(1, 21))) < 1e-4

    def test_toy_forward_is_bit_identical_to_plain_products(self, monkeypatch):
        sizes = ModelSizes(input_dim=62, verb_dim=8, state_dim=6, gru1_hidden=64,
                           gru2_hidden=32, head_hidden=32)
        params = init_params(sizes, seed=5)
        batch = make_batch(sizes, [1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 20] * 11, seed=4)
        verb, state, trace = forward(params, batch)
        monkeypatch.setattr(network, "_few_row_product", lambda h, M: h @ M.T)
        plain_verb, plain_state, plain_trace = forward(params, batch)
        assert np.array_equal(verb, plain_verb) and np.array_equal(state, plain_state)
        for layer, plain in ((trace.gru1, plain_trace.gru1), (trace.gru2, plain_trace.gru2)):
            for got, want in ((layer.zr, plain.zr), (layer.hc, plain.hc),
                              (layer.h_out, plain.h_out)):
                assert np.array_equal(got, want)


class TestBackward:
    def test_zero_output_grads_give_zero_param_grads(self):
        params = init_params(TOY, seed=1)
        batch = make_batch(TOY, [3, 5])
        _, _, trace = forward(params, batch)
        grads = backward(params, batch, trace,
                         np.zeros((2, TOY.verb_dim)), np.zeros((2, TOY.state_dim)))
        assert all(np.all(g == 0) for g in grads.values())

    def test_duplicated_sample_doubles_gradients(self):
        params = init_params(TOY, seed=2)
        single = make_batch(TOY, [4], seed=3)
        double = pad_batch(
            [Sample(single.token_matrix[0].tolist(), single.verb_labels[0], single.state_labels[0])] * 2,
            pad_index=TOY.input_dim - 1)
        for batch, scale in ((single, 1.0), (double, 2.0)):
            verb, state, trace = forward(params, batch)
            grads = backward(params, batch, trace,
                             tangent_loss_grad(batch.verb_labels, verb),
                             tangent_loss_grad(batch.state_labels, state))
            if scale == 1.0:
                reference = grads
            else:
                for name in reference:
                    assert np.allclose(grads[name], 2.0 * reference[name], rtol=1e-12)

    def test_matches_finite_differences(self):
        sizes = ModelSizes(input_dim=10, verb_dim=3, state_dim=3,
                           gru1_hidden=5, gru2_hidden=4, head_hidden=7)
        assert gradient_check(sizes, seed=0, n_coords=100) < 1e-4

    def test_single_sample_finite_differences(self):
        assert gradient_check(TOY, seed=9, n_coords=60) < 1e-4

    def test_corrupted_backward_is_detected(self, wrong_backward):
        assert gradient_check(TOY, seed=9, n_coords=60) > 1e-4

    def test_heads_are_independent(self):
        params = init_params(TOY, seed=6)
        batch = make_batch(TOY, [3, 4])
        verb, state, trace = forward(params, batch)
        verb_grad = tangent_loss_grad(batch.verb_labels, verb)
        state_grad = tangent_loss_grad(batch.state_labels, state)
        full = backward(params, batch, trace, verb_grad, state_grad)
        verb_zeroed = backward(params, batch, trace, np.zeros_like(verb_grad), state_grad)
        for name in ("state_head.W1", "state_head.b1", "state_head.W2", "state_head.b2"):
            assert np.array_equal(full[name], verb_zeroed[name])
        for name in ("verb_head.W1", "verb_head.W2"):
            assert np.all(verb_zeroed[name] == 0)

    def test_finite_differences_with_unequal_layers_and_mixed_lengths(self):
        sizes = ModelSizes(input_dim=9, verb_dim=3, state_dim=2,
                           gru1_hidden=7, gru2_hidden=5, head_hidden=4)
        assert gradient_check(sizes, seed=4, n_coords=400, lengths=(2, 6, 4, 6, 1)) < 1e-4

    def test_padding_invariance_bit_exact(self):
        params = init_params(TOY, seed=4)
        grads = []
        for width in (None, 11):
            batch = make_batch(TOY, [3, 5, 2], seed=1, width=width)
            verb, state, trace = forward(params, batch)
            grads.append(backward(params, batch, trace,
                                  tangent_loss_grad(batch.verb_labels, verb),
                                  tangent_loss_grad(batch.state_labels, state)))
        assert grads[0].keys() == grads[1].keys()
        for name in grads[0]:
            assert np.array_equal(grads[0][name], grads[1][name]), name

    def test_backward_leaves_the_trace_as_it_was_and_repeats_exactly(self):
        params = init_params(TOY, seed=7)
        batch = make_batch(TOY, [5, 2, 4, 5, 1], seed=4)
        verb, state, trace = forward(params, batch)
        arrays = [trace.token_matrix, trace.order, trace.tokens, trace.h_final,
                  *trace.verb_head, *trace.state_head,
                  *(a for layer in (trace.gru1, trace.gru2) for a in vars(layer).values())]
        before = [a.tobytes() for a in arrays]
        blocks = list(trace.blocks)
        runs = [formed_in_nan(params, backward(
            params, batch, trace, tangent_loss_grad(batch.verb_labels, verb),
            tangent_loss_grad(batch.state_labels, state))).data.tobytes() for _ in range(2)]
        assert runs[0] == runs[1]
        assert [a.tobytes() for a in arrays] == before and trace.blocks == blocks

    def test_input_gradient_sums_each_tokens_deltas(self, monkeypatch):
        # Token 1 repeats within a row and across rows; tokens 0, 5, 6 and 7
        # never appear, nor does the pad token 8.
        sizes = ModelSizes(input_dim=9, verb_dim=2, state_dim=2,
                           gru1_hidden=3, gru2_hidden=2, head_hidden=4)
        params = init_params(sizes, seed=8)
        batch = pad_batch([Sample(tokens, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
                           for tokens in ([1, 2, 1, 3], [4, 1], [2, 1, 4])], pad_index=8)
        deltas = []
        layer_backward = network._layer_backward

        def keep_deltas(*args, **kwargs):
            result = layer_backward(*args, **kwargs)
            deltas.append(result[0])
            return result

        monkeypatch.setattr(network, "_layer_backward", keep_deltas)
        verb, state, trace = forward(params, batch)
        grads = formed_in_nan(params, backward(params, batch, trace,
                                               tangent_loss_grad(batch.verb_labels, verb),
                                               tangent_loss_grad(batch.state_labels, state)))
        d1 = deltas[1]    # layer 2 is swept first
        for token in range(sizes.input_dim):
            column = grads.gru1.W[:, token]
            if token in (0, 5, 6, 7, 8):
                assert np.all(column == 0.0), token
            else:
                np.testing.assert_allclose(column, d1[trace.tokens == token].sum(axis=0),
                                           rtol=1e-12, atol=1e-15 * np.abs(d1).max())
        assert (trace.tokens == 1).sum() == 4

    def test_backward_allocates_less_than_one_input_weight_block(self):
        # A vocabulary of 20 000 tokens: the gru1.W gradient is 12 x 20 000,
        # 1.92 MB dense, of which a batch of three sentences touches at
        # most 12 columns.
        sizes = ModelSizes(input_dim=20_000, verb_dim=3, state_dim=2, gru1_hidden=4,
                           gru2_hidden=3, head_hidden=5)
        params = init_params(sizes, seed=1)
        batch = pad_batch([Sample(tokens, np.array([1.0, 0.0, 1.0]), np.array([0.0, 1.0]))
                           for tokens in ([19_998, 3, 17], [5, 19_998, 12_000, 7], [11])],
                          pad_index=19_999)
        verb, state, trace = forward(params, batch)
        args = (params, batch, trace, tangent_loss_grad(batch.verb_labels, verb),
                tangent_loss_grad(batch.state_labels, state))
        tracemalloc.start()
        try:
            grads = backward(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < params.gru1.W.nbytes
        # The same gradient as a flat buffer: the absent columns are zero.
        out = formed_in_nan(params, grads)
        for name, arr in out.flat().items():
            assert grads[name].tobytes() == arr.tobytes(), name
        assert np.count_nonzero(np.any(out.gru1.W != 0, axis=0)) == 7

    def test_trace_batch_mismatch_rejected(self):
        params = init_params(TOY, seed=0)
        batch_a = make_batch(TOY, [3, 4], seed=1)
        batch_b = make_batch(TOY, [3, 4], seed=2)
        _, _, trace = forward(params, batch_a)
        with pytest.raises(ValueError, match="trace"):
            backward(params, batch_b, trace,
                     np.zeros((2, TOY.verb_dim)), np.zeros((2, TOY.state_dim)))


class TestCheckpoint:
    def snapshot(self, params, **kwargs):
        defaults = dict(epoch=3, best_val_error=0.25, seeds={"split": 1, "init": 2, "shuffle": 3})
        defaults.update(kwargs)
        return Checkpoint(params=params, **defaults)

    def test_round_trip_preserves_forward_outputs_bit_exactly(self, tmp_path):
        params = init_params(TOY, seed=12)
        batch = make_batch(TOY, [4, 5])
        before_v, before_s, _ = forward(params, batch)
        save_checkpoint(self.snapshot(params), tmp_path / "m.bin")
        loaded = load_checkpoint(tmp_path / "m.bin")
        after_v, after_s, _ = forward(loaded.params, batch)
        assert np.array_equal(before_v, after_v) and np.array_equal(before_s, after_s)
        assert loaded.epoch == 3 and loaded.best_val_error == 0.25
        assert loaded.seeds == {"split": 1, "init": 2, "shuffle": 3}

    def test_rmsprop_state_round_trips(self, tmp_path):
        params = init_params(TOY, seed=1)
        cache = params.like(np.abs(params.data))
        ckpt = self.snapshot(params, rmsprop=RmsPropState(cache, lr=2e-4, rho=0.8, eps=1e-7))
        save_checkpoint(ckpt, tmp_path / "m.bin")
        loaded = load_checkpoint(tmp_path / "m.bin")
        assert (loaded.rmsprop.lr, loaded.rmsprop.rho, loaded.rmsprop.eps) == (2e-4, 0.8, 1e-7)
        for name, arr in cache.flat().items():
            assert np.array_equal(loaded.rmsprop.cache.flat()[name], arr)

    def test_infinite_best_error_round_trips(self, tmp_path):
        ckpt = self.snapshot(init_params(TOY, seed=1), best_val_error=np.inf)
        save_checkpoint(ckpt, tmp_path / "m.bin")
        assert load_checkpoint(tmp_path / "m.bin").best_val_error == np.inf

    def test_bad_magic_rejected(self, tmp_path):
        (tmp_path / "m.bin").write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(tmp_path / "m.bin")

    def test_version_mismatch_rejected(self, tmp_path):
        import struct

        (tmp_path / "m.bin").write_bytes(
            b"TANL" + struct.pack("<II", 99, 2) + b"{}" + struct.pack("<I", 0))
        with pytest.raises(CheckpointError, match="version 99"):
            load_checkpoint(tmp_path / "m.bin")

    def test_truncated_file_rejected(self, tmp_path):
        save_checkpoint(self.snapshot(init_params(TOY, seed=1)), tmp_path / "m.bin")
        blob = (tmp_path / "m.bin").read_bytes()
        (tmp_path / "cut.bin").write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(tmp_path / "cut.bin")

    def test_file_cut_inside_an_array_body_rejected(self, tmp_path):
        save_checkpoint(self.snapshot(init_params(TOY, seed=1)), tmp_path / "m.bin")
        blob = (tmp_path / "m.bin").read_bytes()
        # name, ndim byte and two u64 dims precede gru1.W_z's 3 x 6 float64 body
        body = blob.index(b"gru1.W_z") + len(b"gru1.W_z") + 1 + 16
        (tmp_path / "cut.bin").write_bytes(blob[: body + 8 * 5])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(tmp_path / "cut.bin")

    def test_oversized_array_header_rejected_before_allocating(self, tmp_path):
        import struct

        (tmp_path / "m.bin").write_bytes(
            b"TANL" + struct.pack("<II", 1, 2) + b"{}" + struct.pack("<I", 1)
            + struct.pack("<H", 1) + b"x" + struct.pack("<B", 2)
            + struct.pack("<2Q", 2 ** 40, 2 ** 20))
        with pytest.raises(CheckpointError, match="unrecognized layout fingerprint"):
            load_checkpoint(tmp_path / "m.bin")

    def test_trailing_bytes_rejected(self, tmp_path):
        save_checkpoint(self.snapshot(init_params(TOY, seed=1)), tmp_path / "m.bin")
        with (tmp_path / "m.bin").open("ab") as fh:
            fh.write(b"\x00")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(tmp_path / "m.bin")

    def test_missing_array_named(self, tmp_path):
        params = init_params(TOY, seed=1)
        save_checkpoint(self.snapshot(params), tmp_path / "m.bin")
        blob = (tmp_path / "m.bin").read_bytes()
        # Rename the stored gru2.U_r so that the gate reads as missing.
        (tmp_path / "renamed.bin").write_bytes(blob.replace(b"gru2.U_r", b"gru2.X_r"))
        with pytest.raises(CheckpointError, match=r"missing parameter array 'gru2\.U_r'"):
            load_checkpoint(tmp_path / "renamed.bin")

    def test_failed_write_leaves_the_old_file_and_no_temp_file(self, tmp_path, monkeypatch):
        path = tmp_path / "ckpt_best.bin"
        save_checkpoint(self.snapshot(init_params(TOY, seed=1)), path)
        before = path.read_bytes()
        # The disk fills up inside gru2.W_z's body.
        cut = before.index(b"gru2.W_z") + len(b"gru2.W_z") + 1 + 16 + 8 * 5
        real_open = open

        class FullDisk:
            def __init__(self, fh):
                self.fh, self.room = fh, cut

            def write(self, data):
                data = memoryview(data).cast("B")
                self.fh.write(data[:self.room])
                if len(data) > self.room:
                    raise OSError(28, "No space left on device")
                self.room -= len(data)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

        monkeypatch.setattr(network, "open", lambda *a, **k: FullDisk(real_open(*a, **k)),
                            raising=False)
        with pytest.raises(OSError, match="No space"):
            save_checkpoint(self.snapshot(init_params(TOY, seed=2), epoch=4), path)
        monkeypatch.undo()
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt_best.bin"]
        assert path.read_bytes() == before
        assert load_checkpoint(path).epoch == 3

    def test_missing_optimizer_array_named(self, tmp_path):
        save_checkpoint(self.with_optimizer(), tmp_path / "m.bin")
        blob = (tmp_path / "m.bin").read_bytes()
        renamed = blob.replace(b"rmsprop.gru1.b_r", b"rmsprop.gru1.X_r")
        (tmp_path / "renamed.bin").write_bytes(renamed)
        with pytest.raises(CheckpointError, match=r"missing optimizer array 'rmsprop\.gru1"):
            load_checkpoint(tmp_path / "renamed.bin")
        assert load_checkpoint(tmp_path / "renamed.bin", optimizer=False).rmsprop is None

    def test_arrays_must_match_the_fingerprinted_layout(self, tmp_path):
        save_checkpoint(self.snapshot(init_params(TOY, seed=1)), tmp_path / "m.bin")
        blob = (tmp_path / "m.bin").read_bytes()
        fingerprint = TOY.fingerprint().encode()
        (tmp_path / "other.bin").write_bytes(
            blob.replace(fingerprint, fingerprint.replace(b"head4", b"head5")))
        with pytest.raises(CheckpointError, match="truncated.*too small for layout"):
            load_checkpoint(tmp_path / "other.bin")
        (tmp_path / "garbled.bin").write_bytes(blob.replace(fingerprint, b"x" * len(fingerprint)))
        with pytest.raises(CheckpointError, match="unrecognized layout fingerprint"):
            load_checkpoint(tmp_path / "garbled.bin")

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="not found"):
            load_checkpoint(tmp_path / "missing.bin")

    def with_optimizer(self, seed=1):
        params = init_params(TOY, seed=seed)
        cache = params.like(np.abs(params.data) + 0.5)
        return self.snapshot(params, rmsprop=RmsPropState(cache))

    def test_other_optimizer_metadata_is_ignored(self, tmp_path):
        import json
        import struct

        # A file may carry more RMSProp metadata than lr, rho and eps; the
        # loaded settings are those three, so they build an RmsPropState.
        save_checkpoint(self.with_optimizer(), tmp_path / "m.bin")
        blob = (tmp_path / "m.bin").read_bytes()
        (meta_len,) = struct.unpack("<I", blob[8:12])
        meta = json.loads(blob[12:12 + meta_len])
        meta["rmsprop"]["momentum"] = 0.5
        extra = json.dumps(meta).encode()
        (tmp_path / "extra.bin").write_bytes(
            blob[:8] + struct.pack("<I", len(extra)) + extra + blob[12 + meta_len:])
        state = load_checkpoint(tmp_path / "extra.bin").rmsprop
        assert (state.lr, state.rho, state.eps) == (1e-4, 0.9, 1e-8)

    def test_parameters_only_load_matches_full_load(self, tmp_path):
        save_checkpoint(self.with_optimizer(), tmp_path / "m.bin")
        full = load_checkpoint(tmp_path / "m.bin")
        light = load_checkpoint(tmp_path / "m.bin", optimizer=False)
        assert full.rmsprop is not None and light.rmsprop is None
        for name, arr in full.params.flat().items():
            other = light.params.flat()[name]
            assert arr.shape == other.shape and arr.tobytes() == other.tobytes()
        assert (light.epoch, light.best_val_error, light.seeds) == \
            (full.epoch, full.best_val_error, full.seeds)

    def test_parameters_only_load_rejects_a_cut_optimizer_array(self, tmp_path):
        save_checkpoint(self.with_optimizer(), tmp_path / "m.bin")
        blob = (tmp_path / "m.bin").read_bytes()
        # name, ndim byte and one u64 dim precede state_head.b2's float64 body
        name = b"rmsprop.state_head.b2"
        body = blob.index(name) + len(name) + 1 + 8
        assert len(blob) == body + 8 * TOY.state_dim
        for cut in (body - 3, body + 8):
            (tmp_path / "cut.bin").write_bytes(blob[:cut])
            with pytest.raises(CheckpointError, match="truncated"):
                load_checkpoint(tmp_path / "cut.bin", optimizer=False)

    def test_parameters_only_load_rejects_trailing_bytes(self, tmp_path):
        save_checkpoint(self.with_optimizer(), tmp_path / "m.bin")
        with (tmp_path / "m.bin").open("ab") as fh:
            fh.write(b"\x00")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(tmp_path / "m.bin", optimizer=False)

    def test_v1_file_written_from_the_format_loads(self, tmp_path):
        import json
        import struct

        # A v1 file built byte by byte: magic, version, JSON metadata, then
        # each array as u16 name length, name, u8 ndim, u64 dims and
        # little-endian float64 data; the optimizer cache follows the
        # parameters under "rmsprop.<name>".
        rng = np.random.default_rng(4)
        params = init_params(TOY, seed=3)
        arrays = {name: arr.copy() for name, arr in params.flat().items()}
        arrays.update({f"rmsprop.{name}": rng.random(arr.shape)
                       for name, arr in params.flat().items()})
        seeds = {"split": 0, "init": 3, "shuffle": 0}
        rmsprop = {"lr": 1e-4, "rho": 0.9, "eps": 1e-8}
        meta = json.dumps({"fingerprint": TOY.fingerprint(), "epoch": 4, "best_val_error": 0.5,
                           "seeds": seeds, "rmsprop": rmsprop, "vocabs": None}).encode()

        def build(arrays):
            blob = [b"TANL", struct.pack("<II", 1, len(meta)), meta,
                    struct.pack("<I", len(arrays))]
            for name, arr in arrays.items():
                blob += [struct.pack("<H", len(name)), name.encode(), struct.pack("<B", arr.ndim),
                         struct.pack(f"<{arr.ndim}Q", *arr.shape), arr.astype("<f8").tobytes()]
            return b"".join(blob)

        (tmp_path / "v1.bin").write_bytes(build(arrays))
        batch = make_batch(TOY, [3, 5])
        expected = forward(params, batch)[:2]
        for optimizer in (True, False):
            loaded = load_checkpoint(tmp_path / "v1.bin", optimizer=optimizer)
            got = forward(loaded.params, batch)[:2]
            assert all(np.array_equal(a, b) for a, b in zip(got, expected))
            assert loaded.epoch == 4 and loaded.best_val_error == 0.5
        assert loaded.rmsprop is None
        full = load_checkpoint(tmp_path / "v1.bin")
        for name, arr in full.rmsprop.cache.flat().items():
            assert np.array_equal(arr, arrays[f"rmsprop.{name}"])

        # Saving the same checkpoint writes exactly these bytes.
        cache = params.like(np.empty_like(params.data))
        for name, arr in cache.flat().items():
            arr[...] = arrays[f"rmsprop.{name}"]
        save_checkpoint(Checkpoint(params=params, epoch=4, best_val_error=0.5, seeds=seeds,
                                   rmsprop=RmsPropState(cache, **rmsprop)), tmp_path / "saved.bin")
        assert (tmp_path / "saved.bin").read_bytes() == (tmp_path / "v1.bin").read_bytes()

        # The same arrays in another order, or with one more, do not load.
        names = list(arrays)
        names[0], names[1] = names[1], names[0]
        (tmp_path / "reordered.bin").write_bytes(build({name: arrays[name] for name in names}))
        (tmp_path / "extra.bin").write_bytes(build({**arrays, "extra": np.zeros(2)}))
        for bad in ("reordered.bin", "extra.bin"):
            for optimizer in (True, False):
                with pytest.raises(CheckpointError):
                    load_checkpoint(tmp_path / bad, optimizer=optimizer)

    def test_fingerprint_mismatch_names_both_layouts(self):
        other = ModelSizes(input_dim=9, verb_dim=2, state_dim=2,
                           gru1_hidden=4, gru2_hidden=3, head_hidden=5)
        with pytest.raises(CheckpointError) as err:
            check_fingerprint(TOY.fingerprint(), other.fingerprint())
        assert TOY.fingerprint() in str(err.value)
        assert other.fingerprint() in str(err.value)


@pytest.fixture(scope="module")
def small_checkpoint(tmp_path_factory):
    """The bytes of a small valid checkpoint with optimizer state and
    vocabularies, and a path to write variants of it to, next to a
    ``data.jsonl`` in those vocabularies."""
    root = tmp_path_factory.mktemp("fuzz")
    (root / "data.jsonl").write_text('{"tokens": ["a", "b"], "verbs": ["v"], "states": ["s"]}\n'
                                     '{"tokens": ["c"], "verbs": [], "states": ["s"]}\n')
    params = init_params(TOY, seed=5)
    vocabs = {"text": ["a", "b", "c", "d", "UNK", "PAD"], "verb": ["v", "UNK"],
              "state": ["s", "UNK"]}
    save_checkpoint(Checkpoint(params=params, epoch=2, best_val_error=0.5, seeds={"init": 5},
                               rmsprop=RmsPropState(params.like(params.data ** 2)),
                               vocabs=vocabs), root / "m.bin")
    return (root / "m.bin").read_bytes(), root / "variant.bin"


@pytest.mark.parametrize("key", ["best_val_error", "rmsprop.lr", "rmsprop.rho", "rmsprop.eps"])
def test_metadata_number_too_large_for_a_float_is_named(small_checkpoint, key):
    blob, path = small_checkpoint
    (meta_len,) = struct.unpack("<I", blob[8:12])
    meta = json.loads(blob[12:12 + meta_len])
    parent, _, name = key.rpartition(".")
    (meta[parent] if parent else meta)[name] = 10 ** 400
    meta_bytes = json.dumps(meta).encode()
    path.write_bytes(blob[:8] + struct.pack("<I", len(meta_bytes)) + meta_bytes
                     + blob[12 + meta_len:])
    for optimizer in (True, False):
        with pytest.raises(CheckpointError, match=f"'{key}' is too large for a float") as err:
            load_checkpoint(path, optimizer=optimizer)
        assert str(path) in str(err.value)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_damaged_checkpoint_loads_or_fails_with_checkpoint_error(small_checkpoint, data):
    blob, path = small_checkpoint
    damaged = bytearray(blob)
    for pos in data.draw(st.lists(st.integers(0, len(blob) - 1), max_size=3), label="flips"):
        damaged[pos] ^= data.draw(st.integers(1, 255), label="xor")
    cut = data.draw(st.none() | st.integers(0, len(blob)), label="cut")
    path.write_bytes(bytes(damaged[:cut]))
    try:
        loaded = load_checkpoint(path, optimizer=data.draw(st.booleans(), label="optimizer"))
        assert isinstance(loaded, Checkpoint)
    except CheckpointError:
        pass
    # eval and predict exit 0 or 1 without a warning, and write one stderr
    # line when they fail and none when they do not.
    for argv in (["eval", "--ckpt", str(path), "--data", str(path.parent / "data.jsonl")],
                 ["predict", "--ckpt", str(path)]):
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                mock.patch.object(sys, "stdin", io.StringIO("a b\nc d e\n")), \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = cli.main(argv)
        assert code in (0, 1) and not caught, (argv[0], code, [str(w.message) for w in caught])
        assert len(err.getvalue().splitlines()) == code, (argv[0], err.getvalue())
