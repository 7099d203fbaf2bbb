import json
import os
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cfedit import network
from cfedit.data import gen_shapes
from cfedit.errors import CfeditError, FormatError, ShapeError, TrainingError, UnsupportedLayerError
from cfedit.grids import FeatureGrid
from cfedit.network import (
    LayerSpec,
    ModelBundle,
    TrainConfig,
    forward_feature_pair,
    forward_features,
    head_logprobs,
    load_model,
    reference_extractor_specs,
    reference_head_specs,
    save_model,
    train,
)

import test_search
from conftest import (
    candidate_scores,
    identity_feature_model,
    json_containers,
    layered_tail_gradient,
    make_model,
    one_hot,
)


def full_stack(model, images):
    """g(f(images)): one forward pass over extractor + head for an (N, H, W, C) batch."""
    return network.forward_layers(model.extractor + model.head, np.asarray(images, dtype=np.float64))


def grid_gradient(model, values, targets):
    """The gradient of each grid's `targets[k]` log-probability w.r.t. that
    grid, for an (N, hw, d) stack of grids, as the relaxed solver forms it:
    `tail_gradient` at the first dense outputs, mapped back through that
    layer's weight transposed."""
    (weight, bias), *_ = model.mlp
    g = network.tail_gradient(model, one_hot(model, targets), values.reshape(len(values), -1) @ weight + bias)
    return (g @ weight.T).reshape(values.shape)


def log_softmax_ref(logits):
    z = logits - logits.max()
    return z - np.log(np.exp(z).sum())


class TestLayerSpec:
    def test_padding_must_be_smaller_than_kernel(self):
        with pytest.raises(ShapeError):
            LayerSpec("conv2d", out_channels=3, kernel_size=3, padding=3)

    def test_unknown_kind(self):
        with pytest.raises(UnsupportedLayerError):
            LayerSpec("avgpool")

    def test_dense_units_positive(self):
        with pytest.raises(ShapeError):
            LayerSpec("dense", units=0)

    def test_conv_window_defaults_to_stride_one_and_keeps_its_padding(self):
        assert LayerSpec("conv2d", out_channels=2, kernel_size=3, padding=1).window_geometry() == (3, 1, 1)
        assert LayerSpec("conv2d", out_channels=2, kernel_size=5, stride=2).window_geometry() == (5, 2, 0)

    def test_pool_window_defaults_to_its_own_stride_and_no_padding(self):
        assert LayerSpec("maxpool2d", window=3).window_geometry() == (3, 3, 0)
        assert LayerSpec("maxpool2d", window=3, stride=1).window_geometry() == (3, 1, 0)

    @pytest.mark.parametrize("spec", [LayerSpec("relu"), LayerSpec("flatten"), LayerSpec("dense", units=3),
                                      LayerSpec("log-softmax")])
    def test_other_kinds_have_no_window(self, spec):
        with pytest.raises(UnsupportedLayerError, match=repr(spec.kind)):
            spec.window_geometry()

    @pytest.mark.parametrize("spec", [LayerSpec("conv2d", out_channels=2, kernel_size=5), LayerSpec("maxpool2d", window=5)])
    def test_collapsed_output_names_the_kind(self, spec):
        with pytest.raises(ShapeError, match=f"{spec.kind} output collapses to 0x0 from input 4x4"):
            network.output_geometry(spec, (4, 4, 1))


class TestForward:
    def test_zero_extractor_gives_zero_grid(self):
        model = make_model(
            [LayerSpec("conv2d", out_channels=4, kernel_size=3)],
            [LayerSpec("flatten"), LayerSpec("dense", units=3), LayerSpec("log-softmax")],
            (6, 6, 1),
            3,
        )
        model.extractor[0].weights["kernel"][...] = 0.0
        model.extractor[0].weights["bias"][...] = 0.0
        F = forward_features(model, np.zeros((6, 6, 1)))
        np.testing.assert_array_equal(F.values, 0.0)

    def test_reference_geometry_is_4x4x20(self):
        model = make_model(reference_extractor_specs(), reference_head_specs(10), (28, 28, 1), 10)
        assert model.feature_shape == (4, 4, 20)
        F = forward_features(model, np.random.default_rng(0).uniform(0, 1, (28, 28, 1)))
        assert (F.h, F.w, F.d) == (4, 4, 20)

    def test_identity_1x1_conv(self):
        model = identity_feature_model(2, 2, 1, 3)
        img = np.array([[0.1, 0.2], [0.3, 0.4]])[:, :, None]
        F = forward_features(model, img)
        np.testing.assert_allclose(F.values.reshape(F.h, F.w, F.d), img)

    def test_geometry_mismatch(self):
        model = identity_feature_model(2, 2, 1, 3)
        with pytest.raises(ShapeError):
            forward_features(model, np.zeros((3, 3, 1)))
        for pair in ((np.zeros((3, 3, 1)), np.zeros((2, 2, 1))), (np.zeros((2, 2, 1)), np.zeros((3, 3, 1)))):
            with pytest.raises(ShapeError):
                forward_feature_pair(model, *pair)

    def test_pair_pass_equals_two_single_passes(self, shapes_model):
        images = gen_shapes(24, size=28, seed=5, split="pair-test").images
        for q, d in [(0, 1), (2, 2), (5, 17), (23, 0)] + [(k, k + 12) for k in range(12)]:
            F, F2 = forward_feature_pair(shapes_model, images[q], images[d])
            assert F.values.tobytes() == forward_features(shapes_model, images[q]).values.tobytes()
            assert F2.values.tobytes() == forward_features(shapes_model, images[d]).values.tobytes()
            assert (F.h, F.w, F.d) == (F2.h, F2.w, F2.d) == shapes_model.feature_shape


class TestCacheFreeForward:
    """A forward pass that keeps no caches gives the same bits and builds none."""

    @staticmethod
    def signed_zeros(rng, shape):
        return np.where(rng.random(shape) < 0.5, -0.0, 0.0)

    def cases(self):
        rng = np.random.default_rng(31)
        spatial = np.maximum(rng.normal(-0.5, 1.0, size=(3, 9, 8, 2)), 0.0)
        spatial[0, :4, :4, 0] = 0.0  # all-zero windows
        spatial[1, 2:6, 1:5, 1] = 0.25  # equal nonzero maxima
        spatial[2, :, :, 0] = self.signed_zeros(rng, (9, 8))  # ties equal in value only
        mixed = rng.normal(size=(3, 9, 8, 2))
        mixed[0] = self.signed_zeros(rng, (9, 8, 2))  # relu inputs at +0.0 and -0.0
        flat = rng.normal(size=(4, 6))
        flat[0] = [0.0, -0.0, 0.0, -0.0, 1.0, -1.0]
        conv = network.Layer(LayerSpec("conv2d", out_channels=3, kernel_size=3, stride=2, padding=1), {
            "kernel": rng.normal(size=(3, 3, 2, 3)), "bias": rng.normal(size=3)})
        dense = network.Layer(LayerSpec("dense", units=5), {"weight": rng.normal(size=(6, 5)), "bias": rng.normal(size=5)})
        pools = [pool_layer(w, s) for w, s in [(2, 2), (3, 3), (3, 1), (3, 2), (2, 3), (1, 1)]]
        relu = network.Layer(LayerSpec("relu"))
        yield conv, spatial
        yield conv, mixed
        for layer in pools:
            yield layer, spatial
            yield layer, mixed
        yield relu, spatial
        yield relu, mixed
        yield relu, flat
        yield network.Layer(LayerSpec("flatten")), mixed
        yield dense, flat
        yield network.Layer(LayerSpec("log-softmax")), flat

    def test_every_layer_kind_is_bit_identical(self):
        kinds = set()
        for layer, x in self.cases():
            kinds.add(layer.spec.kind)
            out = network.forward_layers([layer], x)
            kept, caches = network.forward_layers([layer], x, keep_caches=True)
            assert out.tobytes() == kept.tobytes() and out.shape == kept.shape, layer.spec
            assert len(caches) == 1
        assert kinds == set(network.LAYER_KINDS)

    def test_pool_and_relu_build_no_cache(self):
        rng = np.random.default_rng(32)
        x = rng.normal(size=(2, 6, 6, 3))
        assert network._pool_forward(x, pool_layer(2, 2), keep_cache=False)[1] is None
        assert network._relu_forward(x, network.Layer(LayerSpec("relu")), keep_cache=False)[1] is None

    def test_reference_stack_is_bit_identical(self):
        model = make_model(reference_extractor_specs(), reference_head_specs(10), (28, 28, 1), 10, seed=4)
        x = np.random.default_rng(33).uniform(0, 1, (6, 28, 28, 1))
        x[0] = 0.0
        layers = model.extractor + model.head
        out = network.forward_layers(layers, x)
        kept, caches = network.forward_layers(layers, x, keep_caches=True)
        assert out.tobytes() == kept.tobytes()
        # a (slice, per-layer caches) pair per block; six images make one block
        assert [span for span, _ in caches] == [slice(0, 16)]
        assert len(caches[0][1]) == len(layers)


def conv_forward_reference(x, layer):
    """Per-offset convolution: one matmul per kernel offset (dh, dw)."""
    spec = layer.spec
    kern, bias = layer.weights["kernel"], layer.weights["bias"]
    kh, kw, _, cout = kern.shape
    _, s, p = spec.window_geometry()
    x = np.pad(x, ((0, 0), (p, p), (p, p), (0, 0)))
    n, hp, wp, _ = x.shape
    oh = (hp - kh) // s + 1
    ow = (wp - kw) // s + 1
    out = np.broadcast_to(bias, (n, oh, ow, cout)).copy()
    for dh in range(kh):
        for dw in range(kw):
            out += x[:, dh : dh + oh * s : s, dw : dw + ow * s : s, :] @ kern[dh, dw]
    return out, x


def conv_backward_reference(g, layer, xpad):
    """Per-offset gradients w.r.t. the input, the kernel and the bias."""
    spec = layer.spec
    kern = layer.weights["kernel"]
    kh, kw, _, _ = kern.shape
    _, s, p = spec.window_geometry()
    _, oh, ow, _ = g.shape
    gk = np.zeros_like(kern)
    gx = np.zeros_like(xpad)
    for dh in range(kh):
        for dw in range(kw):
            xs = xpad[:, dh : dh + oh * s : s, dw : dw + ow * s : s, :]
            gk[dh, dw] = np.einsum("nhwc,nhwo->co", xs, g)
            gx[:, dh : dh + oh * s : s, dw : dw + ow * s : s, :] += g @ kern[dh, dw].T
    gx = gx[:, p : xpad.shape[1] - p, p : xpad.shape[2] - p, :]
    return gx, {"kernel": gk, "bias": g.sum(axis=(0, 1, 2))}


@st.composite
def conv_cases(draw, min_batch=1):
    """A random conv2d layer, an input batch it accepts and an upstream gradient."""
    n = draw(st.integers(min_batch, 9))
    cin, cout = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    k, s = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    p = draw(st.integers(0, k - 1))
    h = draw(st.integers(max(1, k - 2 * p), k + 7))
    w = draw(st.integers(max(1, k - 2 * p), k + 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spec = LayerSpec("conv2d", out_channels=cout, kernel_size=k, stride=s, padding=p)
    layer, (oh, ow, _) = network.init_layer(spec, (h, w, cin), rng)
    return layer, rng.normal(size=(n, h, w, cin)), rng.normal(size=(n, oh, ow, cout))


def assert_close_to_reference(actual, expected):
    scale = max(float(np.abs(expected).max()), 1e-300)
    assert actual.shape == expected.shape
    assert float(np.abs(actual - expected).max()) <= 1e-12 * scale


def check_conv_against_reference(layer, x, g):
    (out, caches), (out_ref, cache_ref) = network.forward_layers([layer], x, True), conv_forward_reference(x, layer)
    assert_close_to_reference(out, out_ref)
    gx, (grads,) = network.backward_layers([layer], caches, g)
    gx_ref, grads_ref = conv_backward_reference(g, layer, cache_ref)
    assert_close_to_reference(gx, gx_ref)
    for name in ("kernel", "bias"):
        assert_close_to_reference(grads[name], grads_ref[name])


class TestConvKernels:
    """The blocked patch-matrix kernels against the per-offset reference."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(conv_cases())
    def test_matches_per_offset_reference(self, case):
        check_conv_against_reference(*case)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(conv_cases(min_batch=2), st.data())
    def test_matches_reference_across_blocks(self, case, data):
        layer, x, g = case
        n, (oh, ow) = len(x), g.shape[1:3]
        kh, kw, cin, _ = layer.weights["kernel"].shape
        per_image = oh * ow * kh * kw * cin
        images = data.draw(st.integers(1, n - 1), label="images per block")
        cap = images * per_image + data.draw(st.integers(0, per_image - 1), label="spare values")
        with mock.patch.object(network, "_PATCH_VALUES", cap):
            check_conv_against_reference(layer, x, g)

    def test_finite_differences_strided_padded(self):
        # objective sum(R * out**2) / 2 through one stride-2, padding-1 conv
        rng = np.random.default_rng(11)
        spec = LayerSpec("conv2d", out_channels=3, kernel_size=3, stride=2, padding=1)
        layer, (oh, ow, _) = network.init_layer(spec, (7, 6, 2), rng)
        x = rng.normal(size=(2, 7, 6, 2))
        R = rng.normal(size=(2, oh, ow, 3))

        def objective():
            return 0.5 * float(np.sum(R * network.forward_layers([layer], x) ** 2))

        out, caches = network.forward_layers([layer], x, keep_caches=True)
        gx, (grads,) = network.backward_layers([layer], caches, R * out)
        eps = 1e-6
        for array, grad in ((x, gx), (layer.weights["kernel"], grads["kernel"]),
                            (layer.weights["bias"], grads["bias"])):
            fd = np.zeros_like(array)
            for idx in np.ndindex(array.shape):
                keep = array[idx]
                array[idx] = keep + eps
                up = objective()
                array[idx] = keep - eps
                down = objective()
                array[idx] = keep
                fd[idx] = (up - down) / (2 * eps)
            assert np.abs(fd - grad).max() <= 1e-6 * max(np.abs(fd).max(), 1.0)


def pool_reference(x, window, stride):
    """Per-window max pooling: each output is the first maximum of its window
    in (dh, dw) scan order, with that tap's index dh * window + dw."""
    n, h, w, c = x.shape
    oh, ow = (h - window) // stride + 1, (w - window) // stride + 1
    out, idx = np.empty((n, oh, ow, c)), np.empty((n, oh, ow, c), dtype=int)
    for b, i, j, ch in np.ndindex(n, oh, ow, c):
        win = x[b, i * stride : i * stride + window, j * stride : j * stride + window, ch].ravel()
        m = max(range(len(win)), key=lambda t: (win[t], -t))
        out[b, i, j, ch], idx[b, i, j, ch] = win[m], m
    return out, idx


def pool_layer(window, stride):
    return network.Layer(LayerSpec("maxpool2d", window=window, stride=stride))


class TestPoolKernels:
    @pytest.mark.parametrize("window, stride", [(2, 2), (3, 3), (3, 1), (3, 2), (2, 3), (1, 1)])
    def test_matches_per_window_reference(self, window, stride):
        rng = np.random.default_rng(window * 10 + stride)
        # relu output: many all-zero windows, where the first tap must win
        x = np.maximum(rng.normal(-0.5, 1.0, size=(3, 9, 8, 2)), 0.0)
        x[0, :4, :4, 0] = 0.0
        x[1, 2:6, 1:5, 1] = 0.25  # equal nonzero values tie too
        signed_zeros = np.where(rng.random((2, 7, 10, 3)) < 0.5, -0.0, 0.0)  # ties equal in value only
        for inputs in (x, rng.normal(size=(2, 7, 10, 3)), signed_zeros):
            out, (idx, shape) = network._pool_forward(inputs, pool_layer(window, stride))
            out_ref, idx_ref = pool_reference(inputs, window, stride)
            assert out.tobytes() == out_ref.tobytes()
            np.testing.assert_array_equal(idx, idx_ref)
            assert shape == inputs.shape

    def test_zero_maximum_keeps_the_scan_order_index(self):
        # rows, then columns: of a window's zeros of either sign, the maximum
        # takes the bits of the first in (dw, dh) order, and the index the first
        # in (dh, dw) order; a relu after the pool makes every zero +0.0
        x = np.array([[-1.0, -0.0], [0.0, -2.0]])[None, :, :, None]
        out, (idx, _) = network._pool_forward(x, pool_layer(2, 2))
        out_ref, idx_ref = pool_reference(x, 2, 2)
        assert np.array_equal(out, out_ref) and np.array_equal(idx, idx_ref) and idx.item() == 1
        assert (out.item(), np.signbit(out.item()), np.signbit(out_ref.item())) == (0.0, False, True)

    @pytest.mark.parametrize(
        "window, stride, shape",
        [
            (2, 2, (3, 9, 8, 2)),  # the last input row lies past the last window
            (2, 3, (3, 9, 8, 2)),  # one row and one column in every three lie between windows
            (3, 3, (2, 7, 10, 3)),
            (1, 2, (2, 7, 10, 3)),
            (2, 2, (2, 8, 8, 1)),  # every input lies in one window
            (3, 1, (3, 9, 8, 2)),  # overlapping windows accumulate
            (3, 2, (3, 9, 8, 2)),
        ],
    )
    def test_input_grad_matches_per_window_reference(self, window, stride, shape):
        rng = np.random.default_rng(window * 10 + stride)
        x = np.maximum(rng.normal(-0.5, 1.0, size=shape), 0.0)
        x[0, :4, :4, 0] = 0.0  # all-zero windows
        layer = pool_layer(window, stride)
        out, (idx, xshape) = network._pool_forward(x, layer)
        g = rng.normal(size=out.shape)
        g[0, 0, 0, 0] = -0.0

        def nan_filled(shape, *args, **kwargs):  # so that an input no write reaches shows
            buf = np.ndarray(shape)
            buf.fill(np.nan)
            return buf

        with mock.patch.object(np, "empty", nan_filled):
            gx = network._pool_input_grad(g, layer, (idx, xshape))
        ref = pool_backward_reference(g, idx, window, stride, xshape)
        if stride < window:  # the kernel adds an input's gradients in tap order, the reference in window order
            assert_close_to_reference(gx, ref)
            return
        # the reference adds each gradient into zeros, so all its zeros are
        # +0.0; each tap writes g·(idx == m) once, which is -0.0 where a
        # negative g does not reach an input
        assert (gx + 0.0).tobytes() == ref.tobytes()

    def test_all_zero_window_routes_gradient_to_first_tap(self):
        x = np.zeros((1, 4, 4, 1))
        out, caches = network.forward_layers([pool_layer(2, 2)], x, keep_caches=True)
        gx, _ = network.backward_layers([pool_layer(2, 2)], caches, np.ones_like(out))
        np.testing.assert_array_equal(gx[0, :, :, 0], np.tile([[1.0, 0.0], [0.0, 0.0]], (2, 2)))

    @pytest.mark.parametrize("window, stride", [(2, 2), (3, 1), (3, 2)])
    def test_finite_differences(self, window, stride):
        # objective sum(R * out**2) / 2; distinct values keep every window's maximum away from a tie
        rng = np.random.default_rng(stride)
        layer = pool_layer(window, stride)
        x = rng.permutation(np.arange(2 * 7 * 6 * 2, dtype=float)).reshape(2, 7, 6, 2) / 10
        out, caches = network.forward_layers([layer], x, keep_caches=True)
        R = rng.normal(size=out.shape)
        gx, _ = network.backward_layers([layer], caches, R * out)
        eps = 1e-6
        fd = np.zeros_like(x)
        for idx in np.ndindex(x.shape):
            keep = x[idx]
            x[idx] = keep + eps
            up = 0.5 * float(np.sum(R * network._pool_forward(x, layer)[0] ** 2))
            x[idx] = keep - eps
            down = 0.5 * float(np.sum(R * network._pool_forward(x, layer)[0] ** 2))
            x[idx] = keep
            fd[idx] = (up - down) / (2 * eps)
        assert np.abs(fd - gx).max() <= 1e-6 * max(np.abs(fd).max(), 1.0)


def pool_backward_reference(g, idx, window, stride, shape):
    """Per-window max-pool backward: each gradient goes to its window's first maximum."""
    gx = np.zeros(shape)
    for b, i, j, c in np.ndindex(g.shape):
        dh, dw = divmod(int(idx[b, i, j, c]), window)
        gx[b, i * stride + dh, j * stride + dw, c] += g[b, i, j, c]
    return gx


def stack_forward_reference(layers, x):
    """(output, per-layer caches) of a stack through the reference kernels:
    the per-offset conv, the per-window pool, and plain numpy for the rest."""
    caches = []
    for layer in layers:
        kind = layer.spec.kind
        if kind == "conv2d":
            x, cache = conv_forward_reference(x, layer)
        elif kind == "relu":
            x, cache = np.maximum(x, 0.0), x > 0
        elif kind == "maxpool2d":
            cache = x.shape
            x, idx = pool_reference(x, *layer.spec.window_geometry()[:2])
            cache = (idx, cache)
        elif kind == "flatten":
            x, cache = x.reshape(len(x), -1), x.shape
        elif kind == "dense":
            x, cache = (x[:, :, None] * layer.weights["weight"]).sum(axis=1) + layer.weights["bias"], x
        else:
            z = x - x.max(axis=1, keepdims=True)
            x = cache = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        caches.append(cache)
    return x, caches


def stack_backward_reference(layers, caches, g):
    """(input gradient, per-layer weight gradients) of the stack through the reference kernels."""
    grads = [{} for _ in layers]
    for idx in range(len(layers) - 1, -1, -1):
        layer, cache = layers[idx], caches[idx]
        kind = layer.spec.kind
        if kind == "conv2d":
            g, grads[idx] = conv_backward_reference(g, layer, cache)
        elif kind == "relu":
            g = g * cache
        elif kind == "maxpool2d":
            g = pool_backward_reference(g, cache[0], *layer.spec.window_geometry()[:2], cache[1])
        elif kind == "flatten":
            g = g.reshape(cache)
        elif kind == "dense":
            grads[idx] = {"weight": (cache[:, :, None] * g[:, None, :]).sum(axis=0), "bias": g.sum(axis=0)}
            g = (g[:, None, :] * layer.weights["weight"]).sum(axis=2)
        else:
            g = g - np.exp(cache) * g.sum(axis=1, keepdims=True)
    return g, grads


def patch_values_per_image(layers, geom):
    """The largest conv patch matrix of one image, in values, over the stack on input geometry `geom`."""
    most = 1
    for layer in layers:
        out = network.output_geometry(layer.spec, geom)
        if layer.spec.kind == "conv2d":
            most = max(most, out[0] * out[1] * layer.spec.kernel_size**2 * geom[2])
        geom = out
    return most


@st.composite
def conv_stacks(draw, heads=False):
    """A random conv -> relu -> maxpool -> conv -> relu [-> maxpool] stack, with
    strides and padding, and an input batch of at least two images.  With
    `heads` the stack sometimes ends in a head, flatten -> dense [-> relu ->
    dense] -> log-softmax."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, geom = draw(st.integers(2, 7)), (draw(st.integers(5, 12)), draw(st.integers(5, 12)), draw(st.integers(1, 3)))
    specs = []
    for second in (False, True):
        k = draw(st.integers(1, 4))
        specs += [
            LayerSpec("conv2d", out_channels=draw(st.integers(1, 4)), kernel_size=k,
                      stride=draw(st.integers(1, 2)), padding=draw(st.integers(0, k - 1))),
            LayerSpec("relu"),
        ]
        if not second or draw(st.booleans()):
            specs.append(LayerSpec("maxpool2d", window=draw(st.integers(1, 3)), stride=draw(st.integers(1, 3))))
    if heads and draw(st.booleans()):
        specs += [LayerSpec("flatten"), LayerSpec("dense", units=draw(st.integers(1, 5)))]
        if draw(st.booleans()):
            specs += [LayerSpec("relu"), LayerSpec("dense", units=draw(st.integers(1, 5)))]
        specs.append(LayerSpec("log-softmax"))
    layers, shape = [], geom
    for spec in specs:
        try:
            layer, shape = network.init_layer(spec, shape, rng)
        except ShapeError:
            assume(False)
        layers.append(layer)
    return layers, rng.normal(size=(n,) + geom)


def train_small_stack():
    """A small padded stack with strided pools, trained for two epochs on random images."""
    rng = np.random.default_rng(6)
    images, labels = rng.uniform(0, 1, (20, 10, 10)), rng.integers(3, size=20)
    specs = (
        [LayerSpec("conv2d", out_channels=4, kernel_size=3), LayerSpec("relu"), LayerSpec("maxpool2d", window=2),
         LayerSpec("conv2d", out_channels=5, kernel_size=3, padding=1), LayerSpec("relu"),
         LayerSpec("maxpool2d", window=2)],
        [LayerSpec("flatten"), LayerSpec("dense", units=6), LayerSpec("relu"), LayerSpec("dense", units=3),
         LayerSpec("log-softmax")],
    )
    config = TrainConfig(epochs=2, batch_size=8, seed=3, learning_rate=0.05)
    return train(*specs, images, labels, config, class_count=3)


class TestImageBlocks:
    """forward_layers and backward_layers run every layer of a stack one block
    of images at a time, a head's layers too; a stack with no conv layer runs
    as one block."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(conv_stacks(heads=True), st.data())
    def test_blocked_stack_matches_references(self, stack, data):
        layers, x = stack
        per_image = patch_values_per_image(layers, x.shape[1:])
        images = data.draw(st.integers(1, min(3, len(x) - 1)), label="images per block")
        cap = images * per_image + data.draw(st.integers(0, per_image - 1), label="spare values")
        out_ref, caches_ref = stack_forward_reference(layers, x)
        g = np.random.default_rng(len(x)).normal(size=out_ref.shape)
        gx_ref, grads_ref = stack_backward_reference(layers, caches_ref, g)
        with mock.patch.object(network, "_PATCH_VALUES", cap):
            out, caches = network.forward_layers(layers, x, keep_caches=True)
            gx, grads = network.backward_layers(layers, caches, g)
        assert [span.stop - span.start for span, _ in caches[:-1]] == [images] * (-(-len(x) // images) - 1)
        assert_close_to_reference(out, out_ref)
        assert_close_to_reference(gx, gx_ref)
        for got, want in zip(grads, grads_ref):
            assert sorted(got) == sorted(want)
            for name in want:
                assert_close_to_reference(got[name], want[name])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(conv_stacks(), st.data())
    def test_batch_output_equals_one_image_outputs(self, stack, data):
        layers, x = stack
        per_image = patch_values_per_image(layers, x.shape[1:])
        images = data.draw(st.integers(1, len(x)), label="images per block")
        single = np.concatenate([network.forward_layers(layers, image[None]) for image in x])
        with mock.patch.object(network, "_PATCH_VALUES", images * per_image):
            assert network.forward_layers(layers, x).tobytes() == single.tobytes()

    def test_remainder_block(self):
        # seven images at three a block: every kernel sees 3, 3 and 1 images,
        # forward and back, the head's kernels too
        rng = np.random.default_rng(0)
        specs = [
            LayerSpec("conv2d", out_channels=3, kernel_size=3, stride=2, padding=1),
            LayerSpec("relu"),
            LayerSpec("maxpool2d", window=2, stride=1),
            LayerSpec("conv2d", out_channels=2, kernel_size=2),
            LayerSpec("flatten"),
            LayerSpec("dense", units=3),
            LayerSpec("log-softmax"),
        ]
        layers, geom = [], (9, 8, 2)
        for spec in specs:
            layer, geom = network.init_layer(spec, geom, rng)
            layers.append(layer)
        x = rng.normal(size=(7, 9, 8, 2))
        seen = []

        def spy(table, name):
            def wrap(kind, real):
                def run(first, *rest):
                    seen.append((name, kind, len(first)))
                    return real(first, *rest)
                return run

            return {kind: wrap(kind, real) for kind, real in table.items()}

        with mock.patch.object(network, "_PATCH_VALUES", 3 * patch_values_per_image(layers, x.shape[1:])), \
                mock.patch.dict(network._FORWARD, spy(network._FORWARD, "forward")), \
                mock.patch.dict(network._WEIGHT_GRADS, spy(network._WEIGHT_GRADS, "weights")), \
                mock.patch.dict(network._INPUT_GRAD, spy(network._INPUT_GRAD, "input")):
            out, caches = network.forward_layers(layers, x, keep_caches=True)
            network.backward_layers(layers, caches, rng.normal(size=out.shape))

        def steps(layer, images):
            names = ("weights", "input") if layer.spec.kind in network._WEIGHT_GRADS else ("input",)
            return [(name, layer.spec.kind, images) for name in names]

        blocks = (3, 3, 1)
        run = [layers[i] for i in (0, 2, 1, 3, 4, 5, 6)]  # the relu runs after the max pool it precedes
        forward = [("forward", ly.spec.kind, b) for b in blocks for ly in run]
        backward = [step for b in blocks for ly in reversed(run) for step in steps(ly, b)]
        assert seen == forward + backward

    @pytest.mark.parametrize("count", [64, 1000])
    def test_stack_without_conv_runs_in_one_block(self, count):
        # train runs its head as such a stack: one block performs the operations
        # of a whole-batch pass, forward and back, so trained bits rest on it
        model = make_model(reference_extractor_specs(), reference_head_specs(10), (28, 28, 1), 10, seed=5)
        rng = np.random.default_rng(count)
        x = rng.normal(size=(count,) + model.feature_shape)
        g = rng.normal(size=(count, 10))
        out, caches = network.forward_layers(model.head, x, keep_caches=True)
        gx, grads = network.backward_layers(model.head, caches, g)
        assert [span for span, _ in caches] == [slice(0, network._PATCH_VALUES)]
        want, want_caches = x, []
        for layer in model.head:
            want, cache = network._FORWARD[layer.spec.kind](want, layer)
            want_caches.append(cache)
        want_g = g
        for layer, cache, got in reversed(list(zip(model.head, want_caches, grads))):
            if layer.spec.kind in network._WEIGHT_GRADS:
                want_grads = network._WEIGHT_GRADS[layer.spec.kind](want_g, layer, cache)
                assert sorted(got) == sorted(want_grads)
                assert all(got[name].tobytes() == want_grads[name].tobytes() for name in got)
            want_g = network._INPUT_GRAD[layer.spec.kind](want_g, layer, cache)
        assert out.tobytes() == want.tobytes()
        assert gx.shape == x.shape and gx.tobytes() == want_g.tobytes()

    def test_train_repeats_under_a_small_budget(self):
        default = train_small_stack()
        # two images per block: conv1 and conv2 each have 8 * 8 * 9 * 1 = 4 * 4 * 9 * 4 = 576 patch values per image
        with mock.patch.object(network, "_PATCH_VALUES", 2 * 576):
            small = [train_small_stack() for _ in range(2)]
        for a, b, c in zip(*(m.extractor + m.head for m in small + [default])):
            for name in c.weights:
                assert a.weights[name].tobytes() == b.weights[name].tobytes()
                assert np.abs(a.weights[name] - c.weights[name]).max() <= 1e-12 * np.abs(c.weights[name]).max()


def manifest_order():
    """`_run_order` patched to the identity: every pass runs the layers in manifest order."""
    return mock.patch.object(network, "_run_order", lambda layers: list(range(len(layers))))


def forward_backward(layers, x, g):
    """(output, input gradient, weight gradients) of one cached pass of the stack."""
    out, caches = network.forward_layers(layers, x, keep_caches=True)
    return (out, *network.backward_layers(layers, caches, g))


class TestRunOrder:
    """A relu that directly precedes a max pool runs after it, on the pooled
    values.  Relu is monotone, so the maximum of relu(x) over a window is
    relu of the maximum of x, and a positive maximum is first reached at the
    same tap; a window whose maximum is not positive passes the gradient
    times zero either way.  No output and no gradient moves, but for the
    sign of a zero input gradient where pool windows overlap."""

    def test_each_relu_before_a_pool_runs_after_it(self):
        def order(*kinds):
            return network._run_order([network.Layer(LayerSpec(k, window=2 if k == "maxpool2d" else None))
                                       for k in kinds])

        assert order("relu", "maxpool2d", "relu", "maxpool2d") == [1, 0, 3, 2]
        assert order("relu", "relu", "maxpool2d", "maxpool2d") == [0, 2, 1, 3]
        assert order("maxpool2d", "relu", "flatten", "relu") == [0, 1, 2, 3]
        model = make_model(reference_extractor_specs(), reference_head_specs(10), (28, 28, 1), 10)
        assert network._run_order(model.extractor + model.head) == [0, 2, 1, 3, 5, 4, 6, 7, 8, 9, 10]

    def test_training_is_bit_identical_in_manifest_order(self):
        default = train_small_stack()
        with manifest_order():
            manifest = train_small_stack()
        for a, b in zip(default.extractor + default.head, manifest.extractor + manifest.head):
            assert sorted(a.weights) == sorted(b.weights)
            for name in a.weights:
                assert a.weights[name].tobytes() == b.weights[name].tobytes()

    def test_reference_stack_is_bit_identical_in_manifest_order(self):
        model = make_model(reference_extractor_specs(), reference_head_specs(10), (28, 28, 1), 10, seed=8)
        conv1 = model.extractor[0].weights
        conv1["kernel"][..., 0] = 0.0  # channel 0: all-zero windows
        conv1["bias"][:3] = (0.0, -0.5, 0.5)  # channels 1 and 2: windows of a constant at most 0, and above 0
        x = np.random.default_rng(8).uniform(0, 1, (5, 28, 28, 1))
        x[0] = 0.0  # every window of every channel ties
        x[1, :14] = 0.0
        layers = model.extractor + model.head
        g = np.random.default_rng(9).normal(size=(5, 10))
        got = forward_backward(layers, x, g)
        with manifest_order():
            want = forward_backward(layers, x, g)
        assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()
        for a, b in zip(got[2], want[2]):
            assert sorted(a) == sorted(b) and all(a[name].tobytes() == b[name].tobytes() for name in a)

    @pytest.mark.parametrize("window, stride", [(2, 2), (3, 3), (2, 3), (1, 1), (3, 1), (3, 2)])
    def test_relu_and_pool_commute(self, window, stride):
        rng = np.random.default_rng(window * 10 + stride)
        x = rng.normal(size=(4, 9, 8, 2))
        x[0, :4, :4, 0] = 0.0  # all-zero windows
        x[1, 2:6, 1:5, 1] = 0.25  # tied positive maxima
        x[2, :, :, 1] = -np.abs(x[2, :, :, 1])  # maxima below 0
        x[3] = np.where(rng.random((9, 8, 2)) < 0.5, -0.0, 0.0)  # zeros of either sign
        x[3, ::3, ::2, 1] = -1.0
        layers = [network.Layer(LayerSpec("relu")), pool_layer(window, stride)]
        g = rng.normal(size=(4,) + network.output_geometry(layers[1].spec, x.shape[1:]))
        g[0, 0] = -0.0
        out, gx, _ = forward_backward(layers, x, g)
        with manifest_order():
            want_out, want_gx, _ = forward_backward(layers, x, g)
        assert out.tobytes() == want_out.tobytes()
        if stride < window:
            # an input that several windows reach sums their gradients; where
            # it is not positive, manifest order zeroes that sum, whose sign
            # is the sum's, and the run order sums zeros from +0.0
            assert np.array_equal(gx, want_gx) and (gx + 0.0).tobytes() == (want_gx + 0.0).tobytes()
        else:
            assert gx.tobytes() == want_gx.tobytes()


class TestFrozenModelBatches:
    """What callers of predict_batch rely on, on the frozen benchmark models."""

    @pytest.mark.parametrize("blocks", ["default", "three-image"])
    @pytest.mark.parametrize("name, size", [("ref", 28), ("wide", 42)])
    def test_batch_features_equal_single_image_features(self, name, size, blocks):
        model = test_search.TestGreedyContraction.frozen_model(name)
        budget = network._PATCH_VALUES
        if blocks == "three-image":  # 64 images make 21 blocks of three and a remainder of one
            budget = 3 * patch_values_per_image(model.extractor, model.input_shape)
        for seed in (1, 2, 3):
            images = network._as_batch(model, gen_shapes(64, size=size, seed=seed, split="bench").images)
            single = np.concatenate([network.forward_layers(model.extractor, image[None]) for image in images])
            with mock.patch.object(network, "_PATCH_VALUES", budget):
                batch, caches = network.forward_layers(model.extractor, images, keep_caches=True)
            # 16 images a block at 28x28 and 4 at 42x42 by default
            assert len(caches) == (22 if blocks == "three-image" else {"ref": 4, "wide": 16}[name])
            assert batch.tobytes() == single.tobytes()

    @pytest.mark.parametrize("name, size, count", [("ref", 28, 400), ("wide", 42, 300)])
    def test_batch_class_equals_single_image_class(self, name, size, count):
        model = test_search.TestGreedyContraction.frozen_model(name)
        for seed in (1, 2, 3):
            images = gen_shapes(count, size=size, seed=seed, split="bench").images
            single = [int(network.predict_batch(model, image[None])[0]) for image in images]
            assert network.predict_batch(model, images).tolist() == single

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_predict_batch_refuses_non_finite_scores(self):
        # the argmax of NaN scores is class 0, which callers took for a prediction
        model = test_search.TestGreedyContraction.frozen_model("ref")
        for layer in (model.head[1], model.head[3]):
            layer.weights["weight"] *= 1e160
        images = gen_shapes(8, size=28, seed=1, split="bench").images
        for batch in (images[:1], images):
            with pytest.raises(FormatError, match="non-finite"):
                network.predict_batch(model, batch)

    def test_predict_batch_memory_is_bounded(self):
        model = test_search.TestGreedyContraction.frozen_model("wide")
        for count in (64, 256, 512):
            images = gen_shapes(count, size=42, seed=1, split="bench").images
            tracemalloc.start()
            try:
                network.predict_batch(model, images)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 << 20, (count, peak)


class TestBackwardSelection:
    """backward_layers computes only what its caller reads, and the same bits."""

    def stack(self, seed):
        model = make_model(reference_extractor_specs(), reference_head_specs(10), (28, 28, 1), 10, seed=seed)
        rng = np.random.default_rng(seed)
        layers = model.extractor + model.head
        out, caches = network.forward_layers(layers, rng.uniform(0, 1, (5, 28, 28, 1)), keep_caches=True)
        return model, layers, caches, rng.normal(size=out.shape)

    def test_weight_grads_without_input_grad_are_bit_identical(self):
        _, layers, caches, g = self.stack(1)
        gx, full = network.backward_layers(layers, caches, g)
        skipped, grads = network.backward_layers(layers, caches, g, input_grad=False)
        assert gx.shape == (5, 28, 28, 1) and skipped is None
        assert [sorted(d) for d in grads] == [sorted(d) for d in full]
        for a, b in zip(grads, full):
            for name in b:
                assert a[name].tobytes() == b[name].tobytes()

    def test_grid_gradient_equals_full_backward(self):
        model = make_model(reference_extractor_specs(), reference_head_specs(10), (28, 28, 1), 10, seed=3)
        F = forward_features(model, np.random.default_rng(3).uniform(0, 1, (28, 28, 1)))
        target = 7
        grad = grid_gradient(model, F.values[None], [target])
        out, caches = network.forward_layers(model.head, F.values.reshape(1, 4, 4, 20), keep_caches=True)
        g = np.zeros_like(out)
        g[0, target] = 1.0
        gx, _ = network.backward_layers(model.head, caches, g)
        assert grad.tobytes() == gx.reshape(1, 16, 20).tobytes()


class TestHead:
    def test_zero_head_is_uniform(self):
        model = identity_feature_model(2, 2, 1, 5)
        head_dense = model.head[1]
        head_dense.weights["weight"][...] = 0.0
        head_dense.weights["bias"][...] = 0.0
        lp = head_logprobs(model, FeatureGrid(2, 2, 1, np.ones((4, 1))))
        np.testing.assert_allclose(lp, np.log(1 / 5), atol=1e-12)

    def test_hand_set_single_cell_head(self):
        model = identity_feature_model(1, 1, 2, 3)
        W = np.array([[1.0, -2.0, 0.5], [0.0, 1.0, -1.0]])
        b = np.array([0.1, 0.2, -0.3])
        model.head[1].weights["weight"][...] = W
        model.head[1].weights["bias"][...] = b
        F = FeatureGrid(1, 1, 2, np.array([[2.0, -1.0]]))
        lp = head_logprobs(model, F)
        logits = F.values[0] @ W + b
        np.testing.assert_allclose(lp, log_softmax_ref(logits), atol=1e-12)

    def test_normalization_over_random_models(self):
        rng = np.random.default_rng(2)
        for k in range(100):
            model = identity_feature_model(2, 2, 2, 4, seed=k, linear=bool(k % 2))
            F = FeatureGrid(2, 2, 2, rng.normal(size=(4, 2)))
            lp = head_logprobs(model, F)
            assert lp.dtype == np.float64 and lp.shape == (4,)
            assert abs(np.exp(lp).sum() - 1.0) < 1e-9
            assert np.all(lp <= 0)


class TestLogSoftmax:
    """The one log-softmax both the layer and the candidate scorer use: a row's
    result does not depend on the batch around it, at any class count."""

    BATCHES = (1, 7, 2401)

    @staticmethod
    def row_formula(x):
        """The row-sum formula the layer used before; numpy sums a row of
        fewer than 8 values left to right."""
        z = x - x.max(axis=-1, keepdims=True)
        return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))

    @staticmethod
    def class_order_formula(x):
        """Each row's exp-sum added in Python floats, in class order."""
        z = x - x.max(axis=-1, keepdims=True)
        sums = []
        for row in np.exp(z):
            total = 0.0
            for v in row:
                total += float(v)
            sums.append(total)
        return z - np.log(np.array(sums))[:, None]

    @pytest.mark.parametrize("classes", range(2, 18))
    def test_target_column_and_rows_are_batch_independent(self, classes):
        rng = np.random.default_rng(classes)
        x = rng.normal(scale=6.0, size=(max(self.BATCHES), classes))
        x[::5, 0] = x[::5, -1]  # ties for the running maximum
        full = network._log_softmax(x)
        assert np.array_equal(full, self.class_order_formula(x))
        assert np.all(full <= 0)
        np.testing.assert_allclose(np.exp(full).sum(axis=1), 1.0, atol=1e-12)
        for batch in self.BATCHES:
            for lo in (0, len(x) - batch):
                part = x[lo : lo + batch]
                out = network._log_softmax(part)
                assert np.array_equal(out, full[lo : lo + batch])
                z, lse = network._shift_lse(part)
                for target in range(classes):
                    assert np.array_equal(z[:, target] - lse, out[:, target])
                if classes <= 7:
                    assert np.array_equal(out, self.row_formula(part))

    @pytest.mark.parametrize("classes", range(2, 18))
    def test_one_grid_equals_its_row_of_a_batch(self, classes):
        # a head of flatten -> dense -> log-softmax on a 1 x 1 x classes grid,
        # the dense layer an identity with zero bias: every product adds one
        # value to zeros, so it is exact whatever kernel the batch size picks
        model = make_model(
            [LayerSpec("conv2d", out_channels=classes, kernel_size=1)],
            [LayerSpec("flatten"), LayerSpec("dense", units=classes), LayerSpec("log-softmax")],
            (1, 1, classes),
            classes,
        )
        model.head[1].weights["weight"][...] = np.eye(classes)
        model.head[1].weights["bias"][...] = 0.0
        grids = np.random.default_rng(100 + classes).normal(scale=6.0, size=(max(self.BATCHES), 1, classes))
        for batch in self.BATCHES:
            out = network.head_logprobs_batch(model, grids[:batch])
            for k in sorted({0, batch // 2, batch - 1}):
                one = head_logprobs(model, FeatureGrid(1, 1, classes, grids[k]))
                assert np.array_equal(one, out[k])


class TestGridGradient:
    """The grid gradient the relaxed solver forms, `grid_gradient`."""

    def test_linear_head_closed_form(self):
        model = identity_feature_model(2, 2, 1, 3, seed=4)
        W = model.head[1].weights["weight"]  # (4, 3)
        F = FeatureGrid(2, 2, 1, np.random.default_rng(1).normal(size=(4, 1)))
        target = 1
        logits = F.values.ravel() @ W + model.head[1].weights["bias"]
        p = np.exp(log_softmax_ref(logits))
        expected = ((np.eye(3)[target] - p) @ W.T).reshape(4, 1)
        grad = grid_gradient(model, F.values[None], [target])
        np.testing.assert_allclose(grad[0], expected, atol=1e-12)

    def test_finite_difference_random_heads(self):
        rng = np.random.default_rng(6)
        for k in range(10):
            model = identity_feature_model(2, 3, 2, 4, seed=100 + k, linear=False)
            F = FeatureGrid(2, 3, 2, rng.normal(size=(6, 2)))
            target = int(rng.integers(4))
            grad = grid_gradient(model, F.values[None], [target])[0]
            eps = 1e-5
            fd = np.zeros_like(grad)
            for i in range(6):
                for c in range(2):
                    vp = F.values.copy()
                    vp[i, c] += eps
                    vm = F.values.copy()
                    vm[i, c] -= eps
                    fp = head_logprobs(model, FeatureGrid(2, 3, 2, vp))[target]
                    fm = head_logprobs(model, FeatureGrid(2, 3, 2, vm))[target]
                    fd[i, c] = (fp - fm) / (2 * eps)
            scale = max(np.abs(fd).max(), 1e-12)
            assert np.abs(fd - grad).max() / scale <= 1e-4

    def test_zero_weight_head_zero_gradient(self):
        model = identity_feature_model(2, 2, 1, 3)
        model.head[1].weights["weight"][...] = 0.0
        F = FeatureGrid(2, 2, 1, np.ones((4, 1)))
        np.testing.assert_array_equal(grid_gradient(model, F.values[None], [0]), 0.0)


class TestFusedHeadPass:
    """The fused head pass against the per-layer forward and backward pass,
    bit for bit, on every head the tests build."""

    @staticmethod
    def heads(shapes_model):
        """(name, model) for each test head."""
        yield "identity-linear", identity_feature_model(2, 3, 2, 4, seed=1)
        yield "identity-mlp", identity_feature_model(2, 3, 2, 4, seed=2, linear=False)
        yield "shapes", shapes_model
        for name, head in sorted(test_search.TestCandidateScoresEquivalence.HEADS.items()):
            specs = head + [LayerSpec("dense", units=5), LayerSpec("log-softmax")]
            model = make_model([LayerSpec("conv2d", out_channels=4, kernel_size=1)], specs, (3, 3, 4), 5, seed=3)
            yield name, model

    @staticmethod
    def with_edge_rows(rng, rows):
        """`rows` (B, n) over three more: zeros and alternating +0.0/-0.0, whose
        logits tie exactly where no bias follows (else they are the biases
        alone), and a row so large that one logit dominates and the softmax
        rounds to exactly one-hot."""
        n = rows.shape[1]
        signed = np.where(np.arange(n) % 2, -0.0, 0.0)
        return np.concatenate([rows, np.zeros((1, n)), signed[None], 1e6 * rng.normal(size=(1, n))])

    @pytest.mark.parametrize("batch", [1, 4, 7])
    def test_matches_generic_pass_bit_for_bit(self, shapes_model, batch):
        rng = np.random.default_rng(batch)
        for name, model in self.heads(shapes_model):
            h, w, d = model.feature_shape
            values = self.with_edge_rows(rng, rng.normal(size=(batch, h * w * d))).reshape(-1, h * w, d)
            targets = rng.integers(model.class_count, size=len(values))
            got = grid_gradient(model, values, targets)
            out, caches = network.forward_layers(model.head, values.reshape((-1,) + model.feature_shape), True)
            assert np.exp(out[-1]).max() == 1.0, name
            onehot = one_hot(model, targets)
            want = network.backward_layers(model.head, caches, onehot)[0].reshape(values.shape)
            assert got.shape == want.shape and np.array_equal(got, want), name
            z = self.with_edge_rows(rng, rng.normal(size=(batch, model.mlp[0][0].shape[1])))
            assert np.exp(network.forward_layers(model.head[2:], z)[-1]).max() == 1.0, name
            got, want = network.tail_gradient(model, onehot, z), layered_tail_gradient(model, onehot, z)
            assert got.shape == want.shape and np.array_equal(got, want), name

    @pytest.mark.parametrize("batch", [1, 4, 7])
    def test_logprobs_and_predictions_match_forward_layers(self, shapes_model, batch):
        rng = np.random.default_rng(10 + batch)
        for name, model in self.heads(shapes_model):
            h, w, d = model.feature_shape
            values = rng.normal(size=(batch, h * w, d))
            want = network.forward_layers(model.head, values.reshape((batch,) + model.feature_shape))
            assert network.head_logprobs_batch(model, values).tobytes() == want.tobytes(), name
            images = rng.uniform(0, 1, (batch,) + tuple(model.input_shape))
            want = network.forward_layers(model.head, network.forward_layers(model.extractor, images))
            assert np.array_equal(network.predict_batch(model, images), want.argmax(axis=1)), name

    def test_in_place_weight_writes_reach_every_head_pass(self):
        rng = np.random.default_rng(11)
        model = identity_feature_model(2, 3, 2, 4, seed=2, linear=False)
        F, F2 = FeatureGrid(2, 3, 2, rng.normal(size=(6, 2))), FeatureGrid(2, 3, 2, rng.normal(size=(6, 2)))
        onehot, z = one_hot(model, [1]), rng.normal(size=(1, 8))

        def passes(m):
            return head_logprobs(m, F), candidate_scores(m, F, F2, 1, range(6)), network.tail_gradient(m, onehot, z)

        before = passes(model)
        for layer in model.head:
            for w in layer.weights.values():
                w[...] = rng.normal(size=w.shape)
        fresh = ModelBundle(model.extractor, model.head, model.class_count, model.input_shape)
        for old, got, new in zip(before, passes(model), passes(fresh)):
            assert got.tobytes() == new.tobytes() and not np.array_equal(got, old)

    def test_pass_leaves_its_one_hot_gradient_alone(self, shapes_model):
        # the relaxed solver passes a chunk's one-hot rows at every Adam step
        onehot = one_hot(shapes_model, [1, 3])
        values = np.random.default_rng(0).normal(size=(2, shapes_model.mlp[0][0].shape[1]))
        first = network.tail_gradient(shapes_model, onehot, values)
        np.testing.assert_array_equal(onehot, one_hot(shapes_model, [1, 3]))
        np.testing.assert_array_equal(network.tail_gradient(shapes_model, onehot, values), first)


class TestComposition:
    def test_head_of_features_equals_full_stack(self):
        rng = np.random.default_rng(9)
        model = make_model(reference_extractor_specs(), reference_head_specs(10), (28, 28, 1), 10, seed=3)
        for _ in range(5):
            img = rng.uniform(0, 1, (28, 28, 1))
            composed = head_logprobs(model, forward_features(model, img))
            full = full_stack(model, img[None])[0]
            np.testing.assert_allclose(composed, full, atol=1e-12)


class TestTrain:
    def test_separable_synthetic_two_class(self):
        # two blobs separable by pixel mean; a linear probe verifies separability
        rng = np.random.default_rng(0)
        n = 200
        labels = rng.integers(2, size=n)
        images = np.where(labels[:, None, None] == 1, 0.8, 0.2) + rng.normal(0, 0.05, (n, 8, 8))
        images = np.clip(images, 0, 1)
        probe = (images.mean(axis=(1, 2)) > 0.5).astype(int)
        assert np.mean(probe == labels) == 1.0
        model = train(
            [LayerSpec("conv2d", out_channels=2, kernel_size=3)],
            [LayerSpec("flatten"), LayerSpec("dense", units=2), LayerSpec("log-softmax")],
            images,
            labels,
            TrainConfig(epochs=50, seed=0, batch_size=32, learning_rate=0.05),
            class_count=2,
        )
        assert model.metrics["train_accuracy"] >= 0.99

    def test_zero_epochs_returns_initialization(self):
        rng = np.random.default_rng(1)
        images = rng.uniform(0, 1, (10, 6, 6))
        labels = rng.integers(2, size=10)
        specs = (
            [LayerSpec("conv2d", out_channels=2, kernel_size=3)],
            [LayerSpec("flatten"), LayerSpec("dense", units=2), LayerSpec("log-softmax")],
        )
        trained = train(*specs, images, labels, TrainConfig(epochs=0, seed=5), class_count=2)
        fresh = make_model(specs[0], specs[1], (6, 6, 1), 2, seed=5)
        for a, b in zip(trained.extractor + trained.head, fresh.extractor + fresh.head):
            for name in a.weights:
                np.testing.assert_array_equal(a.weights[name], b.weights[name])

    def test_off_form_head_raises_before_the_first_step(self, monkeypatch):
        rng = np.random.default_rng(4)
        images = rng.uniform(0, 1, (10, 6, 6))
        labels = rng.integers(2, size=10)
        passes = []
        monkeypatch.setattr(network, "forward_layers", lambda *args, **kwargs: passes.append(args))
        with pytest.raises(UnsupportedLayerError, match="relu"):
            train(
                [LayerSpec("conv2d", out_channels=2, kernel_size=3)],
                [LayerSpec("relu"), LayerSpec("flatten"), LayerSpec("dense", units=2), LayerSpec("log-softmax")],
                images,
                labels,
                TrainConfig(epochs=1, seed=0),
                class_count=2,
            )
        assert passes == []

    @pytest.mark.parametrize(
        "labels, test_set", [(7, None), (12, None), (10, (5, 3))], ids=["short", "long", "test-set"]
    )
    def test_label_count_mismatch_raises_before_the_first_step(self, monkeypatch, labels, test_set):
        rng = np.random.default_rng(4)
        images = rng.uniform(0, 1, (10, 6, 6))
        tests = {}
        if test_set:
            tests = {"test_images": rng.uniform(0, 1, (test_set[0], 6, 6)), "test_labels": [0] * test_set[1]}
        passes = []
        monkeypatch.setattr(network, "forward_layers", lambda *args, **kwargs: passes.append(args))
        with pytest.raises(ShapeError, match="label shape"):
            train(
                [LayerSpec("conv2d", out_channels=2, kernel_size=3)],
                [LayerSpec("flatten"), LayerSpec("dense", units=2), LayerSpec("log-softmax")],
                images,
                rng.integers(2, size=labels),
                TrainConfig(epochs=1, seed=0),
                class_count=2,
                **tests,
            )
        assert passes == []

    @pytest.mark.parametrize(
        "test_set, match",
        [
            ({"test_images": (5, 7, 7), "test_labels": [0] * 5}, "test image shape"),
            ({"test_images": (5, 6, 6, 2), "test_labels": [0] * 5}, "test image shape"),
            ({"test_images": (3, 6, 6), "test_labels": [7, 0, 1]}, "labels must lie"),
            ({"test_images": (3, 6, 6), "test_labels": [0, 9, 1]}, "labels must lie"),
            ({"test_images": (3, 6, 6), "test_labels": [0, 1, -1]}, "labels must lie"),
            ({"test_images": (3, 6, 6)}, "together"),
            ({"test_labels": [0, 1, 2]}, "together"),
        ],
        ids=["size", "channels", "label-7", "label-9", "label-minus-1", "images-only", "labels-only"],
    )
    def test_bad_test_set_raises_before_the_first_step(self, monkeypatch, test_set, match):
        rng = np.random.default_rng(5)
        images, labels = rng.uniform(0, 1, (10, 6, 6)), rng.integers(4, size=10)
        if "test_images" in test_set:
            test_set = dict(test_set, test_images=rng.uniform(0, 1, test_set["test_images"]))
        passes = []
        monkeypatch.setattr(network, "forward_layers", lambda *args, **kwargs: passes.append(args))
        with pytest.raises(ShapeError, match=match):
            train(
                [LayerSpec("conv2d", out_channels=2, kernel_size=3)],
                [LayerSpec("flatten"), LayerSpec("dense", units=4), LayerSpec("log-softmax")],
                images,
                labels,
                TrainConfig(epochs=1, seed=0),
                class_count=4,
                **test_set,
            )
        assert passes == []

    def test_test_set_is_scored(self):
        rng = np.random.default_rng(5)
        images, labels = rng.uniform(0, 1, (10, 6, 6)), rng.integers(4, size=10)
        model = train(
            [LayerSpec("conv2d", out_channels=2, kernel_size=3)],
            [LayerSpec("flatten"), LayerSpec("dense", units=4), LayerSpec("log-softmax")],
            images,
            labels,
            TrainConfig(epochs=1, seed=0),
            test_images=images[:4, ..., None],
            test_labels=labels[:4],
            class_count=4,
        )
        expected = np.mean(network.predict_batch(model, images[:4]) == labels[:4])
        assert model.metrics["test_accuracy"] == expected

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises_training_error(self):
        rng = np.random.default_rng(2)
        images = rng.uniform(0, 1, (32, 6, 6))
        labels = rng.integers(2, size=32)
        with pytest.raises(TrainingError):
            train(
                [LayerSpec("conv2d", out_channels=2, kernel_size=3)],
                [LayerSpec("flatten"), LayerSpec("dense", units=2), LayerSpec("log-softmax")],
                images,
                labels,
                TrainConfig(epochs=200, seed=0, learning_rate=1e6),
                class_count=2,
            )

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_in_the_last_update_raises_training_error(self):
        # one update: the loss check runs before it, so only the accuracy pass sees its scores
        rng = np.random.default_rng(2)
        images = rng.uniform(0, 1, (32, 6, 6))
        labels = rng.integers(2, size=32)
        with pytest.raises(TrainingError, match="accuracy pass") as caught:
            train(
                [LayerSpec("conv2d", out_channels=2, kernel_size=3)],
                [LayerSpec("flatten"), LayerSpec("dense", units=2), LayerSpec("log-softmax")],
                images,
                labels,
                TrainConfig(epochs=1, seed=0, learning_rate=1e200),
                class_count=2,
            )
        assert caught.value.step == 1

    def test_monotone_descent_smoke(self, monkeypatch):
        # tiny fixed batch, small step, plain SGD: loss must not increase epoch over epoch
        monkeypatch.setattr(network, "MOMENTUM", 0.0)
        rng = np.random.default_rng(3)
        images = rng.uniform(0, 1, (10, 6, 6))
        labels = rng.integers(2, size=10)
        losses = []
        for epochs in (1, 3, 6, 10):
            model = train(
                [LayerSpec("conv2d", out_channels=2, kernel_size=3)],
                [LayerSpec("flatten"), LayerSpec("dense", units=2), LayerSpec("log-softmax")],
                images,
                labels,
                TrainConfig(epochs=epochs, seed=0, batch_size=10, learning_rate=1e-3),
                class_count=2,
            )
            out = full_stack(model, images[..., None])
            losses.append(-float(np.mean(out[np.arange(10), labels])))
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_determinism(self):
        rng = np.random.default_rng(4)
        images = rng.uniform(0, 1, (30, 6, 6))
        labels = rng.integers(2, size=30)
        args = (
            [LayerSpec("conv2d", out_channels=2, kernel_size=3)],
            [LayerSpec("flatten"), LayerSpec("dense", units=2), LayerSpec("log-softmax")],
            images,
            labels,
            TrainConfig(epochs=3, seed=9),
        )
        m1 = train(*args, class_count=2)
        m2 = train(*args, class_count=2)
        for a, b in zip(m1.extractor + m1.head, m2.extractor + m2.head):
            for name in a.weights:
                np.testing.assert_array_equal(a.weights[name], b.weights[name])


def pool_after_flatten(manifest):
    manifest["head"].insert(1, {"kind": "maxpool2d", "window": 1})
    for entry in manifest["weights"]:
        entry["name"] = entry["name"].replace("head.1.", "head.2.")


def relu_first(manifest):
    manifest["head"].insert(0, {"kind": "relu"})
    for entry in manifest["weights"]:
        entry["name"] = entry["name"].replace("head.1.", "head.2.")


def log_softmax_in_extractor(manifest):
    # after the 1x1 conv, so the weights keep their names; the geometry stays h x w x d
    manifest["extractor"].append({"kind": "log-softmax"})


def conv1x1_in_head(manifest):
    # the extractor's 1x1 conv, with its weights, moves to the head's front
    manifest["head"].insert(0, manifest["extractor"][0])
    manifest["extractor"] = [{"kind": "relu"}]
    for entry in manifest["weights"]:
        entry["name"] = entry["name"].replace("head.1.", "head.2.").replace("extractor.0.", "head.0.")


def flatten_then_log_softmax(manifest):
    # the dense layer's 12 + 3 values become a 2x2 conv to 3 channels at the
    # extractor's end, whose 3x3x3 output the head flattens into 27 classes
    manifest["extractor"].append({"kind": "conv2d", "out_channels": 3, "kernel_size": 2, "padding": 1})
    manifest["head"] = [{"kind": "flatten"}, {"kind": "log-softmax"}]
    manifest["class_count"] = 27
    manifest["weights"][2:] = [
        {"name": "extractor.1.kernel", "shape": [2, 2, 1, 3]},
        {"name": "extractor.1.bias", "shape": [3]},
    ]


# any JSON value, small: integers reach past int64, floats include NaN and infinities
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.floats() | st.text(max_size=4),
    json_containers,
    max_leaves=6,
)
# a dimension list as a manifest might declare it: mostly small, sometimes negative or past int64
dims = st.lists(st.integers(-2, 6) | st.sampled_from([2**31, 2**32, 2**63, 2**64]), max_size=4)


LAYER_FIELDS = ["kind", "out_channels", "kernel_size", "stride", "padding", "window", "units", "bogus"]


def mutate_manifest(data, manifest) -> int:
    """Maybe append a weight entry, no layer's or a copy of one already there,
    then replace or delete up to two layer fields, weight shapes and top-level
    fields of `manifest`.  Returns the number of values the appended entry
    declares, which the blob needs on top of its own."""

    def edit(owner, key, values):
        if data.draw(st.booleans(), label=f"delete {key}"):
            owner.pop(key, None)
        else:
            owner[key] = data.draw(values, label=key)

    added = 0
    if data.draw(st.booleans(), label="append weight entry"):
        unread = {"name": "head.9.weight", "shape": [2]}
        entry = dict(data.draw(st.sampled_from([unread] + manifest["weights"]), label="appended entry"))
        manifest["weights"].append(entry)
        added = int(np.prod(entry["shape"]))
    layers = manifest["extractor"] + manifest["head"]
    layer_values = st.sampled_from(network.LAYER_KINDS) | st.integers(-2, 9) | st.just(2**64) | json_values
    for _ in range(data.draw(st.integers(0, 2), label="layer edits")):
        edit(data.draw(st.sampled_from(layers)), data.draw(st.sampled_from(LAYER_FIELDS)), layer_values)
    for _ in range(data.draw(st.integers(0, 2), label="shape edits")):
        edit(data.draw(st.sampled_from(manifest["weights"])), "shape", dims | json_values)
    for _ in range(data.draw(st.integers(0, 2), label="field edits")):
        key = data.draw(st.sampled_from(sorted(manifest) + ["unknown"]))
        edit(manifest, key, {"input_shape": dims, "class_count": st.integers(-1, 5)}.get(key, json_values))
    return added


class TestSerialization:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_manifest_and_blob_load_or_raise_typed_error(self, data):
        # every blob is at most a few hundred bytes, so no declared shape allocates anything large
        model = identity_feature_model(2, 2, 1, 3, linear=False)
        with tempfile.TemporaryDirectory() as path:
            save_model(model, path)
            with open(os.path.join(path, "manifest.json")) as fh:
                manifest = json.load(fh)
            added = mutate_manifest(data, manifest)
            with open(os.path.join(path, "manifest.json"), "w") as fh:
                json.dump(manifest, fh)
            blob_path = os.path.join(path, "weights.bin")
            with open(blob_path, "rb") as fh:
                blob = fh.read() + bytes(8 * added)
            cut = data.draw(st.just(0) | st.integers(-len(blob), 24), label="blob bytes added")
            with open(blob_path, "wb") as fh:
                fh.write(blob[: len(blob) + cut] if cut < 0 else blob + bytes(cut))
            try:
                loaded = load_model(path)
            except CfeditError:
                return
            # a bundle that loads saves and loads again to the same weights, and
            # every entry it declares is read once, so saving writes each one back
            again = os.path.join(path, "again")
            save_model(loaded, again)
            with open(os.path.join(again, "manifest.json")) as fh:
                written = json.load(fh)["weights"]
            assert sorted(e["name"] for e in written) == sorted(e["name"] for e in manifest["weights"])
            # and its head has the one form a bundle accepts
            kinds = [layer.spec.kind for layer in loaded.head]
            assert kinds[:2] == ["flatten", "dense"] and kinds[-1] == "log-softmax"
            assert set(kinds[2:-1]) <= {"dense", "relu"}
            reloaded = load_model(again)
            for a, b in zip(loaded.extractor + loaded.head, reloaded.extractor + reloaded.head):
                assert a.spec == b.spec and a.weights.keys() == b.weights.keys()
                for name in a.weights:
                    assert a.weights[name].tobytes() == b.weights[name].tobytes()

    @pytest.mark.parametrize("cut", [-8, -3, 3], ids=["value-short", "bytes-short", "bytes-over"])
    def test_blob_of_partial_values(self, tmp_path, cut):
        model = identity_feature_model(2, 2, 1, 3)
        path = tmp_path / "m"
        save_model(model, str(path))
        blob = (path / "weights.bin").read_bytes()
        (path / "weights.bin").write_bytes(blob[:cut] if cut < 0 else blob + bytes(cut))
        with pytest.raises(FormatError, match="blob"):
            load_model(str(path))

    def test_flatten_size_past_int64(self, tmp_path):
        # 2**32 * 2**32 cells wrap to 0 in int64; a dense weight declared (0, 1) must not fit
        model = identity_feature_model(2, 2, 1, 1)
        path = tmp_path / "m"
        save_model(model, str(path))
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["input_shape"] = [2**32, 2**32, 1]
        manifest["extractor"] = [{"kind": "relu"}]
        manifest["weights"] = [{"name": "head.1.weight", "shape": [0, 1]}, {"name": "head.1.bias", "shape": [1]}]
        (path / "manifest.json").write_text(json.dumps(manifest))
        (path / "weights.bin").write_bytes(bytes(8))
        with pytest.raises(ShapeError, match="weight"):
            load_model(str(path))

    def test_round_trip_bit_exact(self, tmp_path):
        model = make_model(reference_extractor_specs(), reference_head_specs(10), (28, 28, 1), 10, seed=7)
        save_model(model, str(tmp_path / "m"))
        loaded = load_model(str(tmp_path / "m"))
        assert loaded.input_shape == model.input_shape
        assert loaded.class_count == model.class_count
        for a, b in zip(model.extractor + model.head, loaded.extractor + loaded.head):
            assert a.spec == b.spec
            for name in a.weights:
                np.testing.assert_array_equal(a.weights[name], b.weights[name])
        rng = np.random.default_rng(0)
        for _ in range(100):
            img = rng.uniform(0, 1, (28, 28, 1))
            np.testing.assert_array_equal(full_stack(model, img[None]), full_stack(loaded, img[None]))

    def test_unknown_layer_kind(self, tmp_path):
        model = identity_feature_model(2, 2, 1, 3)
        path = tmp_path / "m"
        save_model(model, str(path))
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["head"][0]["kind"] = "transformer"
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(UnsupportedLayerError, match="transformer"):
            load_model(str(path))

    def test_format_version_true_is_not_1(self, tmp_path):
        model = identity_feature_model(2, 2, 1, 3)
        path = tmp_path / "m"
        save_model(model, str(path))
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["format_version"] = True  # True == 1 in Python
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match="format_version"):
            load_model(str(path))

    @pytest.mark.parametrize("copy", [False, True], ids=["unread", "duplicate"])
    def test_every_weight_entry_is_read_once(self, tmp_path, copy):
        # the blob holds the appended entry's values too, so its length is right
        model = identity_feature_model(2, 2, 1, 3)
        path = tmp_path / "m"
        save_model(model, str(path))
        manifest = json.loads((path / "manifest.json").read_text())
        entry = dict(manifest["weights"][0]) if copy else {"name": "head.9.weight", "shape": [2]}
        manifest["weights"].append(entry)
        (path / "manifest.json").write_text(json.dumps(manifest))
        blob = (path / "weights.bin").read_bytes()
        (path / "weights.bin").write_bytes(blob + bytes(8 * int(np.prod(entry["shape"]))))
        with pytest.raises(FormatError, match=repr(entry["name"]).replace(".", r"\.")):
            load_model(str(path))

    def test_unsupported_version(self, tmp_path):
        model = identity_feature_model(2, 2, 1, 3)
        path = tmp_path / "m"
        save_model(model, str(path))
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["format_version"] = 99
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match="format_version"):
            load_model(str(path))

    @pytest.mark.parametrize(
        "edit, error",
        [
            (lambda m: m["weights"][0].pop("shape"), FormatError),
            (lambda m: m["weights"][0].update(shape="abc"), FormatError),
            (lambda m: m.update(weights=5), FormatError),
            (lambda m: m.update(class_count="x"), FormatError),
            (lambda m: m.update(input_shape=[28]), FormatError),
            (lambda m: m.update(extractor=[5]), FormatError),
            (lambda m: m.update(metrics=[1]), FormatError),
            (lambda m: m["weights"][0].update(shape=[1]), ShapeError),
            (pool_after_flatten, ShapeError),
            (relu_first, UnsupportedLayerError),
            (conv1x1_in_head, UnsupportedLayerError),
            (flatten_then_log_softmax, UnsupportedLayerError),
            (log_softmax_in_extractor, UnsupportedLayerError),
        ],
        ids=[
            "weight-without-shape", "weight-shape-string", "weights-not-list",
            "class-count-string", "input-shape-rank-1", "extractor-entry-not-object",
            "metrics-not-object", "weight-shape-mismatch", "pool-after-flatten",
            "relu-first", "conv1x1-in-head", "flatten-then-log-softmax",
            "log-softmax-in-extractor",
        ],
    )
    def test_malformed_manifest_raises_typed_error(self, tmp_path, edit, error):
        model = identity_feature_model(2, 2, 1, 3)
        path = tmp_path / "m"
        save_model(model, str(path))
        manifest = json.loads((path / "manifest.json").read_text())
        edit(manifest)
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(error):
            load_model(str(path))

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda m: m["extractor"][0].update(stride=0), "conv2d stride must be positive"),
            (lambda m: m["extractor"].append({"kind": "maxpool2d", "window": 1, "stride": 0}), "maxpool2d stride"),
            (lambda m: m["extractor"].append({"kind": "maxpool2d", "window": 1, "padding": 3}), "maxpool2d takes no"),
            (lambda m: m["extractor"].append({"kind": "relu", "stride": 0}), "relu stride"),
        ],
        ids=["conv-stride-0", "pool-stride-0", "pool-padding", "relu-stride-0"],
    )
    def test_geometry_the_runtime_would_not_apply_is_refused(self, tmp_path, edit, match):
        # stride 0 used to run as the default stride, and a pool padding was applied nowhere
        model = identity_feature_model(2, 2, 1, 3)
        path = tmp_path / "m"
        save_model(model, str(path))
        manifest = json.loads((path / "manifest.json").read_text())
        edit(manifest)
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ShapeError, match=match):
            load_model(str(path))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_is_refused(self, tmp_path, value):
        model = identity_feature_model(2, 2, 1, 3)
        path = tmp_path / "m"
        save_model(model, str(path))
        blob = np.frombuffer((path / "weights.bin").read_bytes(), dtype="<f8").copy()
        blob[[-2, -1]] = value  # entries 1 and 2 of the last dense bias; the first is named
        (path / "weights.bin").write_bytes(blob.tobytes())
        with pytest.raises(FormatError, match=rf"'head\.1\.bias' holds {value} at flat index 1"):
            load_model(str(path))
