"""Minimal CNN runtime split into a spatial feature extractor and a decision head.

The layer vocabulary is fixed: conv2d, relu, maxpool2d, flatten, dense,
log-softmax.  Tensors are channels-last, float64, batched as (N, H, W, C).
The extractor maps pixels to an h x w x d feature grid; the head maps a grid
to class log-probabilities, returned as plain float64 arrays.  `ModelBundle`
accepts one head form, flatten -> dense -> (dense | relu)* -> log-softmax
(the paper's fc head; a global-average-pool -> fc head is a dense layer on
the flattened grid with tied weights), and an extractor of conv2d, relu and
maxpool2d layers only, whose receptive fields `render` maps; it raises
UnsupportedLayerError for any other.  Everything needed downstream is
provided here: forward evaluation, reverse-mode gradients, a desk-scale SGD
trainer, and a portable two-file model format (JSON manifest + float64
blob), which `load_model` refuses unless every weight is finite and every
layer's stride positive.

The bundle parses that head once into `mlp`, the layers between flatten and
log-softmax: a (weight, bias) pair of the layer's own arrays per dense layer,
None per relu.  Every head pass but `train`'s reads it (`_mlp_forward`,
`tail_gradient`).  Every log-softmax, the layer's and each fused pass's,
takes its shift and class sum from `_shift_lse`.

A pass runs a `_Schedule`: a stack parsed for one image geometry into its
steps in run order (`_run_order`), each with the fixed geometry its kernels,
forward and backward, read (a conv's kernel shape, stride, padding, output
size and patch record; a pool's window, stride and output size), and the
images per block.  A forward pass that keeps caches keeps each with its
step, in run order, and the backward pass runs those steps reversed, so it
works out neither the order nor the geometry again.  The bundle parses two
stacks once, for its own input shape only (`_as_batch` refuses any other):
its extractor, whose schedule `predict_batch`, `forward_features` and
`_feature_pair` run, and its head, on the extractor's grid.  `_feature_pair`
is greedy's pair pass, and `forward_feature_pair`'s: it checks once that
the features are finite (ShapeError, as `FeatureGrid`).  `train`
runs the bundle's two schedules, forward and back, and so parses nothing per
batch; `forward_layers` parses a stack that no bundle holds, such as one
layer alone.  A step holds its layer, whose weights the kernels read on each
call, so `train`'s in-place updates reach every pass.

A stack runs forward and backward one block of images at a time, every
layer on one block before the next block starts, so that a block's arrays
stay in cache and the scratch memory is bounded per block (cache blocking,
Lam, Rothberg & Wolf 1991); every layer kind acts on each image alone, so
this holds for any stack.  A block holds as many images as keep the largest
conv layer's patch matrix within `_PATCH_VALUES` float64 values, and at
least one: 16 images on the 28x28 reference layers, 4 on 42x42 ones, and
up to `_PATCH_VALUES` on a stack with no conv layer, such as a head.
Convolution unrolls a block into its patch matrix (im2col, Chellapilla et
al. 2006), copying each window row as one record.  Its forward pass is one
stacked product, one GEMM per image of the block, plus the bias tiled over
the output cells, one contiguous add per image; its weight gradient is
one GEMM over the block.  Its input gradient copies the output gradient kw
times, strided, into a zero buffer with one column per padded input column
(an im2col of the gradient along the width only), multiplies that by the
kernel laid out as (kw·cout, kh·cin) in one GEMM, and adds the product into
the input gradient in kh row-shifted slices, for every stride and padding.

Max pooling is separable: a running `np.maximum` over the window's rows,
whose strided views are runs of whole image rows, then over its columns,
each started from its first two taps, so that no rows are copied.  It then
recovers for each output the index of the first maximum in (dh, dw)
scan order, one comparison per tap.  Its backward routes each gradient to
that one input.  Where windows do not overlap (stride at least the window)
each tap writes its gradient once, as g·(idx == m), and only the inputs no
window reaches are zero-filled; overlapping windows add into zeros.  So an
input that a negative gradient does not reach gets -0.0, where adding into
zeros gives +0.0.  The maximum has the bits of the first maximum in scan
order, but for a zero maximum, which may take the sign of another zero of
its window.

A stack runs each relu that directly precedes a max pool after that pool
(`_run_order`), so that relu and its mask work on the pooled values, a
quarter of them for a 2x2 window.  The two commute exactly: relu is
monotone, so the maximum of relu(x) over a window is relu of the maximum of
x, and a positive maximum is first reached at the same tap; a window whose
maximum is not positive passes its gradient times zero either way, and
relu makes every zero +0.0.  Outputs keep their bits.  Where windows do not
overlap every gradient keeps its bits too; where they overlap, an input
gradient that sums zeros may take the other sign.  Neither layer holds
weights, and each keeps its cache beside its own step.  A relu that runs
right after a max pool overwrites the pool's output, an array the pool made
and no cache holds, instead of allocating another.

A forward pass that keeps no caches (every inference pass: features, head
scores, predictions) computes none: max pooling stops after the maximum and
relu builds no mask, with outputs bit-identical to a pass that keeps them.
A batch of one block returns its last step's output without a copy.

An image's features do not depend on the batch it runs in: each conv GEMM
has the shape of a one-image pass, and every other extractor step acts on
each value alone, so every image of a batch, a block or the two-image batch
of `_feature_pair` gets the bits of its one-image pass.  One GEMM
over a whole block would not give them, because BLAS picks its kernel by
the product's size: it rounded 2,375 to 2,389 of the 20,480 feature values
of 64 images differently on the frozen benchmark model `ref`.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .data import read_json, write_file, write_json
from .errors import BoundsError, FormatError, ShapeError, TrainingError, UnsupportedLayerError, is_number
from .grids import FeatureGrid
from .rng import substream

FORMAT_VERSION = 1

LAYER_KINDS = ("conv2d", "relu", "maxpool2d", "flatten", "dense", "log-softmax")

# fixed parameter order per kind, for blob serialization
PARAM_ORDER = {"conv2d": ("kernel", "bias"), "dense": ("weight", "bias")}


@dataclass(frozen=True)
class LayerSpec:
    kind: str
    out_channels: int | None = None
    kernel_size: int | None = None
    stride: int | None = None
    padding: int = 0
    window: int | None = None
    units: int | None = None

    def __post_init__(self):
        k = self.kind
        if k not in LAYER_KINDS:
            raise UnsupportedLayerError(f"unknown layer kind {k!r}")
        if self.stride is not None and self.stride <= 0:
            raise ShapeError(f"{k} stride must be positive")
        if self.padding and k != "conv2d":
            raise ShapeError(f"{k} takes no padding")
        if k == "conv2d":
            if not (self.out_channels and self.out_channels > 0):
                raise ShapeError("conv2d needs positive out_channels")
            if not (self.kernel_size and self.kernel_size > 0):
                raise ShapeError("conv2d needs positive kernel_size")
            if not (0 <= self.padding < self.kernel_size):
                raise ShapeError("conv2d padding must satisfy 0 <= padding < kernel_size")
        elif k == "maxpool2d":
            if not (self.window and self.window > 0):
                raise ShapeError("maxpool2d needs positive window")
        elif k == "dense":
            if not (self.units and self.units > 0):
                raise ShapeError("dense needs positive units")

    def window_geometry(self) -> tuple[int, int, int]:
        """(size, stride, padding) of a conv2d or maxpool2d window: a conv's
        stride defaults to 1 and a pool's to its window, and a pool has no
        padding.  Every other kind has no window and raises UnsupportedLayerError."""
        if self.kind == "conv2d":
            return self.kernel_size, self.stride or 1, self.padding
        if self.kind == "maxpool2d":
            return self.window, self.stride or self.window, 0
        raise UnsupportedLayerError(f"layer kind {self.kind!r} has no conv or pool window")

    def to_json(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None and not (k == "padding" and v == 0)}

    @classmethod
    def from_json(cls, obj: dict) -> "LayerSpec":
        obj = dict(obj)
        kind = obj.pop("kind", None)
        bad = set(obj) - {f.name for f in fields(cls)}
        if bad:
            raise FormatError(f"unknown layer fields {sorted(bad)}")
        not_int = sorted(name for name, v in obj.items() if type(v) is not int)
        if not_int:
            raise FormatError(f"layer fields {not_int} must be integers")
        return cls(kind=kind, **obj)


@dataclass
class Layer:
    spec: LayerSpec
    weights: dict = field(default_factory=dict)


def output_geometry(spec: LayerSpec, geom: tuple) -> tuple:
    """Geometry after applying one layer. Spatial geometry is (h, w, c); after
    flatten it is (n,)."""
    k = spec.kind
    if k in ("relu", "log-softmax"):
        return geom
    if k in ("conv2d", "maxpool2d"):
        if len(geom) != 3:
            raise ShapeError(f"{k} layer requires spatial input")
        h, w, c = geom
        size, s, p = spec.window_geometry()
        oh = (h + 2 * p - size) // s + 1
        ow = (w + 2 * p - size) // s + 1
        if oh <= 0 or ow <= 0:
            raise ShapeError(f"{k} output collapses to {oh}x{ow} from input {h}x{w}")
        return (oh, ow, spec.out_channels if k == "conv2d" else c)
    if k == "flatten":
        return (math.prod(geom),)
    if k == "dense":
        if len(geom) != 1:
            raise ShapeError("dense layer requires flattened input")
        return (spec.units,)
    raise UnsupportedLayerError(k)


def _param_shapes(spec: LayerSpec, geom: tuple) -> dict:
    """Weight shapes of a layer applied to input geometry `geom`, by name."""
    if spec.kind == "conv2d":
        k = spec.kernel_size
        return {"kernel": (k, k, geom[2], spec.out_channels), "bias": (spec.out_channels,)}
    if spec.kind == "dense":
        return {"weight": (geom[0], spec.units), "bias": (spec.units,)}
    return {}


def init_layer(spec: LayerSpec, geom: tuple, rng: np.random.Generator) -> tuple[Layer, tuple]:
    """Layer with freshly initialized weights (uniform +-1/sqrt(fan_in))."""
    out_geom = output_geometry(spec, geom)
    weights = {}
    names = PARAM_ORDER.get(spec.kind, ())
    if names:
        shapes = _param_shapes(spec, geom)
        bound = 1.0 / np.sqrt(np.prod(shapes[names[0]][:-1]))
        weights = {name: rng.uniform(-bound, bound, size=shapes[name]) for name in names}
    return Layer(spec, weights), out_geom


# ---------------------------------------------------------------------------
# forward / backward per kind (batched, channels-last)
# ---------------------------------------------------------------------------

# Cap on the float64 values of the largest conv patch matrix of one block of
# images (2 MB).  A block holds as many whole images as fit, and at least one.
_PATCH_VALUES = 1 << 18

# the layer kinds an extractor may hold; `ModelBundle` refuses any other
_EXTRACTOR_KINDS = ("conv2d", "relu", "maxpool2d")


def _patches(xpad, kh, s, oh, ow, record):
    """The (images·oh·ow, kh·kw·cin) patch matrix of the contiguous batch xpad,
    in (dh, dw, c) order.  Channels-last, the kw·cin values of one window row
    are contiguous, so the copy moves each row as one `record`."""
    sn, sh, sw, _ = xpad.strides
    rows = np.ndarray((len(xpad), oh, ow, kh), record, xpad, strides=(sn, sh * s, sw * s, sh))
    return rows.copy().view(np.float64).reshape(-1, kh * record.itemsize // 8)


def _conv_forward(x, step, keep_cache=True):
    kern, bias = step.layer.weights["kernel"], step.layer.weights["bias"]
    (kh, _, _, cout), (_, s, p), (oh, ow) = step.kernel_shape, step.window, step.out_hw
    x = np.pad(x, ((0, 0), (p, p), (p, p), (0, 0))) if p else np.ascontiguousarray(x)
    n = len(x)
    # one GEMM per image, of the shape a one-image pass runs (see the module docstring)
    out = (_patches(x, kh, s, oh, ow, step.record).reshape(n, oh * ow, -1) @ kern.reshape(-1, cout)).reshape(n, -1)
    # the bias tiled over the output cells: one contiguous add per image, not an inner loop cout long
    out += bias[None].repeat(oh * ow, axis=0).ravel()
    return out.reshape(n, oh, ow, cout), x  # cache padded input; backward rebuilds the patches


def _conv_weight_grads(g, step, xpad):
    (kh, _, _, cout), (_, s, _), (oh, ow) = step.kernel_shape, step.window, step.out_hw
    gm = g.reshape(-1, cout)
    gk = (gm.T @ _patches(xpad, kh, s, oh, ow, step.record)).T
    # a ones-vector GEMM: a reduction over axes (0, 1, 2) runs an inner loop only cout long
    return {"kernel": gk.reshape(step.kernel_shape), "bias": np.ones(len(gm)) @ gm}


def _conv_input_grad(g, step, xpad):
    (kh, kw, cin, cout), (_, s, p), (oh, ow) = step.kernel_shape, step.window, step.out_hw
    n, wp = len(g), xpad.shape[2]
    # g copied kw times into its input columns: cols[:, i, x, dw] is the gradient
    # of output (i, (x - dw) / s), zero where that is no output
    cols = np.zeros((n, oh, wp, kw, cout))
    for dw in range(kw):
        cols[:, :, dw : dw + ow * s : s, dw] = g
    kern_cols = step.layer.weights["kernel"].transpose(1, 3, 0, 2).reshape(kw * cout, kh * cin)
    # kern_cols has rows (dw, cout) and columns (dh, cin); rows[:, i, :, dh] is
    # output row i's gradient at input row i·s + dh
    rows = (cols.reshape(-1, kw * cout) @ kern_cols).reshape(n, oh, wp, kh, cin)
    gx = np.zeros(xpad.shape)
    for dh in range(kh):
        gx[:, dh : dh + oh * s : s] += rows[:, :, :, dh]
    return gx[:, p : gx.shape[1] - p, p : gx.shape[2] - p]


def _running_max(taps):
    """A fresh array of the running `np.maximum` over `taps`, each next tap
    its first argument: it starts from the first two taps, with no copy."""
    if len(taps) == 1:
        return taps[0].copy()
    m = np.maximum(taps[1], taps[0])
    for tap in taps[2:]:
        np.maximum(tap, m, out=m)
    return m


def _pool_forward(x, step, keep_cache=True):
    (k, s, _), (oh, ow) = step.window, step.out_hw
    # separable: the maximum over each window's rows, whose strided views are
    # runs of whole image rows, then over its columns.  On equal values
    # np.maximum returns its second argument, so of a window's zeros of either
    # sign the first in (dw, dh) order gives the bits
    rows = _running_max([x[:, dh : dh + oh * s : s] for dh in range(k)])
    out = _running_max([rows[:, :, dw : dw + ow * s : s] for dw in range(k)])
    if not keep_cache:
        return out, None
    # the index of the first maximum in (dh, dw) scan order (deterministic ties)
    # is the number of taps before it, each below the maximum
    taps = [x[:, dh : dh + oh * s : s, dw : dw + ow * s : s] for dh in range(k) for dw in range(k)]
    below = taps[0] != out
    idx = below.astype(np.min_scalar_type(k * k - 1))
    for tap in taps[1:-1]:
        below &= tap != out
        idx += below
    return out, (idx, x.shape)


def _pool_input_grad(g, step, cache):
    (k, s, _), (oh, ow) = step.window, step.out_hw
    idx, xshape = cache
    if s < k:  # overlapping windows: an input may take gradient from several
        gx = np.zeros(xshape)
        for m in range(k * k):
            dh, dw = divmod(m, k)
            gx[:, dh : dh + oh * s : s, dw : dw + ow * s : s] += g * (idx == m)
        return gx
    # windows that do not overlap reach each input at most once: each tap
    # writes its gradient once, and only the inputs no window reaches (past
    # the last window, and in the gaps between windows) are zero-filled
    gx = np.empty(xshape)
    gx[:, oh * s :] = 0.0
    gx[:, :, ow * s :] = 0.0
    for d in range(k, s):
        gx[:, d::s] = 0.0
        gx[:, :, d::s] = 0.0
    for m in range(k * k):
        dh, dw = divmod(m, k)
        np.multiply(g, idx == m, out=gx[:, dh : dh + oh * s : s, dw : dw + ow * s : s])
    return gx


def _relu_forward(x, step, keep_cache=True):
    mask = x > 0 if keep_cache else None
    return np.maximum(x, 0.0, out=x if step.in_place else None), mask


def _relu_input_grad(g, step, mask):
    return g * mask


def _flatten_forward(x, step, keep_cache=True):
    n = x.shape[0]
    return x.reshape(n, -1), x.shape


def _flatten_input_grad(g, step, shape):
    return g.reshape(shape)


def _dense_forward(x, step, keep_cache=True):
    return x @ step.layer.weights["weight"] + step.layer.weights["bias"], x


def _dense_weight_grads(g, step, x):
    return {"weight": x.T @ g, "bias": g.sum(axis=0)}


def _dense_input_grad(g, step, x):
    return g @ step.layer.weights["weight"].T


# below this many rows `_shift_lse` accumulates along the class axis, where
# one call costs less than a call per class column
_LSE_ACCUMULATE_ROWS = 32


def _log_softmax(x):
    """Log-softmax over the last (class) axis of `x`: z - lse of `_shift_lse`."""
    z, lse = _shift_lse(x)
    return z - lse[..., None]


def _shift_lse(x):
    """(z, lse): `x` less its maximum over the last (class) axis, and the log
    of the sum of exp(z) over that axis, whose difference is the log-softmax.

    It works on class columns: a running maximum, the shift and exp, then a
    sum that adds the columns in class order.  No step reduces along the
    short class axis, whose sum order is numpy's choice (pairwise from 8
    values on), so a row's result depends on that row alone, whatever the
    batch, and z[..., c] - lse equals column c of the full log-softmax.
    Below `_LSE_ACCUMULATE_ROWS` rows the running maximum and the sum are
    `np.maximum.accumulate` and `np.add.accumulate` along the class axis, one
    call each in place of one per column: the same binary operations in the
    same order, so the same bits.
    """
    if x.size < _LSE_ACCUMULATE_ROWS * x.shape[-1]:
        z = x - np.maximum.accumulate(x, axis=-1)[..., -1:]
        return z, np.log(np.add.accumulate(np.exp(z), axis=-1)[..., -1])
    m = x[..., 0]
    for c in range(1, x.shape[-1]):
        m = np.maximum(m, x[..., c])
    z = x - m[..., None]
    e = np.exp(z)
    s = e[..., 0]
    for c in range(1, e.shape[-1]):
        s = s + e[..., c]
    return z, np.log(s)


def _logsoftmax_forward(x, step, keep_cache=True):
    y = _log_softmax(x)
    return y, y


def _logsoftmax_input_grad(g, step, y):
    p = np.exp(y)
    return g - p * g.sum(axis=-1, keepdims=True)


# each forward returns (output, cache); with keep_cache False the max pool
# stops at its maximum and relu builds no mask, and their cache is None
_FORWARD = {
    "conv2d": _conv_forward,
    "maxpool2d": _pool_forward,
    "relu": _relu_forward,
    "flatten": _flatten_forward,
    "dense": _dense_forward,
    "log-softmax": _logsoftmax_forward,
}

_INPUT_GRAD = {
    "conv2d": _conv_input_grad,
    "maxpool2d": _pool_input_grad,
    "relu": _relu_input_grad,
    "flatten": _flatten_input_grad,
    "dense": _dense_input_grad,
    "log-softmax": _logsoftmax_input_grad,
}

# kinds that hold weights; each function returns {parameter name: gradient}
_WEIGHT_GRADS = {"conv2d": _conv_weight_grads, "dense": _dense_weight_grads}


class _Step:
    """One layer of a pass on images of one geometry, its manifest `index`,
    and what its kernels, forward and backward, read that the geometry
    fixes: for conv2d the kernel shape, the window's (size, stride,
    padding), the output size and the patch-record dtype; for maxpool2d the
    window and the output size; for relu whether it may overwrite its input,
    the fresh output of the max pool run before it.  It holds the layer
    itself, whose weights the kernels read on each call, so in-place weight
    updates reach every pass."""

    __slots__ = ("index", "layer", "forward", "window", "out_hw", "kernel_shape", "record", "in_place")

    def __init__(self, index, layer, geom, out, in_place):
        kind = layer.spec.kind
        self.index, self.layer, self.forward, self.in_place = index, layer, _FORWARD[kind], in_place
        windowed = kind in ("conv2d", "maxpool2d")
        self.window, self.out_hw = (layer.spec.window_geometry(), out[:2]) if windowed else (None, None)
        self.kernel_shape = layer.weights["kernel"].shape if kind == "conv2d" else None
        # one patch record: the kw·cin float64 values of a window row
        self.record = np.dtype((np.void, self.kernel_shape[1] * geom[2] * 8)) if kind == "conv2d" else None


@dataclass(frozen=True)
class _Schedule:
    """A stack parsed for images of one geometry: its steps in `_run_order`,
    the images per block, as many as keep every conv layer's patch matrix
    within `_PATCH_VALUES` and at least one, and the output geometry.
    `fresh` says the last step's output is an array the pass made, not a
    view of its input, which holds unless every step is a flatten."""

    steps: tuple
    images: int
    geom: tuple
    fresh: bool


def _schedule(layers, geom) -> _Schedule:
    """The `_Schedule` of the stack `layers` on images of geometry `geom`;
    raises ShapeError where a layer does not fit its input or its weights
    do not."""
    order = _run_order(layers)
    after_pool = {b for a, b in zip(order, order[1:]) if layers[a].spec.kind == "maxpool2d"}
    geom, per_image, steps = tuple(geom), 1, []
    for idx, layer in enumerate(layers):
        out = output_geometry(layer.spec, geom)
        expected, got = _param_shapes(layer.spec, geom), {name: np.shape(w) for name, w in layer.weights.items()}
        if got != expected:
            raise ShapeError(f"{layer.spec.kind} weights {got} do not match the expected {expected}")
        steps.append(_Step(idx, layer, geom, out, layer.spec.kind == "relu" and idx in after_pool))
        if layer.spec.kind == "conv2d":
            per_image = max(per_image, out[0] * out[1] * layer.spec.kernel_size**2 * geom[2])
        geom = out
    return _Schedule(
        tuple(steps[idx] for idx in order),
        max(1, _PATCH_VALUES // per_image),
        geom,
        any(layer.spec.kind != "flatten" for layer in layers),
    )


def _run_order(layers):
    """The indices of `layers` in the order a pass runs them: the manifest
    order, but each relu that directly precedes a max pool runs after it.
    The two commute (see the module docstring), and relu then acts on the
    pooled values only."""
    order = list(range(len(layers)))
    for i in range(len(layers) - 1):
        if layers[i].spec.kind == "relu" and layers[i + 1].spec.kind == "maxpool2d":
            order[i], order[i + 1] = i + 1, i
    return order


def forward_layers(layers, x, keep_caches=False):
    """Output of the stack on batch `x`, and with `keep_caches` the caches
    `backward_layers` reads: a (slice of the batch, list of (step, cache)
    pairs in run order) pair per block of images (see `_Schedule`).  Without
    them no cache is computed.  The layers run in `_run_order`."""
    return _run(_schedule(layers, x.shape[1:]), x, keep_caches)


def _run(schedule, x, keep_caches=False):
    """`forward_layers` of the stack that `schedule` parsed, on batch `x` of
    its geometry.  A batch of one block returns its last step's output as it
    is, unless that is a view of `x`."""
    n, images = len(x), schedule.images
    whole = 0 < n <= images and schedule.fresh
    out = None if whole else np.empty((n,) + schedule.geom)
    caches = []
    for lo in range(0, n, images):
        span, xb, block = slice(lo, lo + images), x[lo : lo + images], []
        for step in schedule.steps:
            xb, cache = step.forward(xb, step, keep_caches)
            if keep_caches:  # conv2d returns its padded input either way
                block.append((step, cache))
        if whole:
            out = xb
        else:
            out[span] = xb
        if keep_caches:
            caches.append((span, block))
    return (out, caches) if keep_caches else out


def _mlp_forward(mlp, x):
    """The layers `mlp` (a slice of `ModelBundle.mlp`) on the (N, features)
    batch `x`, which the caller gives up: relu overwrites its input instead of
    allocating another array, with the bits of `forward_layers`."""
    for layer in mlp:
        if layer is None:
            np.maximum(x, 0.0, out=x)
        else:
            x = x @ layer[0] + layer[1]
    return x


def backward_layers(layers, caches, g, input_grad=True):
    """(gradient w.r.t. the stack input, per-layer weight gradients in
    manifest order) of a scalar objective, given its gradient `g` at the
    stack output and the caches of the forward pass of `layers`.  The stack
    runs back block by block, in the forward pass's blocks, through each
    block's (step, cache) pairs reversed, so in the order that pass ran;
    a layer's weight gradients are the sum of its blocks' in block order.
    With `input_grad=False` the first step run skips its input gradient and
    None takes the stack's."""
    grads = [{} for _ in layers]
    parts = []
    for span, block in caches:
        gb = g[span]
        for pos in range(len(block) - 1, -1, -1):
            step, cache = block[pos]
            kind, wg = step.layer.spec.kind, grads[step.index]
            if kind in _WEIGHT_GRADS:
                for name, grad in _WEIGHT_GRADS[kind](gb, step, cache).items():
                    wg[name] = wg[name] + grad if name in wg else grad
            gb = _INPUT_GRAD[kind](gb, step, cache) if pos or input_grad else None
        parts.append(gb)
    return (np.concatenate(parts) if input_grad else None), grads


# ---------------------------------------------------------------------------
# model bundle
# ---------------------------------------------------------------------------

@dataclass
class ModelBundle:
    extractor: list
    head: list
    class_count: int
    input_shape: tuple  # (h, w, c) in pixels
    metrics: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.head or self.head[-1].spec.kind != "log-softmax":
            raise ShapeError("head must end in a log-softmax layer")
        for layer in self.extractor:
            if layer.spec.kind not in _EXTRACTOR_KINDS:
                raise UnsupportedLayerError(
                    f"extractor layer {layer.spec.kind!r} is not one of {', '.join(_EXTRACTOR_KINDS)}"
                )
        # the extractor parsed once for the model's own input shape: every
        # inference pass runs it, and it holds the layers, as `mlp` does
        self.schedule = _schedule(self.extractor, self.input_shape)
        geom = self.schedule.geom
        if len(geom) != 3:
            raise ShapeError("extractor must produce a spatial h x w x d geometry")
        self.feature_shape = geom
        # the head parsed once for that grid: `train` runs both schedules
        self.head_schedule = _schedule(self.head, geom)
        if self.head_schedule.geom != (self.class_count,):
            raise ShapeError(
                f"head output geometry {self.head_schedule.geom} does not match class count {self.class_count}"
            )
        kinds = [layer.spec.kind for layer in self.head]
        if kinds[:2] != ["flatten", "dense"] or not set(kinds[2:-1]) <= {"dense", "relu"}:
            raise UnsupportedLayerError(
                f"head {kinds} is not flatten -> dense -> (dense | relu)* -> log-softmax"
            )
        # the layers' own arrays, so that in-place weight updates reach every head pass
        self.mlp = tuple(
            None if ly.spec.kind == "relu" else (ly.weights["weight"], ly.weights["bias"]) for ly in self.head[1:-1]
        )

    def check_class(self, target):
        """Raise BoundsError unless `target` is one of the head's class indices."""
        if not (is_number(target, integer=True) and 0 <= target < self.class_count):
            raise BoundsError(f"target class {target!r} outside [0, {self.class_count})")

    def check_grids(self, *grids: FeatureGrid) -> list:
        """The grids' (hw, d) values; ShapeError unless every grid has the head's input geometry."""
        for G in grids:
            if (G.h, G.w, G.d) != self.feature_shape:
                raise ShapeError(
                    f"grid geometry {(G.h, G.w, G.d)} does not match head input {self.feature_shape}"
                )
        return [G.values for G in grids]


# images per forward pass in predict_batch
_PREDICT_IMAGES = 256


def _as_batch(model: ModelBundle, images: np.ndarray) -> np.ndarray:
    """(N, h, w[, c]) images as a float64 (N, h, w, c) batch of the model's input shape."""
    imgs = np.asarray(images, dtype=np.float64)
    if imgs.ndim == 3:
        imgs = imgs[..., None]
    if imgs.shape[1:] != tuple(model.input_shape):
        raise ShapeError(f"image shape {imgs.shape[1:]} does not match model input {model.input_shape}")
    return imgs


def forward_features(model: ModelBundle, image: np.ndarray) -> FeatureGrid:
    """f(image): run the extractor, returning the spatial feature grid."""
    out = _run(model.schedule, _as_batch(model, [image]))
    return FeatureGrid.from_array(out[0])


def _feature_pair(model: ModelBundle, image: np.ndarray, image2: np.ndarray) -> np.ndarray:
    """f(image) and f(image2) as the (2, hw, d) values of one two-image pass; ShapeError unless finite."""
    batch = np.concatenate([_as_batch(model, [image]), _as_batch(model, [image2])])
    out = _run(model.schedule, batch).reshape(2, -1, model.feature_shape[2])
    if not np.isfinite(out).all():
        raise ShapeError("grid values must be finite")
    return out


def forward_feature_pair(model: ModelBundle, image: np.ndarray, image2: np.ndarray) -> tuple:
    """(f(image), f(image2)) from one two-image extractor pass."""
    return tuple(FeatureGrid(*model.feature_shape, F) for F in _feature_pair(model, image, image2))


def head_logprobs_batch(model: ModelBundle, values: np.ndarray) -> np.ndarray:
    """g over a batch of grids given as (N, hw, d) matrices; returns (N, classes)."""
    h, w, d = model.feature_shape
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 3 or v.shape[1:] != (h * w, d):
        raise ShapeError(f"expected batch of ({h * w}, {d}) grids, got {v.shape}")
    return _log_softmax(_mlp_forward(model.mlp, v.reshape(len(v), -1)))


def head_logprobs(model: ModelBundle, F: FeatureGrid) -> np.ndarray:
    """g(F): the float64 (classes,) log-probabilities of one feature grid."""
    return head_logprobs_batch(model, np.stack(model.check_grids(F)))[0]


def tail_gradient(model: ModelBundle, onehot, z):
    """The gradient w.r.t. the (N, units) stack z of first dense outputs of
    each row's target log-probability under the head's layers after the
    first dense one, row k's target being the class that row k of the
    (N, classes) one-hot matrix `onehot` marks; the shapes are the caller's
    to check.  It performs the operations of `forward_layers` and
    `backward_layers` in their order, the log-softmax through `_shift_lse`
    as every head pass, so every bit agrees with them."""
    tail = model.mlp[1:]
    masks = []  # relu's input > 0, per layer
    for layer in tail:
        masks.append(z > 0 if layer is None else None)
        z = np.maximum(z, 0.0) if layer is None else z @ layer[0] + layer[1]
    # the log-softmax backward of a one-hot gradient, whose sum is exactly 1
    z, lse = _shift_lse(z)
    g = onehot - np.exp(z - lse[:, None])
    for layer, mask in zip(reversed(tail), reversed(masks)):
        g = g * mask if layer is None else g @ layer[0].T
    return g


def _finite(lp):
    """`lp`, if it holds log-probabilities that are all finite; else FormatError.
    A head with NaN or infinite weights, or whose values overflow, gives NaN or inf."""
    if lp is None or not np.isfinite(lp).all():
        raise FormatError("the head gives non-finite log-probabilities")
    return lp


def predict_batch(model: ModelBundle, images: np.ndarray) -> np.ndarray:
    """Predicted class of each image, evaluated `_PREDICT_IMAGES` images at a
    time.  Raises FormatError when any log-probability is not finite, as the
    argmax of NaN names no class."""
    imgs = _as_batch(model, images)
    preds = []
    for lo in range(0, len(imgs), _PREDICT_IMAGES):
        chunk = imgs[lo : lo + _PREDICT_IMAGES]
        # the features stay a temporary, freed before the next chunk's pass
        logits = _mlp_forward(model.mlp, _run(model.schedule, chunk).reshape(len(chunk), -1))
        preds.append(np.argmax(_finite(_log_softmax(logits)), axis=1))
    return preds[0] if len(preds) == 1 else np.concatenate(preds) if preds else np.zeros(0, dtype=int)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

MOMENTUM = 0.9  # velocity decay of the SGD trainer


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    batch_size: int = 64
    epochs: int = 10
    seed: int = 0

    def __post_init__(self):
        if not (is_number(self.learning_rate) and 0 < self.learning_rate < np.inf):
            raise FormatError(f"learning_rate must be a positive finite number, got {self.learning_rate!r}")
        if not (is_number(self.batch_size, integer=True) and self.batch_size > 0):
            raise FormatError(f"batch_size must be a positive integer, got {self.batch_size!r}")
        if not (is_number(self.epochs, integer=True) and self.epochs >= 0):
            raise FormatError(f"epochs must be a nonnegative integer, got {self.epochs!r}")


def _accuracy(model, images, labels):
    return float(np.mean(predict_batch(model, images) == labels))


def train(
    extractor_specs,
    head_specs,
    images,
    labels,
    config: TrainConfig = TrainConfig(),
    test_images=None,
    test_labels=None,
    class_count: int | None = None,
) -> ModelBundle:
    """SGD-with-momentum trainer; deterministic given config.seed.  The
    optional test set, given whole or not at all, is checked against the
    training set before the first step and scored after the last; neither
    set may be empty."""
    if (test_images is None) != (test_labels is None):
        raise ShapeError("test_images and test_labels must be given together")
    sets = [(images, labels)] + ([] if test_images is None else [(test_images, test_labels)])
    sets = [(np.asarray(imgs, dtype=np.float64), np.asarray(labs, dtype=int)) for imgs, labs in sets]
    sets = [(imgs[..., None] if imgs.ndim == 3 else imgs, labs) for imgs, labs in sets]
    images, labels = sets[0]
    for name, (imgs, labs) in zip(("training", "test"), sets):
        if labs.shape != imgs.shape[:1]:
            raise ShapeError(f"label shape {labs.shape} does not match {len(imgs)} images")
        if imgs.shape[1:] != images.shape[1:]:
            raise ShapeError(f"test image shape {imgs.shape[1:]} does not match training images {images.shape[1:]}")
        if len(imgs) == 0:
            raise ShapeError(f"the {name} set is empty")
    if class_count is None:
        class_count = int(labels.max()) + 1
    if any(np.any(labs >= class_count) or np.any(labs < 0) for _, labs in sets):
        raise ShapeError("labels must lie in [0, class_count)")

    init_rng = substream(config.seed, "init")
    geom = images.shape[1:]
    layers = []
    for spec in list(extractor_specs) + list(head_specs):
        layer, geom = init_layer(spec, geom, init_rng)
        layers.append(layer)
    n_ext = len(list(extractor_specs))
    model = ModelBundle(layers[:n_ext], layers[n_ext:], class_count, tuple(images.shape[1:]))

    all_layers = model.extractor + model.head
    velocity = [{k: np.zeros_like(v) for k, v in ly.weights.items()} for ly in all_layers]

    shuffle_rng = substream(config.seed, "shuffle")
    n = len(images)
    step = 0
    for _epoch in range(config.epochs):
        order = shuffle_rng.permutation(n)
        for lo in range(0, n, config.batch_size):
            idx = order[lo : lo + config.batch_size]
            x, y = images[idx], labels[idx]
            # the bundle's two schedules: the head, with no conv layer, runs as one block
            features, ext_caches = _run(model.schedule, x, keep_caches=True)
            out, head_caches = _run(model.head_schedule, features, keep_caches=True)
            loss = -float(np.mean(out[np.arange(len(y)), y]))
            if not np.isfinite(loss):
                raise TrainingError(f"loss became non-finite at step {step}", step=step)
            g = np.zeros_like(out)
            g[np.arange(len(y)), y] = -1.0 / len(y)
            g, head_grads = backward_layers(model.head, head_caches, g)
            _, ext_grads = backward_layers(model.extractor, ext_caches, g, input_grad=False)
            for ly, vel, wg in zip(all_layers, velocity, ext_grads + head_grads):
                for name, grad in wg.items():
                    vel[name] = MOMENTUM * vel[name] - config.learning_rate * grad
                    ly.weights[name] += vel[name]
            step += 1

    try:  # the last update is checked here, by the accuracy pass's scores
        model.metrics["train_accuracy"] = _accuracy(model, images, labels)
        if len(sets) > 1:
            model.metrics["test_accuracy"] = _accuracy(model, *sets[1])
    except FormatError as exc:
        raise TrainingError(f"the accuracy pass's scores became non-finite at step {step}: {exc}", step=step) from exc
    return model


# ---------------------------------------------------------------------------
# model serialization: manifest JSON + little-endian float64 blob
# ---------------------------------------------------------------------------

def _weight_entries(model: ModelBundle):
    for section, layers in (("extractor", model.extractor), ("head", model.head)):
        for idx, layer in enumerate(layers):
            for name in PARAM_ORDER.get(layer.spec.kind, ()):
                yield f"{section}.{idx}.{name}", layer.weights[name]


def save_model(model: ModelBundle, path: str):
    """Write `path/manifest.json` and `path/weights.bin` (bit-exact round trip)."""
    os.makedirs(path, exist_ok=True)
    entries = list(_weight_entries(model))
    manifest = {
        "format_version": FORMAT_VERSION,
        "input_shape": list(model.input_shape),
        "class_count": model.class_count,
        "extractor": [ly.spec.to_json() for ly in model.extractor],
        "head": [ly.spec.to_json() for ly in model.head],
        "weights": [{"name": name, "shape": list(arr.shape)} for name, arr in entries],
        "metrics": model.metrics,
    }
    write_json(os.path.join(path, "manifest.json"), manifest)
    blob = np.concatenate([arr.ravel() for _, arr in entries]) if entries else np.zeros(0)
    write_file(os.path.join(path, "weights.bin"), blob.astype("<f8").tobytes())


def _is_int_list(value, minimum: int) -> bool:
    return isinstance(value, list) and all(
        is_number(v, integer=True) and v >= minimum for v in value
    )


def _check_manifest(manifest):
    """Raise FormatError unless `manifest` has the structure load_model reads."""
    if not isinstance(manifest, dict):
        raise FormatError("manifest must be a JSON object")
    version = manifest.get("format_version")
    if not (is_number(version, integer=True) and version == FORMAT_VERSION):
        raise FormatError(f"unsupported format_version {version!r}")
    for key in ("input_shape", "class_count", "extractor", "head", "weights"):
        if key not in manifest:
            raise FormatError(f"manifest missing field {key!r}")
    shape = manifest["input_shape"]
    if not (_is_int_list(shape, 1) and len(shape) == 3):
        raise FormatError(f"manifest input_shape must be 3 positive integers, got {shape!r}")
    count = manifest["class_count"]
    if not (is_number(count, integer=True) and count > 0):
        raise FormatError(f"manifest class_count must be a positive integer, got {count!r}")
    for section in ("extractor", "head"):
        layers = manifest[section]
        if not (isinstance(layers, list) and all(isinstance(o, dict) for o in layers)):
            raise FormatError(f"manifest {section} must be a list of layer objects")
    entries = manifest["weights"]
    if not isinstance(entries, list) or not all(
        isinstance(e, dict) and isinstance(e.get("name"), str) and _is_int_list(e.get("shape"), 0)
        for e in entries
    ):
        raise FormatError("manifest weights must be a list of {name, shape} objects")
    if not isinstance(manifest.get("metrics", {}), dict):
        raise FormatError("manifest metrics must be an object")


def load_model(path: str) -> ModelBundle:
    manifest = read_json(os.path.join(path, "manifest.json"))
    _check_manifest(manifest)

    ext_specs = [LayerSpec.from_json(o) for o in manifest["extractor"]]
    head_specs = [LayerSpec.from_json(o) for o in manifest["head"]]
    with open(os.path.join(path, "weights.bin"), "rb") as fh:
        raw = fh.read()
    if len(raw) % 8:
        raise FormatError(f"weights blob is {len(raw)} bytes, not a whole number of float64 values")
    blob = np.frombuffer(raw, dtype="<f8")
    # Python ints: np.prod would wrap around in int64 on huge declared shapes
    sizes = [math.prod(e["shape"]) for e in manifest["weights"]]
    if blob.size != sum(sizes):
        raise FormatError(f"weights blob holds {blob.size} values but manifest declares {sum(sizes)}")

    arrays = {}
    off = 0
    for entry, size in zip(manifest["weights"], sizes):
        if entry["name"] in arrays:
            raise FormatError(f"manifest weight entry {entry['name']!r} appears twice")
        values = blob[off : off + size]
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise FormatError(f"weight entry {entry['name']!r} holds {values[bad[0]]} at flat index {bad[0]}")
        arrays[entry["name"]] = values.reshape(entry["shape"]).copy()
        off += size

    def build(section, specs):
        layers = []
        for idx, spec in enumerate(specs):
            weights = {}
            for name in PARAM_ORDER.get(spec.kind, ()):
                key = f"{section}.{idx}.{name}"
                if key not in arrays:
                    raise FormatError(f"manifest missing weight entry {key!r}")
                weights[name] = arrays.pop(key)
            layers.append(Layer(spec, weights))
        return layers

    extractor, head = build("extractor", ext_specs), build("head", head_specs)
    if arrays:  # every entry is read by exactly one layer, so save_model writes the blob back whole
        raise FormatError(f"manifest weight entry {min(arrays)!r} is read by no layer")
    model = ModelBundle(
        extractor,
        head,
        manifest["class_count"],
        tuple(manifest["input_shape"]),
        metrics=dict(manifest.get("metrics", {})),
    )
    return model


# ---------------------------------------------------------------------------
# reference architecture (28x28 grayscale, 4x4x20 feature grid)
# ---------------------------------------------------------------------------

def reference_extractor_specs():
    return [
        LayerSpec("conv2d", out_channels=10, kernel_size=5, stride=1),
        LayerSpec("relu"),
        LayerSpec("maxpool2d", window=2, stride=2),
        LayerSpec("conv2d", out_channels=20, kernel_size=5, stride=1),
        LayerSpec("relu"),
        LayerSpec("maxpool2d", window=2, stride=2),
    ]


def reference_head_specs(class_count: int = 10):
    return [
        LayerSpec("flatten"),
        LayerSpec("dense", units=50),
        LayerSpec("relu"),
        LayerSpec("dense", units=class_count),
        LayerSpec("log-softmax"),
    ]
