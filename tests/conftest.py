import ctypes
import os
import re
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import strategies as st

from cfedit.data import IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC, gen_shapes
from cfedit.errors import FormatError
from cfedit.grids import FeatureGrid
from cfedit.network import (
    LayerSpec,
    ModelBundle,
    TrainConfig,
    backward_layers,
    forward_feature_pair,
    forward_layers,
    head_logprobs,
    init_layer,
    reference_extractor_specs,
    reference_head_specs,
    tail_gradient,
    train,
)
from cfedit import relaxed
from cfedit.relaxed import RelaxOptConfig, _objective_gradient, best_pair_edits
from cfedit.rng import substream
from cfedit.search import EditProblem

MNIST_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}


def mnist_dir():
    return os.environ.get("CFEDIT_MNIST_DIR", os.path.join(os.path.dirname(__file__), "..", "data", "mnist"))


def mnist_paths_or_skip():
    base = mnist_dir()
    paths = {k: os.path.join(base, v) for k, v in MNIST_FILES.items()}
    missing = [p for p in paths.values() if not os.path.exists(p)]
    if missing:
        pytest.skip(
            "MNIST IDX files not available (set CFEDIT_MNIST_DIR or place them under "
            f"{base}); dataset downloads are blocked in this environment"
        )
    return paths


def write_idx(images_path: str, labels_path: str, images: np.ndarray, labels: np.ndarray):
    """Inverse of load_idx, for fixtures."""
    imgs = np.asarray(images)
    if imgs.ndim == 4 and imgs.shape[3] == 1:
        imgs = imgs[..., 0]
    data = np.round(np.clip(imgs, 0, 1) * 255.0).astype(np.uint8)
    n, rows, cols = data.shape
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, n, rows, cols))
        fh.write(data.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", IDX_LABELS_MAGIC, n))
        fh.write(np.asarray(labels, dtype=np.uint8).tobytes())


def json_containers(inner):
    """Small JSON lists and objects of `inner`: the `extend` of a recursive
    JSON-value strategy, a named function so that Hypothesis reads all of it
    when it checks that the function uses its argument."""
    return st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3)


def tree_bytes(root) -> dict:
    """{path relative to `root`: contents} for every file under the directory `root` (a Path)."""
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


_RASTER_HEADER = re.compile(rb"P5\s+(\d+)\s+(\d+)\s+(\d+)\s")


def read_raster(path: str) -> np.ndarray:
    """Inverse of write_rasters (binary PGM, maxval 255), for checking rendered files."""
    with open(path, "rb") as fh:
        blob = fh.read()
    # exactly one whitespace byte ends the header; pixel bytes may look like whitespace
    header = _RASTER_HEADER.match(blob)
    if header is None:
        raise FormatError(f"{path}: not a binary PGM file")
    w, h, maxval = (int(v) for v in header.group(1, 2, 3))
    if maxval != 255:
        raise FormatError(f"{path}: unsupported maxval {maxval}")
    data = np.frombuffer(blob[header.end() : header.end() + h * w], dtype=np.uint8)
    if data.size != h * w:
        raise FormatError(f"{path}: truncated pixel data")
    return data.reshape(h, w).astype(np.float64) / 255.0


def make_model(ext_specs, head_specs, input_shape, class_count, seed=0) -> ModelBundle:
    rng = substream(seed, "init")
    geom = tuple(input_shape)
    layers = []
    for spec in list(ext_specs) + list(head_specs):
        layer, geom = init_layer(spec, geom, rng)
        layers.append(layer)
    n = len(list(ext_specs))
    return ModelBundle(layers[:n], layers[n:], class_count, tuple(input_shape))


def identity_feature_model(h, w, d, class_count, seed=0, linear=True) -> ModelBundle:
    """Model whose extractor is a 1x1 identity conv: feature grid == input pixels."""
    head = (
        [LayerSpec("flatten"), LayerSpec("dense", units=class_count), LayerSpec("log-softmax")]
        if linear
        else [
            LayerSpec("flatten"),
            LayerSpec("dense", units=8),
            LayerSpec("relu"),
            LayerSpec("dense", units=class_count),
            LayerSpec("log-softmax"),
        ]
    )
    model = make_model(
        [LayerSpec("conv2d", out_channels=d, kernel_size=1, stride=1)], head, (h, w, d), class_count, seed
    )
    kernel = model.extractor[0].weights["kernel"]
    kernel[...] = np.eye(d).reshape(1, 1, d, d)
    model.extractor[0].weights["bias"][...] = 0.0
    return model


def random_grid(rng, h, w, d) -> FeatureGrid:
    return FeatureGrid(h, w, d, rng.normal(size=(h * w, d)))


def pack_logits(alpha, M) -> np.ndarray:
    """The relaxed solver's packed (..., n+1, n) logits: the gate logits
    `alpha` (..., n) in row 0 over the alignment logits `M` (..., n, n)."""
    return np.concatenate([np.asarray(alpha, dtype=np.float64)[..., None, :], M], axis=-2)


def unpack(X) -> tuple:
    """Views of the gate row and of the alignment rows of packed logits, or of
    anything packed as they are (their gradient, their softmax)."""
    return X[..., 0, :], X[..., 1:, :]


def layered_tail_gradient(model, onehot, z):
    """`network.tail_gradient` rebuilt layer by layer: `forward_layers` with
    caches over the head's layers after its first dense one, then
    `backward_layers` from the one-hot output gradient.  The fused pass
    performs the same operations in the same order, so the two agree in
    every bit."""
    _, caches = forward_layers(model.head[2:], z, keep_caches=True)
    return backward_layers(model.head[2:], caches, onehot)[0]


def one_hot(model, targets) -> np.ndarray:
    """The (len(targets), classes) one-hot rows of the classes `targets`."""
    return np.eye(model.class_count)[list(targets)]


def first_dense(model, F) -> np.ndarray:
    """The (B, units) first dense outputs of a (B, n, d) stack of grid
    values, one product per grid, as `search.EditProblem.z0` computes them."""
    (weight, bias), *_ = model.mlp
    return np.stack([f.reshape(-1) @ weight + bias for f in F])


def transformed(F, F2, a, P) -> np.ndarray:
    """The paper's edit (1 - a) o F + a o (P @ F2), built explicitly on
    (..., n, d) grid values with (..., n) gates `a` and (..., n, n)
    alignments `P`: the reference for the first dense outputs that both
    searches form without building it, and for the relaxed objective."""
    gate = np.asarray(a, dtype=np.float64)[..., None]
    return (1.0 - gate) * F + gate * (P @ F2)


def entropy(p) -> np.ndarray:
    """-sum p ln p along the last axis, with 0 ln 0 = 0."""
    return -(p * np.log(np.where(p > 0, p, 1.0))).sum(axis=-1)


def gradient_operands(model, F, F2) -> tuple:
    """`_objective_gradient`'s (model, WT, F, F2, F2T) arguments for the
    (B, n, d) grid values F and F2, with the contiguous transposes the
    solver makes."""
    WT = np.ascontiguousarray(model.mlp[0][0].T)
    return model, WT, F, F2, np.ascontiguousarray(F2.transpose(0, 2, 1))


def objective_one(model, F, F2, target, alpha, M) -> tuple:
    """The relaxed objective of one problem, its gradients w.r.t. the gate
    and alignment logits, the gate and the alignment.  The objective is
    built here: the head's target log-probability of the paper's edit,
    built explicitly (`transformed`) from the softmax gate and alignment
    rows the solver forms, less the gate's entropy and the gate-weighted
    alignment entropies.  The gradients are `_objective_gradient`'s, on a
    stack of one."""
    z0 = first_dense(model, F.values[None])
    X = pack_logits(alpha, M)[None]
    operands = gradient_operands(model, F.values[None], F2.values[None])
    dX, S = _objective_gradient(*operands, z0, one_hot(model, [target]), X)
    a, P = unpack(S[0])
    edited = FeatureGrid(F.h, F.w, F.d, transformed(F.values, F2.values, a, P))
    objective = head_logprobs(model, edited)[target] - relaxed.ENTROPY_WEIGHT * (entropy(a) + a @ entropy(P))
    return (objective, *unpack(dX[0]), a, P)


def relaxed_first_dense(model, F, F2, z0, targets, X) -> tuple:
    """The (B, units) first dense outputs z that `_objective_gradient`
    forms from the (B, n, d) grid values F and F2, their z0 and the packed
    logits X, caught by a spy on its `tail_gradient` call; and S =
    softmax(X), the gates and alignments they were formed with, packed as X
    is."""
    seen = []

    def spy(model, onehot, z):
        seen.append(z.copy())
        return tail_gradient(model, onehot, z)

    with mock.patch.object(relaxed, "tail_gradient", spy):
        _, S = _objective_gradient(*gradient_operands(model, F, F2), z0, one_hot(model, targets), X)
    return seen[0], S


def single_edit(F: FeatureGrid, F2: FeatureGrid, i: int, j2: int) -> FeatureGrid:
    """F with row i replaced by row j2 of F2: the edited grid that the
    per-grid references below run the head on."""
    out = F.values.copy()
    out[i] = F2.values[j2]
    return FeatureGrid(F.h, F.w, F.d, out)


def solve_exhaustive(model, F, F2, target_class, excluded_query=(), excluded_source=()):
    """`EditProblem.step` on one problem: (query cell, source cell, target-class score)."""
    i, j2, lp = EditProblem(model, F, F2, target_class, excluded_query, excluded_source).step()
    return i, j2, float(lp[target_class])


def solve_relaxed(model, instances, opt=RelaxOptConfig()):
    """The relaxed solver on (F, F2, target_class, excluded_query,
    excluded_source) instances, each posed as an `EditProblem`: per instance,
    (query cell, source cell, target-class score, steps, converged)."""
    problems = [EditProblem(model, *inst) for inst in instances]
    solved = best_pair_edits(model, problems, opt)
    return [(i, j2, float(lp[p.target]), steps, conv) for p, (i, j2, lp, steps, conv) in zip(problems, solved)]


def relaxed_replay(model, query, distractor, target, policy, opt):
    """Greedy's relaxed strategy computed per grid, every step from scratch:
    `solve_relaxed` on the edited grid with the used cells excluded,
    then the edit applied with `single_edit` and the head run on the new
    grid.  Returns (edits as quads, trajectory, status)."""
    F, F2 = forward_feature_pair(model, query, distractor)
    lp = head_logprobs(model, F)
    query_class = lp.argmax()
    trajectory = [(lp[query_class], lp[target])]
    quads, ex_q, ex_s = [], [], []
    state, status = F, "flipped" if query_class == target else "exhausted"
    while status == "exhausted" and len(quads) < F.cells:
        i, j2, *_ = solve_relaxed(model, [(state, F2, target, ex_q, ex_s)], opt)[0]
        state = single_edit(state, F2, i, j2)
        quads.append((i // F.w, i % F.w, j2 // F.w, j2 % F.w))
        ex_q.append(i)
        if policy == "query-and-distractor-cells":
            ex_s.append(j2)
        lp = head_logprobs(model, state)
        trajectory.append((lp[query_class], lp[target]))
        if lp.argmax() == target:
            status = "flipped"
    return tuple(quads), tuple(trajectory), status


def candidate_scores(model, F, F2, target_class, rows) -> np.ndarray:
    """Target-class log-probability of every single edit of the query cells
    `rows` (ascending), as an (hw, hw) array indexed by (query cell, source
    cell), every other row -inf: the blocks that exhaustive search scores."""
    n = F.cells
    out = np.full((n, n), -np.inf)
    for q, block, _, _ in EditProblem(model, F, F2, target_class).blocks(np.asarray(rows, int)):
        out[q] = block
    return out


def brute_force_best_edit(model, F, F2, target_class, excluded_query=(), excluded_source=()):
    """Independent double-loop oracle: materialize every edited grid, run the head."""
    best = None
    for i in range(F.cells):
        if i in set(excluded_query):
            continue
        for j in range(F.cells):
            if j in set(excluded_source):
                continue
            score = head_logprobs(model, single_edit(F, F2, i, j))[target_class]
            if best is None or score > best[2]:
                best = (i, j, score)
    return best


@pytest.fixture(scope="session")
def digits_surrogate():
    """Real handwritten digits (8x8 UCI set) upsampled to the 28x28 reference
    input; desk-scale stand-in where MNIST itself is unavailable."""
    sklearn_datasets = pytest.importorskip("sklearn.datasets")
    X, y = sklearn_datasets.load_digits(return_X_y=True)
    imgs = X.reshape(-1, 8, 8) / 16.0
    imgs = np.pad(np.repeat(np.repeat(imgs, 3, axis=1), 3, axis=2), ((0, 0), (2, 2), (2, 2)))
    order = np.random.default_rng(0).permutation(len(imgs))
    imgs, y = imgs[order], y[order].astype(int)
    split = 1437
    return {
        "train_images": imgs[:split],
        "train_labels": y[:split],
        "test_images": imgs[split:],
        "test_labels": y[split:],
    }


@pytest.fixture(scope="session")
def digits_model(digits_surrogate):
    return train(
        reference_extractor_specs(),
        reference_head_specs(10),
        digits_surrogate["train_images"],
        digits_surrogate["train_labels"],
        TrainConfig(epochs=12, seed=0, learning_rate=0.05),
        test_images=digits_surrogate["test_images"],
        test_labels=digits_surrogate["test_labels"],
        class_count=10,
    )


@pytest.fixture(scope="session")
def shapes_model():
    """Reference architecture trained for a few seconds on 600 28x28 shapes
    (train accuracy 0.95): an always-available stand-in for the MNIST model."""
    ds = gen_shapes(600, size=28, seed=0, split="train")
    return train(
        reference_extractor_specs(),
        reference_head_specs(ds.class_count),
        ds.images,
        ds.labels,
        TrainConfig(epochs=8, seed=0, learning_rate=0.05),
        class_count=ds.class_count,
    )


def blas_kernel(lib) -> str:
    """The kernel a scipy-openblas library `lib` (a `ctypes.CDLL`) picked at
    run time, or "unknown" when it has no such query."""
    try:
        corename = lib.scipy_openblas_get_corename64_
    except AttributeError:
        return "unknown"
    corename.restype = ctypes.c_char_p
    return corename().decode("ascii")


def blas_line() -> str:
    """numpy's BLAS, its version and the kernel it runs on, in one line.  The
    kernel is looked up through numpy's own extension module, whose
    dependencies hold the BLAS numpy loaded."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    kernel = blas_kernel(ctypes.CDLL(np._core._multiarray_umath.__file__))
    return f"BLAS: {blas.get('name')} {blas.get('version')}, kernel {kernel}"


def pytest_terminal_summary(terminalreporter):
    """Name the BLAS kernel in the summary, which shows under -q too: bits
    of some search tests depend on it (ROADMAP item 4)."""
    terminalreporter.write_line(blas_line())
