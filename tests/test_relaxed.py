import numpy as np
import pytest

from cfedit import relaxed
from cfedit.errors import ExhaustedError
from cfedit.grids import FeatureGrid
from cfedit.network import head_logprobs
from cfedit.relaxed import MASK_LOGIT, RelaxOptConfig
from cfedit.search import EditProblem, best_edit_exhaustive

from conftest import (
    first_dense,
    gradient_operands,
    identity_feature_model,
    layered_tail_gradient,
    objective_one,
    one_hot,
    pack_logits,
    random_grid,
    relaxed_first_dense,
    single_edit,
    solve_exhaustive,
    solve_relaxed,
    transformed,
    unpack,
)


def solver_softmax(x) -> np.ndarray:
    """The S that `_objective_gradient` returns for packed logits whose every
    row is x, on a zero 1 x len(x) x 1 grid: every row is softmax(x)."""
    n = len(x)
    model = identity_feature_model(1, n, 1, 2)
    F = np.zeros((1, n, 1))
    X = np.tile(np.asarray(x, dtype=np.float64), (1, n + 1, 1))
    _, S = relaxed._objective_gradient(*gradient_operands(model, F, F), first_dense(model, F), one_hot(model, [0]), X)
    return S[0]


class TestSoftmax:
    """The softmax that gives the solver's gate and alignment rows."""

    def test_uniform_on_zeros(self):
        np.testing.assert_allclose(solver_softmax(np.zeros(7)), np.full((8, 7), 1 / 7), atol=1e-15)

    def test_exact_log_ratios(self):
        out = solver_softmax(np.log([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(out, np.tile([1 / 6, 2 / 6, 3 / 6], (4, 1)), atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=10) * 5
        np.testing.assert_allclose(solver_softmax(x), solver_softmax(x + 123.456), atol=1e-12)

    def test_stable_for_large_logits(self):
        out = solver_softmax(np.array([1e4, 0.0]))
        assert np.isfinite(out).all() and out[:, 0] == pytest.approx(1.0)


def entropy_terms(monkeypatch, alpha, M, weight):
    """Target log-probability of the blend minus the reference objective
    (`objective_one`): the entropy penalty it subtracts at logits (alpha, M)
    under this weight."""
    monkeypatch.setattr(relaxed, "ENTROPY_WEIGHT", weight)
    n = len(alpha)
    rng = np.random.default_rng(n)
    model = identity_feature_model(1, n, 1, 2, seed=n)
    F, F2 = random_grid(rng, 1, n, 1), random_grid(rng, 1, n, 1)
    objective, _, _, a, P = objective_one(model, F, F2, 1, alpha, M)
    blend = FeatureGrid(1, n, 1, (1.0 - a[:, None]) * F.values + a[:, None] * (P @ F2.values))
    return head_logprobs(model, blend)[1] - objective


def record_ascent(monkeypatch) -> list:
    """A spy on `relaxed._objective_gradient` for the rest of the test: the
    returned list gets one (X, gradient, S, z0) tuple per call, for the
    problems stacked in it, with X copied as the call saw it and the
    gradient as the call returned it (the solver updates its packed logits
    in place, and takes the Adam update on the gradient's buffer)."""
    calls = []
    evaluate = relaxed._objective_gradient

    def spy(model, WT, F, F2, F2T, z0, onehot, X):
        dX, S = evaluate(model, WT, F, F2, F2T, z0, onehot, X)
        calls.append((X.copy(), dX.copy(), S, z0))
        return dX, S

    monkeypatch.setattr(relaxed, "_objective_gradient", spy)
    return calls


def stacked_rows(model, problems, calls) -> list:
    """Per call that `record_ascent` saw, {problem index: its row in that
    call's stack}, in row order, for (F, F2, target, excluded_query,
    excluded_source) problems, each known by its z0 row."""
    keys = {first_dense(model, F.values[None])[0].tobytes(): k for k, (F, *_) in enumerate(problems)}
    assert len(keys) == len(problems)
    return [{keys[row.tobytes()]: r for r, row in enumerate(z0)} for *_, z0 in calls]


def one_hot_rows(n):
    return np.where(np.eye(n) > 0, 0.0, MASK_LOGIT)


class TestEntropy:
    """The Shannon entropies -sum p ln p (with 0 ln 0 = 0) of the gate and of
    the alignment rows, as the objective subtracts them."""

    def test_one_hot_is_zero(self, monkeypatch):
        alpha = np.array([MASK_LOGIT, 0.0, MASK_LOGIT])
        assert entropy_terms(monkeypatch, alpha, one_hot_rows(3), 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_is_log_n(self, monkeypatch):
        gate = entropy_terms(monkeypatch, np.zeros(8), one_hot_rows(8), 1.0)
        both = entropy_terms(monkeypatch, np.zeros(8), np.zeros((8, 8)), 1.0)
        assert gate == pytest.approx(np.log(8), abs=1e-12)
        assert both - gate == pytest.approx(np.log(8), abs=1e-12)  # gate mass sums to 1

    def test_half_half(self, monkeypatch):
        alpha = np.array([0.0, 0.0, MASK_LOGIT])
        penalty = entropy_terms(monkeypatch, alpha, one_hot_rows(3), 1.0)
        assert penalty == pytest.approx(np.log(2), abs=1e-12)

    def test_nonnegative(self, monkeypatch):
        rng = np.random.default_rng(1)
        for _ in range(20):
            alpha, M = rng.normal(size=6) * 3, rng.normal(size=(6, 6)) * 3
            assert entropy_terms(monkeypatch, alpha, M, 1.0) >= -1e-12


class TestEditTransform:
    """The relaxed solver's first dense output z against the paper's edit
    built explicitly (`transformed`), on hand-set 2x2 grids."""

    F = FeatureGrid(2, 2, 1, np.array([[1.0], [2.0], [3.0], [4.0]]))
    F2 = FeatureGrid(2, 2, 1, np.array([[5.0], [6.0], [7.0], [8.0]]))

    def z(self, model, F, F2, X):
        z0 = first_dense(model, F.values[None])
        return relaxed_first_dense(model, F.values[None], F2.values[None], z0, [0], X[None])[0][0]

    def test_hand_case_cell0_from_cell3(self):
        # one-hot gate at cell 0, alignment row 0 <- cell 3: the edited grid is [8, 2, 3, 4]
        model = identity_feature_model(2, 2, 1, 3, seed=4)
        weight, bias = model.mlp[0]
        sources = [3, 1, 2, 0]
        edited = transformed(self.F.values, self.F2.values, np.eye(4)[0], np.eye(4)[sources])
        np.testing.assert_array_equal(edited, [[8.0], [2.0], [3.0], [4.0]])
        X = pack_logits(np.where(np.arange(4) == 0, 0.0, MASK_LOGIT), np.where(np.eye(4)[sources] > 0, 0.0, MASK_LOGIT))
        problem = EditProblem(model, self.F, self.F2, 0)
        z = self.z(model, self.F, self.F2, X)
        np.testing.assert_allclose(z, edited.reshape(-1) @ weight + bias, rtol=0, atol=1e-12)
        np.testing.assert_allclose(z, problem.contraction_rows([0])[0, 3] + problem.z0, rtol=0, atol=1e-12)

    def test_self_copy_is_identity(self):
        # a cell copied onto itself adds an exact zero: z stays at z0, bit for bit
        model = identity_feature_model(2, 2, 1, 3, seed=5)
        z0 = first_dense(model, self.F.values[None])[0]
        for i in range(4):
            X = pack_logits(np.where(np.arange(4) == i, 0.0, MASK_LOGIT), one_hot_rows(4))
            assert self.z(model, self.F, self.F, X).tobytes() == z0.tobytes()
            problem = EditProblem(model, self.F, self.F, 0)
            assert (problem.contraction_rows([i])[0, i] + problem.z0).tobytes() == problem.z0.tobytes()

    def test_matches_scalar_loop_oracle(self):
        # one-hot gate and permutation alignment on random grid sizes, against
        # a per-cell, per-channel evaluation of the paper's edit
        rng = np.random.default_rng(7)
        for seed in range(20):
            h, w, d = (int(v) for v in rng.integers(1, 4, size=3))
            n = h * w
            F, F2 = random_grid(rng, h, w, d), random_grid(rng, h, w, d)
            i, sources = int(rng.integers(n)), rng.permutation(n)
            model = identity_feature_model(h, w, d, 3, seed=seed)
            weight, bias = model.mlp[0]
            a, P = np.eye(n)[i], np.eye(n)[sources]
            oracle = np.zeros_like(F.values)
            for k in range(n):
                for c in range(d):
                    mixed = sum(P[k, j] * F2.values[j, c] for j in range(n))
                    oracle[k, c] = (1 - a[k]) * F.values[k, c] + a[k] * mixed
            X = pack_logits(np.where(a > 0, 0.0, MASK_LOGIT), np.where(P > 0, 0.0, MASK_LOGIT))
            np.testing.assert_allclose(self.z(model, F, F2, X), oracle.reshape(-1) @ weight + bias, rtol=0, atol=1e-12)

    def test_affine_in_the_gate(self):
        # under a fixed alignment, z at the mean of two gates is the mean of their z
        rng = np.random.default_rng(5)
        F, F2 = random_grid(rng, 2, 2, 3), random_grid(rng, 2, 2, 3)
        model = identity_feature_model(2, 2, 3, 3, seed=6)
        w1, w2 = rng.dirichlet(np.ones(4), size=2)
        M = np.zeros((4, 4))
        mid = self.z(model, F, F2, pack_logits(np.log((w1 + w2) / 2), M))
        avg = (self.z(model, F, F2, pack_logits(np.log(w1), M)) + self.z(model, F, F2, pack_logits(np.log(w2), M))) / 2
        np.testing.assert_allclose(mid, avg, rtol=0, atol=1e-9)

    def test_inputs_unmodified(self):
        rng = np.random.default_rng(8)
        F, F2 = rng.normal(size=(2, 1, 4, 2))
        model = identity_feature_model(2, 2, 2, 3, seed=7)
        z0 = first_dense(model, F)
        X = rng.normal(size=(1, 5, 4))
        before = [v.copy() for v in (F, F2, z0, X)]
        relaxed_first_dense(model, F, F2, z0, [0], X)
        for after, kept in zip((F, F2, z0, X), before):
            np.testing.assert_array_equal(after, kept)


class TestObjectiveGradients:
    def test_finite_differences(self):
        rng = np.random.default_rng(3)
        for k in range(5):
            model = identity_feature_model(3, 3, 2, 3, seed=400 + k, linear=bool(k % 2))
            F = random_grid(rng, 3, 3, 2)
            F2 = random_grid(rng, 3, 3, 2)
            target = int(rng.integers(3))
            alpha = rng.normal(size=9) * 0.5
            M = rng.normal(size=(9, 9)) * 0.5
            _, dalpha, dM, _, _ = objective_one(model, F, F2, target, alpha, M)
            eps = 1e-5

            def obj(al, mm):
                return objective_one(model, F, F2, target, al, mm)[0]

            fd_alpha = np.zeros(9)
            for i in range(9):
                up, dn = alpha.copy(), alpha.copy()
                up[i] += eps
                dn[i] -= eps
                fd_alpha[i] = (obj(up, M) - obj(dn, M)) / (2 * eps)
            assert np.abs(fd_alpha - dalpha).max() / max(np.abs(fd_alpha).max(), 1e-12) <= 1e-4

            fd_M = np.zeros((9, 9))
            for i in range(9):
                for j in range(9):
                    up, dn = M.copy(), M.copy()
                    up[i, j] += eps
                    dn[i, j] -= eps
                    fd_M[i, j] = (obj(alpha, up) - obj(alpha, dn)) / (2 * eps)
            assert np.abs(fd_M - dM).max() / max(np.abs(fd_M).max(), 1e-12) <= 1e-4

    def test_constraints_hold_every_step(self, monkeypatch):
        rng = np.random.default_rng(4)
        model = identity_feature_model(2, 2, 2, 3, seed=9)
        F = random_grid(rng, 2, 2, 2)
        F2 = random_grid(rng, 2, 2, 2)
        calls = record_ascent(monkeypatch)
        _, _, _, steps, _ = solve_relaxed(model, [(F, F2, 1, (), ())], RelaxOptConfig(max_steps=50))[0]
        assert len(calls) == steps > 1
        for _, _, S, _ in calls:
            a, P = unpack(S[0])
            assert np.all(a >= 0) and abs(a.sum() - 1) < 1e-6
            assert np.all(P >= 0)
            np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-6)

    def test_first_step_moves_each_logit_by_learning_rate(self, monkeypatch):
        # bias-corrected Adam's first step is lr * g / (|g| + eps): about the
        # step size times the gradient's sign, and exactly 0 on a closed cell
        rng = np.random.default_rng(5)
        model = identity_feature_model(3, 3, 2, 3, seed=21, linear=False)
        F = random_grid(rng, 3, 3, 2)
        F2 = random_grid(rng, 3, 3, 2)
        calls = record_ascent(monkeypatch)
        solve_relaxed(model, [(F, F2, 2, [4], [0, 7])], RelaxOptConfig(learning_rate=0.25, max_steps=2))
        (X0, dX, _, _), (X1, *_) = calls
        alpha0, M0 = unpack(X0[0])
        _, dalpha, dM, _, _ = objective_one(model, F, F2, 2, alpha0, M0)
        np.testing.assert_array_equal(dX[0], pack_logits(dalpha, dM))
        np.testing.assert_allclose(X1 - X0, 0.25 * dX / (np.abs(dX) + 1e-8), rtol=1e-9, atol=0)
        assert np.all((X1 == X0) == (dX == 0)) and np.all(X1[0, 0, [4]] == MASK_LOGIT)

    def test_adam_steps_match_textbook_adam(self):
        # the solver's Adam keeps unscaled moments and folds (1 - beta) and the
        # bias corrections into its step size and ε; textbook bias-corrected
        # Adam (Kingma & Ba, Algorithm 1) takes the same steps.  A logit whose
        # every gradient is exactly 0, as a closed cell's is, never moves
        rng = np.random.default_rng(7)
        grads = rng.normal(size=(24, 2, 5, 4))
        grads[rng.random(grads.shape) < 0.2] = 0.0
        closed = rng.random(grads.shape[1:]) < 0.2
        grads[:, closed] = 0.0
        X = np.where(closed, MASK_LOGIT, 0.0)
        m, v, m_book, v_book = (np.zeros_like(X) for _ in range(4))
        b1, b2, eps, lr = relaxed.ADAM_BETA1, relaxed.ADAM_BETA2, relaxed.ADAM_EPS, 0.3
        for t, g in enumerate(grads, 1):
            m_book = b1 * m_book + (1 - b1) * g
            v_book = b2 * v_book + (1 - b2) * g * g
            want = lr * (m_book / (1 - b1**t)) / (np.sqrt(v_book / (1 - b2**t)) + eps)
            step = relaxed._adam_step(g.copy(), m, v, t, lr)
            np.testing.assert_allclose(step, want, rtol=1e-12, atol=0)
            assert np.all(step[closed] == 0.0)
            X += step
        assert closed.any() and np.all(X[closed] == MASK_LOGIT) and np.all(X[~closed] != 0.0)


class TestBestEditRelaxed:
    def test_converges_on_dominant_linear_instance(self):
        model = identity_feature_model(2, 2, 1, 2, seed=0)
        model.head[1].weights["weight"][...] = 0.0
        model.head[1].weights["bias"][...] = 0.0
        model.head[1].weights["weight"][0, 1] = 1.0
        F = FeatureGrid(2, 2, 1, np.zeros((4, 1)))
        F2 = FeatureGrid(2, 2, 1, np.array([[9.0], [0.0], [0.0], [0.0]]))
        i, j2, score, steps, _ = solve_relaxed(model, [(F, F2, 1, (), ())])[0]
        assert (i, j2) == best_edit_exhaustive(model, F, F2, 1)[:2] == (0, 0)
        assert steps >= 1

    def test_discrete_score_rule(self):
        rng = np.random.default_rng(6)
        model = identity_feature_model(2, 2, 2, 3, seed=11, linear=False)
        F = random_grid(rng, 2, 2, 2)
        F2 = random_grid(rng, 2, 2, 2)
        i, j2, score, _, _ = solve_relaxed(model, [(F, F2, 2, (), ())])[0]
        # the per-grid reference to within rounding; exhaustive search's scorer bit for bit
        assert score == pytest.approx(head_logprobs(model, single_edit(F, F2, i, j2))[2], rel=1e-12, abs=0)
        scores = EditProblem(model, F, F2, 2).edit_logprobs(i, j2)
        assert score == scores[2]
        best = solve_exhaustive(model, F, F2, 2, [k for k in range(4) if k != i], [k for k in range(4) if k != j2])
        assert best == (i, j2, score)

    def test_masking_soundness(self, monkeypatch):
        rng = np.random.default_rng(7)
        model = identity_feature_model(3, 3, 2, 3, seed=13)
        F = random_grid(rng, 3, 3, 2)
        F2 = random_grid(rng, 3, 3, 2)
        excluded_q = [0, 4]
        excluded_s = [2, 8]
        # inspect the soft distributions at every step of the solve
        calls = record_ascent(monkeypatch)
        i, j2, _, steps, _ = solve_relaxed(model, [(F, F2, 1, excluded_q, excluded_s)], RelaxOptConfig(max_steps=60))[0]
        assert len(calls) == steps > 1
        for _, _, S, _ in calls:
            a, P = unpack(S[0])
            assert np.all(a[excluded_q] < 1e-12)
            assert np.all(P[:, excluded_s] < 1e-12)
        assert i not in excluded_q
        assert j2 not in excluded_s

    def test_closed_logits_stay_exactly_masked(self, monkeypatch):
        # closed cells get exactly zero gradient, so zero Adam moments and zero steps
        rng = np.random.default_rng(12)
        model = identity_feature_model(3, 3, 2, 3, seed=17, linear=False)
        F = random_grid(rng, 3, 3, 2)
        F2 = random_grid(rng, 3, 3, 2)
        excluded_q = [1, 5, 6]
        excluded_s = [0, 7]
        calls = record_ascent(monkeypatch)
        solve_relaxed(model, [(F, F2, 0, excluded_q, excluded_s)])
        assert len(calls) > 1
        for X, dX, *_ in calls:
            alpha, M = unpack(X[0])
            assert np.all(alpha[excluded_q] == MASK_LOGIT)
            assert np.all(M[:, excluded_s] == MASK_LOGIT)
            assert np.all(dX[0, 0, excluded_q] == 0.0) and np.all(dX[0, 1:, excluded_s] == 0.0)
        open_q = np.setdiff1d(np.arange(9), excluded_q)
        open_s = np.setdiff1d(np.arange(9), excluded_s)
        assert np.all(alpha[open_q] != 0.0) and np.all(np.abs(alpha[open_q]) < 1e3)
        assert np.all(M[np.ix_(open_q, open_s)] != 0.0)

    def test_all_excluded_raises(self):
        model = identity_feature_model(2, 2, 1, 2)
        F = FeatureGrid(2, 2, 1, np.zeros((4, 1)))
        with pytest.raises(ExhaustedError):
            solve_relaxed(model, [(F, F, 1, range(4), ())])

    def test_zero_entropy_dominant_edit_agreement_rate(self, monkeypatch):
        # local optima are possible: log failures, assert a loose majority
        monkeypatch.setattr(relaxed, "ENTROPY_WEIGHT", 0.0)
        rng = np.random.default_rng(8)
        opt = RelaxOptConfig()
        agree = 0
        trials = 20
        for k in range(trials):
            model = identity_feature_model(2, 2, 1, 2, seed=500 + k)
            F = random_grid(rng, 2, 2, 1)
            F2 = FeatureGrid(2, 2, 1, rng.normal(size=(4, 1)) * 5)
            want = best_edit_exhaustive(model, F, F2, 1)[:2]
            got = solve_relaxed(model, [(F, F2, 1, (), ())], opt)[0][:2]
            agree += got == want
        assert agree / trials >= 0.75


def lockstep_problems():
    """Problems on one 3x3x2 model: open, with exclusions on both sides, and
    one with a single open query and source cell, whose gate and alignment
    are one-hot from the start so it stops on step 1."""
    rng = np.random.default_rng(30)
    model = identity_feature_model(3, 3, 2, 3, seed=31, linear=False)
    exclusions = [((), ()), ([0, 4], [2, 8]), ((), [1]), ([3], ()), ([k for k in range(9) if k != 5], range(1, 9))]
    problems = []
    for k in range(12):
        exq, exs = exclusions[k % len(exclusions)]
        problems.append((random_grid(rng, 3, 3, 2), random_grid(rng, 3, 3, 2), k % 3, exq, exs))
    return model, problems


class TestLockstepBatches:
    def test_each_problem_matches_its_solo_solve(self):
        model, problems = lockstep_problems()
        order = np.random.default_rng(32).permutation(len(problems))
        shuffled = [problems[k] for k in order]
        opt = RelaxOptConfig()
        batch = solve_relaxed(model, shuffled, opt)
        assert batch == [solve_relaxed(model, [problem], opt)[0] for problem in shuffled]
        single = batch[list(order).index(4)]  # the problem with one open query and source cell
        assert single[:2] == (5, 0) and single[3] == 1
        assert max(steps for *_, steps, _ in batch) > 1

    def test_converged_means_last_step_met_the_stop_test(self, monkeypatch):
        model, problems = lockstep_problems()
        # two of these problems meet the stop test on exactly their 17th step
        opt = RelaxOptConfig(max_steps=17)
        stop = relaxed.SHARPNESS_STOP
        calls = record_ascent(monkeypatch)
        solved = solve_relaxed(model, problems, opt)
        rows = stacked_rows(model, problems, calls)
        flags = []
        for k, edit in enumerate(solved):
            # its last call is its last step, where it met the stop test or ran out of steps
            assert [t for t, at in enumerate(rows, 1) if k in at][-1] == edit[3]
            a, P = unpack(calls[edit[3] - 1][2][rows[edit[3] - 1][k]])
            i = a.argmax()
            assert edit[4] == (a[i] >= stop and P[i].max() >= stop)
            flags.append((edit[4], edit[3] == opt.max_steps))
        assert {(True, False), (True, True), (False, True)} <= set(flags)

    def test_a_chunk_steps_as_long_as_its_longest_live_problem(self, monkeypatch):
        # 3 problems a chunk: call t of a chunk stacks, in order, exactly its
        # problems with at least t steps, and its ascent ends once none is left
        model, problems = lockstep_problems()
        monkeypatch.setattr(relaxed, "_CHUNK_VALUES", 3 * 9 * (9 + 2))
        calls = record_ascent(monkeypatch)
        opt = RelaxOptConfig()
        steps = [e[3] for e in solve_relaxed(model, problems, opt)]
        stacks = [
            [k for k in range(lo, lo + 3) if steps[k] >= t]
            for lo in range(0, len(steps), 3)
            for t in range(1, max(steps[lo : lo + 3]) + 1)
        ]
        assert [list(at) for at in stacked_rows(model, problems, calls)] == stacks
        assert [len(X) for X, *_ in calls] == [len(stack) for stack in stacks]
        assert max(steps) < opt.max_steps

    def test_frozen_problem_logits_stay_exactly_fixed(self, monkeypatch):
        # a problem that meets the stop test leaves the stack: its logits take no
        # further update, and its edit is the rounding of its last call's S
        model, problems = lockstep_problems()
        calls = record_ascent(monkeypatch)
        solved = solve_relaxed(model, problems, RelaxOptConfig(max_steps=20))
        rows = stacked_rows(model, problems, calls)
        steps = [e[3] for e in solved]
        assert len(calls) == 20 and min(steps) < 20
        for k, (i, j2, _, last, converged) in enumerate(solved):
            # it is in every call up to the step that stopped it, and in none after
            assert [t for t, at in enumerate(rows, 1) if k in at] == list(range(1, last + 1))
            # its logits move at every call it is in
            Xs = [X[at[k]] for (X, *_), at in zip(calls, rows) if k in at]
            assert all(not np.array_equal(x, y) for x, y in zip(Xs, Xs[1:]))
            if converged:
                a, P = unpack(calls[last - 1][2][rows[last - 1][k]])
                assert (i, j2) == (a.argmax(), P[a.argmax()].argmax())

    def test_closed_cells_stay_at_mask_logit(self, monkeypatch):
        model, problems = lockstep_problems()
        calls = record_ascent(monkeypatch)
        solve_relaxed(model, problems)
        rows = stacked_rows(model, problems, calls)
        for k, (_, _, _, exq, exs) in enumerate(problems):
            Xs = [X[at[k]] for (X, *_), at in zip(calls, rows) if k in at]
            assert Xs  # every call it is in
            for x in Xs:
                alpha, M = unpack(x)
                assert np.all(alpha[list(exq)] == MASK_LOGIT)
                assert np.all(M[:, list(exs)] == MASK_LOGIT)
            open_q = np.setdiff1d(np.arange(9), list(exq))
            assert np.all(alpha[open_q] != 0.0) or len(open_q) == 1

    def test_fused_head_pass_gives_identical_solves(self, monkeypatch):
        # the fused head pass against the per-layer forward and backward: no bit changes
        model, problems = lockstep_problems()
        fused = solve_relaxed(model, problems)
        solo = [solve_relaxed(model, [p])[0] for p in problems[:4]]
        monkeypatch.setattr(relaxed, "tail_gradient", layered_tail_gradient)
        assert solve_relaxed(model, problems) == fused
        assert [solve_relaxed(model, [p])[0] for p in problems[:4]] == solo

    @pytest.mark.parametrize("per_chunk", [1, 2, 3])
    def test_smaller_chunks_give_the_same_edits(self, monkeypatch, per_chunk):
        model, problems = lockstep_problems()
        whole = solve_relaxed(model, problems)
        monkeypatch.setattr(relaxed, "_CHUNK_VALUES", per_chunk * 9 * (9 + 2))
        assert solve_relaxed(model, problems) == whole

    def test_no_problems(self):
        model, _ = lockstep_problems()
        assert solve_relaxed(model, []) == []
