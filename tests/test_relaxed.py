import itertools

import numpy as np
import pytest

from cfedit import relaxed
from cfedit.errors import ExhaustedError
from cfedit.grids import FeatureGrid
from cfedit.network import PairEdits, head_logprobs
from cfedit.relaxed import (
    MASK_LOGIT,
    RelaxOptConfig,
    ascent_steps,
    softmax,
)
from cfedit.search import EditProblem, best_edit_exhaustive

from conftest import (
    first_dense,
    identity_feature_model,
    layered_tail_pass,
    objective_one,
    pack_logits,
    random_grid,
    single_edit,
    solve_exhaustive,
    solve_relaxed,
    unpack,
)


class TestSoftmax:
    def test_uniform_on_zeros(self):
        np.testing.assert_allclose(softmax(np.zeros(7)), np.full(7, 1 / 7), atol=1e-15)

    def test_exact_log_ratios(self):
        out = softmax(np.log([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(out, [1 / 6, 2 / 6, 3 / 6], atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=10) * 5
        np.testing.assert_allclose(softmax(x), softmax(x + 123.456), atol=1e-12)

    def test_stable_for_large_logits(self):
        out = softmax(np.array([1e4, 0.0]))
        assert np.isfinite(out).all() and out[0] == pytest.approx(1.0)


def entropy_terms(monkeypatch, alpha, M, weight_gate, weight_align):
    """Target log-probability of the blend minus the objective: the entropy
    penalty the objective subtracts at logits (alpha, M) under these weights."""
    monkeypatch.setattr(relaxed, "ENTROPY_WEIGHT_GATE", weight_gate)
    monkeypatch.setattr(relaxed, "ENTROPY_WEIGHT_ALIGN", weight_align)
    n = len(alpha)
    rng = np.random.default_rng(n)
    model = identity_feature_model(1, n, 1, 2, seed=n)
    F, F2 = random_grid(rng, 1, n, 1), random_grid(rng, 1, n, 1)
    objective, _, _, a, P = objective_one(model, F, F2, 1, alpha, M)
    blend = FeatureGrid(1, n, 1, (1.0 - a[:, None]) * F.values + a[:, None] * (P @ F2.values))
    return head_logprobs(model, blend)[1] - objective


def ascent_one(model, F, F2, target, X, opt):
    """ascent_steps on a batch of one problem, yielding its (objective, a, P)
    at each step; its packed logits X are updated in place."""
    F, F2 = F.values[None], F2.values[None]
    for obj, S, _ in ascent_steps(model, F, F2, first_dense(model, F), [target], X[None], opt):
        yield (obj[0], *unpack(S[0]))


def one_hot_rows(n):
    return np.where(np.eye(n) > 0, 0.0, MASK_LOGIT)


class TestEntropy:
    """The Shannon entropies -sum p ln p (with 0 ln 0 = 0) of the gate and of
    the alignment rows, as the objective subtracts them."""

    def test_one_hot_is_zero(self, monkeypatch):
        alpha = np.array([MASK_LOGIT, 0.0, MASK_LOGIT])
        assert entropy_terms(monkeypatch, alpha, one_hot_rows(3), 1.0, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_is_log_n(self, monkeypatch):
        gate = entropy_terms(monkeypatch, np.zeros(8), one_hot_rows(8), 1.0, 0.0)
        align = entropy_terms(monkeypatch, np.zeros(8), np.zeros((8, 8)), 0.0, 1.0)
        assert gate == pytest.approx(np.log(8), abs=1e-12)
        assert align == pytest.approx(np.log(8), abs=1e-12)  # gate mass sums to 1

    def test_half_half(self, monkeypatch):
        alpha = np.array([0.0, 0.0, MASK_LOGIT])
        penalty = entropy_terms(monkeypatch, alpha, one_hot_rows(3), 1.0, 0.0)
        assert penalty == pytest.approx(np.log(2), abs=1e-12)

    def test_nonnegative(self, monkeypatch):
        rng = np.random.default_rng(1)
        for _ in range(20):
            alpha, M = rng.normal(size=6) * 3, rng.normal(size=(6, 6)) * 3
            assert entropy_terms(monkeypatch, alpha, M, 1.0, 1.0) >= -1e-12


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

    def test_constraints_hold_every_step(self):
        rng = np.random.default_rng(4)
        model = identity_feature_model(2, 2, 2, 3, seed=9)
        F = random_grid(rng, 2, 2, 2)
        F2 = random_grid(rng, 2, 2, 2)
        opt = RelaxOptConfig(max_steps=50)
        X = pack_logits(np.zeros(4), np.zeros((4, 4)))
        steps = 0
        for _, a, P in ascent_one(model, F, F2, 1, X, opt):
            assert np.all(a >= 0) and abs(a.sum() - 1) < 1e-6
            assert np.all(P >= 0)
            np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-6)
            steps += 1
        assert steps == 50

    def test_first_step_moves_each_logit_by_learning_rate(self):
        # bias-corrected Adam's first step is lr * g / (|g| + eps): about the
        # step size times the gradient's sign
        rng = np.random.default_rng(5)
        model = identity_feature_model(3, 3, 2, 3, seed=21, linear=False)
        F = random_grid(rng, 3, 3, 2)
        F2 = random_grid(rng, 3, 3, 2)
        opt = RelaxOptConfig(learning_rate=0.25, max_steps=2)
        X = pack_logits(rng.normal(size=9) * 0.5, rng.normal(size=(9, 9)) * 0.5)
        alpha, M = unpack(X)
        alpha0, M0 = alpha.copy(), M.copy()
        _, dalpha, dM, _, _ = objective_one(model, F, F2, 2, alpha0, M0)
        steps = ascent_one(model, F, F2, 2, X, opt)
        next(steps)
        next(steps)  # resuming runs the first update
        np.testing.assert_allclose(alpha - alpha0, 0.25 * dalpha / (np.abs(dalpha) + 1e-8), rtol=1e-9)
        np.testing.assert_allclose(M - M0, 0.25 * dM / (np.abs(dM) + 1e-8), rtol=1e-9)


class TestBestEditRelaxed:
    def test_converges_on_dominant_linear_instance(self):
        model = identity_feature_model(2, 2, 1, 2, seed=0)
        model.head[1].weights["weight"][...] = 0.0
        model.head[1].weights["bias"][...] = 0.0
        model.head[1].weights["weight"][0, 1] = 1.0
        F = FeatureGrid(2, 2, 1, np.zeros((4, 1)))
        F2 = FeatureGrid(2, 2, 1, np.array([[9.0], [0.0], [0.0], [0.0]]))
        i, j2, score, traj, _ = solve_relaxed(model, [(F, F2, 1, (), ())])[0]
        assert (i, j2) == best_edit_exhaustive(model, F, F2, 1)[:2] == (0, 0)
        assert len(traj) >= 1

    def test_discrete_score_rule(self):
        rng = np.random.default_rng(6)
        model = identity_feature_model(2, 2, 2, 3, seed=11, linear=False)
        F = random_grid(rng, 2, 2, 2)
        F2 = random_grid(rng, 2, 2, 2)
        i, j2, score, _, _ = solve_relaxed(model, [(F, F2, 2, (), ())])[0]
        # the per-grid reference to within rounding; exhaustive search's scorer bit for bit
        assert score == pytest.approx(head_logprobs(model, single_edit(F, F2, i, j2))[2], rel=1e-12, abs=0)
        scores = PairEdits(model, F, F2).edit_logprobs(i, j2)
        assert score == scores[2]
        best = solve_exhaustive(model, F, F2, 2, [k for k in range(4) if k != i], [k for k in range(4) if k != j2])
        assert best == (i, j2, score)

    def test_masking_soundness(self):
        rng = np.random.default_rng(7)
        model = identity_feature_model(3, 3, 2, 3, seed=13)
        F = random_grid(rng, 3, 3, 2)
        F2 = random_grid(rng, 3, 3, 2)
        excluded_q = [0, 4]
        excluded_s = [2, 8]
        opt = RelaxOptConfig(max_steps=60)
        # start from the solver's masked logits and inspect the soft distributions at every step
        X = pack_logits(np.zeros(9), np.zeros((9, 9)))
        alpha, M = unpack(X)
        alpha[excluded_q] = MASK_LOGIT
        M[:, excluded_s] = MASK_LOGIT
        steps = 0
        for _, a, P in ascent_one(model, F, F2, 1, X, opt):
            assert np.all(a[excluded_q] < 1e-12)
            assert np.all(P[:, excluded_s] < 1e-12)
            steps += 1
        assert steps == 60
        i, j2, *_ = solve_relaxed(model, [(F, F2, 1, excluded_q, excluded_s)], opt)[0]
        assert i not in excluded_q
        assert j2 not in excluded_s

    def test_closed_logits_stay_exactly_masked(self):
        # closed cells get exactly zero gradient, so zero Adam moments and zero steps
        rng = np.random.default_rng(12)
        model = identity_feature_model(3, 3, 2, 3, seed=17, linear=False)
        F = random_grid(rng, 3, 3, 2)
        F2 = random_grid(rng, 3, 3, 2)
        opt = RelaxOptConfig()
        excluded_q = [1, 5, 6]
        excluded_s = [0, 7]
        X = pack_logits(np.zeros(9), np.zeros((9, 9)))
        alpha, M = unpack(X)
        alpha[excluded_q] = MASK_LOGIT
        M[:, excluded_s] = MASK_LOGIT
        steps = sum(1 for _ in ascent_one(model, F, F2, 0, X, opt))
        assert steps == opt.max_steps
        assert np.all(alpha[excluded_q] == MASK_LOGIT)
        assert np.all(M[:, excluded_s] == MASK_LOGIT)
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
        monkeypatch.setattr(relaxed, "ENTROPY_WEIGHT_GATE", 0.0)
        monkeypatch.setattr(relaxed, "ENTROPY_WEIGHT_ALIGN", 0.0)
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
        steps = []
        for problem, (i, j2, score, traj, converged) in zip(shuffled, batch):
            si, sj2, sscore, straj, _ = solve_relaxed(model, [problem], opt)[0]
            assert (i, j2, score, len(traj)) == (si, sj2, sscore, len(straj))
            np.testing.assert_allclose(traj, straj, rtol=1e-12, atol=0)
            steps.append(len(traj))
        single = batch[list(order).index(4)]  # the problem with one open query and source cell
        assert single[:2] == (5, 0) and len(single[3]) == 1
        assert max(steps) > 1

    def test_converged_means_last_step_met_the_stop_test(self):
        model, problems = lockstep_problems()
        # two of these problems meet the stop test on exactly their 17th step
        opt = RelaxOptConfig(max_steps=17)
        stop = opt.sharpness_stop
        flags = []
        for (F, F2, target, exq, exs), edit in zip(problems, solve_relaxed(model, problems, opt)):
            problem = EditProblem(model, F, F2, target, exq, exs)
            open_q, open_s = problem.open_q, problem.open_s
            X = pack_logits(np.where(open_q, 0.0, MASK_LOGIT), np.where(open_s, np.zeros((9, 1)), MASK_LOGIT))
            for _, a, P in itertools.islice(ascent_one(model, F, F2, target, X, opt), len(edit[3])):
                pass
            i = a.argmax()
            assert edit[4] == (a[i] >= stop and P[i].max() >= stop)
            flags.append((edit[4], len(edit[3]) == opt.max_steps))
        assert {(True, False), (True, True), (False, True)} <= set(flags)

    def test_ascent_ends_once_no_problem_is_live(self):
        model, problems = lockstep_problems()
        F = np.stack([p[0].values for p in problems[:2]])
        F2 = np.stack([p[1].values for p in problems[:2]])
        X = pack_logits(np.zeros((2, 9)), np.zeros((2, 9, 9)))
        count = 0
        for _, _, live in ascent_steps(model, F, F2, first_dense(model, F), [0, 1], X, RelaxOptConfig()):
            count += 1
            if count == 2:
                live[:] = False
        assert count == 2

    def test_frozen_row_logits_stay_exactly_fixed(self):
        model, problems = lockstep_problems()
        F = np.stack([p[0].values for p in problems[:3]])
        F2 = np.stack([p[1].values for p in problems[:3]])
        X = pack_logits(np.zeros((3, 9)), np.zeros((3, 9, 9)))
        alpha, M = unpack(X)
        steps = ascent_steps(model, F, F2, first_dense(model, F), [0, 1, 2], X, RelaxOptConfig(max_steps=20))
        for _ in range(3):
            _, _, live = next(steps)
        live[1] = False
        frozen = alpha[1].copy(), M[1].copy()
        moving = alpha[0].copy(), M[0].copy()
        count = 3 + sum(1 for _ in steps)
        assert count == 20
        np.testing.assert_array_equal(alpha[1], frozen[0])
        np.testing.assert_array_equal(M[1], frozen[1])
        assert np.all(alpha[0] != moving[0]) and np.all(M[0] != moving[1])

    def test_closed_cells_stay_at_mask_logit(self):
        model, problems = lockstep_problems()
        chunk = problems[:4]
        F = np.stack([p[0].values for p in chunk])
        F2 = np.stack([p[1].values for p in chunk])
        X = pack_logits(np.zeros((4, 9)), np.zeros((4, 9, 9)))
        alpha, M = unpack(X)
        for b, (_, _, _, exq, exs) in enumerate(chunk):
            alpha[b, list(exq)] = MASK_LOGIT
            M[b][:, list(exs)] = MASK_LOGIT
        opt = RelaxOptConfig()
        targets = [p[2] for p in chunk]
        assert sum(1 for _ in ascent_steps(model, F, F2, first_dense(model, F), targets, X, opt)) == opt.max_steps
        for b, (_, _, _, exq, exs) in enumerate(chunk):
            assert np.all(alpha[b, list(exq)] == MASK_LOGIT)
            assert np.all(M[b][:, list(exs)] == MASK_LOGIT)
            open_q = np.setdiff1d(np.arange(9), list(exq))
            assert np.all(alpha[b, open_q] != 0.0)

    def test_trajectory_replays_bit_for_bit(self):
        # a solo solve's objectives are those of the ascent on C-ordered packed logits
        model, problems = lockstep_problems()
        for F, F2, target, exq, exs in problems:
            _, _, _, traj, _ = solve_relaxed(model, [(F, F2, target, exq, exs)])[0]
            problem = EditProblem(model, F, F2, target, exq, exs)
            open_q, open_s = problem.open_q, problem.open_s
            X = pack_logits(np.where(open_q, 0.0, MASK_LOGIT), np.where(open_s, np.zeros((9, 1)), MASK_LOGIT))
            replay = [obj for obj, _, _ in itertools.islice(ascent_one(model, F, F2, target, X, RelaxOptConfig()), len(traj))]
            assert traj == replay

    def test_fused_head_pass_gives_identical_solves(self, monkeypatch):
        # the fused head pass against the per-layer forward and backward: no bit changes
        model, problems = lockstep_problems()
        fused = solve_relaxed(model, problems)
        solo = [solve_relaxed(model, [p])[0] for p in problems[:4]]
        monkeypatch.setattr(relaxed, "tail_gradient_pass", layered_tail_pass)
        assert solve_relaxed(model, problems) == fused
        assert [solve_relaxed(model, [p])[0] for p in problems[:4]] == solo

    @pytest.mark.parametrize("per_chunk", [1, 2, 3])
    def test_smaller_chunks_give_the_same_edits(self, monkeypatch, per_chunk):
        model, problems = lockstep_problems()
        whole = solve_relaxed(model, problems)
        monkeypatch.setattr(relaxed, "_CHUNK_VALUES", per_chunk * 9 * (9 + 2))
        chunked = solve_relaxed(model, problems)
        assert [e[:3] + (len(e[3]), e[4]) for e in chunked] == [e[:3] + (len(e[3]), e[4]) for e in whole]

    def test_no_problems(self):
        model, _ = lockstep_problems()
        assert solve_relaxed(model, []) == []
