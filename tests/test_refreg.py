import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regeval import errors, refreg
from regeval.metrics import evaluate_pair, ndv
from regeval.refreg import RegConfig, loss_and_grad, register
from regeval.synth import PhantomSpec, Svf, make_phantom, make_pair, make_velocity
from regeval.volio import AffineHeader, DisplacementField, Volume
from regeval.warp import VelocityField, exp_svf

from conftest import expression_diffusion_value, traced_peak


def random_pair(rng, dims):
    fixed = Volume(header=AffineHeader.isotropic(dims), kind="scalar", data=rng.standard_normal(dims))
    moving = Volume(header=AffineHeader.isotropic(dims), kind="scalar", data=rng.standard_normal(dims))
    return fixed, moving


@pytest.fixture(scope="module")
def small_pair():
    dims = (24, 24, 24)
    phantom = make_phantom(PhantomSpec(dims=dims, label_count=3, seed=31, noise_sigma=0.08))
    return make_pair(phantom, make_velocity(Svf(seed=32, amplitude=2.0, smoothness=5.0), dims))


class TestGradient:
    def test_matches_central_finite_differences(self, rng):
        dims = (16, 16, 16)
        fixed, moving = random_pair(rng, dims)
        u = rng.uniform(-1.5, 1.5, size=dims + (3,))
        phi = DisplacementField(header=fixed.header, data=u)
        cfg = RegConfig()
        _, grad = loss_and_grad(fixed, moving, phi, cfg)
        h = 1e-5
        for _ in range(10):
            x, y, z = (int(v) for v in rng.integers(2, 14, size=3))
            c = int(rng.integers(0, 3))
            up = u.copy()
            up[x, y, z, c] += h
            un = u.copy()
            un[x, y, z, c] -= h
            lp, _ = loss_and_grad(fixed, moving, DisplacementField(header=fixed.header, data=up), cfg)
            ln, _ = loss_and_grad(fixed, moving, DisplacementField(header=fixed.header, data=un), cfg)
            fd = (lp - ln) / (2 * h)
            an = grad[x, y, z, c]
            assert abs(fd - an) <= 1e-4 * max(abs(fd), abs(an), 1e-9)

    def test_zero_lambda_drops_regularizer(self, rng):
        dims = (12, 12, 12)
        fixed, moving = random_pair(rng, dims)
        phi = DisplacementField(header=fixed.header, data=rng.uniform(-1, 1, size=dims + (3,)))
        full, _ = loss_and_grad(fixed, moving, phi, RegConfig(lambda_diffusion=1.0))
        bare, _ = loss_and_grad(fixed, moving, phi, RegConfig(lambda_diffusion=0.0))
        assert full != bare

    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
    def test_loss_is_the_loss_of_loss_and_grad_without_a_gradient(self, rng, monkeypatch, lam):
        dims = (12, 12, 12)
        fixed, moving = random_pair(rng, dims)
        phi = DisplacementField(header=fixed.header, data=rng.uniform(-1, 1, size=dims + (3,)))
        cfg = RegConfig(lambda_diffusion=lam, lncc_window=5)
        want, _ = loss_and_grad(fixed, moving, phi, cfg)

        def no_gradient(*args):
            raise AssertionError("refreg.loss computed a warp gradient")

        monkeypatch.setattr(refreg, "_warp_with_grad", no_gradient)
        assert refreg.loss(fixed, moving, phi, cfg) == want


def np_diff_diffusion_value(u):
    """The diffusion value as np.diff formulas spelled it before the value
    and gradient shared one helper."""
    dims = u.shape[:3]
    n_terms = 3 * sum((dims[a] - 1) * int(np.prod([dims[b] for b in range(3) if b != a]))
                      for a in range(3))
    if n_terms == 0:
        return 0.0
    return sum(float(np.sum(np.diff(u, axis=a) ** 2)) for a in range(3)) / n_terms


def np_diff_diffusion_grad(u):
    dims = u.shape[:3]
    n_terms = 3 * sum((dims[a] - 1) * int(np.prod([dims[b] for b in range(3) if b != a]))
                      for a in range(3))
    grad = np.zeros_like(u)
    if n_terms == 0:
        return grad
    for axis in range(3):
        d = np.diff(u, axis=axis)
        lo = [slice(None)] * 4
        hi = [slice(None)] * 4
        lo[axis] = slice(None, -1)
        hi[axis] = slice(1, None)
        grad[tuple(hi)] += d
        grad[tuple(lo)] -= d
    return grad * (2.0 / n_terms)


class TestDiffusion:
    @pytest.mark.parametrize("dims", [(9, 7, 5), (1, 6, 4), (5, 1, 1), (1, 1, 1)])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_value_and_grad_match_np_diff_formulas_bit_for_bit(self, rng, dims, order):
        u = np.asarray(rng.standard_normal(dims + (3,)), order=order)
        assert refreg._diffusion_value(u) == np_diff_diffusion_value(u)
        grad = np.zeros_like(u)
        assert refreg._diffusion_value(u, grad) == np_diff_diffusion_value(u)
        assert grad.tobytes() == np_diff_diffusion_grad(u).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(
        dims=st.tuples(*[st.integers(1, 9)] * 3),
        order=st.sampled_from("CF"),
        seed=st.integers(0, 2**32 - 1),
        slab=st.sampled_from([1, 40, 1 << 15]),  # one x-row per slab, a few, all
        lam=st.sampled_from([1.0, 0.7]),
    )
    def test_in_place_squares_match_the_expression_form(self, dims, order, seed, slab, lam):
        rng = np.random.default_rng(seed)
        u = np.asarray(rng.standard_normal(dims + (3,)), order=order)
        before = u.copy()
        assert refreg._diffusion_value(u) == expression_diffusion_value(u)
        # lam times the gradient goes into what grad holds, as
        # ``grad += lam * dgrad`` with dgrad formed in zeros
        grad, dgrad = rng.standard_normal(dims + (3,)), np.zeros_like(u)
        want = expression_diffusion_value(u, dgrad)
        dgrad *= lam
        expected = grad.copy()
        expected += dgrad
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(refreg, "_SLAB", slab)
            assert refreg._diffusion_value(u, grad, lam) == want
        assert grad.tobytes() == expected.tobytes()
        assert u.tobytes() == before.tobytes()

    def test_loss_and_grad_adds_lambda_times_diffusion_terms(self, rng):
        dims = (10, 9, 8)
        fixed, moving = random_pair(rng, dims)
        u = rng.uniform(-1, 1, size=dims + (3,))
        phi = DisplacementField(header=fixed.header, data=u)
        lam = 0.7
        full, full_grad = loss_and_grad(fixed, moving, phi, RegConfig(lambda_diffusion=lam))
        bare, bare_grad = loss_and_grad(fixed, moving, phi, RegConfig(lambda_diffusion=0.0))
        assert full == bare + lam * np_diff_diffusion_value(u)
        expected = bare_grad.copy()
        expected += lam * np_diff_diffusion_grad(u)
        assert full_grad.tobytes() == expected.tobytes()


class TestPyramid:
    @pytest.mark.parametrize("dims", [(5, 4, 3), (3, 3, 3), (1, 2, 7)])
    def test_odd_axes_repeat_their_last_slice(self, rng, dims):
        # each coarse voxel is the mean of its 2x2x2 block, where an index
        # past an odd axis's end reads that axis's last slice
        d = rng.standard_normal(dims)
        got = refreg._downsample_data(d)
        assert got.shape == tuple((n + 1) // 2 for n in dims)
        for i, j, k in np.ndindex(got.shape):
            block = [
                d[min(2 * i + a, dims[0] - 1), min(2 * j + b, dims[1] - 1), min(2 * k + c, dims[2] - 1)]
                for a in (0, 1) for b in (0, 1) for c in (0, 1)
            ]
            assert got[i, j, k] == pytest.approx(np.mean(block), rel=1e-12, abs=1e-15)


class TestRegister:
    def test_identity_pair_stays_near_zero(self):
        dims = (32, 32, 32)
        phantom = make_phantom(PhantomSpec(dims=dims, label_count=3, seed=41, noise_sigma=0.08))
        fixed = phantom[0]
        cfg = RegConfig(iters_per_level=(20, 10), parameterization="displacement")
        field, _ = register(fixed, fixed, cfg)
        mean_norm = float(np.mean(np.sqrt(np.sum(field.data**2, axis=-1))))
        assert mean_norm < 0.1

    def test_translation_recovered(self):
        dims = (64, 64, 64)
        phantom = make_phantom(PhantomSpec(dims=dims, label_count=4, seed=51, noise_sigma=0.08))
        fixed = phantom[0]
        shifted = np.roll(fixed.data, 3, axis=0)  # moving(x) = fixed(x - 3), so u = +3
        moving = Volume(header=fixed.header, kind="scalar", data=shifted)
        field, _ = register(fixed, moving, RegConfig(parameterization="displacement"))
        interior = field.data[8:-8, 8:-8, 8:-8]
        mean_u = interior.reshape(-1, 3).mean(axis=0)
        assert np.max(np.abs(mean_u - np.array([3.0, 0.0, 0.0]))) < 0.5

    def test_trace_non_increasing_within_levels(self, small_pair):
        cfg = RegConfig(iters_per_level=(15, 10), parameterization="displacement")
        _, trace = register(small_pair.fixed_image, small_pair.moving_image, cfg)
        for level_losses in trace:
            diffs = np.diff(level_losses)
            assert np.all(diffs <= 0.0)

    def test_deterministic(self, small_pair):
        cfg = RegConfig(iters_per_level=(8, 5), parameterization="displacement")
        f1, _ = register(small_pair.fixed_image, small_pair.moving_image, cfg)
        f2, _ = register(small_pair.fixed_image, small_pair.moving_image, cfg)
        assert np.array_equal(f1.data, f2.data)

    def test_svf_mode_is_diffeomorphic(self, small_pair):
        cfg = RegConfig(iters_per_level=(15, 10), parameterization="svf")
        field, _ = register(small_pair.fixed_image, small_pair.moving_image, cfg)
        mask = np.ones(field.dims, dtype=np.int16)
        assert ndv(field, mask) < 1e-4

    def test_lambda_sweep_reduces_diffusion_energy(self, small_pair):
        from regeval.refreg import _diffusion_value

        energies = []
        for lam in (0.1, 1.0, 10.0):
            cfg = RegConfig(iters_per_level=(15, 10), lambda_diffusion=lam, parameterization="displacement")
            field, _ = register(small_pair.fixed_image, small_pair.moving_image, cfg)
            energies.append(_diffusion_value(field.data))
        assert energies[0] > energies[1] > energies[2]

    def test_dim_mismatch(self, rng):
        f, _ = random_pair(rng, (8, 8, 8))
        _, m = random_pair(rng, (10, 8, 8))
        with pytest.raises(errors.DimMismatch):
            register(f, m, RegConfig(iters_per_level=(1,)))

    def test_non_finite_input_rejected(self, rng):
        dims = (8, 8, 8)
        f, m = random_pair(rng, dims)
        bad = Volume(header=f.header, kind="scalar", data=m.data.copy())
        bad.data[0, 0, 0] = np.inf
        with pytest.raises(errors.NonFiniteData):
            register(f, bad, RegConfig(iters_per_level=(1,)))

    def test_label_volumes_rejected_everywhere(self, small_pair):
        fixed, moving = small_pair.fixed_labels, small_pair.moving_labels
        zero = DisplacementField.zero(fixed.header)
        cfg = RegConfig(iters_per_level=(1,))
        with pytest.raises(errors.UnsupportedLayout):
            register(fixed, moving, cfg)
        with pytest.raises(errors.UnsupportedLayout):
            register(fixed, moving, cfg, init=zero)
        with pytest.raises(errors.UnsupportedLayout):
            loss_and_grad(fixed, moving, zero, cfg)
        with pytest.raises(errors.UnsupportedLayout):
            loss_and_grad(small_pair.fixed_image, moving, zero, cfg)


class TestStops:
    """The ways an optimizer level ends other than its iteration count."""

    def test_non_finite_initial_loss_diverges(self, rng):
        f, m = random_pair(rng, (8, 8, 8))
        init = np.zeros((8, 8, 8, 3))
        init[0, 0, 0, 0] = 1e200  # its squared difference overflows the diffusion term
        with np.errstate(over="ignore"), pytest.raises(errors.DivergedLoss, match="initial loss"):
            register(f, m, RegConfig(iters_per_level=(2,)), init=DisplacementField(f.header, init))

    def test_zero_gradient_stops_before_a_step(self):
        zero = Volume(header=AffineHeader.isotropic((8, 8, 8)), kind="scalar", data=np.zeros((8, 8, 8)))
        field, trace = register(zero, zero, RegConfig(iters_per_level=(3, 3), lncc_window=3))
        assert trace == [[], []]
        assert not np.any(field.data)

    def test_failed_line_search_keeps_the_state(self, rng, monkeypatch):
        f, m = random_pair(rng, (8, 8, 8))
        loss_and_grad = refreg._loss_and_grad
        calls = []

        def no_move_accepted(terms, mdata, u, lam):
            calls.append(bool(np.any(u)))
            loss, grad = loss_and_grad(terms, mdata, u, lam)
            return (loss, grad) if not np.any(u) else (np.inf, grad)

        monkeypatch.setattr(refreg, "_loss_and_grad", no_move_accepted)
        cfg = RegConfig(iters_per_level=(5,), lncc_window=3, parameterization="displacement")
        state, losses, u = refreg._optimize_level(f.data, m.data, np.zeros((8, 8, 8, 3)), 5, cfg)
        assert losses == [] and not np.any(state) and not np.any(u)
        assert calls == [False] + [True] * 30  # the initial loss, then 30 halvings

    def test_failed_line_search_returns_the_field_of_the_state(self, rng, monkeypatch):
        # a trial holds no field but its own, so after a failed line search
        # the field of the kept state is computed again
        f, m = random_pair(rng, (8, 8, 8))
        loss_and_grad = refreg._loss_and_grad
        calls = []

        def only_the_start_is_finite(terms, mdata, u, lam):
            calls.append(u)
            loss, grad = loss_and_grad(terms, mdata, u, lam)
            return (loss, grad) if len(calls) == 1 else (np.inf, grad)

        monkeypatch.setattr(refreg, "_loss_and_grad", only_the_start_is_finite)
        cfg = RegConfig(iters_per_level=(5,), lncc_window=3, parameterization="svf")
        start = rng.uniform(-0.5, 0.5, size=(8, 8, 8, 3))
        state, losses, u = refreg._optimize_level(f.data, m.data, start, 5, cfg)
        assert losses == [] and state is start and len(calls) == 31
        assert u.tobytes() == refreg._to_field(start, cfg).tobytes() == calls[0].tobytes()

    def test_zero_sigma_skips_the_update_smoothing(self, small_pair, monkeypatch, rng):
        g = rng.standard_normal((4, 4, 4, 3))
        assert refreg._smooth_update(g, 0.0) is g

        def no_smoothing(*args, **kwargs):
            raise AssertionError("sigma 0 smoothed the update")

        monkeypatch.setattr(refreg, "gaussian_filter", no_smoothing)
        cfg = RegConfig(iters_per_level=(3, 3), update_smoothing_sigma=0.0, parameterization="displacement")
        _, trace = register(small_pair.fixed_image, small_pair.moving_image, cfg)
        assert all(level for level in trace)


def test_update_smoothing_in_place_matches_scipy_per_component(rng):
    from scipy.ndimage import gaussian_filter

    g = rng.standard_normal((9, 8, 7, 3))
    want = np.stack([gaussian_filter(g[..., c], sigma=1.5, mode="nearest") for c in range(3)], axis=-1)
    smoothed = refreg._smooth_update(g, 1.5)
    assert smoothed is g and smoothed.tobytes() == want.tobytes()


class TestOneEvaluationPerTrial:
    """Each level evaluates the loss and its gradient once at its start and
    once per line-search trial, and steps along the gradient of the field
    it stands on."""

    @pytest.mark.parametrize("parameterization", ["svf", "displacement"])
    def test_each_direction_is_the_gradient_of_the_current_field(
        self, small_pair, monkeypatch, parameterization
    ):
        cfg = RegConfig(iters_per_level=(6, 8), lncc_window=5, parameterization=parameterization)
        optimize_level, loss_and_grad = refreg._optimize_level, refreg._loss_and_grad
        smooth_update, to_field = refreg._smooth_update, refreg._to_field
        levels = []  # per level: its images and the (kind, array) events in order

        def level(fdata, mdata, *args):
            levels.append((fdata, mdata, []))
            return optimize_level(fdata, mdata, *args)

        def evaluation(terms, mdata, u, lam):
            levels[-1][2].append(("eval", u.copy()))
            return loss_and_grad(terms, mdata, u, lam)

        def smoothing(g, sigma):
            levels[-1][2].append(("smooth", g.copy()))
            return smooth_update(g, sigma)

        def field(state, cfg):
            levels[-1][2].append(("field", None))
            return to_field(state, cfg)

        monkeypatch.setattr(refreg, "_optimize_level", level)
        monkeypatch.setattr(refreg, "_loss_and_grad", evaluation)
        monkeypatch.setattr(refreg, "_smooth_update", smoothing)
        monkeypatch.setattr(refreg, "_to_field", field)
        _, trace = register(small_pair.fixed_image, small_pair.moving_image, cfg)

        assert len(levels) == 2 and all(trace)
        for (fdata, mdata, events), losses in zip(levels, trace):
            kinds = [kind for kind, _ in events]
            # one field per state and one evaluation per field: the start,
            # then each trial
            fields = [i for i, kind in enumerate(kinds) if kind == "field"]
            assert [kinds[i + 1] for i in fields] == ["eval"] * len(fields)
            assert kinds.count("eval") == len(fields) > len(losses)
            terms = refreg._LnccTerms(fdata, cfg.lncc_window)
            smoothed = [i for i, kind in enumerate(kinds) if kind == "smooth"]
            assert len(smoothed) >= len(losses)
            for i in smoothed:
                # the evaluation just before is the level start or the
                # accepted trial, i.e. the field the step starts from
                kind, u = events[i - 1]
                assert kind == "eval"
                _, fresh = loss_and_grad(terms, mdata, u, cfg.lambda_diffusion)
                assert np.array_equal(events[i][1], fresh)


class TestInstanceOptimize:
    def test_zero_init_equals_single_level_register(self, small_pair):
        # with init, only the last iters_per_level entry runs, at full resolution
        fixed, moving = small_pair.fixed_image, small_pair.moving_image
        from_register, trace = register(fixed, moving, RegConfig(iters_per_level=(12,), parameterization="displacement"))
        zero = DisplacementField.zero(fixed.header)
        cfg = RegConfig(iters_per_level=(3, 12), parameterization="displacement")
        from_init, init_trace = register(fixed, moving, cfg, init=zero)
        assert np.array_equal(from_register.data, from_init.data)
        assert init_trace == trace and len(trace) == 1

    def test_svf_field_is_exp_svf_of_state(self, small_pair):
        # with no iterations the velocity is the init itself, so the result
        # must be warp.exp_svf's exponential of it, bit for bit
        cfg = RegConfig(iters_per_level=(0,), parameterization="svf")
        init = small_pair.truth
        out, _ = register(small_pair.fixed_image, small_pair.moving_image, cfg, init=init)
        expected = exp_svf(VelocityField(header=init.header, data=init.data), cfg.squarings)
        assert np.array_equal(out.data, expected.data)

    @pytest.mark.parametrize("parameterization", ["svf", "displacement"])
    def test_level_returns_the_field_of_its_state(self, small_pair, parameterization):
        # register, with or without init, takes the field from _optimize_level
        # instead of exponentiating the final state once more
        cfg = RegConfig(iters_per_level=(4,), parameterization=parameterization)
        fdata = np.asarray(small_pair.fixed_image.data, dtype=np.float64)
        mdata = np.asarray(small_pair.moving_image.data, dtype=np.float64)
        state, losses, u = refreg._optimize_level(fdata, mdata, np.zeros(fdata.shape + (3,)), 4, cfg)
        assert len(losses) == 4
        assert u.tobytes() == refreg._to_field(state, cfg).tobytes()
        out, _ = register(
            small_pair.fixed_image, small_pair.moving_image, cfg,
            init=DisplacementField.zero(small_pair.fixed_image.header),
        )
        assert out.data.tobytes() == u.tobytes()

    def test_truth_init_does_not_worsen(self, small_pair):
        cfg = RegConfig(iters_per_level=(10,), parameterization="displacement")
        refined, _ = register(
            small_pair.fixed_image, small_pair.moving_image, cfg, init=small_pair.truth
        )
        loss_before, _ = loss_and_grad(
            small_pair.fixed_image, small_pair.moving_image, small_pair.truth, cfg
        )
        loss_after, _ = loss_and_grad(
            small_pair.fixed_image, small_pair.moving_image, refined, cfg
        )
        assert loss_after <= loss_before + 1e-12
        before = evaluate_pair(small_pair.fixed_labels, small_pair.moving_labels, small_pair.truth)
        after = evaluate_pair(small_pair.fixed_labels, small_pair.moving_labels, refined)
        assert after.dsc_mean >= before.dsc_mean - 0.005

    def test_perturbed_truth_improves_tre(self, small_pair, rng):
        from regeval.metrics import tre

        noisy = DisplacementField(
            header=small_pair.truth.header,
            data=small_pair.truth.data + rng.standard_normal(small_pair.truth.data.shape),
        )
        cfg = RegConfig(iters_per_level=(50,), parameterization="displacement")
        refined, _ = register(small_pair.fixed_image, small_pair.moving_image, cfg, init=noisy)
        lm = (small_pair.fixed_landmarks, small_pair.moving_landmarks)
        tre_before = float(np.mean(tre(lm[0], lm[1], noisy)))
        tre_after = float(np.mean(tre(lm[0], lm[1], refined)))
        assert tre_after < tre_before


class TestConfigValidation:
    def test_iters_per_level_must_not_be_empty(self):
        with pytest.raises(errors.BadParams, match="iters_per_level"):
            RegConfig(iters_per_level=())

    def test_negative_iters_are_rejected_and_zero_is_valid(self):
        for iters in ((-2,), (5, -1, 3)):
            with pytest.raises(errors.BadParams, match="iters_per_level"):
                RegConfig(iters_per_level=iters)
        RegConfig(iters_per_level=(0, 3, 0))

    def test_levels_follow_iters_per_level(self, small_pair):
        cfg = RegConfig(iters_per_level=(2, 2, 1))
        _, trace = register(small_pair.fixed_image, small_pair.moving_image, cfg)
        assert len(trace) == 3

    def test_bad_window(self):
        with pytest.raises(errors.BadParams, match="lncc_window must be a positive odd integer, got 4"):
            RegConfig(lncc_window=4)

    def test_bad_parameterization(self):
        with pytest.raises(errors.BadParams, match="parameterization"):
            RegConfig(parameterization="affine")


def test_one_evaluation_at_64_cubed_holds_at_most_nine_and_a_half_volumes(rng):
    # above its inputs, from a cold start: the warped image, its gradient and
    # the LNCC adjoint's terms, formed in place, and the diffusion gradient
    # added slab by slab (9.08 measured; 13.08 with a full coordinate grid,
    # full-size box-sum outputs and diffusion gradient)
    dims = (64, 64, 64)
    terms = refreg._LnccTerms(rng.standard_normal(dims), 9)
    mdata = rng.standard_normal(dims)
    u = rng.uniform(-1.0, 1.0, size=dims + (3,))
    got, peak = traced_peak(lambda: refreg._loss_and_grad(terms, mdata, u, 1.0))
    want = refreg._loss_and_grad(terms, mdata, u, 1.0)
    assert got[0] == want[0] and got[1].tobytes() == want[1].tobytes()
    assert peak / (np.prod(dims) * 8) < 9.5


def test_a_finer_level_holds_no_coarser_state_or_field(small_pair, monkeypatch):
    # _level_start alone reads the coarser level's state: while the finer
    # level runs, neither that state nor its field is held any more
    import tracemalloc

    fixed, moving, cfg = small_pair.fixed_image, small_pair.moving_image, RegConfig(iters_per_level=(2, 2))
    coarse = 12**3 * 3 * 8  # bytes of one 12^3 vector field
    held = []
    loss_and_grad = refreg._loss_and_grad

    def noting(terms, mdata, u, lam):
        if u.shape[0] == 24:
            held.append(sum(t.size == coarse for t in tracemalloc.take_snapshot().traces))
        return loss_and_grad(terms, mdata, u, lam)

    monkeypatch.setattr(refreg, "_loss_and_grad", noting)
    tracemalloc.start()
    try:
        register(fixed, moving, cfg)
    finally:
        tracemalloc.stop()
    assert held and max(held) == 0
