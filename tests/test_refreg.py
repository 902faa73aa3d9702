import numpy as np
import pytest

from regeval import errors, refreg
from regeval.metrics import evaluate_pair, ndv
from regeval.refreg import RegConfig, instance_optimize, loss_and_grad, register
from regeval.synth import PhantomSpec, Svf, make_phantom, make_pair, make_velocity
from regeval.volio import AffineHeader, DisplacementField, Volume
from regeval.warp import VelocityField, exp_svf


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


class TestRegister:
    def test_identity_pair_stays_near_zero(self):
        dims = (32, 32, 32)
        phantom = make_phantom(PhantomSpec(dims=dims, label_count=3, seed=41, noise_sigma=0.08))
        fixed = phantom[0]
        cfg = RegConfig(levels=2, iters_per_level=(20, 10))
        field, _ = register(fixed, fixed, cfg)
        mean_norm = float(np.mean(np.sqrt(np.sum(field.data**2, axis=-1))))
        assert mean_norm < 0.1

    def test_translation_recovered(self):
        dims = (64, 64, 64)
        phantom = make_phantom(PhantomSpec(dims=dims, label_count=4, seed=51, noise_sigma=0.08))
        fixed = phantom[0]
        shifted = np.roll(fixed.data, 3, axis=0)  # moving(x) = fixed(x - 3), so u = +3
        moving = Volume(header=fixed.header, kind="scalar", data=shifted)
        field, _ = register(fixed, moving, RegConfig())
        interior = field.data[8:-8, 8:-8, 8:-8]
        mean_u = interior.reshape(-1, 3).mean(axis=0)
        assert np.max(np.abs(mean_u - np.array([3.0, 0.0, 0.0]))) < 0.5

    def test_trace_non_increasing_within_levels(self, small_pair):
        cfg = RegConfig(levels=2, iters_per_level=(15, 10))
        _, trace = register(small_pair.fixed_image, small_pair.moving_image, cfg)
        for level_losses in trace:
            diffs = np.diff(level_losses)
            assert np.all(diffs <= 0.0)

    def test_deterministic(self, small_pair):
        cfg = RegConfig(levels=2, iters_per_level=(8, 5))
        f1, _ = register(small_pair.fixed_image, small_pair.moving_image, cfg)
        f2, _ = register(small_pair.fixed_image, small_pair.moving_image, cfg)
        assert np.array_equal(f1.data, f2.data)

    def test_svf_mode_is_diffeomorphic(self, small_pair):
        cfg = RegConfig(levels=2, iters_per_level=(15, 10), parameterization="svf")
        field, _ = register(small_pair.fixed_image, small_pair.moving_image, cfg)
        mask = np.ones(field.dims, dtype=np.int16)
        assert ndv(field, mask) < 1e-4

    def test_lambda_sweep_reduces_diffusion_energy(self, small_pair):
        from regeval.refreg import _diffusion_value

        energies = []
        for lam in (0.1, 1.0, 10.0):
            cfg = RegConfig(levels=2, iters_per_level=(15, 10), lambda_diffusion=lam)
            field, _ = register(small_pair.fixed_image, small_pair.moving_image, cfg)
            energies.append(_diffusion_value(field.data))
        assert energies[0] > energies[1] > energies[2]

    def test_dim_mismatch(self, rng):
        f, _ = random_pair(rng, (8, 8, 8))
        _, m = random_pair(rng, (10, 8, 8))
        with pytest.raises(errors.DimMismatch):
            register(f, m, RegConfig(levels=1, iters_per_level=(1,)))

    def test_non_finite_input_rejected(self, rng):
        dims = (8, 8, 8)
        f, m = random_pair(rng, dims)
        bad = Volume(header=f.header, kind="scalar", data=m.data.copy())
        bad.data[0, 0, 0] = np.inf
        with pytest.raises(errors.NonFiniteData):
            register(f, bad, RegConfig(levels=1, iters_per_level=(1,)))

    def test_label_volumes_rejected_everywhere(self, small_pair):
        fixed, moving = small_pair.fixed_labels, small_pair.moving_labels
        zero = DisplacementField.zero(fixed.header)
        cfg = RegConfig(levels=1, iters_per_level=(1,))
        with pytest.raises(errors.UnsupportedLayout):
            register(fixed, moving, cfg)
        with pytest.raises(errors.UnsupportedLayout):
            instance_optimize(fixed, moving, zero, cfg)
        with pytest.raises(errors.UnsupportedLayout):
            loss_and_grad(fixed, moving, zero, cfg)
        with pytest.raises(errors.UnsupportedLayout):
            loss_and_grad(small_pair.fixed_image, moving, zero, cfg)


class TestInstanceOptimize:
    def test_zero_init_equals_single_level_register(self, small_pair):
        cfg = RegConfig(levels=1, iters_per_level=(12,))
        from_register, _ = register(small_pair.fixed_image, small_pair.moving_image, cfg)
        zero = DisplacementField.zero(small_pair.fixed_image.header)
        from_instance = instance_optimize(
            small_pair.fixed_image, small_pair.moving_image, zero, cfg
        )
        assert np.array_equal(from_register.data, from_instance.data)

    def test_svf_field_is_exp_svf_of_state(self, small_pair):
        # with no iterations the velocity is the init itself, so the result
        # must be warp.exp_svf's exponential of it, bit for bit
        cfg = RegConfig(levels=1, iters_per_level=(0,), parameterization="svf")
        init = small_pair.truth
        out = instance_optimize(small_pair.fixed_image, small_pair.moving_image, init, cfg)
        expected = exp_svf(VelocityField(header=init.header, data=init.data), cfg.squarings)
        assert np.array_equal(out.data, expected.data)

    @pytest.mark.parametrize("parameterization", ["svf", "displacement"])
    def test_level_returns_the_field_of_its_state(self, small_pair, parameterization):
        # register and instance_optimize take the field from _optimize_level
        # instead of exponentiating the final state once more
        cfg = RegConfig(levels=1, iters_per_level=(4,), parameterization=parameterization)
        fdata = np.asarray(small_pair.fixed_image.data, dtype=np.float64)
        mdata = np.asarray(small_pair.moving_image.data, dtype=np.float64)
        state, losses, u = refreg._optimize_level(fdata, mdata, np.zeros(fdata.shape + (3,)), 4, cfg)
        assert len(losses) == 4
        assert u.tobytes() == refreg._to_field(state, cfg).tobytes()
        out = instance_optimize(
            small_pair.fixed_image, small_pair.moving_image,
            DisplacementField.zero(small_pair.fixed_image.header), cfg,
        )
        assert out.data.tobytes() == u.tobytes()

    def test_truth_init_does_not_worsen(self, small_pair):
        cfg = RegConfig(levels=1, iters_per_level=(10,))
        refined = instance_optimize(
            small_pair.fixed_image, small_pair.moving_image, small_pair.truth, cfg
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
        cfg = RegConfig(levels=1, iters_per_level=(50,))
        refined = instance_optimize(
            small_pair.fixed_image, small_pair.moving_image, noisy, cfg
        )
        lm = (small_pair.fixed_landmarks, small_pair.moving_landmarks)
        tre_before = float(np.mean(tre(lm[0], lm[1], noisy)))
        tre_after = float(np.mean(tre(lm[0], lm[1], refined)))
        assert tre_after < tre_before


class TestConfigValidation:
    def test_iters_length_must_match_levels(self):
        with pytest.raises(ValueError):
            RegConfig(levels=2, iters_per_level=(10,))

    def test_bad_window(self):
        with pytest.raises(ValueError):
            RegConfig(lncc_window=4)

    def test_bad_parameterization(self):
        with pytest.raises(ValueError):
            RegConfig(parameterization="affine")
