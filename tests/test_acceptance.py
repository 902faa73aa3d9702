"""Acceptance suite: one test per criterion, tolerances pinned.

Every expected value is either computed by an independent oracle inside the
test or forced by an exactly decided rule.  Each test prints a PASS line on
success (run with ``pytest tests/test_acceptance.py -v -s`` to see them).
"""
import itertools
import json
import math
import time

import numpy as np
import pytest

from regeval import cli, stats
from regeval.metrics import FixedSide, dsc, evaluate_pair, hd95, ndv, tre
from regeval.ranking import HIGHER_BETTER, LOWER_BETTER, MetricMatrix, rank_methods, wins_to_rank_scores
from regeval.refreg import RegConfig, loss_and_grad, register
from regeval.synth import (
    FoldSlab,
    PhantomSpec,
    Svf,
    Translation,
    make_cohort,
    make_field,
    make_phantom,
    make_pair,
    make_velocity,
)
from regeval.volio import AffineHeader, DisplacementField, LandmarkSet, Volume
from regeval.warp import exp_svf, ic_residual

from conftest import brute_force_trilinear
from test_metrics import hd95_oracle, label_volume


def _report(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE C{criterion:02d} PASS: {detail}")


# ---------------------------------------------------------------------------
# C1: metric oracle equivalence


def _random_blob_volume(rng, dims, n_labels=2):
    data = np.zeros(dims, dtype=np.int16)
    grid = np.indices(dims)
    for lab in range(1, n_labels + 1):
        center = rng.integers(6, np.asarray(dims) - 6, size=3)
        radii = rng.integers(2, 6, size=3)
        lhs = sum(((grid[a] - center[a]) / radii[a]) ** 2 for a in range(3))
        data[lhs <= 1.0] = lab
    return data


def test_c01_metric_oracle_equivalence(rng):
    dims = (32, 32, 32)
    n_cases = 200
    labels = [1, 2]
    worst_hd95 = 0.0
    max_case_seconds = 0.0
    for _ in range(n_cases):
        a = _random_blob_volume(rng, dims)
        b = _random_blob_volume(rng, dims)
        fixed, warped = label_volume(a), label_volume(b)
        u = rng.uniform(-2.0, 2.0, size=dims + (3,))
        phi = DisplacementField(header=fixed.header, data=u)
        pts_f = rng.uniform(3.0, 28.0, size=(5, 3))
        pts_m = rng.uniform(3.0, 28.0, size=(5, 3))
        names = tuple(f"l{i}" for i in range(5))
        lm_f = LandmarkSet(names=names, points=pts_f)
        lm_m = LandmarkSet(names=names, points=pts_m)

        t0 = time.perf_counter()
        got_dsc, _ = dsc(fixed, warped, labels)
        got_hd = {lab: hd95(fixed, warped, lab) for lab in labels}
        got_tre = tre(lm_f, lm_m, phi)
        max_case_seconds = max(max_case_seconds, time.perf_counter() - t0)

        for lab in labels:
            in_a, in_b = a == lab, b == lab
            na, nb = int(in_a.sum()), int(in_b.sum())
            want = None if na + nb == 0 else 2.0 * int((in_a & in_b).sum()) / (na + nb)
            if want is None:
                assert got_dsc[lab] is None
            else:
                assert abs(got_dsc[lab] - want) <= 1e-12 * max(want, 1.0)
            want_hd = hd95_oracle(a, b, lab, (1.0, 1.0, 1.0))
            assert abs(got_hd[lab] - want_hd) <= 1e-9
            worst_hd95 = max(worst_hd95, abs(got_hd[lab] - want_hd))

        for i in range(5):
            q = np.array([brute_force_trilinear(u[..., c], pts_f[i]) for c in range(3)])
            want_tre = float(np.linalg.norm(pts_f[i] + q - pts_m[i]))
            assert abs(got_tre[i] - want_tre) <= 1e-12 * max(want_tre, 1.0)

    assert max_case_seconds <= 1.0
    _report(1, f"200 cases; hd95 max |err| {worst_hd95:.2e} mm; slowest case {max_case_seconds:.3f} s")


# ---------------------------------------------------------------------------
# C2: NDV correctness


def test_c02_ndv_correctness():
    dims = (64, 64, 64)
    full = np.ones(dims, dtype=np.int16)

    phi, facts = make_field(FoldSlab(axis=0, center=30.0, width=2.0), dims)
    got = ndv(phi, full)
    want = facts["folded_volume"] / float(np.prod(dims))
    assert abs(got - want) <= 0.02 * want

    phi2, facts2 = make_field(FoldSlab(axis=1, center=12.0, width=5.0), dims)
    got2 = ndv(phi2, full)
    want2 = facts2["folded_volume"] / float(np.prod(dims))
    assert abs(got2 - want2) <= 0.02 * want2

    sdims = (48, 48, 48)
    sfull = np.ones(sdims, dtype=np.int16)
    worst = 0.0
    for seed in range(20):
        amp = 0.5 + 2.5 * (seed % 4) / 3.0  # amplitudes spread over (0.5, 3.0]
        fld, _ = make_field(Svf(seed=1000 + seed, amplitude=amp), sdims)
        worst = max(worst, ndv(fld, sfull))
    assert worst < 1e-6

    ident = DisplacementField.zero(AffineHeader.isotropic(dims))
    assert ndv(ident, full) == 0.0
    expansion = np.zeros(dims + (3,))
    for axis in range(3):
        shape = [1, 1, 1]
        shape[axis] = dims[axis]
        expansion[..., axis] = (0.5 * np.arange(dims[axis], dtype=np.float64)).reshape(shape)
    assert ndv(DisplacementField(header=ident.header, data=expansion), full) == 0.0

    _report(2, f"fold slabs within 2%; 20 svf fields max ndv {worst:.2e}; identity and expansion exactly 0")


# ---------------------------------------------------------------------------
# C3: inverse-consistency harness


def test_c03_inverse_consistency():
    dims = (48, 48, 48)
    hdr = AffineHeader.isotropic(dims)
    interior = np.zeros(dims, dtype=np.int16)
    interior[6:-6, 6:-6, 6:-6] = 1
    mask = Volume(header=hdr, kind="label", data=interior)

    worst = 0.0
    for seed in range(20):
        amp = 1.0 + 2.0 * (seed % 5) / 4.0  # amplitudes in [1, 3]
        v = make_velocity(Svf(seed=2000 + seed, amplitude=amp), dims)
        neg = type(v)(header=v.header, data=-np.asarray(v.data))
        mae, _ = ic_residual(exp_svf(v), exp_svf(neg), mask=mask)
        worst = max(worst, mae)
    assert worst < 0.05

    ident = DisplacementField.zero(hdr)
    mae_id, _ = ic_residual(ident, ident)
    assert mae_id == 0.0

    # ordering: a consistent pair scores far below an inconsistent one
    v1 = make_velocity(Svf(seed=3000, amplitude=3.0), dims)
    v2 = make_velocity(Svf(seed=3001, amplitude=3.0), dims)
    neg1 = type(v1)(header=v1.header, data=-np.asarray(v1.data))
    consistent, _ = ic_residual(exp_svf(v1), exp_svf(neg1), mask=mask)
    inconsistent, _ = ic_residual(exp_svf(v1), exp_svf(v2), mask=mask)
    assert consistent < 0.05 < inconsistent

    _report(3, f"20 inverse pairs max mae {worst:.4f} voxels; identity exact 0; ordering reproduced")


# ---------------------------------------------------------------------------
# C4: statistical tests vs enumeration


def _wilcoxon_oracle_p(d: np.ndarray, alternative: str) -> float:
    nz = d[d != 0.0]
    n = nz.size
    abs_d = np.abs(nz)
    order = np.argsort(abs_d)
    ranks = np.empty(n)
    ranks[order] = np.arange(1, n + 1)
    w_obs = ranks[nz > 0].sum()
    signs = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
    w_all = signs @ ranks
    if alternative == "greater":
        return float(np.count_nonzero(w_all >= w_obs - 1e-9)) / 2.0**n
    return float(np.count_nonzero(w_all <= w_obs + 1e-9)) / 2.0**n


_MWU_CACHE: dict = {}


def _mwu_oracle_p(x: np.ndarray, y: np.ndarray, alternative: str) -> float:
    n, m = x.size, y.size
    pooled = np.concatenate([x, y])
    order = np.argsort(pooled)
    ranks = np.empty(n + m)
    ranks[order] = np.arange(1, n + m + 1)
    u_obs = ranks[:n].sum() - n * (n + 1) / 2.0
    if (n, m) not in _MWU_CACHE:
        counts = np.zeros(n * m + 1, dtype=np.int64)
        base = n * (n + 1) // 2
        for combo in itertools.combinations(range(1, n + m + 1), n):
            counts[sum(combo) - base] += 1
        _MWU_CACHE[(n, m)] = counts
    counts = _MWU_CACHE[(n, m)]
    u_int = int(round(u_obs))
    total = counts.sum()
    if alternative == "greater":
        return float(counts[u_int:].sum()) / float(total)
    return float(counts[: u_int + 1].sum()) / float(total)


def _tie_free(rng, size):
    while True:
        v = rng.standard_normal(size)
        if np.unique(np.abs(v)).size == v.size:
            return v


def test_c04_statistical_tests(rng):
    for _ in range(500):
        n = int(rng.integers(1, 13))
        x = _tie_free(rng, n)
        y = np.zeros(n)
        alt = "greater" if rng.random() < 0.5 else "less"
        res = stats.wilcoxon_signed_rank_rows(x, y)
        got = (res.p_greater if alt == "greater" else res.p_less)[0]
        want = _wilcoxon_oracle_p(x, alt)
        assert abs(got - want) <= 1e-12

    count = 0
    while count < 500:
        n = int(rng.integers(1, 13))
        m = int(rng.integers(1, 13))
        if math.comb(n + m, n) > 100_000:
            continue
        count += 1
        pooled = _tie_free(rng, n + m)
        x, y = pooled[:n], pooled[n:]
        alt = "greater" if rng.random() < 0.5 else "less"
        res = stats.mann_whitney_u_rows(x, y)
        got = (res.p_greater if alt == "greater" else res.p_less)[0]
        want = _mwu_oracle_p(x, y, alt)
        assert abs(got - want) <= 1e-12

    worst = 0.0
    for _ in range(30):
        n = int(rng.integers(20, 26))
        x = _tie_free(rng, n)
        y = _tie_free(rng, n)
        p_exact = stats.wilcoxon_signed_rank_rows(x, y, method="exact").p_greater[0]
        p_normal = stats.wilcoxon_signed_rank_rows(x, y, method="normal").p_greater[0]
        worst = max(worst, abs(p_exact - p_normal))
    for _ in range(30):
        n = int(rng.integers(8, 11))
        m = int(rng.integers(20, 26))
        x = _tie_free(rng, n)
        y = _tie_free(rng, m)
        p_exact = stats.mann_whitney_u_rows(x, y, method="exact").p_greater[0]
        p_normal = stats.mann_whitney_u_rows(x, y, method="normal").p_greater[0]
        worst = max(worst, abs(p_exact - p_normal))
    assert worst < 0.01

    _report(4, f"1000 instances exact to 1e-12; exact/normal max gap {worst:.4f}")


# ---------------------------------------------------------------------------
# C5: ranking pipeline


def test_c05_ranking_pipeline(rng):
    order = ["ant", "bee", "cat", "dog", "emu"]
    n_cases = 50
    base = rng.random(n_cases)
    jitter = 0.05 * rng.random((5, n_cases))
    dsc_vals = np.stack([0.95 - 0.04 * i + 0.01 * base + jitter[i] * 0.0 for i in range(5)])
    hd_vals = np.stack([1.0 + 0.5 * i + 0.05 * base for i in range(5)])
    tre_vals = np.stack([0.8 + 0.4 * i + 0.05 * base for i in range(5)])
    matrices = [
        MetricMatrix("dsc", HIGHER_BETTER, tuple(order), tuple(f"c{j}" for j in range(n_cases)), dsc_vals),
        MetricMatrix("hd95", LOWER_BETTER, tuple(order), tuple(f"c{j}" for j in range(n_cases)), hd_vals),
        MetricMatrix("tre", LOWER_BETTER, tuple(order), tuple(f"c{j}" for j in range(n_cases)), tre_vals),
    ]
    table, scores = rank_methods(matrices, ["dsc", "hd95", "tre"])
    assert [row.method for row in table.rows] == order
    assert [row.final_rank for row in table.rows] == [1, 2, 3, 4, 5]
    allowed = {0.1 + 0.9 * k / 4.0 for k in range(5)}
    for row in table.rows:
        for metric in ("dsc", "hd95", "tre"):
            score = row.rank_scores[metric]
            assert 0.1 <= score <= 1.0
            assert any(abs(score - a) < 1e-15 for a in allowed)
        want_acc = math.exp(
            sum(math.log(scores[m][row.method]) for m in ("dsc", "hd95", "tre")) / 3.0
        )
        assert abs(row.acc_score - want_acc) <= 1e-12

    # hand-computed three-method example: wins 2/1/0 map to 1.0/0.55/0.1
    hand = wins_to_rank_scores({"a": 2, "b": 1, "c": 0})
    assert hand == {"a": 1.0, "b": 0.55, "c": 0.1}
    geo = math.exp((math.log(0.1) + math.log(0.9)) / 2.0)
    assert abs(geo - 0.3) <= 1e-12

    _report(5, "5x50 injected ordering recovered; scores on the 0.1..1.0 grid; acc = geometric mean")


# ---------------------------------------------------------------------------
# C6: reference registration


@pytest.fixture(scope="module")
def acceptance_pair():
    dims = (64, 64, 64)
    phantom = make_phantom(PhantomSpec(dims=dims, label_count=6, seed=21, noise_sigma=0.1))
    return make_pair(phantom, make_velocity(Svf(seed=22, amplitude=6.0, smoothness=8.0), dims))


def test_c06_reference_registration(acceptance_pair, rng):
    pair = acceptance_pair
    zero = evaluate_pair(
        pair.fixed_labels,
        pair.moving_labels,
        DisplacementField.zero(pair.fixed_labels.header),
        landmarks=(pair.fixed_landmarks, pair.moving_landmarks),
    )
    assert zero.dsc_mean <= 0.75

    cfg = RegConfig(parameterization="svf")
    t0 = time.perf_counter()
    field, trace = register(pair.fixed_image, pair.moving_image, cfg)
    elapsed = time.perf_counter() - t0
    report = evaluate_pair(
        pair.fixed_labels,
        pair.moving_labels,
        field,
        landmarks=(pair.fixed_landmarks, pair.moving_landmarks),
    )
    assert report.dsc_mean >= 0.90
    assert report.ndv < 1e-2
    assert report.tre_mean <= 1.0
    assert elapsed < 60.0
    for level_losses in trace:
        assert np.all(np.diff(level_losses) <= 0.0)

    # analytic gradient vs central differences on a 16^3 problem
    dims = (16, 16, 16)
    hdr = AffineHeader.isotropic(dims)
    fixed = Volume(header=hdr, kind="scalar", data=rng.standard_normal(dims))
    moving = Volume(header=hdr, kind="scalar", data=rng.standard_normal(dims))
    u = rng.uniform(-1.5, 1.5, size=dims + (3,))
    gcfg = RegConfig()
    _, grad = loss_and_grad(fixed, moving, DisplacementField(header=hdr, data=u), gcfg)
    h = 1e-5
    worst_rel = 0.0
    for _ in range(10):
        x, y, z = (int(t) for t in rng.integers(2, 14, size=3))
        c = int(rng.integers(0, 3))
        up, un = u.copy(), u.copy()
        up[x, y, z, c] += h
        un[x, y, z, c] -= h
        lp, _ = loss_and_grad(fixed, moving, DisplacementField(header=hdr, data=up), gcfg)
        ln, _ = loss_and_grad(fixed, moving, DisplacementField(header=hdr, data=un), gcfg)
        fd = (lp - ln) / (2 * h)
        rel = abs(fd - grad[x, y, z, c]) / max(abs(fd), abs(grad[x, y, z, c]), 1e-12)
        worst_rel = max(worst_rel, rel)
    assert worst_rel <= 1e-4

    _report(
        6,
        f"zero dsc {zero.dsc_mean:.3f} -> registered dsc {report.dsc_mean:.3f}, "
        f"tre {report.tre_mean:.3f} mm, ndv {report.ndv:.1e}, {elapsed:.1f} s; "
        f"gradient rel err {worst_rel:.1e}",
    )


# ---------------------------------------------------------------------------
# C7: ZeroDisplacement consistency


def test_c07_zero_displacement_consistency(rng):
    dims = (24, 24, 24)
    for _ in range(10):
        a = _random_blob_volume(rng, dims, n_labels=3)
        b = _random_blob_volume(rng, dims, n_labels=3)
        fixed, moving = label_volume(a), label_volume(b)
        labels = [1, 2, 3]
        report = evaluate_pair(FixedSide(fixed, labels), moving, DisplacementField.zero(fixed.header))
        direct_dsc, direct_mean = dsc(fixed, moving, labels)
        assert report.dsc_per_label == direct_dsc
        if direct_mean is None:
            assert report.dsc_mean is None
        else:
            assert abs(report.dsc_mean - direct_mean) <= 1e-12
        for lab in labels:
            direct_hd = hd95(fixed, moving, lab)
            got = report.hd95_per_label[lab]
            if direct_hd is None:
                assert got is None
            else:
                assert abs(got - direct_hd) <= 1e-12
        assert report.ndv == 0.0
    _report(7, "zero-field evaluation identical to direct overlap on 10 random pairs")


# ---------------------------------------------------------------------------
# C8: format fidelity


def test_c08_format_fidelity(tmp_path, rng):
    from regeval import errors, volio
    from conftest import craft_nifti

    for np_dtype, kind in (
        (np.uint8, "label"),
        (np.int16, "label"),
        (np.int32, "label"),
        (np.float32, "scalar"),
        (np.float64, "scalar"),
    ):
        dims = (6, 5, 4)
        if kind == "label":
            data = rng.integers(0, 40, size=dims).astype(np_dtype)
        else:
            data = rng.standard_normal(dims).astype(np_dtype)
        vol = Volume(header=AffineHeader.isotropic(dims, 1.5), kind=kind, data=data)
        path = tmp_path / f"{np.dtype(np_dtype).name}.nii"
        volio.write_nifti(vol, path)
        back = volio.read_nifti(path)
        assert back.data.dtype == data.dtype and np.array_equal(back.data, data)
        assert back.header.dims == dims and back.header.spacing == (1.5, 1.5, 1.5)

    vals = rng.standard_normal((5, 6, 7, 3)).astype(np.float32)
    p4 = tmp_path / "f4.nii"
    p5 = tmp_path / "f5.nii"
    p4.write_bytes(craft_nifti(vals, datatype=16, dim=(4, 5, 6, 7, 3, 1, 1, 1)))
    p5.write_bytes(craft_nifti(vals, datatype=16, dim=(5, 5, 6, 7, 1, 3, 1, 1)))
    f4, f5 = volio.read_nifti(p4), volio.read_nifti(p5)
    assert isinstance(f4, DisplacementField) and isinstance(f5, DisplacementField)
    assert np.array_equal(f4.data, f5.data)

    bad_magic = craft_nifti(np.zeros((2, 2, 2), dtype=np.float32), 16, (3, 2, 2, 2, 1, 1, 1, 1), magic=b"oops")
    (tmp_path / "bad.nii").write_bytes(bad_magic)
    with pytest.raises(errors.BadMagic):
        volio.read_nifti(tmp_path / "bad.nii")

    short = craft_nifti(np.zeros((4, 4, 4), dtype=np.float32), 16, (3, 4, 4, 4, 1, 1, 1, 1), truncate=16)
    (tmp_path / "short.nii").write_bytes(short)
    with pytest.raises(errors.TruncatedPayload):
        volio.read_nifti(tmp_path / "short.nii")

    _report(8, "bit-exact round trips for 5 datatypes; both field layouts equal; error paths verified")


# ---------------------------------------------------------------------------
# C9: determinism and parallel safety


def test_c09_eval_determinism(tmp_path):
    cohort = tmp_path / "cohort"
    make_cohort(cohort, cases=16, dims=(16, 16, 16), seed=12, label_count=3, amplitude=1.5)
    out1 = tmp_path / "serial"
    out8 = tmp_path / "parallel"
    assert cli.main(["--out", str(out1), "eval", str(cohort / "manifest.csv")]) == 0
    assert cli.main(["--jobs", "8", "--out", str(out8), "eval", str(cohort / "manifest.csv")]) == 0
    files1 = {p.name: p.read_bytes() for p in sorted(out1.glob("*.json"))}
    files8 = {p.name: p.read_bytes() for p in sorted(out8.glob("*.json"))}
    assert files1.keys() == files8.keys()
    assert len(files1) == 33  # 16 cases x 2 methods + errors.json
    assert files1 == files8
    _report(9, f"{len(files1) - 1} reports byte-identical between --jobs 1 and --jobs 8")


# ---------------------------------------------------------------------------
# C10: large-volume performance


def test_c10_large_volume_performance():
    from regeval.warp import warp_labels

    dims = (160, 192, 224)
    spec = PhantomSpec(dims=dims, label_count=20, seed=77, noise_sigma=0.0)
    _, labels, lm = make_phantom(spec)
    vec = (1.2, -0.8, 0.5)
    phi, _ = make_field(Translation(vec), dims)
    inverse, _ = make_field(Translation(tuple(-t for t in vec)), dims)
    moving = warp_labels(labels, inverse)
    lm_moving = LandmarkSet(names=lm.names, points=lm.points + np.asarray(vec))

    t0 = time.perf_counter()
    report = evaluate_pair(labels, moving, phi, landmarks=(lm, lm_moving))
    elapsed = time.perf_counter() - t0
    assert len(report.dsc_per_label) == 20
    assert elapsed < 10.0
    _report(10, f"evaluate_pair on {dims} with 20 labels in {elapsed:.2f} s")
