"""Acceptance sweep: one test per required capability, at the stated budgets.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion; add ``-s`` to see the measured values.  Unit-level variants of
these checks (tighter tolerances, error paths) live in the other test files;
this file pins the end-to-end numbers the package is required to meet.
"""

import math
import time

import numpy as np
import pytest

import fraclab as fl

INTERVAL = fl.make_domain([(-1.0, 1.0)])
ANNULUS = fl.make_domain([(-2.0, -1.0), (1.0, 2.0)])
BOX1 = [(-3.0, 3.0)]
BOX2 = [(-1.5, 1.5), (-1.5, 1.5)]


def _bp(domain, side):
    return [b for b in fl.boundary_points(domain) if b.side == side][-1]


def _report(label, detail):
    print(f"[{label}] PASS — {detail}")


# ---------------------------------------------------------------------------

def test_criterion_01_kernel_algebra():
    # fields with exact kernel algebra: constants and rotation generators
    # give K_X = 0; the identity field gives (c/2)(N - 2s) r^(-N-2s)
    rng = np.random.default_rng(2026)
    worst_zero = 0.0
    for N, s, fields in (
        (1, 0.3, [fl.constant_field([0.7], BOX1)]),
        (2, 0.6, [fl.constant_field([0.7, -0.2], BOX2), fl.rotation_field(BOX2)]),
    ):
        c = fl.frac_constant(N, s)
        for X in fields:
            for _ in range(1000):
                x, y = rng.uniform(-1.2, 1.2, size=(2, N))
                r = np.linalg.norm(x - y)
                if r < 1e-3:
                    continue
                scale = 0.5 * c * (N + 2.0 * s) * r ** (-N - 2.0 * s)
                k = fl.eval_kernel_KX(X, s, N, x, y)
                worst_zero = max(worst_zero, abs(k) / scale)
    assert worst_zero <= 1e-12

    worst_id = 0.0
    for N, s in ((1, 0.3), (1, 0.7), (2, 0.25), (2, 0.5), (2, 0.75)):
        X = fl.identity_field(N, box=BOX1 if N == 1 else BOX2)
        c = fl.frac_constant(N, s)
        for _ in range(1000):
            x, y = rng.uniform(-1.2, 1.2, size=(2, N))
            r = np.linalg.norm(x - y)
            if r < 1e-3:
                continue
            want = 0.5 * c * (N - 2.0 * s) * r ** (-N - 2.0 * s)
            got = fl.eval_kernel_KX(X, s, N, x, y)
            worst_id = max(worst_id, abs(got - want) / abs(want))
    assert worst_id <= 1e-12
    _report(
        "criterion 01",
        f"kernel zeros max {worst_zero:.2e}, identity-field rel {worst_id:.2e} "
        "(tol 1e-12)",
    )


def test_criterion_02_compact_support_formula():
    bump = fl.polynomial_bump()  # C^2, supported in (-0.5, 0.5)
    cases = {
        "id": fl.identity_field(1, box=BOX1),
        "x + 0.25*x^2": fl.make_field(["x + 0.25*x^2"], box=BOX1),
        "const": fl.constant_field([1.0], BOX1),
    }
    worst = 0.0
    slowest = 0.0
    for name, X in cases.items():
        for s in (0.25, 0.5, 0.75):
            t0 = time.perf_counter()
            rep = fl.lemma21_check(bump, X, s, 1e-8, domain=INTERVAL)
            dt = time.perf_counter() - t0
            slowest = max(slowest, dt)
            worst = max(worst, rep.rel_residual)
            assert rep.rel_residual <= 1e-3, (name, s, rep.rel_residual)
            assert dt <= 60.0, (name, s, dt)
    _report(
        "criterion 02",
        f"9 field/s cases, worst rel {worst:.2e} (tol 1e-3), "
        f"slowest case {slowest:.1f}s (budget 60s)",
    )


def test_criterion_03_pohozaev_eigenfunctions():
    worst = 0.0
    for s in (0.3, 0.5, 0.7):
        coarse = fl.solve_context(INTERVAL, s, 128, 2.0, False)
        fine = fl.solve_context(INTERVAL, s, 512, 2.0, False)
        for k in (1, 2, 3):
            r128 = fl.ros_oton_serra_check(coarse, coarse.pairs[k - 1]).rel_residual
            r512 = fl.ros_oton_serra_check(fine, fine.pairs[k - 1]).rel_residual
            assert r512 <= 0.05, (s, k, r512)
            assert r512 < r128, (s, k, r512, r128)
            worst = max(worst, r512)
    _report(
        "criterion 03",
        f"k=1..3, s in {{0.3,0.5,0.7}}: worst rel {worst:.2e} at n=512 "
        "(tol 5e-2), all below their n=128 values",
    )


def test_criterion_04_generalized_identity():
    X = fl.make_field(["x + 0.25*x^2"], box=BOX1)
    coarse = fl.solve_context(INTERVAL, 0.5, 128, 2.0, False)
    fine = fl.solve_context(INTERVAL, 0.5, 512, 2.0, False)
    r128 = fl.pohozaev_check(coarse, coarse.pairs[0], X).rel_residual
    r512 = fl.pohozaev_check(fine, fine.pairs[0], X).rel_residual
    assert r512 <= 0.05
    assert r512 < r128
    _report(
        "criterion 04",
        f"X = x + 0.25x^2: rel {r512:.2e} at n=512 (tol 5e-2), "
        f"down from {r128:.2e} at n=128",
    )


def test_criterion_05_two_function_identity():
    ctx = fl.solve_context(INTERVAL, 0.5, 512, 2.0, False)
    rels = {}
    for name, X in (
        ("e1", fl.constant_field([1.0], BOX1)),
        ("id", fl.identity_field(1, box=BOX1)),
    ):
        rep = fl.ibp_check(ctx, ctx.pairs[0], ctx.pairs[1], X)
        rels[name] = rep.rel_residual
        assert rep.rel_residual <= 0.05, (name, rep.rel_residual)
    _report(
        "criterion 05",
        f"modes (1,2): rel e1 {rels['e1']:.2e}, id {rels['id']:.2e} (tol 5e-2)",
    )


def test_criterion_06_hadamard_derivative():
    s, n, h = 0.5, 512, 1e-3
    ctx = fl.solve_context(INTERVAL, s, n, 2.0, False)
    right = _bp(INTERVAL, "right")
    left = _bp(INTERVAL, "left")
    worst = 0.0
    worst_dil = 0.0
    for k in (1, 2, 3):
        rep = fl.hadamard_check(ctx, k, right, h=h)
        assert rep.rel_error <= 0.05, (k, rep.rel_error)
        worst = max(worst, rep.rel_error)
        # dilation cross-check: outward motion of both endpoints at unit
        # speed scales the domain, so the slopes must sum to -2s*lambda_k
        lrep = fl.hadamard_check(ctx, k, left, h=h)
        total = rep.fd_slope + lrep.fd_slope
        target = -2.0 * s * ctx.values[k - 1]
        dil = abs(total - target) / abs(target)
        assert dil <= 0.05, (k, dil)
        worst_dil = max(worst_dil, dil)
    _report(
        "criterion 06",
        f"k=1..3 at h=1e-3, n=512: worst slope rel {worst:.2e}, "
        f"dilation cross-check {worst_dil:.2e} (tol 5e-2)",
    )


def test_criterion_07_l2_identity():
    rels = {}
    for name, dom in (("interval", INTERVAL), ("annulus", ANNULUS)):
        ctx = fl.solve_context(dom, 0.5, 512, 2.0, False)
        rep = fl.l2_identity_check(ctx, ctx.pairs[0])
        assert abs(1.0 - rep.rhs) <= 0.05, (name, rep.rhs)
        assert rep.rel_residual <= 0.05
        rels[name] = rep.rel_residual
    # boundary-term sign pattern on the annulus: outward-facing pieces
    # positive, the inner endpoints negative
    ctx = fl.solve_context(ANNULUS, 0.5, 512, 2.0, False)
    lam = ctx.values[0]
    gam2 = math.gamma(1.5) ** 2
    for bp in fl.boundary_points(ANNULUS):
        psi = fl.extract_trace(ctx.mesh, ctx.pairs[0].vector, 0.5, bp).psi
        term = gam2 * psi**2 * (bp.x * bp.normal) / lam
        if abs(bp.x) == 2.0:
            assert term > 0.0, (bp.x, term)
        else:
            assert term < 0.0, (bp.x, term)
    _report(
        "criterion 07",
        f"|1 - rhs| within 5e-2 (interval rel {rels['interval']:.2e}, "
        f"annulus rel {rels['annulus']:.2e}); annulus signs outer+/inner-",
    )


def test_criterion_08_spectral_structure():
    rep = fl.spectrum_report(fl.solve_context(INTERVAL, 0.5, 512, 2.0, True), 7)
    gaps = list(rep.gaps[:6])
    assert all(g > 1e-2 for g in gaps)
    two = fl.spectrum_report(fl.solve_context(ANNULUS, 0.5, 256, 2.0, True), 8)
    assert max(two.cluster_sizes) <= 2
    _report(
        "criterion 08",
        f"even gaps k<=6 all > 1e-2 (min {min(gaps):.3f}); symmetric "
        f"two-interval clusters at 1e-4: max size {max(two.cluster_sizes)}",
    )


def test_criterion_09_nonexistence_thresholds():
    # c1 = N c2 collapses the threshold to the critical exponent
    for N, c2, s in ((1, 1.0, 0.25), (2, 2.0, 0.3), (2, 0.7, 0.45)):
        pstar = fl.nonexistence_threshold(N * c2, c2, N, s)
        assert pstar == pytest.approx(2.0 * N / (N - 2.0 * s), rel=1e-14)
    p_aniso = fl.nonexistence_threshold(1.5, 1.0, 2, 0.25)
    assert p_aniso == pytest.approx(8.0, rel=1e-14)
    _report(
        "criterion 09",
        "critical collapse p* = 2N/(N-2s) exact; (c1,c2,s) = (1.5,1,0.25) "
        f"gives p* = {p_aniso:.1f}",
    )


def test_criterion_10_field_certificates():
    rot = fl.make_field(["5*x - 4*y", "5*y + 4*x"], box=BOX2)
    cert = fl.check_c_condition(rot)
    assert cert.verdict == "pass"
    assert cert.constants[0] == pytest.approx(5.0, abs=1e-9)
    dom = fl.make_implicit_domain(
        "x^2 + 10*(y^3 + x)^2 - 1", [-1.2, 1.2, -1.2, 1.2]
    )
    flux = fl.min_flux(rot, fl.sample_boundary_2d(dom, 400))
    assert flux >= -1e-6

    aniso = fl.make_field(["0.5*x", "y"], box=BOX2)
    cert2 = fl.check_c1_c2(aniso)
    assert cert2.constants[0] == pytest.approx(1.5, abs=1e-6)
    assert cert2.constants[1] == pytest.approx(1.0, abs=1e-6)
    _report(
        "criterion 10",
        f"rotation+dilation field: c = 5 (pass), min_flux = {flux:.3e} "
        ">= -1e-6; anisotropic field: (c1, c2) = (1.5, 1.0) +/- 1e-6",
    )


def test_criterion_11_eigenvalue_oracle():
    # frozen reference: lambda_1 on (-1,1) at s = 1/2 from an n = 2048 run,
    # Richardson-stable to ~6e-8
    oracle = 1.157773952177
    lams = [
        fl.solve_context(INTERVAL, 0.5, n, 2.0, False).values[0]
        for n in (256, 512, 1024)
    ]
    d1, d2 = lams[1] - lams[0], lams[2] - lams[1]
    order = math.log2(abs(d1 / d2))
    extrap = lams[2] + d2 / (2.0**order - 1.0)
    rel = abs(extrap - oracle) / oracle
    assert rel <= 5e-3
    _report(
        "criterion 11",
        f"Richardson over n in {{256,512,1024}} (order {order:.2f}): "
        f"lambda_1 = {extrap:.9f} vs oracle, rel {rel:.2e} (tol 5e-3)",
    )


def test_criterion_12_semilinear_pohozaev():
    s, p = 0.75, 4.0
    ctx = fl.solve_context(INTERVAL, s, 512, 2.0, False)
    sol = fl.solve_semilinear(ctx, p)
    X = fl.identity_field(1, box=BOX1)
    rep = fl.pohozaev_check(ctx, sol, X)
    assert rep.rel_residual <= 0.05
    _report(
        "criterion 12",
        f"ground state p=4, s=0.75: Pohozaev rel {rep.rel_residual:.2e} "
        "(tol 5e-2)",
    )
