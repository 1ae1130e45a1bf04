"""Trace extraction and identity-verification tests.

Each identity check compares two independently computed sides; the tests
here pin the degenerate/closed-form cases and the refinement behavior at
unit-test scale (n <= 512).  The full acceptance sweep lives in
test_acceptance.py.
"""

import dataclasses
import importlib

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import fraclab as fl
from fraclab.assembly import _pair_tables
from fraclab.errors import ArgumentError, SupportError, WindowError
from fraclab.solve import _K_KEEP
from helpers import cho_factor_shapes

BOX1 = [(-3.0, 3.0)]
INTERVAL = fl.make_domain([(-1.0, 1.0)])
ANNULUS = fl.make_domain([(-2.0, -1.0), (1.0, 2.0)])


def last_report(*args, **kwargs):
    """The report of the last (finest) step of ``verify_steps``."""
    *_, last = fl.verify_steps(*args, **kwargs)
    return last


def context(n, even_only=False, domain=INTERVAL, s=0.5):
    """The solve context of ``domain`` at ``n`` elements per interval, beta = 2."""
    return fl.solve_context(domain, s, n, 2.0, even_only)


def right_bp(domain=INTERVAL):
    return [b for b in fl.boundary_points(domain) if b.x == max(
        iv[1] for iv in domain.intervals
    )][0]


# ---------------------------------------------------------------------------
# boundary trace
# ---------------------------------------------------------------------------

def test_trace_exact_on_own_model():
    mesh = fl.make_mesh(INTERVAL, 128, beta=2.0)
    for bp in fl.boundary_points(INTERVAL):
        for psi, c1 in [(1.0, 0.0), (1.3, -0.4), (0.2, 0.8)]:
            x = mesh.interior_x
            delta = np.minimum(x + 1.0, 1.0 - x)  # distance to the complement
            u = psi * delta**0.5 * (1.0 + c1 * delta)
            est = fl.extract_trace(mesh, u, 0.5, bp)
            assert est.psi == pytest.approx(psi, rel=1e-10)
            assert est.residual < 1e-10
            assert est.nodes_used >= 4


@settings(max_examples=25, deadline=None)
@given(
    psi=st.floats(min_value=0.25, max_value=2.0),
    c1=st.floats(min_value=-0.5, max_value=0.5),
    s=st.sampled_from([0.3, 0.5, 0.7]),
)
def test_trace_recovers_model_property(psi, c1, s):
    mesh = fl.make_mesh(INTERVAL, 64, beta=2.0)
    x = mesh.interior_x
    delta = np.minimum(x + 1.0, 1.0 - x)  # distance to the complement
    u = psi * delta**s * (1.0 + c1 * delta)
    est = fl.extract_trace(mesh, u, s, right_bp())
    assert est.psi == pytest.approx(psi, rel=1e-9)


def test_trace_torsion_profile_value():
    # (1 - x^2)^s = (1 - x)^s (1 + x)^s has trace 2^s at either endpoint
    s = 0.5
    mesh = fl.make_mesh(INTERVAL, 256, beta=2.0)
    u = np.maximum(1.0 - mesh.interior_x**2, 0.0) ** s
    for bp in fl.boundary_points(INTERVAL):
        est = fl.extract_trace(mesh, u, s, bp)
        assert est.psi == pytest.approx(2.0**s, rel=1e-5)


def test_trace_eigenfunction_cauchy_refinement():
    # psi_1(1) estimates contract by >= 1.5x per mesh doubling
    ests = []
    for n in (128, 256, 512):
        ctx = fl.solve_context(INTERVAL, 0.5, n, 2.0, False)
        ests.append(
            fl.extract_trace(ctx.mesh, ctx.pairs[0].vector, 0.5, right_bp()).psi
        )
    d1 = abs(ests[1] - ests[0])
    d2 = abs(ests[2] - ests[1])
    assert d1 / d2 >= 1.5


def test_trace_refuses_a_vector_of_every_node():
    mesh = fl.make_mesh(INTERVAL, 32, beta=2.0)
    u = np.maximum(1.0 - np.concatenate(mesh.nodes) ** 2, 0.0) ** 0.5
    with pytest.raises(ArgumentError, match="the 31 interior dof values, got shape"):
        fl.extract_trace(mesh, u, 0.5, right_bp())


def test_trace_window_error():
    mesh = fl.make_mesh(INTERVAL, 32, beta=2.0)
    u = np.maximum(1.0 - mesh.interior_x**2, 0.0) ** 0.5
    with pytest.raises(WindowError):
        fl.extract_trace(mesh, u, 0.5, right_bp(), window=(1e-6, 2e-6))


# ---------------------------------------------------------------------------
# Pohozaev / two-function identities
# ---------------------------------------------------------------------------

def test_pohozaev_constant_field_degenerate_zero():
    # even ground state, X = e1: both endpoint fluxes cancel exactly
    ctx = fl.solve_context(INTERVAL, 0.5, 256, 2.0, False)
    X = fl.constant_field([1.0], BOX1)
    rep = fl.pohozaev_check(ctx, ctx.pairs[0], X)
    assert abs(rep.lhs) <= 1e-10
    assert rep.abs_residual <= 1e-10


def test_pohozaev_identity_field_interval():
    ctx = fl.solve_context(INTERVAL, 0.5, 256, 2.0, False)
    X = fl.identity_field(1, box=BOX1)
    rep = fl.pohozaev_check(ctx, ctx.pairs[0], X)
    assert rep.identity == "generalized"
    assert rep.rel_residual <= 0.05
    # X = id at s = 1/2 reduces to (pi/4)[psi(1)^2 + psi(-1)^2] = lambda
    assert rep.lhs == pytest.approx(ctx.values[0], rel=0.02)


def test_ibp_with_equal_pairs_matches_pohozaev():
    ctx = fl.solve_context(INTERVAL, 0.5, 128, 2.0, False)
    X = fl.identity_field(1, box=BOX1)
    poh = fl.pohozaev_check(ctx, ctx.pairs[0], X)
    ibp = fl.ibp_check(ctx, ctx.pairs[0], ctx.pairs[0], X)
    scale = max(abs(poh.lhs), abs(poh.rhs), 1e-30)
    assert abs(ibp.abs_residual - poh.abs_residual) <= 1e-10 * scale


def test_ibp_zero_field_vanishes_identically():
    ctx = fl.solve_context(INTERVAL, 0.5, 64, 2.0, False)
    X = fl.constant_field([0.0], BOX1)
    rep = fl.ibp_check(ctx, ctx.pairs[0], ctx.pairs[1], X)
    assert abs(rep.lhs) <= 1e-14 and abs(rep.rhs) <= 1e-14


def test_ibp_even_odd_pair():
    ctx = fl.solve_context(INTERVAL, 0.5, 256, 2.0, False)
    for X in (fl.constant_field([1.0], BOX1), fl.identity_field(1, box=BOX1)):
        rep = fl.ibp_check(ctx, ctx.pairs[0], ctx.pairs[1], X)
        assert rep.rel_residual <= 0.05


# ---------------------------------------------------------------------------
# L2 identity
# ---------------------------------------------------------------------------

def test_l2_identity_interval():
    ctx = fl.solve_context(INTERVAL, 0.5, 256, 2.0, False)
    rep = fl.l2_identity_check(ctx, ctx.pairs[0])
    assert rep.lhs == pytest.approx(1.0, abs=1e-12)  # M-normalized
    assert rep.rel_residual <= 0.05
    assert rep.rhs > 0


def test_l2_identity_annulus_sign_pattern():
    s = 0.5
    ctx = fl.solve_context(ANNULUS, s, 256, 2.0, False)
    rep = fl.l2_identity_check(ctx, ctx.pairs[0])
    assert rep.rel_residual <= 0.05
    # recompute the four boundary terms: outer nu points away from 0 so
    # b * nu > 0 there, inner endpoints give negative terms
    lam = ctx.values[0]
    gam2 = float(np.pi) / 4.0  # Gamma(1.5)^2
    terms = {}
    for bp in fl.boundary_points(ANNULUS):
        psi = fl.extract_trace(ctx.mesh, ctx.pairs[0].vector, s, bp).psi
        terms[bp.x] = gam2 / (2 * s * lam) * psi**2 * (bp.x * bp.normal)
    assert terms[-2.0] > 0 and terms[2.0] > 0
    assert terms[-1.0] < 0 and terms[1.0] < 0
    assert sum(terms.values()) == pytest.approx(rep.rhs, rel=1e-10)


def test_l2_identity_rhs_positive_for_higher_modes():
    ctx = fl.solve_context(INTERVAL, 0.5, 128, 2.0, False)
    for k in range(3):
        rep = fl.l2_identity_check(ctx, ctx.pairs[k])
        assert rep.rhs > 0


# ---------------------------------------------------------------------------
# refinement-history flags
# ---------------------------------------------------------------------------

def test_history_flags():
    flag = fl.analysis._history_flag
    assert flag(((16, 0.9), (32, 0.5))) == "OK"
    assert flag(((16, 0.001), (32, 0.9))) == "WARN"
    assert flag(((16, 1e-9), (32, 1e-4), (48, 0.9))) == "FAIL"
    assert flag(((16, 0.5),)) == flag(()) == "OK"


def test_verify_steps_accumulates_the_history_and_its_flag(monkeypatch):
    # a check reports its own step alone; verify_steps carries the history
    # of the steps so far and flags each report from it
    rels = iter([0.9, 0.5, 0.7, 0.8])
    real = fl.analysis.ros_oton_serra_check

    def check(ctx, sol):
        rep = real(ctx, sol)
        assert rep.history == ((rep.n, rep.rel_residual),)
        rel = next(rels)
        return dataclasses.replace(rep, rel_residual=rel, history=((rep.n, rel),))

    monkeypatch.setattr(fl.analysis, "ros_oton_serra_check", check)
    reps = list(fl.verify_steps("ros-oton-serra", INTERVAL, 0.5, [16, 32, 64, 128]))
    assert [r.history for r in reps] == [
        ((16, 0.9),),
        ((16, 0.9), (32, 0.5)),
        ((16, 0.9), (32, 0.5), (64, 0.7)),
        ((16, 0.9), (32, 0.5), (64, 0.7), (128, 0.8)),
    ]
    assert [r.flag for r in reps] == ["OK", "OK", "WARN", "FAIL"]


# ---------------------------------------------------------------------------
# compact-support kernel formula (two independent quadratures)
# ---------------------------------------------------------------------------

def test_lemma21_constant_field_both_sides_vanish():
    bump = fl.polynomial_bump()
    X = fl.constant_field([0.7], BOX1)
    rep = fl.lemma21_check(bump, X, 0.5, 1e-8, domain=INTERVAL)
    assert abs(rep.lhs) == 0.0
    assert rep.rel_residual <= 1e-6


def test_lemma21_identity_s_half_degenerate():
    bump = fl.polynomial_bump()
    X = fl.identity_field(1, box=BOX1)
    rep = fl.lemma21_check(bump, X, 0.5, 1e-8, domain=INTERVAL)
    assert abs(rep.lhs) <= 1e-12
    assert abs(rep.rhs) <= 1e-4


def test_lemma21_identity_quarter():
    bump = fl.polynomial_bump()
    X = fl.identity_field(1, box=BOX1)
    rep = fl.lemma21_check(bump, X, 0.25, 1e-8, domain=INTERVAL)
    assert rep.rel_residual <= 1e-3


def test_lemma21_residual_tracks_tolerance():
    # tightening the quadrature tolerance by 10x must cut the residual by
    # at least 3x (checked on a case where neither side degenerates)
    bump = fl.polynomial_bump()
    X = fl.make_field(["x + 0.25*x^2"], box=BOX1)
    res = [
        fl.lemma21_check(bump, X, 0.25, tol, domain=INTERVAL).abs_residual
        for tol in (1e-6, 1e-7, 1e-8)
    ]
    assert res[0] / res[1] >= 3.0
    assert res[1] / res[2] >= 3.0


def test_lemma21_calls_the_operator_once_per_node_array(monkeypatch):
    # one operator call for each outer integrand evaluation, plus one for
    # the normalization rule, each on the whole node array
    analysis = importlib.import_module("fraclab.analysis")
    sizes, outer = [], []
    real_op, real_quad = analysis.frac_laplacian_pointwise, analysis.adaptive_panels

    def op(phi, s, x, **kwargs):
        sizes.append(np.size(x))
        return real_op(phi, s, x, **kwargs)

    def quad(f, *args, **kwargs):
        def g(y):
            outer.append(np.size(y))
            return f(y)

        return real_quad(g, *args, **kwargs)

    monkeypatch.setattr(analysis, "frac_laplacian_pointwise", op)
    monkeypatch.setattr(analysis, "adaptive_panels", quad)
    X = fl.make_field(["x + 0.25*x^3"], box=BOX1)
    fl.lemma21_check(fl.polynomial_bump(0.2, 0.5, 3), X, 0.5, 1e-6, domain=INTERVAL)
    assert sizes == outer + [12 * 8]


@pytest.mark.parametrize("halfwidth", [0.0, -0.5])
def test_polynomial_bump_halfwidth_must_be_positive(halfwidth):
    # a zero halfwidth divided by zero, a negative one inverted the support
    with pytest.raises(ArgumentError, match="halfwidth must be positive"):
        fl.polynomial_bump(halfwidth=halfwidth)


def test_polynomial_bump_power_must_be_an_integer():
    with pytest.raises(ArgumentError, match="bump power must be an integer, got 2.5"):
        fl.polynomial_bump(power=2.5)
    with pytest.raises(ArgumentError, match=r"power >= 2 needed for a C\^1 bump"):
        fl.polynomial_bump(power=1)
    x = np.linspace(-0.6, 0.6, 13)
    assert np.array_equal(fl.polynomial_bump(power=3.0)(x), fl.polynomial_bump(power=3)(x))


def test_lemma21_support_margin_enforced():
    X = fl.identity_field(1, box=BOX1)
    with pytest.raises(SupportError):
        fl.lemma21_check(
            fl.polynomial_bump(halfwidth=0.95), X, 0.5, domain=INTERVAL
        )
    with pytest.raises(SupportError):
        # no single interval of the annulus contains the support
        fl.lemma21_check(fl.polynomial_bump(), X, 0.5, domain=ANNULUS)


# ---------------------------------------------------------------------------
# Hadamard derivative
# ---------------------------------------------------------------------------

def test_hadamard_basic_accuracy():
    rep = fl.hadamard_check(context(256), 1, right_bp(), h=1e-3)
    assert rep.rel_error <= 0.05
    assert rep.fd_slope < 0 and rep.formula < 0


def test_hadamard_h_stable():
    r1 = fl.hadamard_check(context(256), 1, right_bp(), h=1e-3)
    r2 = fl.hadamard_check(context(256), 1, right_bp(), h=5e-4)
    assert abs(r1.fd_slope - r2.fd_slope) < r1.rel_error * abs(r1.fd_slope)


def test_hadamard_endpoint_symmetry():
    left = [b for b in fl.boundary_points(INTERVAL) if b.x == -1.0][0]
    rl = fl.hadamard_check(context(256), 1, left, h=1e-3)
    rr = fl.hadamard_check(context(256), 1, right_bp(), h=1e-3)
    assert abs(rl.fd_slope - rr.fd_slope) <= 1e-3 * abs(rr.fd_slope)


def test_hadamard_even_only_tracks_full_mode():
    # even mode 2 is full mode 3; the two calls must agree since the
    # perturbed solves track the located full-spectrum index
    bp = right_bp()
    re = fl.hadamard_check(context(64, even_only=True), 2, bp, h=1e-3)
    rf = fl.hadamard_check(context(64), 3, bp, h=1e-3)
    assert re.fd_slope == pytest.approx(rf.fd_slope, rel=1e-12)
    assert re.formula == pytest.approx(rf.formula, rel=1e-10)


@pytest.mark.parametrize("n", [16, 24])
def test_hadamard_even_only_on_fewer_dofs_than_solved_values(n):
    # K = 15 and 23: the odd half has 7 and 11 dofs, fewer than the
    # _K_KEEP + 1 values it is asked for, and the lookup takes all of them
    bp = right_bp()
    re = fl.hadamard_check(context(n, even_only=True), 2, bp, h=1e-3)
    rf = fl.hadamard_check(context(n), 3, bp, h=1e-3)
    assert re.fd_slope == pytest.approx(rf.fd_slope, rel=1e-12)
    assert re.formula == pytest.approx(rf.formula, rel=1e-10)


def test_hadamard_even_only_finds_the_last_kept_mode():
    # even mode 12 on one interval is full mode 23, past the _K_KEEP + 1
    # values a full context solves; compare with full solves of the
    # perturbed problems
    bp, h = right_bp(), 1e-3
    rep = fl.hadamard_check(context(64, even_only=True), 12, bp, h=h)
    lam = []
    for dx in (h, -h):
        mesh = fl.make_mesh(fl.perturb_endpoint(INTERVAL, bp, dx), 64, beta=2.0)
        A, M = fl.assemble_gagliardo(mesh, 0.5), fl.assemble_mass(mesh)
        lam.append(scipy.linalg.eigh(A, M.toarray(), eigvals_only=True)[22])
    assert rep.fd_slope == pytest.approx((lam[0] - lam[1]) / (2.0 * h), rel=1e-9)


def test_hadamard_even_only_factors_no_full_form(monkeypatch):
    # K = 1023: the even context solves the even half (512 dofs) and the
    # full-spectrum lookup the odd half alone (511); the only K x K factors
    # are those of the two perturbed domains, which are not mirror-symmetric
    fl.solve_context.cache_clear()
    shapes = cho_factor_shapes(monkeypatch)
    fl.hadamard_check(context(1024, even_only=True), 2, right_bp(), h=1e-3)
    assert shapes == [(512, 512), (511, 511), (1023, 1023), (1023, 1023)]


def test_hadamard_even_only_refuses_a_mode_past_the_solved_values(monkeypatch):
    # even mode k sits after the odd values below it; when all _K_KEEP + 1
    # solved odd values lie below it and the odd half (15 dofs) has more,
    # the odd values below it are not all known
    monkeypatch.setattr(
        fl.analysis, "_solve_halves", lambda *args, **kwargs: np.zeros(_K_KEEP + 1)
    )
    with pytest.raises(ArgumentError, match="even mode k = 2 not found in the full spectrum"):
        fl.hadamard_check(context(32, even_only=True), 2, right_bp(), h=1e-3)


@pytest.mark.parametrize("even_only, misses", [(False, 1), (True, 1)])
def test_hadamard_perturbed_solves_are_not_cached(even_only, misses):
    # the perturbed domains are solved without a context, and an even check
    # reads the full spectrum from its own context's full forms, so the
    # check asks solve_context for nothing beyond the context it is given
    fl.solve_context.cache_clear()
    ctx = context(48, even_only=even_only, s=0.43)
    fl.hadamard_check(ctx, 2, right_bp(), h=1e-3)
    info = fl.solve_context.cache_info()
    assert (info.hits, info.misses) == (0, misses)


def test_hadamard_refuses_a_near_degenerate_eigenvalue():
    # on (-2, -1) u (1, 2) even mode 12 and its odd partner sit 5e-5 apart,
    # while moving the endpoint by h moves the mode by 0.15; the difference
    # quotient followed the other branch (fd_slope -18.5, formula -38.0)
    with pytest.raises(ArgumentError, match="37.184036.*37.184087.*simple eigenvalue"):
        fl.hadamard_check(context(64, even_only=True, domain=ANNULUS), 12, right_bp(ANNULUS))


def test_hadamard_refuses_the_last_mode_when_its_upper_neighbour_moves_close():
    # a full context solves one pair past the _K_KEEP modes a reader may ask
    # for; move pair 13 to within the finite-difference move of pair 12
    ctx = context(64)
    rep = fl.hadamard_check(ctx, _K_KEEP, right_bp(), h=1e-3)
    pairs = list(ctx.pairs)
    move = abs(rep.fd_slope) * 2e-3  # |lambda(+h) - lambda(-h)|
    close = pairs[_K_KEEP - 1].value + 0.5 * move
    pairs[_K_KEEP] = dataclasses.replace(pairs[_K_KEEP], value=close)
    moved = dataclasses.replace(ctx, pairs=tuple(pairs))
    with pytest.raises(ArgumentError, match="simple eigenvalue"):
        fl.hadamard_check(moved, _K_KEEP, right_bp(), h=1e-3)


@pytest.mark.parametrize("h", [0.0, -1e-3, float("nan"), float("inf"), float("-inf")])
def test_hadamard_refuses_a_step_that_is_not_positive_and_finite(h):
    with pytest.raises(ArgumentError, match="h must be positive and finite"):
        fl.hadamard_check(context(32), 1, right_bp(), h=h)


def test_hadamard_default_step_is_diameter_scaled():
    rep = fl.hadamard_check(context(64), 1, right_bp())
    assert rep.h == pytest.approx(1e-3 * 2.0)


# ---------------------------------------------------------------------------
# spectrum reports
# ---------------------------------------------------------------------------

def test_spectrum_even_gaps_open():
    rep = fl.spectrum_report(context(128, even_only=True), 6)
    assert rep.even_only
    assert len(rep.values) == 6
    assert all(g > 1e-2 for g in rep.gaps)


def test_spectrum_two_interval_clusters_bounded():
    rep = fl.spectrum_report(context(128, even_only=True, domain=ANNULUS), 8)
    assert rep.components == 2
    assert max(rep.cluster_sizes) <= 2


def test_spectrum_full_single_interval_scope_note():
    rep = fl.spectrum_report(context(64), 4)
    assert "even" in rep.note or "radial" in rep.note


def test_spectrum_k_max_out_of_range():
    with pytest.raises(ArgumentError):
        fl.spectrum_report(context(16, even_only=True), 40)


@pytest.mark.parametrize("k_max", [_K_KEEP + 1, 0, -3])
def test_spectrum_k_max_beyond_the_solved_values(k_max):
    # the subspace has 127 dimensions, but a reader may ask a context for
    # _K_KEEP modes; its pair _K_KEEP + 1 is the last mode's upper
    # neighbour only; a negative k_max used to slice from the end
    assert len(fl.spectrum_report(context(128), _K_KEEP).values) == _K_KEEP
    with pytest.raises(ArgumentError, match=rf"k_max = {k_max} is outside 1\.\.{_K_KEEP},"):
        fl.spectrum_report(context(128), k_max)


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------

def test_run_verify_refinement_history():
    rep = last_report("ros-oton-serra", INTERVAL, 0.5, [64, 128])
    assert rep.n == 128
    assert [n for n, _ in rep.history] == [64, 128]
    assert rep.history[1][1] < rep.history[0][1]
    assert rep.flag == "OK"


def test_run_verify_hadamard_route():
    rep = last_report("hadamard", INTERVAL, 0.5, [64], k=1)
    assert rep.rel_error <= 0.05


def test_run_verify_unknown_identity():
    misses = fl.solve_context.cache_info().misses
    with pytest.raises(ArgumentError):
        last_report("not-an-identity", INTERVAL, 0.37, [16])
    assert fl.solve_context.cache_info().misses == misses


@pytest.mark.parametrize("identity", ["pohozaev", "ibp", "l2-radial", "hadamard"])
def test_run_verify_rejects_mode_zero(identity):
    with pytest.raises(ArgumentError):
        last_report(identity, INTERVAL, 0.5, [16], k=0)


def test_run_verify_rejects_k2_beyond_solved_modes():
    with pytest.raises(ArgumentError):
        last_report("ibp", INTERVAL, 0.5, [64], k2=13)


def test_run_verify_rejects_unknown_bp_side_before_solving():
    misses = fl.solve_context.cache_info().misses
    with pytest.raises(ArgumentError):
        last_report("hadamard", INTERVAL, 0.5, [16], bp_side="top")
    assert fl.solve_context.cache_info().misses == misses


@pytest.mark.parametrize("even_only", [False, True])
@pytest.mark.parametrize("n", [64, 1024])
def test_solve_context_values_and_pairs_share_one_spectrum(n, even_only):
    ctx = fl.solve_context(INTERVAL, 0.5, n, 2.0, even_only)
    assert np.array_equal(
        ctx.values[: len(ctx.pairs)], [p.value for p in ctx.pairs]
    )


def test_semilinear_verify_runs_one_eigensolve(monkeypatch):
    calls = []
    for name in ("fraclab.solve", "fraclab.analysis"):
        module = importlib.import_module(name)
        if hasattr(module, "solve_geig"):
            def counted(*args, _original=module.solve_geig, **kwargs):
                calls.append(args[0].shape)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, "solve_geig", counted)
    # s = 0.41, n = 16: a context no other test builds
    last_report("pohozaev", INTERVAL, 0.41, [16], p=3)
    assert len(calls) == 1


def test_solve_context_is_one_object_in_every_namespace():
    solve = importlib.import_module("fraclab.solve")
    assert fl.analysis.solve_context is solve.solve_context is fl.solve_context


def test_solve_context_is_cached():
    a = fl.solve_context(INTERVAL, 0.5, 64, 2.0, False)
    b = fl.solve_context(INTERVAL, 0.5, 64, 2.0, False)
    assert a is b


def test_hadamard_even_only_assembles_each_form_once(monkeypatch):
    solve = importlib.import_module("fraclab.solve")
    calls = []

    def counted(mesh, s, _original=solve.assemble_gagliardo):
        calls.append((mesh, s))
        return _original(mesh, s)

    monkeypatch.setattr(solve, "assemble_gagliardo", counted)
    dom = fl.make_domain([(-1.25, 1.25)])  # no other test meshes this domain
    last_report("hadamard", dom, 0.5, [32], k=2, even_only=True)
    # the even context's forms serve the full spectrum too; the two
    # perturbed domains have their own
    assert len(calls) == len(set(calls)) == 3


def test_contexts_differing_only_in_s_share_pair_tables():
    dom = fl.make_domain([(-1.0, 0.75)])  # no other test meshes this domain
    before = _pair_tables.cache_info().misses
    a = fl.solve_context(dom, 0.3, 32, 2.0, False)
    b = fl.solve_context(dom, 0.7, 32, 2.0, False)
    assert a.mesh is b.mesh
    assert _pair_tables.cache_info().misses == before + 1


def _bump_where(x, c, w, q):
    """The bump as np.where forms it: the power on every point, zero outside."""
    z = (np.asarray(x, dtype=float) - c) / w
    base = np.maximum(1.0 - z**2, 0.0)
    f = np.where(np.abs(z) < 1.0, base**q, 0.0)
    with np.errstate(invalid="ignore"):  # inf * 0 at infinite x, discarded
        d = np.where(np.abs(z) < 1.0, -2.0 * q * z / w * base ** (q - 1), 0.0)
    return f, d


@pytest.mark.parametrize("power", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("center, halfwidth", [(0.0, 0.5), (0.2, 0.5), (-0.3, 0.07)])
def test_polynomial_bump_takes_the_power_on_the_support_only(power, center, halfwidth):
    # bit for bit the np.where form, which takes the power on every point
    bump = fl.polynomial_bump(center, halfwidth, power)
    lo, hi = center - halfwidth, center + halfwidth
    edges = [np.nextafter(e, t) for e in (lo, hi) for t in (-np.inf, np.inf)]
    rng = np.random.default_rng(power)
    x = np.concatenate([
        [lo, hi, center, -0.0, 0.0, -5.0, 7.0, np.inf, -np.inf, np.nan], edges,
        rng.uniform(lo - 0.1, hi + 0.1, 5000), rng.uniform(-50.0, 50.0, 500),
    ])
    for pts in (x, x.reshape(6, -1), x[:0], x[7], np.array(x[2]), float(x[3])):
        f_want, d_want = _bump_where(pts, center, halfwidth, power)
        for got, want in ((bump.f(pts), f_want), (bump.deriv(pts), d_want)):
            assert type(got) is type(want) is np.ndarray
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want, equal_nan=True)
            assert np.array_equal(np.signbit(got), np.signbit(want))
