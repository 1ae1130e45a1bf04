"""Domain, mesh, and implicit-boundary unit tests."""

import numpy as np
import pytest

import fraclab as fl
from fraclab.errors import (
    ArgumentError,
    DegenerateError,
    DomainCollisionError,
    NoBoundaryError,
    OverlapError,
    SingularGradientError,
)


# ---------------------------------------------------------------------------
# Domain1D construction
# ---------------------------------------------------------------------------

def test_make_domain_single_interval():
    d = fl.make_domain([(-1.0, 1.0)])
    assert d.intervals == ((-1.0, 1.0),)


def test_make_domain_two_intervals_sorted():
    d = fl.make_domain([(1.0, 2.0), (-2.0, -1.0)])
    assert d.intervals == ((-2.0, -1.0), (1.0, 2.0))


def test_make_domain_overlap_and_touching_rejected():
    with pytest.raises(OverlapError):
        fl.make_domain([(0.0, 1.0), (0.5, 2.0)])
    with pytest.raises(OverlapError):
        fl.make_domain([(0.0, 1.0), (1.0, 2.0)])


def test_make_domain_degenerate_rejected():
    with pytest.raises(DegenerateError):
        fl.make_domain([(1.0, 1.0)])
    with pytest.raises(DegenerateError):
        fl.make_domain([(2.0, 1.0)])


@pytest.mark.parametrize("interval", [(-np.inf, 1.0), (0.0, np.inf), (-np.inf, np.inf)])
def test_make_domain_infinite_endpoint_rejected(interval):
    # an infinite endpoint reached the mesh and scipy's refusal of infs
    with pytest.raises(ArgumentError, match="infinite endpoint"):
        fl.make_domain([interval])


# ---------------------------------------------------------------------------
# boundary points
# ---------------------------------------------------------------------------

def test_boundary_points_interval():
    pts = fl.boundary_points(fl.make_domain([(-1.0, 1.0)]))
    assert [(p.x, p.normal) for p in pts] == [(-1.0, -1.0), (1.0, 1.0)]
    assert [p.side for p in pts] == ["left", "right"]


def test_boundary_points_annulus():
    pts = fl.boundary_points(fl.make_domain([(-2.0, -1.0), (1.0, 2.0)]))
    assert [(p.x, p.normal) for p in pts] == [
        (-2.0, -1.0),
        (-1.0, 1.0),
        (1.0, -1.0),
        (2.0, 1.0),
    ]


def test_boundary_points_three_intervals():
    d = fl.make_domain([(0.0, 1.0), (2.0, 3.0), (4.0, 5.0)])
    assert len(fl.boundary_points(d)) == 6


# ---------------------------------------------------------------------------
# meshes
# ---------------------------------------------------------------------------

def test_make_mesh_uniform_nodes():
    mesh = fl.make_mesh(fl.make_domain([(-1.0, 1.0)]), 4, beta=1.0)
    np.testing.assert_allclose(mesh.nodes[0], [-1.0, -0.5, 0.0, 0.5, 1.0])


def test_make_mesh_graded_midpoint_fixed():
    mesh = fl.make_mesh(fl.make_domain([(0.0, 1.0)]), 2, beta=2.0)
    np.testing.assert_allclose(mesh.nodes[0], [0.0, 0.5, 1.0])


def test_make_mesh_grading_map_quarter_point():
    # sigma(1/4) = (1/16)/(1/16 + 9/16) = 0.1 for beta = 2
    mesh = fl.make_mesh(fl.make_domain([(0.0, 1.0)]), 4, beta=2.0)
    np.testing.assert_allclose(mesh.nodes[0], [0.0, 0.1, 0.5, 0.9, 1.0], atol=1e-15)


def test_make_mesh_refuses_grading_that_rounds_an_element_to_zero():
    # at beta = 6 the two elements next to each endpoint of (-1, 1) are
    # below the spacing of doubles near +-1 at n = 1024
    with pytest.raises(DegenerateError, match="zero length"):
        fl.make_mesh(fl.make_domain([(-1.0, 1.0)]), 1024, 6.0)
    assert np.all(fl.make_mesh(fl.make_domain([(-1.0, 1.0)]), 512, 6.0).elem_h > 0)


def test_make_mesh_refuses_a_grading_of_nan_element_sizes():
    # at beta = 1e300 the grading map computes 0/0 at n = 8, and a NaN size
    # is not <= 0
    with pytest.raises(DegenerateError, match="8 element"):
        fl.make_mesh(fl.make_domain([(-1.0, 1.0)]), 8, 1e300)


def test_make_mesh_refuses_element_sizes_whose_powers_overflow():
    # the smallest element of (0, 1e-100) at n = 2048 is 2.4e-107, whose
    # -3rd power overflows; (0, 1e-90) has 2.4e-97 and meshes
    with pytest.raises(DegenerateError, match="element sizes 2.39e-107 to"):
        fl.make_mesh(fl.make_domain([(0.0, 1e-100)]), 2048, 2.0)
    with pytest.raises(DegenerateError, match="the assembled forms stay finite"):
        fl.make_mesh(fl.make_domain([(1e300, 1.5e300)]), 8, 2.0)
    assert fl.make_mesh(fl.make_domain([(0.0, 1e-90)]), 2048, 2.0).elem_h.min() > 0


def test_interior_to_full_and_element_ends_gather_the_dof_vector():
    # reference: the per-interval embedding, zero at both ends of each interval
    mesh = fl.make_mesh(fl.make_domain([(-2.0, -1.0), (0.5, 2.0)]), 8, 2.0)
    u = np.random.default_rng(3).standard_normal(mesh.n_interior)
    full = [np.concatenate([[0.0], part, [0.0]]) for part in np.split(u, [7])]
    got = mesh.interior_to_full(u)
    assert len(got) == 2 and all(np.array_equal(g, f) for g, f in zip(got, full))
    ends = mesh.element_ends(u)
    assert np.array_equal(ends[:, 0], np.concatenate([f[:-1] for f in full]))
    assert np.array_equal(ends[:, 1], np.concatenate([f[1:] for f in full]))
    for bad in (np.concatenate(full), u[:-1], u[:, None]):
        with pytest.raises(ArgumentError, match="the 14 interior dof values"):
            mesh.interior_to_full(bad)


def test_make_mesh_is_memoized_by_value():
    # beta by position, by keyword or by default, and n or beta of another
    # numeric type, give one mesh, so the pair tables are built once
    from fraclab.assembly import _pair_tables

    d = fl.make_domain([(-1.0, 0.625)])  # no other test meshes this domain
    misses = _pair_tables.cache_info().misses
    meshes = [
        fl.make_mesh(d, 64, 2.0),
        fl.make_mesh(d, 64, beta=2.0),
        fl.make_mesh(d, 64),
        fl.make_mesh(d, np.int64(64), 2),
    ]
    assert all(m is meshes[0] for m in meshes)
    for m in meshes:
        _pair_tables(m)
    assert _pair_tables.cache_info().misses == misses + 1


def test_make_mesh_argument_errors():
    d = fl.make_domain([(-1.0, 1.0)])
    with pytest.raises(ArgumentError):
        fl.make_mesh(d, 1, beta=2.0)
    with pytest.raises(ArgumentError):
        fl.make_mesh(d, 4, beta=0.5)


def test_mesh_refinement_doubles_nodes():
    d = fl.make_domain([(-2.0, -1.0), (1.0, 2.0)])
    m1 = fl.make_mesh(d, 8, beta=2.0)
    m2 = fl.make_mesh(d, 16, beta=2.0)
    for (a, b), n1, n2 in zip(d.intervals, m1.nodes, m2.nodes):
        assert n2.size == 2 * n1.size - 1  # shared endpoints counted once
        assert np.all(np.diff(n1) > 0)
        assert n1[0] == a and n1[-1] == b
    # interior dofs exclude all four endpoints
    assert m1.interior_x.size == 2 * (8 - 1)
    for a, b in d.intervals:
        assert a not in m1.interior_x and b not in m1.interior_x


# ---------------------------------------------------------------------------
# endpoint perturbation
# ---------------------------------------------------------------------------

def test_perturb_endpoint_moves_along_normal():
    d = fl.make_domain([(-1.0, 1.0)])
    left, right = fl.boundary_points(d)
    assert fl.perturb_endpoint(d, right, 0.1).intervals == ((-1.0, 1.1),)
    assert fl.perturb_endpoint(d, left, 0.1).intervals == ((-1.1, 1.0),)
    assert fl.perturb_endpoint(d, right, -0.1).intervals == ((-1.0, 0.9),)


def test_perturb_endpoint_collision():
    d = fl.make_domain([(-2.0, -1.0), (1.0, 2.0)])
    inner_right = [b for b in fl.boundary_points(d) if b.x == 1.0][0]
    with pytest.raises(DomainCollisionError):
        fl.perturb_endpoint(d, inner_right, 2.5)


# ---------------------------------------------------------------------------
# implicit 2D domains
# ---------------------------------------------------------------------------

def test_sample_boundary_circle():
    dom = fl.make_implicit_domain("x^2 + y^2 - 1", [-1.5, 1.5, -1.5, 1.5])
    samples = fl.sample_boundary_2d(dom, 16)
    assert len(samples) >= 16
    pts = np.array([p for p, _ in samples])
    nrm = np.array([n for _, n in samples])
    r2 = pts[:, 0] ** 2 + pts[:, 1] ** 2
    assert np.max(np.abs(r2 - 1.0)) < 1e-8
    expected = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    assert np.max(np.abs(nrm - expected)) < 1e-4
    # the grid sweep passes through (1, 0) up to grid tolerance
    assert np.min(np.hypot(pts[:, 0] - 1.0, pts[:, 1])) < 0.2


def test_sample_boundary_example_domain_nonempty():
    dom = fl.make_implicit_domain(
        "x^2 + 10*(y^3 + x)^2 - 1", [-1.2, 1.2, -1.2, 1.2]
    )
    samples = fl.sample_boundary_2d(dom, 24)
    assert len(samples) >= 24
    vals = [
        abs(dom.g.evaluate({"x": p[0], "y": p[1]})) for p, _ in samples
    ]
    assert max(vals) < 1e-8


def test_sample_boundary_normals_are_the_exact_gradient():
    dom = fl.make_implicit_domain(
        "x^2 + 10*(y^3 + x)^2 - 1", [-1.5, 1.5, -1.5, 1.5]
    )
    samples = fl.sample_boundary_2d(dom, 400)
    x, y = np.array([p for p, _ in samples]).T
    grad = np.stack([2 * x + 20 * (y**3 + x), 60 * y**2 * (y**3 + x)], axis=1)
    expected = grad / np.linalg.norm(grad, axis=1, keepdims=True)
    assert np.max(np.abs(np.array([n for _, n in samples]) - expected)) <= 1e-14
    # a constant partial derivative still gives one normal per point
    line = fl.sample_boundary_2d(fl.make_implicit_domain("y - 0.5", [-1, 1, -1, 1]), 8)
    assert len(line) >= 8 and all(n == (0.0, 1.0) for _, n in line)


def test_sample_boundary_empty_domain():
    dom = fl.make_implicit_domain("x^2 + y^2 + 1", [-1.0, 1.0, -1.0, 1.0])
    with pytest.raises(NoBoundaryError):
        fl.sample_boundary_2d(dom, 8)


def test_sample_boundary_singular_gradient():
    dom = fl.make_implicit_domain("x*y", [-1.0, 1.0, -1.0, 1.0])
    with pytest.raises(SingularGradientError):
        fl.sample_boundary_2d(dom, 16, grad_tol=0.2)


# ---------------------------------------------------------------------------
# JSON round trips
# ---------------------------------------------------------------------------

def test_domain_json_round_trip_1d():
    d = fl.make_domain([(-2.0, -1.0), (1.0, 2.0)])
    assert fl.domain_from_json({"intervals": [[-2.0, -1.0], [1.0, 2.0]]}) == d


def test_domain_json_round_trip_implicit():
    dom = fl.make_implicit_domain("x^2 + y^2 - 1", [-1.5, 1.5, -1.5, 1.5])
    back = fl.domain_from_json(
        {"implicit2d": {"g": "x^2 + y^2 - 1", "bbox": [-1.5, 1.5, -1.5, 1.5]}}
    )
    assert back.source == dom.source
    assert tuple(back.bbox) == tuple(dom.bbox)
