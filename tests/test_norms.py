import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import random_center_field
from stokestransport import norms
from stokestransport.coupling import (
    EnergyLedger,
    contraction_window,
    random_ledger,
)
from stokestransport.domain import (
    XFACE,
    ZFACE,
    DomainKind,
    DomainSpec,
    ScalarField,
    VelocityField,
    make_grid,
    x_centers,
    x_faces,
)
from stokestransport.norms import (
    C_CHI,
    NormReport,
    Partition,
    cutoff_profile,
    grad_inf_norm,
    h1_norm,
    hneg1_norm,
    lq_norm,
    smoothstep,
    uloc_norm,
    w1inf_norm,
    window_energy_bound,
)
from stokestransport.stokes import poiseuille

# sin(pi x) sin(pi z) on the unit square, sampled at cell centers
_SINSIN = lambda x, z: np.sin(np.pi * x) * np.sin(np.pi * z)


def _sinsin(grid, dom):
    return ScalarField.from_function(_SINSIN, grid, dom)


class TestLqOracles:
    def test_l2_midpoint_identity(self):
        # hx hz sum sin^2(pi x_c) sin^2(pi z_c) = 1/4 exactly at any grid
        # size (the cos-sum in the midpoint identity telescopes to zero),
        # so the norm is exactly 1/2
        dom = DomainSpec(DomainKind.RECTANGLE, 1.0)
        for n in (8, 32, 128):
            f = _sinsin(make_grid(dom, n, n), dom)
            assert lq_norm(f, 2) == pytest.approx(0.5, abs=1e-13)

    def test_l1_converges_to_4_over_pi_sq(self):
        # integral of sin(pi x) sin(pi z) = (2/pi)^2 = 0.4052847345693511;
        # midpoint quadrature error is O(h^2)
        dom = DomainSpec(DomainKind.RECTANGLE, 1.0)
        f = _sinsin(make_grid(dom, 64, 64), dom)
        assert lq_norm(f, 1) == pytest.approx(0.4052847345693511, abs=1e-3)

    def test_linf_is_max_sample(self, rect):
        dom, grid = rect
        f = _sinsin(grid, dom)
        assert lq_norm(f, np.inf) == np.max(np.abs(f.values))

    def test_rejects_other_exponents(self, rect):
        dom, grid = rect
        f = _sinsin(grid, dom)
        with pytest.raises(ValueError):
            lq_norm(f, 3)


class TestH1Oracle:
    def test_sinsin_value(self):
        # H1^2 = L2^2 + |grad|^2 = 1/4 + pi^2/2, so H1 = 2.277016073844161
        dom = DomainSpec(DomainKind.RECTANGLE, 1.0)
        f = _sinsin(make_grid(dom, 128, 128), dom)
        assert h1_norm(f) == pytest.approx(2.277016073844161, abs=1e-3)

    def test_constant_has_no_gradient_part(self, strip):
        dom, grid = strip
        c = ScalarField(grid, dom, np.full((grid.nx, grid.nz), 3.0))
        # L2 of the constant 3 over area 8 is 3 sqrt(8)
        assert h1_norm(c) == pytest.approx(3.0 * math.sqrt(8.0), rel=1e-12)

    def test_velocity_h1_sums_components(self, strip):
        dom, grid = strip
        sol = poiseuille(1.0, grid, dom)
        only_u1 = h1_norm(sol.u.u1)
        both = h1_norm(sol.u)
        assert both >= only_u1
        assert both == pytest.approx(math.hypot(only_u1, h1_norm(sol.u.u2)),
                                     rel=1e-12)


class TestHneg1Oracles:
    def test_discrete_eigen_identity_32(self):
        # the sampled eigenfunction diagonalizes the screened 5-point
        # operator: value = sqrt((1/4) / (1 + 2 mu)) with
        # mu = (4/h^2) sin^2(pi h / 2); at n = 32 this is
        # 0.10983478981924438 (30-digit arithmetic)
        dom = DomainSpec(DomainKind.RECTANGLE, 1.0)
        f = _sinsin(make_grid(dom, 32, 32), dom)
        assert hneg1_norm(f) == pytest.approx(0.10983478981924438, abs=1e-12)

    def test_reference_value_128(self):
        # discrete value 0.1097954359338842; continuum limit
        # (1/2)/sqrt(1 + 2 pi^2) = 0.10979281300282553
        dom = DomainSpec(DomainKind.RECTANGLE, 1.0)
        f = _sinsin(make_grid(dom, 128, 128), dom)
        assert hneg1_norm(f) == pytest.approx(0.10977, abs=1e-3)
        assert hneg1_norm(f) == pytest.approx(0.1097954359338842, abs=1e-12)

    def test_dominated_by_l2(self, rect):
        dom, grid = rect
        rng = np.random.default_rng(31)
        for _ in range(25):
            f = random_center_field(grid, dom, rng)
            assert hneg1_norm(f) <= lq_norm(f, 2) * (1 + 1e-10) + 1e-10

    def test_homogeneity(self, strip):
        dom, grid = strip
        rng = np.random.default_rng(32)
        f = random_center_field(grid, dom, rng)
        base = hneg1_norm(f)
        for c in (2.0, -3.5, 0.125):
            scaled = f.with_values(c * f.values)
            assert hneg1_norm(scaled) == pytest.approx(abs(c) * base, rel=1e-10)


@settings(max_examples=60, deadline=None)
@given(vals=arrays(np.float64, (8, 8),
                   elements=st.floats(-100, 100, allow_nan=False)),
       c=st.floats(-8, 8, allow_nan=False))
def test_lq_homogeneity_property(vals, c):
    dom = DomainSpec(DomainKind.RECTANGLE, 1.0)
    grid = make_grid(dom, 8, 8)
    f = ScalarField(grid, dom, vals)
    for q in (1, 2, np.inf):
        assert lq_norm(f.with_values(c * vals), q) == pytest.approx(
            abs(c) * lq_norm(f, q), rel=1e-12, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(a=arrays(np.float64, (8, 8), elements=st.floats(-100, 100, allow_nan=False)),
       b=arrays(np.float64, (8, 8), elements=st.floats(-100, 100, allow_nan=False)))
def test_triangle_inequality_property(a, b):
    dom = DomainSpec(DomainKind.RECTANGLE, 1.0)
    grid = make_grid(dom, 8, 8)
    fa, fb = ScalarField(grid, dom, a), ScalarField(grid, dom, b)
    fab = ScalarField(grid, dom, a + b)
    for q in (1, 2, np.inf):
        lhs = lq_norm(fab, q)
        rhs = lq_norm(fa, q) + lq_norm(fb, q)
        assert lhs <= rhs * (1 + 1e-12) + 1e-12


@settings(max_examples=40, deadline=None)
@given(a=arrays(np.float64, (8, 8), elements=st.floats(-50, 50, allow_nan=False)),
       b=arrays(np.float64, (8, 8), elements=st.floats(-50, 50, allow_nan=False)))
def test_hneg1_triangle_and_domination_property(a, b):
    dom = DomainSpec(DomainKind.RECTANGLE, 1.0)
    grid = make_grid(dom, 8, 8)
    fa, fb = ScalarField(grid, dom, a), ScalarField(grid, dom, b)
    fab = ScalarField(grid, dom, a + b)
    assert hneg1_norm(fab) <= hneg1_norm(fa) + hneg1_norm(fb) + 1e-10
    assert hneg1_norm(fa) <= lq_norm(fa, 2) * (1 + 1e-10) + 1e-10


class TestGradInf:
    def test_poiseuille_shear(self, strip):
        # u1 = a z (1 - z): the steepest measured quotient is the wall
        # half-cell one, |u1(z_0)| / (h/2) = a (1 - hz/2); the Jacobian
        # matrix has that single nonzero entry, so the 2-norm equals it
        dom, grid = strip
        sol = poiseuille(1.0, grid, dom)
        a = abs(sol.pressure_slope) / 2.0
        expect = a * (1.0 - grid.hz / 2.0)
        assert grad_inf_norm(sol.u) == pytest.approx(expect, rel=1e-12)

    def test_w1inf_includes_sup(self, strip):
        dom, grid = strip
        sol = poiseuille(1.0, grid, dom)
        assert w1inf_norm(sol.u) == pytest.approx(grad_inf_norm(sol.u), rel=1e-12)
        assert w1inf_norm(sol.u) >= np.max(np.abs(sol.u.u1.values))

    def test_zero_field(self, strip):
        dom, grid = strip
        assert grad_inf_norm(VelocityField.zero(grid, dom)) == 0.0

    def test_closed_form_matches_the_lapack_norm(self, strip, monkeypatch):
        # the hypot formula against LAPACK's spectral norm, as the oracle, of
        # the matrix that the four adjacent maxima form, in call order
        dom, grid = strip
        u = VelocityField.zero(grid, dom)
        rng = np.random.default_rng(5)
        mats = [rng.standard_normal((2, 2)) * 10.0 ** rng.uniform(-300, 300)
                for _ in range(2000)]
        mats += [np.zeros((2, 2)), np.outer([1.0, -2.0], [3.0, 0.5]),
                 3.0 * np.eye(2), np.array([[1.0, -1.0], [1.0, 1.0]]),
                 np.full((2, 2), 1e300), np.full((2, 2), 1e-300),
                 np.array([[1e300, 1e-300], [0.0, 1e300]])]
        for m in mats:
            entries = iter(m.ravel().tolist())
            monkeypatch.setattr(norms, "_adjacent_max", lambda *a, **k: next(entries))
            want = np.linalg.norm(m, 2)
            assert abs(grad_inf_norm(u) - want) <= 1e-14 * want, m


class TestCutoff:
    def test_smoothstep_midpoint(self):
        assert smoothstep(0.5) == 0.5
        assert smoothstep(0.0) == 0.0 and smoothstep(1.0) == 1.0

    def test_smoothstep_complement_identity(self):
        # exact identity of the quintic; float evaluation leaves ~2 ulp
        t = np.linspace(0, 1, 101)
        assert np.max(np.abs(smoothstep(t) + smoothstep(1 - t) - 1)) <= 5e-15

    def test_c_chi_value(self):
        # sqrt(1 + 2 (15/8)^2) = sqrt(514)/8; 15/8 is the max slope of the
        # quintic smoothstep, attained at t = 1/2
        assert C_CHI == pytest.approx(math.sqrt(514.0) / 8.0, rel=1e-15)

    def test_profile_support(self):
        xs = np.array([-1.0, -0.999, 0.0, 0.999, 1.0, 1.5, 2.0])
        vals = cutoff_profile(xs)
        assert vals[0] == 0.0 and vals[-1] == 0.0
        assert vals[2] == 1.0
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)


class TestPartition:
    def test_sums_to_two(self, strip):
        dom, grid = strip
        part = Partition(grid, dom)
        assert np.max(np.abs(part.chi_sum() - 2.0)) <= 1e-12

    def test_requires_strip(self, rect):
        dom, grid = rect
        with pytest.raises(ValueError):
            Partition(grid, dom)

    def test_requires_commensurate_grid(self):
        dom = DomainSpec(DomainKind.STRIP, 8.0)
        grid = make_grid(dom, 60, 16)  # 60 % 8 != 0
        with pytest.raises(ValueError):
            Partition(grid, dom)

    def test_period_and_cells(self, strip):
        dom, grid = strip
        part = Partition(grid, dom)
        assert part.period == 8
        assert part.cells_per_unit == 8


class TestUloc:
    def test_translation_invariance(self, strip):
        # rolling by one window width permutes the windows; the dual-norm
        # windows extract identical submatrices so m = -1 is bitwise equal,
        # while the summation order inside the m = 0, 1 windows shifts by
        # a couple of ulps
        dom, grid = strip
        part = Partition(grid, dom)
        rng = np.random.default_rng(41)
        f = random_center_field(grid, dom, rng)
        rolled = f.with_values(np.roll(f.values, part.cells_per_unit, axis=0))
        for m in (-1, 0, 1):
            a = uloc_norm(f, m, part)
            b = uloc_norm(rolled, m, part)
            assert a.value == pytest.approx(b.value, rel=1e-12)
            assert np.allclose(sorted(a.per_window), sorted(b.per_window),
                               rtol=1e-12)
        am = uloc_norm(f, -1, part)
        bm = uloc_norm(rolled, -1, part)
        assert sorted(am.per_window) == sorted(bm.per_window)

    def test_value_is_window_max(self, strip):
        dom, grid = strip
        part = Partition(grid, dom)
        rng = np.random.default_rng(42)
        f = random_center_field(grid, dom, rng)
        rep = uloc_norm(f, 0, part)
        assert rep.value == max(rep.per_window)
        assert len(rep.per_window) == part.period

    def test_m_validation(self, strip):
        dom, grid = strip
        part = Partition(grid, dom)
        f = ScalarField(grid, dom, np.ones((grid.nx, grid.nz)))
        with pytest.raises(ValueError):
            uloc_norm(f, 2, part)

    def test_dual_norm_needs_cell_data(self, strip):
        dom, grid = strip
        part = Partition(grid, dom)
        sol = poiseuille(1.0, grid, dom)
        with pytest.raises(ValueError):
            uloc_norm(sol.u, -1, part)

    def test_velocity_accepted_for_m01(self, strip):
        dom, grid = strip
        part = Partition(grid, dom)
        sol = poiseuille(1.0, grid, dom)
        for m in (0, 1):
            rep = uloc_norm(sol.u, m, part)
            assert rep.value > 0

    def test_uloc_bounded_by_global(self, strip):
        # each windowed factor chi f has |chi| <= 1, so the windowed L2 never
        # exceeds the global L2
        dom, grid = strip
        part = Partition(grid, dom)
        rng = np.random.default_rng(43)
        for _ in range(10):
            f = random_center_field(grid, dom, rng)
            assert uloc_norm(f, 0, part).value <= lq_norm(f, 2) * (1 + 1e-12)

    def test_margin_extends_support(self, strip):
        dom, grid = strip
        part = Partition(grid, dom)
        rng = np.random.default_rng(44)
        f = random_center_field(grid, dom, rng)
        base = uloc_norm(f, -1, part).value
        wide = uloc_norm(f, -1, part, margin=1.0).value
        # wider support means a less constrained dual problem
        assert wide >= base * (1 - 1e-12)

    @pytest.mark.parametrize("margin, whole", [(2.5, True), (2.375, False)])
    def test_a_padded_window_that_covers_the_period_is_the_whole_strip(
            self, strip, margin, whole):
        # 8 cells per unit: margin 2.5 pads 20 columns at each end, so the
        # window's 24 + 40 columns are the period and the sum is the whole
        # strip's; margin 2.375 pads 19 and leaves a Dirichlet window, whose
        # truncation (about 3e-10 here) is far above rounding
        dom, grid = strip
        part = Partition(grid, dom)
        f = random_center_field(grid, dom, np.random.default_rng(50))
        per = uloc_norm(f, -1, part, margin=margin).per_window
        full = uloc_norm(f, -1, part, margin=math.inf).per_window
        if whole:
            assert np.array_equal(per, full)
        else:
            assert np.abs(per / full - 1.0).max() > 1e-12


def _lap1d(n: int, h: float, periodic: bool) -> scipy.sparse.spmatrix:
    """1D -d2/dx2 on cell centers; Dirichlet walls via linear ghosts."""
    h2 = h * h
    main = np.full(n, 2.0 / h2)
    off = np.full(n - 1, -1.0 / h2)
    A = scipy.sparse.diags([off, main, off], [-1, 0, 1], format="lil")
    if periodic:
        A[0, n - 1] = -1.0 / h2
        A[n - 1, 0] = -1.0 / h2
    else:
        A[0, 0] = 3.0 / h2
        A[n - 1, n - 1] = 3.0 / h2
    return A.tocsr()


@functools.lru_cache(maxsize=None)
def _screened_lu(grid, ncols: int, periodic: bool):
    """SuperLU factor of (-lap + 1) on ncols cell columns, the Kronecker sum of _lap1d."""
    Ax = _lap1d(ncols, grid.hx, periodic)
    Az = _lap1d(grid.nz, grid.hz, False)
    Ix = scipy.sparse.identity(ncols, format="csr")
    Iz = scipy.sparse.identity(grid.nz, format="csr")
    A = (scipy.sparse.kron(Ax, Iz) + scipy.sparse.kron(Ix, Az)
         + scipy.sparse.identity(ncols * grid.nz, format="csr"))
    return scipy.sparse.linalg.splu(A.tocsc())


def _sparse_hneg1(vals, grid, periodic: bool) -> float:
    """<b, w>^{1/2} with (-lap + 1) w = b solved by SuperLU on the columns of vals."""
    b = vals.ravel()
    w = _screened_lu(grid, vals.shape[0], periodic).solve(b)
    return math.sqrt(grid.hx * grid.hz * float(b @ w))


@pytest.mark.parametrize("kind, extent, nx, nz", [
    (DomainKind.STRIP, 8, 64, 16), (DomainKind.STRIP, 32, 512, 16),
    (DomainKind.STRIP, 8, 128, 128), (DomainKind.RECTANGLE, 1, 32, 32),
    (DomainKind.RECTANGLE, 1, 128, 128), (DomainKind.RECTANGLE, 1.5, 24, 16),
], ids=["strip_64x16", "strip_512x16", "strip_128x128", "rect_32x32",
        "rect_128x128", "rect_24x16"])
def test_hneg1_matches_sparse_solve(kind, extent, nx, nz):
    dom = DomainSpec(kind, float(extent))
    grid = make_grid(dom, nx, nz)
    f = random_center_field(grid, dom, np.random.default_rng(nx + nz))
    want = _sparse_hneg1(f.values, grid, dom.periodic)
    assert hneg1_norm(f) == pytest.approx(want, rel=1e-13)


def _chi(f, k):
    """Window k's cutoff at the x positions of f's samples, straight from the profile."""
    L = f.domain.x_extent
    xs = x_faces(f.grid, f.domain) if f.staggering == XFACE else x_centers(f.grid)
    return cutoff_profile(np.mod(xs - k + 0.5 * L, L) - 0.5 * L)


def _windowed_hneg1(f, part, k, margin):
    """Dual norm of chi_k * f via a solve restricted to the window support.

    The screening term gives the resolvent an O(1) decay length, so the
    Dirichlet truncation error falls off exponentially in ``margin``.
    """
    g = f.grid
    cpu = part.cells_per_unit
    mcells = int(math.ceil(margin * cpu)) if margin > 0 else 0
    ncols = 3 * cpu + 2 * mcells
    vals = f.values * _chi(f, k)[:, None]
    if ncols >= g.nx:
        return _sparse_hneg1(vals, g, True)
    idx = (np.arange(ncols) + (k - 1) * cpu - mcells) % g.nx
    return _sparse_hneg1(vals[idx, :], g, False)


@pytest.mark.parametrize("period, nx, nz", [(32, 512, 16), (8, 64, 16)])
@pytest.mark.parametrize("margin", [0.0, 0.2, "period"])
def test_batched_dual_windows_match_one_solve_per_window(period, nx, nz, margin):
    # margin = period widens every window past the strip: the periodic norm
    dom = DomainSpec(DomainKind.STRIP, float(period))
    grid = make_grid(dom, nx, nz)
    part = Partition(grid, dom)
    margin = float(period) if margin == "period" else margin
    f = random_center_field(grid, dom, np.random.default_rng(nx))
    rep = uloc_norm(f, -1, part, margin=margin)
    want = [_windowed_hneg1(f, part, k, margin) for k in range(period)]
    np.testing.assert_allclose(rep.per_window, want, rtol=1e-13, atol=0.0)
    assert rep.value == max(rep.per_window)


def _window_norms_one_at_a_time(f, part, m):
    """The windowed L2 (m = 0) or H1 (m = 1) norms, chi_k * f on the whole strip per window."""
    per = []
    for k in range(part.period):
        s = 0.0
        for p in ((f.u1, f.u2) if isinstance(f, VelocityField) else (f,)):
            w = p.with_values(p.values * _chi(p, k)[:, None])
            s += lq_norm(w, 2) ** 2 if m == 0 else h1_norm(w) ** 2
        per.append(math.sqrt(s))
    return per


def _random_fields(grid, dom, rng):
    """Random cell-center, x-face and z-face fields and a velocity, by name."""
    a2 = rng.standard_normal((grid.nx, grid.nz + 1))
    a2[:, [0, -1]] = 0.0
    return {
        "center": random_center_field(grid, dom, rng),
        "xface": ScalarField(grid, dom, rng.standard_normal((grid.nx, grid.nz)), XFACE),
        "zface": ScalarField(grid, dom, a2, ZFACE),
        "velocity": VelocityField.from_arrays(
            grid, dom, rng.standard_normal((grid.nx, grid.nz)), a2),
    }


@pytest.mark.parametrize("period, nx, nz", [(8, 64, 16), (32, 512, 16)])
@pytest.mark.parametrize("m", [0, 1])
def test_batched_windows_match_one_window_at_a_time(period, nx, nz, m):
    dom = DomainSpec(DomainKind.STRIP, float(period))
    grid = make_grid(dom, nx, nz)
    part = Partition(grid, dom)
    for name, f in _random_fields(grid, dom, np.random.default_rng(nx + m)).items():
        rep = uloc_norm(f, m, part)
        want = _window_norms_one_at_a_time(f, part, m)
        np.testing.assert_allclose(rep.per_window, want, rtol=1e-13, atol=0.0,
                                   err_msg=name)
        assert rep.value == max(rep.per_window)


@pytest.mark.parametrize("m", [-1, 0, 1])
def test_window_norms_keep_no_whole_period_stack(m):
    # a (period, nx, nz) stack of chi_k * f alone is 32 fields; the padded
    # windows hold 3 cells per unit plus the pads, about 3.1 fields each
    dom = DomainSpec(DomainKind.STRIP, 32.0)
    grid = make_grid(dom, 512, 16)
    part = Partition(grid, dom)
    f = random_center_field(grid, dom, np.random.default_rng(7))
    uloc_norm(f, m, part)  # fills the cutoff cache
    tracemalloc.start()
    try:
        uloc_norm(f, m, part)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * f.values.nbytes


def test_margin_must_be_a_non_negative_number(strip):
    dom, grid = strip
    part = Partition(grid, dom)
    f = random_center_field(grid, dom, np.random.default_rng(46))
    for margin in (math.nan, -0.5, -math.inf):
        with pytest.raises(ValueError, match="margin"):
            uloc_norm(f, -1, part, margin=margin)
    # an infinite margin, like one that covers the period, is the whole strip
    whole = uloc_norm(f, -1, part, margin=dom.x_extent)
    assert np.array_equal(uloc_norm(f, -1, part, margin=math.inf).per_window,
                          whole.per_window)


@pytest.mark.parametrize("match, call", [
    ("cell-centered", lambda f, u, r, part: hneg1_norm(u.u1)),
    ("dual window norm", lambda f, u, r, part: uloc_norm(u, -1, part)),
    ("defined on the strip", lambda f, u, r, part: uloc_norm(r, 0, part)),
    ("n must be >= 1", lambda f, u, r, part: window_energy_bound(f, 0, part)),
    ("exceeds the period", lambda f, u, r, part: window_energy_bound(f, 5, part)),
    ("different grid", lambda f, u, r, part: uloc_norm(
        f, 0, Partition(make_grid(f.domain, 32, 16), f.domain))),
    ("target must lie in", lambda f, u, r, part: contraction_window(1.0, target=1.0)),
    ("window indices", lambda f, u, r, part: random_ledger(
        1.0, 1.0, [2, 0], np.random.default_rng(0))),
    ("window indices", lambda f, u, r, part: EnergyLedger(
        E={0: [], 1: [0.5]}, C=1.0, F=1.0)),
], ids=["hneg1_face_field", "uloc_dual_velocity", "uloc_rectangle",
        "window_n_zero", "window_wider_than_period", "uloc_other_grid",
        "window_target_one", "ledger_window_zero", "built_ledger_window_zero"])
def test_bad_norm_arguments_are_rejected(strip, rect, match, call):
    dom, grid = strip
    f = random_center_field(grid, dom, np.random.default_rng(48))
    u = VelocityField.zero(grid, dom)
    r = random_center_field(rect[1], rect[0], np.random.default_rng(49))
    with pytest.raises(ValueError, match=match):
        call(f, u, r, Partition(grid, dom))


def test_dual_norms_raise_when_the_sum_overflows(strip, rect):
    # 1e200 is a valid sample, but its squared transform coefficients are not
    # representable; the norm must fail loudly instead of returning inf
    for dom, grid in (strip, rect):
        big = ScalarField(grid, dom, np.full((grid.nx, grid.nz), 1e200))
        with pytest.raises(RuntimeError, match="overflow"):
            hneg1_norm(big)
    dom, grid = strip
    part = Partition(grid, dom)
    big = ScalarField(grid, dom, np.full((grid.nx, grid.nz), 1e200))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for margin in (0.0, dom.x_extent):  # windowed and whole-strip sums
            with pytest.raises(RuntimeError, match="overflow"):
                uloc_norm(big, -1, part, margin=margin)
        for m in (0, 1):
            with pytest.raises(RuntimeError, match="overflow"):
                uloc_norm(big, m, part)


def test_l1_l2_and_h1_norms_raise_when_the_sum_overflows(strip, rect):
    # the samples are valid, but their sum or the sum of their squares is
    # not representable; the norm must fail instead of warning and
    # returning inf
    for dom, grid in (strip, rect):
        big = ScalarField(grid, dom, np.full((grid.nx, grid.nz), 1e200))
        huge = ScalarField(grid, dom, np.full((grid.nx, grid.nz), 1e307))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for norm, f in ((lambda f: lq_norm(f, 2), big), (h1_norm, big),
                            (lambda f: lq_norm(f, 1), huge)):
                with pytest.raises(RuntimeError, match="overflow"):
                    norm(f)
            assert lq_norm(big, 1) == pytest.approx(1e200 * dom.x_extent)
    dom, grid = strip
    big = ScalarField(grid, dom, np.full((grid.nx, grid.nz), 1e200))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match="overflow"):
            window_energy_bound(big, 1, Partition(grid, dom))


class TestNormReport:
    def test_value_must_match_windows(self, strip):
        with pytest.raises(ValueError):
            NormReport(name="uloc_l2", value=2.0, per_window=(1.0, 3.0))


class TestWindowEnergy:
    def test_unit_field_left_is_sqrt_2n(self, strip):
        dom, grid = strip
        part = Partition(grid, dom)
        one = ScalarField(grid, dom, np.ones((grid.nx, grid.nz)))
        for n in (1, 2, 4):
            rep = window_energy_bound(one, n, part)
            assert rep.left == pytest.approx(math.sqrt(2.0 * n), rel=1e-13)
            assert not rep.violated

    def test_sqrt_n_scaling(self, strip):
        dom, grid = strip
        part = Partition(grid, dom)
        one = ScalarField(grid, dom, np.ones((grid.nx, grid.nz)))
        l1 = window_energy_bound(one, 1, part).left
        l4 = window_energy_bound(one, 4, part).left
        assert l4 / l1 == pytest.approx(2.0, rel=1e-3)

    def test_velocity_sums_its_components(self, strip):
        dom, grid = strip
        part = Partition(grid, dom)
        rng = np.random.default_rng(47)
        u = VelocityField.from_arrays(
            grid, dom, rng.standard_normal((grid.nx, grid.nz)),
            rng.standard_normal((grid.nx, grid.nz + 1)))
        for n in (1, 3):
            rep = window_energy_bound(u, n, part)
            parts = [window_energy_bound(c, n, part).left ** 2
                     for c in (u.u1, u.u2)]
            assert rep.left ** 2 == pytest.approx(sum(parts), rel=1e-14)
            assert not rep.violated

    @pytest.mark.parametrize("side, violated", [(-1.0, True), (1.0, False)])
    def test_verdict_at_its_edge(self, strip, monkeypatch, side, violated):
        # the chi plateaus keep left / right <= 1 / C_CHI, so only a smaller
        # constant reaches the verdict: one that puts right 1e-9 either side
        # of left
        dom, grid = strip
        part = Partition(grid, dom)
        f = random_center_field(grid, dom, np.random.default_rng(51))
        ratio = window_energy_bound(f, 2, part).ratio
        monkeypatch.setattr(norms, "C_CHI", C_CHI * ratio * (1.0 + side * 1e-9))
        rep = window_energy_bound(f, 2, part)
        assert rep.ratio == pytest.approx(1.0 - side * 1e-9, rel=0.0, abs=1e-13)
        assert rep.violated == violated

    def test_no_violations_on_random_fields(self, strip):
        dom, grid = strip
        part = Partition(grid, dom)
        rng = np.random.default_rng(45)
        for _ in range(20):
            f = random_center_field(grid, dom, rng)
            for n in (1, 2):
                rep = window_energy_bound(f, n, part)
                assert not rep.violated
                assert rep.ratio <= 1.0 + 1e-12
