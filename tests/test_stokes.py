import gc
import tracemalloc

import numpy as np
import pytest
import scipy.fft

import _reference_stokes as ref
from _manufactured import manufactured_case, velocity_error_l2
from stokestransport import _mac, _transforms, norms, stokes
from stokestransport.domain import (
    XFACE,
    ZFACE,
    DomainKind,
    DomainSpec,
    Forcing,
    ScalarField,
    VelocityField,
    divergence,
    expected_shape,
    make_grid,
    max_divergence,
)
from stokestransport.scenarios import make_density
from stokestransport.stokes import (
    StokesConfig,
    StokesSolveError,
    buoyancy_forcing,
    flux_profile,
    momentum_residual,
    poiseuille,
    solve_buoyancy,
    solve_stokes_bounded,
    solve_stokes_strip,
    solver_stats_text,
)


class TestPoiseuille:
    def test_flux_profile_exact(self, strip):
        dom, grid = strip
        phi = 1.0
        sol = poiseuille(phi, grid, dom)
        prof = flux_profile(sol.u)
        assert prof.shape == (grid.nx,)
        assert np.max(np.abs(prof - phi)) <= 1e-12

    def test_momentum_residual_with_recorded_slope(self, strip):
        dom, grid = strip
        sol = poiseuille(2.5, grid, dom)
        res = momentum_residual(sol.u, sol.p, pressure_slope=sol.pressure_slope)
        assert res <= 1e-12 * 2.5

    def test_slope_closed_form(self, strip):
        # amplitude a = phi / (hz * sum z_c(1-z_c)) and the midpoint sum is
        # (2 nz^2 + 1) / (12 nz^2); slope = -2a.  At nz = 16 this equals
        # -2 * 12*16^2 / (2*16^2 + 1) = -11.976608187134502 (exact rational
        # 6144/513 = 2048/171).
        dom, grid = strip
        sol = poiseuille(1.0, grid, dom)
        assert grid.nz == 16
        assert sol.pressure_slope == pytest.approx(-11.976608187134502, abs=1e-12)

    def test_slope_approaches_reference_value(self):
        # |slope| = 12 phi * 2 nz^2 / (2 nz^2 + 1): the gap to 12 phi is
        # 12 phi / (2 nz^2 + 1), i.e. O(hz^2)
        dom = DomainSpec(DomainKind.STRIP, 8.0)
        phi = 3.0
        for nz in (16, 32, 64):
            grid = make_grid(dom, 64, nz)
            sol = poiseuille(phi, grid, dom)
            gap = abs(abs(sol.pressure_slope) - 12.0 * phi)
            assert gap == pytest.approx(12.0 * phi / (2 * nz**2 + 1), rel=1e-10)

    def test_requires_strip(self, rect):
        dom, grid = rect
        with pytest.raises(ValueError):
            poiseuille(1.0, grid, dom)

    def test_zero_flux_gives_zero_flow(self, strip):
        dom, grid = strip
        sol = poiseuille(0.0, grid, dom)
        assert np.max(np.abs(sol.u.u1.values)) == 0.0
        assert np.max(np.abs(sol.u.u2.values)) == 0.0


class TestHydrostatic:
    def test_rectangle(self, rect):
        dom, grid = rect
        rho = make_density("stratified", grid, dom)
        sol = solve_buoyancy(rho)
        assert np.max(np.abs(sol.u.u1.values)) <= 1e-12
        assert np.max(np.abs(sol.u.u2.values)) <= 1e-12

    def test_strip_exact_zero(self, strip):
        # x-independent forcing lands entirely in the m = 0 mode, whose
        # velocity block has zero data and zero flux target: exact zeros
        dom, grid = strip
        rho = make_density("stratified", grid, dom)
        sol = solve_buoyancy(rho)
        assert np.max(np.abs(sol.u.u1.values)) == 0.0
        assert np.max(np.abs(sol.u.u2.values)) == 0.0

    def test_pressure_is_hydrostatic_head(self, strip):
        # with u = 0 the momentum equation reduces to dp/dz = f2
        dom, grid = strip
        rho = make_density("stratified", grid, dom)
        sol = solve_buoyancy(rho)
        res = momentum_residual(sol.u, sol.p, buoyancy_forcing(rho),
                                pressure_slope=sol.pressure_slope)
        assert res <= 1e-11


class TestZeroFluxUniqueness:
    def test_unit_x_forcing(self, strip):
        dom, grid = strip
        f = Forcing(grid, dom,
                    np.ones(expected_shape(grid, dom, XFACE)),
                    np.zeros((grid.nx, grid.nz + 1)))
        sol = solve_stokes_strip(f)
        assert np.max(np.abs(sol.u.u1.values)) <= 1e-10
        assert np.max(np.abs(sol.u.u2.values)) <= 1e-10
        assert abs(sol.pressure_slope - 1.0) <= 1e-8

    def test_flux_constraint_is_honored(self, strip):
        dom, grid = strip
        f = Forcing(grid, dom,
                    np.ones(expected_shape(grid, dom, XFACE)),
                    np.zeros((grid.nx, grid.nz + 1)))
        sol = solve_stokes_strip(f, StokesConfig(flux_target=0.75))
        prof = flux_profile(sol.u)
        assert np.max(np.abs(prof - 0.75)) <= 1e-10


class TestManufactured:
    @pytest.mark.parametrize("kind,sizes", [
        (DomainKind.RECTANGLE, [(32, 32), (64, 64), (128, 128)]),
        (DomainKind.STRIP, [(64, 32), (128, 64), (256, 128)]),
    ])
    def test_velocity_convergence(self, kind, sizes):
        errs = []
        for nx, nz in sizes:
            grid, dom, force, ex1, ex2 = manufactured_case(kind, nx, nz)
            if kind is DomainKind.RECTANGLE:
                sol = solve_stokes_bounded(force)
            else:
                sol = solve_stokes_strip(force)
            # direct-solve roundoff scales with the forcing magnitude
            fmax = max(np.max(np.abs(force.f1)), np.max(np.abs(force.f2)))
            assert max_divergence(sol.u) <= 1e-11 * max(1.0, fmax)
            errs.append(velocity_error_l2(sol, ex1, ex2))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
        assert min(orders) >= 1.9, (errs, orders)

    def test_solution_report_is_consistent(self):
        grid, dom, force, ex1, ex2 = manufactured_case(DomainKind.RECTANGLE, 32, 32)
        sol = solve_stokes_bounded(force)
        recomputed = momentum_residual(sol.u, sol.p, force,
                                       pressure_slope=sol.pressure_slope)
        assert recomputed == pytest.approx(sol.residual_norm, rel=1e-9, abs=1e-13)
        text = solver_stats_text(sol)
        assert "residual" in text and "=" in text


class TestPinnedPressure:
    @pytest.mark.parametrize("x_extent", [1.0, 1.5])
    def test_pinned_cell_is_divergence_free(self, x_extent):
        # cell (0, 0) carries the pin instead of its continuity row; the
        # telescoping wall fluxes must still make its divergence vanish
        dom = DomainSpec(DomainKind.RECTANGLE, x_extent)
        grid = make_grid(dom, 24, 16)
        rng = np.random.default_rng(3)
        f = Forcing(grid, dom,
                    rng.standard_normal(expected_shape(grid, dom, XFACE)),
                    rng.standard_normal(expected_shape(grid, dom, ZFACE)))
        sol = solve_stokes_bounded(f)
        assert abs(divergence(sol.u)[0, 0]) <= 1e-12
        assert abs(sol.p.values.mean()) <= 1e-13

    def test_factor_fill_is_bounded(self):
        # the capacitance stat counts the wall-adjacent tangential velocity
        # rows, of which only the smaller wall family's are factored densely
        dom = DomainSpec(DomainKind.RECTANGLE, 1.0)
        grid = make_grid(dom, 64, 64)
        rho = make_density("stratified_perturbed", grid, dom)
        sol = solve_buoyancy(rho)
        assert sol.stats["capacitance"] == 2 * 63 + 2 * 63
        assert sol.stats["unknowns"] == 63 * 64 + 64 * 63 + 64 * 64
        assert f"capacitance={sol.stats['capacitance']}" in solver_stats_text(sol)

    @pytest.mark.parametrize("nx, nz", [(1024, 16), (16, 1024)])
    def test_factor_size_is_the_grid_plus_the_smaller_wall_family(self, nx, nz):
        # the larger wall family is eliminated per mode, whichever it is, so
        # the factor holds O(nx nz) doubles plus the four dense parity blocks
        # of the Schur complement on the 2 (min(nx, nz) - 1) rows of the smaller one
        fac = stokes._rect_factor(make_grid(DomainSpec(DomainKind.RECTANGLE, nx / nz), nx, nz))
        small = 2 * (min(nx, nz) - 1)
        assert len(fac.blocks) == 4 and all(b.shape == (len(b), len(b)) for b in fac.blocks)
        assert sum(len(b) for b in fac.blocks) == small
        held = sum(np.size(a) for a in (*fac[:-1], *fac.blocks))
        assert held <= 12 * (nx * nz + small * small)


class TestWallRows:
    @pytest.mark.parametrize("n, h", [(8, 0.125), (9, 0.3), (33, 1 / 33)])
    def test_read_from_the_band_equal_the_dense_rows(self, n, h):
        axis = _mac.axes(make_grid(DomainSpec(DomainKind.RECTANGLE, n * h),
                                   n, 8), False)[0]
        want = axis.centers.dense()[[0, -1]]
        h2 = h * h
        want[0, :2] -= 1.0 / h2, -1.0 / h2
        want[1, -2:] -= -1.0 / h2, 1.0 / h2
        assert stokes._wall_rows(axis, h).tobytes() == want.tobytes()

    def test_rectangle_factor_builds_no_square_matrix(self):
        # a dense 2048 x 2048 matrix of the x axis alone would be 33.6 MB
        grid = make_grid(DomainSpec(DomainKind.RECTANGLE, 128.0), 2048, 16)
        gc.collect()
        tracemalloc.start()
        try:
            stokes._rect_factor.__wrapped__(grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


class TestRectangleTransform:
    """The transform-and-capacitance solve against the SuperLU saddle solve."""

    @pytest.mark.parametrize("x_extent, nx, nz", [(1.5, 24, 16), (1.0, 64, 64),
                                                   (1.0, 128, 128), (6.0, 96, 16),
                                                   (1 / 6, 16, 96), (2.0, 33, 17),
                                                   (0.5, 17, 33)])
    def test_agrees_with_sparse_lu(self, x_extent, nx, nz):
        # the wide and the tall box each eliminate a different wall family; a
        # box whose smaller cell count is even has parity blocks one row
        # apart in size, one whose count is odd (33 x 17, 17 x 33) equal ones
        dom = DomainSpec(DomainKind.RECTANGLE, x_extent)
        grid = make_grid(dom, nx, nz)
        rng = np.random.default_rng(nx + nz)
        f = Forcing(grid, dom,
                    rng.standard_normal(expected_shape(grid, dom, XFACE)),
                    rng.standard_normal(expected_shape(grid, dom, ZFACE)))
        buoy = buoyancy_forcing(make_density("stratified_perturbed", grid, dom))
        for force in (f, buoy):
            got, want = solve_stokes_bounded(force), ref.solve_stokes_bounded(force)
            for name in ("u1", "u2"):
                a, b = getattr(got.u, name).values, getattr(want.u, name).values
                assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(b)), name
            err = np.max(np.abs(got.p.values - want.p.values))
            assert err <= 1e-10 * np.max(np.abs(want.p.values))

    @pytest.mark.parametrize("nx, nz", [(24, 16), (33, 17), (16, 96)])
    def test_schur_complement_is_block_diagonal_in_the_parity_basis(self, nx, nz):
        # the off-block couplings that the four inverted blocks leave out are
        # rounding next to the kept ones
        fac = stokes._rect_factor(make_grid(DomainSpec(DomainKind.RECTANGLE, nx / nz), nx, nz))
        coupling = np.abs(fac.back @ fac.across)
        ends = np.cumsum([len(b) for b in fac.blocks])
        off = np.ones(coupling.shape, dtype=bool)
        for i, j in zip((0, *ends[:-1]), ends):
            off[i:j, i:j] = False
        assert np.max(coupling[off]) <= 1e-14 * np.max(coupling)

    @pytest.mark.parametrize("name, n, h", [("x", 24, 1.5 / 24), ("z", 16, 1.0 / 16),
                                            ("strip", 32, 8.0 / 32)])
    def test_symbols_diagonalize_the_mac_factors(self, name, n, h):
        # the transform symbols are pinned to the one MAC definition in _mac

        def close(got, want):
            want = want.dense() if isinstance(want, _mac.Band) else want
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

        if name == "strip":
            # the rfft of each factor is its symbol times the rfft, per wavenumber
            grid = make_grid(DomainSpec(DomainKind.STRIP, n * h), n, 16)
            axis, _ = _mac.axes(grid, True)
            gx = stokes._strip_factor(grid).gx
            F = scipy.fft.rfft(np.eye(n), axis=0)
            close(np.abs(gx) ** 2 * F, scipy.fft.rfft(axis.centers.dense(), axis=0))
            close(gx * F, scipy.fft.rfft(axis.grad.dense(), axis=0))
            return
        grid = make_grid(DomainSpec(DomainKind.RECTANGLE, 1.5), 24, 16)
        axis = dict(zip("xz", _mac.axes(grid, False)))[name]
        # the orthonormal DST-I on the n - 1 interior faces and DCT-II on the
        # n centers, with the modes as rows
        S, C = _transforms.dst1(np.eye(n - 1), axis=0), _transforms.dct(np.eye(n), axis=0)
        g = stokes._symbol(n, h)
        walls = np.zeros((n, n))
        walls[[0, -1]] = stokes._wall_rows(axis, h)

        close(S.T @ np.diag(g[1:] ** 2) @ S, axis.faces)
        close(C.T @ np.diag(g ** 2) @ C + walls, axis.centers)
        close(S.T @ np.diag(g[1:]) @ C[1:], axis.grad)


class TestStripTransform:
    """The strip's transform-and-capacitance solve against one splu per mode."""

    @pytest.mark.parametrize("period, nx, nz", [(8, 16, 8), (8, 128, 128),
                                                 (32, 512, 16)])
    def test_agrees_with_sparse_lu(self, period, nx, nz):
        dom = DomainSpec(DomainKind.STRIP, float(period))
        grid = make_grid(dom, nx, nz)
        rng = np.random.default_rng(nx + nz)
        f2 = rng.standard_normal(expected_shape(grid, dom, ZFACE))
        f2[:, [0, -1]] = 0.0
        f = Forcing(grid, dom, rng.standard_normal(expected_shape(grid, dom, XFACE)), f2)
        buoy = buoyancy_forcing(make_density("stratified_perturbed", grid, dom))
        for force in (f, buoy):
            _assert_strip_agrees(force, StokesConfig(flux_target=0.37))

    @pytest.mark.parametrize("flux_target", [0.0, 0.5, -2.0])
    @pytest.mark.parametrize("nz", [15, 16, 17])
    def test_zero_wavenumber_agrees_with_the_bordered_solve(self, flux_target, nz):
        # x-independent data lands in the zero wavenumber alone, which the
        # oracle solves with the flux as the last row of a bordered system
        dom = DomainSpec(DomainKind.STRIP, 8.0)
        grid = make_grid(dom, 24, nz)
        rng = np.random.default_rng(nz)
        f1 = np.tile(rng.standard_normal(nz), (grid.nx, 1))
        f2 = np.tile(rng.standard_normal(nz + 1), (grid.nx, 1))
        f2[:, [0, -1]] = 0.0
        config = StokesConfig(flux_target=flux_target)
        _assert_strip_agrees(Forcing(grid, dom, f1, f2), config)
        if flux_target != 0.0:  # the flux alone drives the channel profile
            _assert_strip_agrees(Forcing(grid, dom, 0.0 * f1, 0.0 * f2), config)


def _patch_window(period, nz):
    """Both velocity components of a patch centred at x = 4 on a strip of
    the given period, with h = 1/16 along x, at the faces |x - 4| < 2."""
    dom = DomainSpec(DomainKind.STRIP, float(period))
    grid = make_grid(dom, 16 * period, nz)
    rho = make_density("patch", grid, dom, cx=4.0, cz=0.5, r_inner=0.1,
                       r_outer=0.2)
    u = solve_buoyancy(rho).u
    faces = np.arange(grid.nx) * grid.hx
    return (u.u1.values[np.abs(faces - 4.0) < 2.0],
            u.u2.values[np.abs(faces + 0.5 * grid.hx - 4.0) < 2.0])


@pytest.mark.parametrize("nz", [16, 32])
def test_strip_window_sees_its_periodic_images_at_the_papkovich_fadle_rate(nz):
    # the strip stands in for R x (0, 1): a window's velocity differs
    # between periods 8 and 16 only through the period-8 images, whose
    # nearest edge (radius 0.2 around x = 12 or -4) lies d = 5.8 from the
    # window, and the clamped channel's response decays like
    # exp(-Re(lambda) d), Re(lambda) = 4.2124 (first Papkovich-Fadle root)
    near, far = _patch_window(8, nz), _patch_window(16, nz)
    sup = max(np.abs(a).max() for a in near)
    diff = max(np.abs(a - b).max() for a, b in zip(near, far))
    ratio = diff / sup / np.exp(-4.2124 * 5.8)
    assert 0.1 <= ratio <= 10.0


def _assert_strip_agrees(force, config):
    got, want = solve_stokes_strip(force, config), ref.solve_stokes_strip(force, config)
    for a, b in ((got.u.u1.values, want.u.u1.values),
                 (got.u.u2.values, want.u.u2.values),
                 (got.p.values, want.p.values)):
        assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(b))
    assert got.pressure_slope == pytest.approx(want.pressure_slope, rel=1e-10)
    assert got.flux == pytest.approx(config.flux_target, abs=1e-10)


@pytest.mark.parametrize("domain", ["rectangle", "strip"])
def test_free_slip_in_place_matches_the_expression_form(domain):
    # the in-place solve keeps the operations and their order, so it is
    # bit for bit the plain expression on either domain's coefficients; the
    # rectangle solve reuses f1 and f2 after it, so they must not change
    periodic = domain == "strip"
    dom = DomainSpec(DomainKind.STRIP if periodic else DomainKind.RECTANGLE,
                     8.0 if periodic else 1.5)
    grid = make_grid(dom, 32, 16)
    fac = stokes._strip_factor(grid) if periodic else stokes._rect_factor(grid)
    rng = np.random.default_rng(3)
    shape = fac.inv.shape
    f1, f2 = rng.standard_normal(shape), rng.standard_normal(shape)
    if periodic:
        f1, f2 = f1 + 1j * rng.standard_normal(shape), f2 + 1j * rng.standard_normal(shape)
    p = (np.conj(fac.gx) * f1 + fac.gz * f2) * fac.inv
    want = ((f1 - fac.gx * p) * fac.inv, (f2 - fac.gz * p) * fac.inv, p)
    f1_in, f2_in = f1.copy(), f2.copy()
    for got, ref_ in zip(stokes._free_slip(fac, f1, f2), want):
        assert got.dtype == ref_.dtype and np.array_equal(got, ref_)
    assert np.array_equal(f1, f1_in) and np.array_equal(f2, f2_in)


class TestMacOperator:
    """The Kronecker-composed operators against the hand-written ones."""

    @pytest.mark.parametrize("kind, x_extent, nx, nz", [
        (DomainKind.STRIP, 8.0, 16, 8), (DomainKind.STRIP, 8.0, 128, 128),
        (DomainKind.STRIP, 32.0, 512, 16), (DomainKind.RECTANGLE, 1.5, 24, 16),
        (DomainKind.RECTANGLE, 1.0, 64, 64),
    ])
    def test_residual_matches_stencils(self, kind, x_extent, nx, nz):
        # random fields are far from a solution, so every term contributes
        dom = DomainSpec(kind, x_extent)
        grid = make_grid(dom, nx, nz)
        rng = np.random.default_rng(nx * nz)

        def faces():
            return (rng.standard_normal(expected_shape(grid, dom, XFACE)),
                    rng.standard_normal(expected_shape(grid, dom, ZFACE)))

        u = VelocityField.from_arrays(grid, dom, *faces())
        p = ScalarField(grid, dom, rng.standard_normal((nx, nz)))
        f = Forcing(grid, dom, *faces())
        for force in (f, None):
            got = momentum_residual(u, p, force, pressure_slope=0.37)
            want = ref.momentum_residual(u, p, force, pressure_slope=0.37)
            assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("periodic", [True, False])
    def test_band_apply_matches_its_dense_view(self, periodic):
        # every row of every factor along both axes, edge rows included,
        # where a max-norm residual could miss a wrong row
        dom = DomainSpec(DomainKind.STRIP if periodic else DomainKind.RECTANGLE,
                         8.0 if periodic else 1.5)
        grid = make_grid(dom, 24, 16)
        rng = np.random.default_rng(5)
        for band in (b for axis in _mac.axes(grid, periodic) for b in axis):
            nrows, ncols = band.shape
            for axis, shape in ((0, (ncols, 7)), (1, (7, ncols))):
                x = rng.standard_normal(shape)
                got = band.apply(x, axis, np.empty(shape), np.empty(shape))
                want = band.dense() @ x if axis == 0 else x @ band.dense().T
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


class TestResidualGate:
    def test_large_flux_target_passes(self, strip):
        # the flux-driven profile and its pressure slope are O(flux_target)
        dom, grid = strip
        f = buoyancy_forcing(make_density("stratified_perturbed", grid, dom))
        sol = solve_stokes_strip(f, StokesConfig(flux_target=1e5))
        assert float(flux_profile(sol.u)[0]) == pytest.approx(1e5, rel=1e-12)

    def test_perturbed_unit_scale_solution_is_rejected(self, strip):
        # one face off by 1e-11 moves its rows by about 6e-9, above the 1e-9 gate
        dom, grid = strip
        f = buoyancy_forcing(make_density("stratified_perturbed", grid, dom))
        config = StokesConfig(flux_target=1.0)
        sol = solve_stokes_strip(f, config)
        a1 = sol.u.u1.values.copy()
        a1[5, 7] += 1e-11
        u = VelocityField.from_arrays(grid, dom, a1, sol.u.u2.values, enforce_walls=False)
        res = momentum_residual(u, sol.p, f, pressure_slope=sol.pressure_slope)
        with pytest.raises(StokesSolveError, match="momentum residual"):
            stokes._check_solution(res, u, f, config)

    @pytest.mark.parametrize("kind, x_extent", [(DomainKind.STRIP, 8.0),
                                                (DomainKind.RECTANGLE, 1.0)])
    def test_decisions_do_not_depend_on_the_data_scale(self, kind, x_extent):
        # accept the solve, reject it with one face off by 1e-11 of the data,
        # and reject the all-zero answer, whatever the scale of rho
        dom = DomainSpec(kind, x_extent)
        grid = make_grid(dom, 32, 16)
        rho = make_density("stratified_perturbed", grid, dom).values
        zero = VelocityField.from_arrays(grid, dom, np.zeros(expected_shape(grid, dom, XFACE)),
                                         np.zeros(expected_shape(grid, dom, ZFACE)))

        def accepts(f, config, u, p, slope):
            res = momentum_residual(u, p, f, pressure_slope=slope)
            try:
                stokes._check_solution(res, u, f, config)
            except StokesSolveError:
                return False
            return True

        decisions = []
        for scale in (1e-12, 1.0, 1e12):
            rho_s = ScalarField(grid, dom, scale * rho)
            f = buoyancy_forcing(rho_s)
            config = StokesConfig(flux_target=0.37 * scale if dom.periodic else 0.0)
            sol = solve_buoyancy(rho_s, config)
            a1 = sol.u.u1.values.copy()
            a1[5, 7] += 1e-11 * scale
            off = VelocityField.from_arrays(grid, dom, a1, sol.u.u2.values,
                                            enforce_walls=False)
            decisions.append((accepts(f, config, sol.u, sol.p, sol.pressure_slope),
                              accepts(f, config, off, sol.p, sol.pressure_slope),
                              accepts(f, config, zero, ScalarField(grid, dom, 0.0 * rho), 0.0)))
        assert decisions == [(True, False, False)] * 3

    @pytest.mark.parametrize("kind, x_extent", [(DomainKind.STRIP, 8.0),
                                                (DomainKind.RECTANGLE, 1.0)])
    def test_zero_data_passes_a_zero_tolerance(self, kind, x_extent):
        dom = DomainSpec(kind, x_extent)
        grid = make_grid(dom, 32, 16)
        sol = solve_buoyancy(ScalarField(grid, dom, np.zeros((32, 16))))
        assert sol.residual_norm == 0.0
        assert not np.any(sol.u.u1.values) and not np.any(sol.u.u2.values)


@pytest.mark.parametrize("cached", [stokes._rect_factor, stokes._strip_factor,
                                    norms._chi_table, _mac.axes])
def test_factor_cache_keeps_four_grids(cached):
    if cached in (stokes._strip_factor, norms._chi_table):
        dom = DomainSpec(DomainKind.STRIP, 8.0)
    else:
        dom = DomainSpec(DomainKind.RECTANGLE, 1.0)
    extra = {norms._chi_table: (dom, False), _mac.axes: (False,)}.get(cached, ())
    keys = [(make_grid(dom, 8 + 2 * k, 8), *extra) for k in range(5)]
    cached.cache_clear()
    for key in keys:
        cached(*key)
    assert cached.cache_info().currsize == 4
    cached(*keys[-1])
    assert cached.cache_info().hits == 1
    cached(*keys[0])  # the oldest grid was evicted
    assert cached.cache_info().misses == 6


class TestFinisher:
    def test_rectangle_non_finite_solve_raises(self, rect, monkeypatch):
        dom, grid = rect
        fac = stokes._rect_factor(grid)
        fac = fac._replace(gx=np.full_like(fac.gx, np.nan))
        monkeypatch.setattr(stokes, "_rect_factor", lambda g: fac)
        f = buoyancy_forcing(make_density("stratified_perturbed", grid, dom))
        with pytest.raises(StokesSolveError, match="non-finite"):
            solve_stokes_bounded(f)

    def test_strip_non_finite_solve_raises(self, strip, monkeypatch):
        dom, grid = strip
        fac = stokes._strip_factor(grid)
        fac = fac._replace(gx=np.full_like(fac.gx, np.nan))
        monkeypatch.setattr(stokes, "_strip_factor", lambda g: fac)
        f = buoyancy_forcing(make_density("stratified_perturbed", grid, dom))
        with pytest.raises(StokesSolveError, match="non-finite"):
            solve_stokes_strip(f)

    def test_flux_is_reported_on_the_strip_only(self, rect, strip):
        sols = [solve_buoyancy(make_density("stratified_perturbed", grid, dom))
                for dom, grid in (rect, strip)]
        assert sols[0].flux is None
        assert sols[1].flux == float(flux_profile(sols[1].u)[0])


class TestValidation:
    def test_rectangle_rejects_nonzero_flux_target(self, rect):
        dom, grid = rect
        f = buoyancy_forcing(make_density("stratified_perturbed", grid, dom))
        with pytest.raises(ValueError, match="flux"):
            solve_stokes_bounded(f, StokesConfig(flux_target=5.0))
        solve_stokes_bounded(f, StokesConfig(flux_target=0.0))  # zero stays valid

    def test_config_rejects_nonfinite_flux(self):
        with pytest.raises(ValueError):
            StokesConfig(flux_target=float("nan"))

    def test_forcing_shape_checked(self, strip):
        dom, grid = strip
        with pytest.raises(ValueError):
            Forcing(grid, dom, np.zeros((grid.nx + 1, grid.nz)),
                    np.zeros((grid.nx, grid.nz + 1)))

    def test_solver_rejects_wrong_domain(self, rect, strip):
        rdom, rgrid = rect
        sdom, sgrid = strip
        f_rect = Forcing(rgrid, rdom,
                         np.zeros(expected_shape(rgrid, rdom, XFACE)),
                         np.zeros((rgrid.nx, rgrid.nz + 1)))
        with pytest.raises(ValueError):
            solve_stokes_strip(f_rect)
        f_strip = Forcing(sgrid, sdom,
                          np.zeros(expected_shape(sgrid, sdom, XFACE)),
                          np.zeros((sgrid.nx, sgrid.nz + 1)))
        with pytest.raises(ValueError):
            solve_stokes_bounded(f_strip)
