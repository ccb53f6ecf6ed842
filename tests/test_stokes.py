import gc
import tracemalloc

import numpy as np
import pytest
import scipy.fft

import _reference_stokes as ref
from _manufactured import manufactured_case, velocity_error_l2
from stokestransport import _mac, _transforms, cli, norms, stokes
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

    @pytest.mark.parametrize("nx, nz", [(1024, 16), (16, 1024)])
    def test_factor_holds_the_grid_and_the_smaller_wall_family(self, nx, nz):
        # the larger wall family is eliminated per mode, whichever it is, so
        # the factor holds O(nx nz) doubles (1 / lam and the four class
        # couplings both ways) plus the Schur blocks on the 2 (min(nx, nz) - 1)
        # rows of the smaller family; two dense 2m x 2k couplings would be 8 nx nz
        fac = stokes._rect_factor(make_grid(DomainSpec(DomainKind.RECTANGLE, nx / nz), nx, nz))
        small = 2 * (min(nx, nz) - 1)
        schur = [c[-1] for c in fac.classes]
        assert len(schur) == 4 and sum(len(b) for b in schur) == small
        held = sum(a.nbytes for a in (*fac, *(a for c in fac.classes for a in c))
                   if isinstance(a, np.ndarray))
        assert held <= 8 * 4 * (nx * nz + small * small)


def _dense_second_difference(n: int, h: float, rule: str) -> np.ndarray:
    """The n x n matrix of ``_mac.second_difference``, from its action on identity columns."""
    return _mac.second_difference(np.eye(n), h, rule, 0, np.empty((n, n)))


def _dense_gradient(n: int, h: float, periodic: bool) -> np.ndarray:
    """The matrix of ``_mac.gradient`` on n cells, from its action on identity columns."""
    return _mac.gradient(np.eye(n), h, periodic, 0, np.empty((n if periodic else n - 1, n)))


class TestWallRows:
    @pytest.mark.parametrize("n, h", [(8, 0.125), (9, 0.3), (33, 1 / 33)])
    def test_read_from_the_band_equal_the_dense_rows(self, n, h):
        # the edge rows of _mac's dense center factor minus the free-slip rows
        want = _dense_second_difference(n, h, "centers")[[0, -1]]
        h2 = h * h
        want[0, :2] -= 1.0 / h2, -1.0 / h2
        want[1, -2:] -= -1.0 / h2, 1.0 / h2
        assert stokes._wall_rows(n, h).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n, h", [(8, 0.125), (9, 0.3), (33, 1 / 33), (128, 1 / 128)])
    def test_wall_modes_keep_the_sum_on_even_and_the_difference_on_odd_modes(self, n, h):
        # the walls mirror each other, so in their sum (entry 0) and difference
        # (entry 1) each of q and r lives on one mode parity
        for a in stokes._wall_modes(n, h):
            assert a.shape == (2, n)
            for entry, other in ((0, slice(1, None, 2)), (1, slice(0, None, 2))):
                assert np.abs(a[entry, other]).max() <= 1e-12 * np.abs(a[entry]).max()

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
        assert peak < 3e6


class TestRectangleTransform:
    """The transform-and-capacitance solve against the SuperLU saddle solve."""

    @pytest.mark.parametrize("x_extent, nx, nz", [(1.0, 8, 8), (1.5, 9, 8), (0.5, 8, 9),
                                                   (1.5, 24, 16), (1.0, 64, 64),
                                                   (1.0, 128, 128), (6.0, 96, 16),
                                                   (1 / 6, 16, 96), (2.0, 33, 17),
                                                   (0.5, 17, 33)])
    def test_agrees_with_sparse_lu(self, x_extent, nx, nz):
        # the wide and the tall box each eliminate a different wall family,
        # the square one the u1 rows; a box whose smaller cell count is even
        # has symmetry classes one mode apart in size (three and four at 8
        # cells, the fewest), one whose count is odd (33 x 17, 17 x 33) equal ones
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
    def test_wall_families_couple_only_within_the_four_symmetry_classes(self, nx, nz):
        # each wall family's dense coupling to the other, an outer product of
        # the wall modes and w12 over (mode, sum | difference) x (mode, sum |
        # difference), splits into 16 blocks by the mode parity and the sum |
        # difference of its rows and columns; the twelve whose rows' entry is
        # not the columns' parity, or the columns' entry not the rows' parity,
        # are rounding, and the factor keeps the other four
        grid = make_grid(DomainSpec(DomainKind.RECTANGLE, nx / nz), nx, nz)
        (qx, rx), (qz, rz) = stokes._wall_modes(nx, grid.hx), stokes._wall_modes(nz, grid.hz)
        gx, gz = stokes._symbol(nx, grid.hx)[1:, None], stokes._symbol(nz, grid.hz)[None, 1:]
        w12 = -gx * gz / (gx * gx + gz * gz) ** 2
        dense = [r[None, :, 1:, None] * w[:, None, :, None] * q.T[1:, None, None, :]
                 for r, w, q in ((rz, w12, qx), (rx, w12.T, qz))]
        for d in dense:
            # mode parity a, sum | difference s of the rows; b, t of the columns
            for a, s, b, t in np.ndindex(2, 2, 2, 2):
                if (s, t) != (b, a):
                    block = d[1 - a::2, s][:, 1 - b::2, t]
                    assert np.max(np.abs(block)) <= 1e-14 * np.max(np.abs(d))
        fac = stokes._rect_factor(grid)
        e, k = fac.elim, 1 - fac.elim
        for side in (0, 1):  # the classes' rows of the eliminated, the kept family
            rows = {(c[side][0].start, c[side][1]) for c in fac.classes}
            assert rows == {(0, 0), (0, 1), (1, 0), (1, 1)}
        for ie, ik, across, back, _ in fac.classes:
            for f, rows, cols, got in ((e, ie, ik, across / fac.cap[ie][:, None]),
                                       (k, ik, ie, back)):
                assert rows[1] == 1 - cols[0].start and cols[1] == 1 - rows[0].start
                want = dense[f][rows][:, cols[0], cols[1]]
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("name, n, h", [("x", 24, 1.5 / 24), ("z", 16, 1.0 / 16),
                                            ("strip", 32, 8.0 / 32)])
    def test_symbols_diagonalize_the_mac_factors(self, name, n, h):
        # the transform symbols are pinned to the one MAC definition in _mac

        def close(got, want):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

        if name == "strip":
            # the rfft of each factor is its symbol times the rfft, per wavenumber
            grid = make_grid(DomainSpec(DomainKind.STRIP, n * h), n, 16)
            gx = stokes._strip_factor(grid).gx
            F = scipy.fft.rfft(np.eye(n), axis=0)
            close(np.abs(gx) ** 2 * F,
                  scipy.fft.rfft(_dense_second_difference(n, h, "periodic"), axis=0))
            close(gx * F, scipy.fft.rfft(_dense_gradient(n, h, True), axis=0))
            return
        # the orthonormal DST-I on the n - 1 interior faces and DCT-II on the
        # n centers, with the modes as rows
        S, C = _transforms.dst1(np.eye(n - 1), axis=0), _transforms.dct(np.eye(n), axis=0)
        g = stokes._symbol(n, h)
        walls = np.zeros((n, n))
        walls[[0, -1]] = stokes._wall_rows(n, h)

        close(S.T @ np.diag(g[1:] ** 2) @ S, _dense_second_difference(n - 1, h, "faces"))
        close(C.T @ np.diag(g ** 2) @ C + walls, _dense_second_difference(n, h, "centers"))
        close(S.T @ np.diag(g[1:]) @ C[1:], _dense_gradient(n, h, False))


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

    @pytest.mark.parametrize("period, nx, nz", [(8, 16, 8), (8, 128, 128),
                                                 (32, 512, 16)])
    def test_capacitance_inverses_match_lapack(self, period, nx, nz):
        # LAPACK's inverses, as the oracle, of the dense 2 x 2 capacitances
        # I + rz diag(gz^2 / lam^2) qz^T in the walls' sum and difference:
        # their diagonal is the factor's, and their off-diagonal is rounding
        dom = DomainSpec(DomainKind.STRIP, float(period))
        fac = stokes._strip_factor(make_grid(dom, nx, nz))
        w = fac.gz * fac.gz * fac.inv * fac.inv
        want = np.linalg.inv(np.eye(2) + (fac.rz * w[:, None, :]) @ fac.qz.T)
        diag = np.diagonal(want, axis1=1, axis2=2).T
        assert np.all(np.abs(fac.cap - diag) <= 1e-13 * np.abs(diag))
        off = np.abs(want[:, [0, 1], [1, 0]]).T
        assert np.all(off <= 1e-13 * np.abs(diag).min(axis=0))

    def test_strip_runs_call_no_lapack(self, strip, tmp_path, monkeypatch):
        # the strip factor, its solves and the Picard bounds' gradient norm
        # are closed forms: a solve and a strip picard run with LAPACK's
        # inverse, norm and SVD made to fail
        def lapack(*args, **kwargs):
            raise AssertionError("a strip run called LAPACK")

        for name in ("inv", "norm", "svd"):
            monkeypatch.setattr(np.linalg, name, lapack)
        stokes._strip_factor.cache_clear()
        try:
            dom, grid = strip
            solve_buoyancy(make_density("patch", grid, dom))
            cfg = tmp_path / "picard.ini"
            cfg.write_text("[picard]\nnx = 32\nnz = 16\nt_final = 0.1\n"
                           "n_time_nodes = 3\n")
            assert cli.main(["picard", "--config", str(cfg),
                             "--out", str(tmp_path / "o")]) == 0
        finally:
            stokes._strip_factor.cache_clear()

    def test_singular_capacitance_is_a_solver_failure(self, tmp_path, monkeypatch, capsys):
        # a non-finite determinant raises LinAlgError, as LAPACK's inverse
        # of a singular matrix does, and the CLI reports it with exit 1
        wall_modes = stokes._wall_modes

        def broken(n, h):
            q, r = wall_modes(n, h)
            return np.full_like(q, np.nan), r

        monkeypatch.setattr(stokes, "_wall_modes", broken)
        stokes._strip_factor.cache_clear()
        try:
            cfg = tmp_path / "stokes.ini"
            cfg.write_text("[stokes]\nnx = 32\nnz = 16\nproblem = buoyancy\n")
            out = tmp_path / "o"
            assert cli.main(["stokes", "--config", str(cfg), "--out", str(out)]) == 1
            assert not out.exists()
            assert "solver failure: singular strip wall capacitance" in capsys.readouterr().err
        finally:
            stokes._strip_factor.cache_clear()

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


def _band_decay_rates(nz, split):
    """The two decay rates of u2 along the strip away from a density band.

    The band is 1 wide, |x - 8| < 0.5, on a strip of period 16 with
    h = 1/nz; z-uniform, or +1 above z = 0.5 over -1 below when ``split``.
    u2 is sampled at the centres 1.5 <= x - 8 <= 5.5 (4.0 when split) on
    z-face row nz/2 (nz/4 when split), and two modes are fitted by matrix
    pencil: pencil parameter half the sample count, SVD cut to rank 2.
    """
    period = 16.0
    dom = DomainSpec(DomainKind.STRIP, period)
    grid = make_grid(dom, 16 * nz, nz)
    x = (np.arange(grid.nx) + 0.5) * grid.hx - period / 2
    z = (np.arange(nz) + 0.5) * grid.hz
    band = (np.abs(x) < 0.5)[:, None] * np.where(z > 0.5, 1.0, -1.0 if split else 1.0)
    u2 = solve_buoyancy(ScalarField(grid, dom, band)).u.u2.values
    y = u2[(x >= 1.5) & (x <= (4.0 if split else 5.5)), nz // 4 if split else nz // 2]
    n = len(y)
    hankel = np.array([y[i:i + n // 2 + 1] for i in range(n - n // 2)])
    v = np.linalg.svd(hankel)[2][:2].T
    zs = np.linalg.eigvals(np.linalg.pinv(v[:-1]) @ v[1:]).astype(complex)
    return -np.log(zs) / grid.hx


@pytest.mark.parametrize("split, rate", [(False, 4.2124 + 2.2507j),
                                         (True, 7.4977 + 2.7687j)],
                         ids=["uniform_band", "split_band"])
def test_strip_response_decays_at_the_complex_papkovich_fadle_rate(split, rate):
    # the clamped channel's response to a localised forcing decays like
    # exp(-lambda |x|), lambda / 2 a root of sin 2mu + 2mu = 0 (a z-uniform
    # band) or sin 2mu - 2mu = 0 (a band odd about z = 1/2); the fit sees
    # the complex-conjugate pair and converges to it at second order
    errs = []
    for nz in (16, 32, 64):
        fit = _band_decay_rates(nz, split)
        assert abs(fit[0].imag) > 1.0
        assert fit[0] == pytest.approx(np.conj(fit[1]), rel=1e-8)
        errs.append(abs(fit[np.argmax(fit.imag)] - rate) / abs(rate))
    assert errs[1] < 0.01
    assert errs[0] >= 3.0 * errs[1] and errs[1] >= 3.0 * errs[2], errs


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
    """The slice-stencil operators against the hand-written ones."""

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
    def test_stencils_match_the_hand_written_ones(self, periodic):
        # every output line of each _mac function along both axes, edge lines
        # included, where a max-norm residual could miss a wrong line
        dom = DomainSpec(DomainKind.STRIP if periodic else DomainKind.RECTANGLE,
                         8.0 if periodic else 1.5)
        grid = make_grid(dom, 24, 16)
        hx, hz = grid.hx, grid.hz
        rng = np.random.default_rng(5)
        # from_arrays zeroes the wall rows, which the reference stencils read
        u = VelocityField.from_arrays(
            grid, dom, *(rng.standard_normal(expected_shape(grid, dom, s)) for s in (XFACE, ZFACE)))
        a1, a2, p = u.u1.values, u.u2.values, rng.standard_normal((grid.nx, grid.nz))
        inner = slice(None) if periodic else slice(1, -1)
        b1, b2 = a1[inner], a2[:, 1:-1]
        x1, x2 = ("periodic", "periodic") if periodic else ("faces", "centers")

        def close(got, want):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

        d2 = _mac.second_difference
        close(d2(b1, hx, x1, 0, np.empty(b1.shape)) + d2(b1, hz, "centers", 1, np.empty(b1.shape)),
              -ref._laplacian_u1(a1, grid, dom)[inner])
        close(d2(b2, hx, x2, 0, np.empty(b2.shape)) + d2(b2, hz, "faces", 1, np.empty(b2.shape)),
              -ref._laplacian_u2(a2, grid, dom)[:, 1:-1])
        close(_mac.gradient(p, hx, periodic, 0, np.empty(b1.shape)),
              ref._grad_p_x(p, grid, dom)[inner])
        close(_mac.gradient(p, hz, False, 1, np.empty(b2.shape)),
              ref._grad_p_z(p, grid)[:, 1:-1])


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

    @pytest.mark.parametrize("factor, accepted", [(0.5, True), (2.0, False)])
    def test_divergence_gate_at_its_edge(self, strip, factor, accepted):
        # one interior z-face moved so that the largest divergence is factor
        # times the gate's tolerance; the gate reads the solve's own residual
        dom, grid = strip
        f = buoyancy_forcing(make_density("stratified_perturbed", grid, dom))
        config = StokesConfig(flux_target=1.0)
        sol = solve_stokes_strip(f, config)
        tol = stokes._gate_tolerance(f, config)
        a2 = sol.u.u2.values.copy()
        a2[5, 7] += factor * tol * grid.hz
        u = VelocityField.from_arrays(grid, dom, sol.u.u1.values, a2,
                                      enforce_walls=False)
        assert max_divergence(u) == pytest.approx(factor * tol, rel=1e-3)
        if accepted:
            stokes._check_solution(sol.residual_norm, u, f, config)
        else:
            with pytest.raises(StokesSolveError, match="discrete divergence"):
                stokes._check_solution(sol.residual_norm, u, f, config)

    @pytest.mark.parametrize("kind, x_extent", [(DomainKind.STRIP, 8.0),
                                                (DomainKind.RECTANGLE, 1.0)])
    def test_divergent_solution_is_rejected(self, kind, x_extent, monkeypatch):
        # the residual passes, and a divergence of 1 fails the gate
        monkeypatch.setattr(stokes, "max_divergence", lambda u: 1.0)
        dom = DomainSpec(kind, x_extent)
        rho = make_density("stratified_perturbed", make_grid(dom, 32, 16), dom)
        with pytest.raises(StokesSolveError, match="discrete divergence"):
            solve_buoyancy(rho)

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

    @pytest.mark.parametrize("kind, x_extent, shift", [(DomainKind.STRIP, 8.0, 1e-4),
                                                       (DomainKind.RECTANGLE, 1.0, 1e-5)])
    def test_tolerance_ignores_the_wall_rows_of_the_forcing(self, kind, x_extent, shift):
        # the solvers never read f2 at z = 0, 1, nor on the rectangle f1 at
        # x = 0, Lx; a tolerance scaled by those rows (1e8 here: 0.1) would
        # accept a face moved by ``shift`` (residual 5.4e-2 and about 2.6e-2)
        dom = DomainSpec(kind, x_extent)
        grid = make_grid(dom, 32, 16)
        f = buoyancy_forcing(make_density("stratified_perturbed", grid, dom))
        f1, f2 = f.f1.copy(), f.f2.copy()
        if dom.periodic:
            f2[:, 0], f2[:, -1] = 1e8, -1e8
        else:
            f1[0], f1[-1] = 1e8, -1e8
        walled = Forcing(grid, dom, f1, f2)
        solve = solve_stokes_strip if dom.periodic else solve_stokes_bounded
        sol, want = solve(walled), solve(f)
        for name in ("u1", "u2"):
            assert getattr(sol.u, name).values.tobytes() == getattr(want.u, name).values.tobytes()
        assert sol.p.values.tobytes() == want.p.values.tobytes()
        a1 = sol.u.u1.values.copy()
        a1[5, 7] += shift
        off = VelocityField.from_arrays(grid, dom, a1, sol.u.u2.values, enforce_walls=False)
        res = momentum_residual(off, sol.p, walled, pressure_slope=sol.pressure_slope)
        assert 1e-2 < res < 0.1
        with pytest.raises(StokesSolveError, match="momentum residual"):
            stokes._check_solution(res, off, walled, StokesConfig())

    @pytest.mark.parametrize("kind, x_extent", [(DomainKind.STRIP, 8.0),
                                                (DomainKind.RECTANGLE, 1.0)])
    def test_zero_data_passes_a_zero_tolerance(self, kind, x_extent):
        dom = DomainSpec(kind, x_extent)
        grid = make_grid(dom, 32, 16)
        sol = solve_buoyancy(ScalarField(grid, dom, np.zeros((32, 16))))
        assert sol.residual_norm == 0.0
        assert not np.any(sol.u.u1.values) and not np.any(sol.u.u2.values)


@pytest.mark.parametrize("cached", [stokes._rect_factor, stokes._strip_factor,
                                    norms._chi_table])
def test_factor_cache_keeps_four_grids(cached):
    if cached in (stokes._strip_factor, norms._chi_table):
        dom = DomainSpec(DomainKind.STRIP, 8.0)
    else:
        dom = DomainSpec(DomainKind.RECTANGLE, 1.0)
    extra = (dom, False) if cached is norms._chi_table else ()
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
