import numpy as np
import pytest

from stokestransport.domain import DomainKind, DomainSpec, make_grid, z_centers
from stokestransport.scenarios import SCENARIOS, make_density


class TestStratified:
    def test_plateaus_are_exactly_flat(self, strip):
        dom, grid = strip
        rho = make_density("stratified", grid, dom, lower=1.0, upper=0.0,
                           plateau=0.1)
        zc = z_centers(grid)
        low = rho.values[:, zc <= 0.1]
        high = rho.values[:, zc >= 0.9]
        assert np.all(low == 1.0)
        assert np.all(high == 0.0)

    def test_monotone_in_z(self, strip):
        dom, grid = strip
        rho = make_density("stratified", grid, dom)
        assert np.all(np.diff(rho.values, axis=1) <= 0.0)

    def test_x_independent(self, strip):
        dom, grid = strip
        rho = make_density("stratified", grid, dom)
        assert np.all(rho.values == rho.values[:1, :])


class TestStratifiedPerturbed:
    def test_sup_attained_on_plateau_exactly(self, strip):
        # the perturbation lives strictly inside (0.25, 0.75) where the
        # profile has already left its extremes, so sup and inf come from
        # the untouched plateaus
        dom, grid = strip
        rho = make_density("stratified_perturbed", grid, dom, eps=0.05)
        assert rho.values.max() == 1.0
        assert rho.values.min() == 0.0

    def test_x_dependence_present(self, strip):
        dom, grid = strip
        rho = make_density("stratified_perturbed", grid, dom, eps=0.05)
        assert np.any(rho.values != rho.values[:1, :])

    def test_eps_cap(self, strip):
        dom, grid = strip
        with pytest.raises(ValueError):
            make_density("stratified_perturbed", grid, dom, eps=0.3)

    def test_plateau_cap(self, strip):
        dom, grid = strip
        with pytest.raises(ValueError):
            make_density("stratified_perturbed", grid, dom, plateau=0.2)

    def test_mode_must_be_positive(self, strip):
        dom, grid = strip
        with pytest.raises(ValueError):
            make_density("stratified_perturbed", grid, dom, mode=0)

    def test_mode_changes_wavelength(self, strip):
        dom, grid = strip
        r1 = make_density("stratified_perturbed", grid, dom, eps=0.05, mode=1)
        r2 = make_density("stratified_perturbed", grid, dom, eps=0.05, mode=2)
        assert not np.array_equal(r1.values, r2.values)


class TestPatch:
    def test_background_outside_exact(self, strip):
        dom, grid = strip
        rho = make_density("patch", grid, dom, background=0.25, delta=1.0)
        # far from the default center (L/2, 0.7)
        assert rho.values[0, 0] == 0.25

    def test_core_value_exact(self, strip):
        dom, grid = strip
        rho = make_density("patch", grid, dom, background=0.0, delta=2.0)
        # cell nearest the center lies inside r_inner
        i = grid.nx // 2
        j = int(0.7 / grid.hz)
        assert rho.values[i, j] == 2.0

    def test_periodic_seam(self, strip):
        # a patch centered on the seam x = 0 must land symmetrically on
        # both sides
        dom, grid = strip
        rho = make_density("patch", grid, dom, cx=0.0)
        assert np.allclose(rho.values, rho.values[::-1, :], atol=1e-12)

    def test_fit_validated(self, strip):
        dom, grid = strip
        with pytest.raises(ValueError):
            make_density("patch", grid, dom, cz=0.9, r_outer=0.25)
        with pytest.raises(ValueError):
            make_density("patch", grid, dom, r_inner=0.3, r_outer=0.25)

    @pytest.mark.parametrize("top", [False, True], ids=["bottom", "top"])
    def test_patch_may_touch_a_wall(self, strip, top):
        # a disk of radius r_outer whose edge lies on a wall clears it; the
        # nearest centre from which it crosses the wall does not (at the top
        # an ulp of cz rounds away in cz + r_outer, so that is two ulps)
        dom, grid = strip
        r = 0.25
        if top:
            at, inside = 0.75, np.nextafter(1.0, 2.0) - r
            assert at + r == 1.0 and inside + r > 1.0
        else:
            at, inside = r, np.nextafter(r, 0.0)
            assert at - r == 0.0 and inside - r < 0.0
        make_density("patch", grid, dom, cz=at, r_outer=r)
        with pytest.raises(ValueError, match="clear both walls"):
            make_density("patch", grid, dom, cz=inside, r_outer=r)

    def test_unresolved_patch_raises(self):
        # on the 8-period strip at nx = 16 the centres nearest (4, 0.7) lie
        # exactly r_outer = 0.25 away, so the patch would be all background
        dom = DomainSpec(DomainKind.STRIP, 8.0)
        with pytest.raises(ValueError, match="does not resolve the patch"):
            make_density("patch", make_grid(dom, 16, 8), dom, delta=3.0)


class TestChecker:
    def test_amplitude_bound(self, strip):
        dom, grid = strip
        rho = make_density("checker", grid, dom, kx=2, kz=3, amplitude=0.75)
        assert np.max(np.abs(rho.values)) <= 0.75

    def test_l2_oracle(self, strip):
        # 0.75 sin(2 pi * 2 x / 8) sin(3 pi z) on the strip: both midpoint
        # sums hit the half-area identity exactly, giving
        # 0.75 sqrt(8/2 * 1/2) = 0.75 sqrt(2) = 1.0606601717798212
        from stokestransport.norms import lq_norm

        dom, grid = strip
        rho = make_density("checker", grid, dom, kx=2, kz=3, amplitude=0.75)
        assert lq_norm(rho, 2) == pytest.approx(1.0606601717798212, abs=1e-12)


class TestFactory:
    def test_constant(self, rect):
        dom, grid = rect
        rho = make_density("constant", grid, dom, value=2.5)
        assert np.all(rho.values == 2.5)

    def test_unknown_name(self, rect):
        dom, grid = rect
        with pytest.raises(ValueError):
            make_density("vortex", grid, dom)

    def test_unknown_parameter(self, rect):
        dom, grid = rect
        with pytest.raises(ValueError):
            make_density("stratified", grid, dom, wavelength=3.0)

    def test_registry_is_complete(self):
        assert set(SCENARIOS) == {"constant", "stratified",
                                  "stratified_perturbed", "patch", "checker"}


@pytest.mark.parametrize("name, params, match", [
    ("constant", {"value": np.nan}, "needs a finite value"),
    ("stratified", {"plateau": 0.5}, "plateau must lie in"),
    ("stratified", {"lower": np.inf}, "needs finite levels"),
    ("patch", {"r_outer": 0.5}, "does not fit the domain"),
    ("checker", {"kz": 0}, "wavenumbers must be positive"),
], ids=["constant_nan", "stratified_plateau_half", "stratified_infinite_level",
        "patch_too_wide", "checker_zero_wavenumber"])
def test_bad_parameters_are_rejected(rect, name, params, match):
    dom, grid = rect
    with pytest.raises(ValueError, match=match):
        make_density(name, grid, dom, **params)
