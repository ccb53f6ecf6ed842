import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stokestransport.domain import (
    CENTER,
    XFACE,
    ZFACE,
    DomainKind,
    DomainSpec,
    ScalarField,
    expected_shape,
)
from stokestransport.snapshots import (
    _HEADER,
    FLOWMAP_TAG,
    MAGIC,
    _payload_shape,
    read_field,
    read_raster,
    write_field,
    write_raster,
)
from stokestransport.transport import FlowMap, read_flowmap, write_flowmap


@pytest.mark.parametrize("staggering", [CENTER, XFACE, ZFACE])
@pytest.mark.parametrize("which", ["rect", "strip"])
def test_field_round_trip_bitwise(which, staggering, rect, strip, tmp_path):
    dom, grid = rect if which == "rect" else strip
    rng = np.random.default_rng(11)
    from stokestransport.domain import expected_shape

    vals = rng.standard_normal(expected_shape(grid, dom, staggering))
    f = ScalarField(grid, dom, vals, staggering)
    p = tmp_path / "f.stf"
    write_field(p, f)
    g = read_field(p)
    assert g.staggering == staggering
    assert g.domain == dom
    assert g.grid == grid
    assert np.array_equal(g.values, f.values)


def test_flowmap_round_trip(strip, tmp_path):
    dom, grid = strip
    rng = np.random.default_rng(12)
    disp = rng.standard_normal((2, grid.nx, grid.nz))
    fm = FlowMap(t0=0.25, t1=1.5, grid=grid, domain=dom, displacement=disp)
    p = tmp_path / "m.stf"
    write_flowmap(p, fm)
    back = read_flowmap(p, t0=0.25, t1=1.5)
    assert np.array_equal(back.displacement, fm.displacement)
    assert back.grid == grid and back.domain == dom


def test_flowmap_payload_interleaves_x_then_z(strip, tmp_path):
    # each point's x offset comes before its z offset, points x-major with
    # z inner; a transposition that writer and reader share would survive
    # the round trip but not this
    dom, grid = strip
    ramp = np.arange(grid.nx * grid.nz, dtype=float).reshape(grid.nx, grid.nz)
    p = tmp_path / "m.stf"
    for x, z in ((np.ones_like(ramp), np.full_like(ramp, 2.0)), (ramp, -ramp)):
        write_flowmap(p, FlowMap(t0=0.0, t1=1.0, grid=grid, domain=dom,
                                 displacement=np.stack((x, z))))
        payload = np.frombuffer(p.read_bytes()[_HEADER.size:], dtype="<f8")
        assert np.array_equal(payload[0::2], x.ravel())
        assert np.array_equal(payload[1::2], z.ravel())


def test_bad_magic_rejected(tmp_path):
    p = tmp_path / "junk.stf"
    p.write_bytes(b"NOPE" + b"\0" * 64)
    with pytest.raises(ValueError, match="not an STF1"):
        read_raster(p)


def test_truncated_payload_rejected(strip, tmp_path):
    dom, grid = strip
    f = ScalarField(grid, dom, np.ones((grid.nx, grid.nz)))
    p = tmp_path / "f.stf"
    write_field(p, f)
    whole = p.read_bytes()
    p.write_bytes(whole[:-8])
    with pytest.raises(ValueError, match="payload"):
        read_raster(p)


def test_flowmap_snapshot_is_not_a_scalar(strip, tmp_path):
    dom, grid = strip
    write_raster(tmp_path / "m.stf", dom, grid.nx, grid.nz, FLOWMAP_TAG,
                 np.zeros((grid.nx, grid.nz, 2)))
    with pytest.raises(ValueError, match="flow-map"):
        read_field(tmp_path / "m.stf")


def test_wrong_payload_shape_rejected(strip, tmp_path):
    dom, grid = strip
    with pytest.raises(ValueError, match="shape"):
        write_raster(tmp_path / "f.stf", dom, grid.nx, grid.nz, 0,
                     np.zeros((grid.nx + 1, grid.nz)))


@pytest.mark.parametrize("nx, nz", [(0, 16), (16, 0), (16, 1)])
def test_header_below_minimum_grid_rejected(nx, nz, tmp_path):
    # the payload length matches the header, so only the grid check can fail
    p = tmp_path / "small.stf"
    p.write_bytes(_HEADER.pack(MAGIC, 0, 0, nx, nz, 1.0) + bytes(8 * nx * nz))
    with pytest.raises(ValueError, match="grid must have"):
        read_raster(p)



_U32 = st.integers(0, 2 ** 32 - 1)
_EXTENTS = st.one_of(st.sampled_from([8.5, math.nan, math.inf, -math.inf, -8.0, 0.0]),
                     st.floats(allow_nan=True, allow_infinity=True))
_PARTS = ("kind", "stagger", "nx", "nz", "x_extent", "payload")


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_fuzzed_snapshot_is_a_field_or_a_value_error(data, tmp_path_factory):
    # a valid header and payload, then any subset of the six parts replaced
    # by arbitrary values: u32 codes and sizes, any double for the extent
    kind = data.draw(st.sampled_from([0, 1]))
    stagger = data.draw(st.sampled_from([0, 1, 2, FLOWMAP_TAG]))
    nx, nz = data.draw(st.integers(8, 12)), data.draw(st.integers(8, 12))
    x_extent = data.draw(st.sampled_from([8.0, 16.0]) if kind else st.floats(0.25, 4.0))
    dom = DomainSpec(DomainKind.STRIP if kind else DomainKind.RECTANGLE, x_extent)
    size = 8 * math.prod(_payload_shape(dom, stagger, nx, nz))
    broken = data.draw(st.sets(st.sampled_from(_PARTS)))
    kind = data.draw(_U32) if "kind" in broken else kind
    stagger = data.draw(_U32) if "stagger" in broken else stagger
    nx = data.draw(_U32) if "nx" in broken else nx
    nz = data.draw(_U32) if "nz" in broken else nz
    x_extent = data.draw(_EXTENTS) if "x_extent" in broken else x_extent
    payload = data.draw(st.binary(max_size=2 * size + 16) if "payload" in broken
                        else st.binary(min_size=size, max_size=size))
    path = tmp_path_factory.mktemp("fuzz") / "f.stf"
    path.write_bytes(_HEADER.pack(MAGIC, kind, stagger, nx, nz, x_extent) + payload)
    try:
        domain, grid, code, values = read_raster(path)
    except ValueError:
        pass
    else:
        assert (grid.nx, grid.nz, code) == (nx, nz, stagger)
        assert values.nbytes == len(payload)
    try:
        f = read_field(path)
    except ValueError:
        pass
    else:
        assert f.values.shape == expected_shape(f.grid, f.domain, f.staggering)
        assert np.array_equal(f.values.ravel(), np.frombuffer(payload, "<f8"))
