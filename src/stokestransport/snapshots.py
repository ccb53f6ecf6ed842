"""Binary field snapshots: the "STF1" container.

Layout (all integers little-endian):

    bytes 0..3   magic b"STF1"
    u32          domain kind (0 = rectangle, 1 = strip)
    u32          staggering (0 = center, 1 = x-face, 2 = z-face,
                             3 = flow-map displacement, two interleaved channels)
    u32          nx  (grid cells in x)
    u32          nz  (grid cells in z)
    f64          x_extent
    f64[...]     payload, row-major with z as the inner index

The payload length is implied by kind + staggering: center nx*nz, x-face
(nx+1)*nz on the rectangle and nx*nz on the strip, z-face nx*(nz+1), and
flow-map nx*nz*2 with the two displacement channels interleaved per point.
"""

from __future__ import annotations

import struct

import numpy as np

from .domain import (
    CENTER,
    XFACE,
    ZFACE,
    DomainKind,
    DomainSpec,
    GridSpec,
    ScalarField,
    expected_shape,
    make_grid,
)

__all__ = ["write_field", "read_field", "write_raster", "read_raster", "FLOWMAP_TAG"]

MAGIC = b"STF1"
_HEADER = struct.Struct("<4sIIIId")

_KIND_CODES = {DomainKind.RECTANGLE: 0, DomainKind.STRIP: 1}
_KIND_FROM_CODE = {v: k for k, v in _KIND_CODES.items()}
_STAGGER_CODES = {CENTER: 0, XFACE: 1, ZFACE: 2}
_STAGGER_FROM_CODE = {v: k for k, v in _STAGGER_CODES.items()}
FLOWMAP_TAG = 3


def _payload_shape(domain: DomainSpec, stagger_code: int, nx: int, nz: int):
    if stagger_code == FLOWMAP_TAG:
        return (nx, nz, 2)
    return expected_shape(GridSpec(nx, nz, 1.0, 1.0), domain, _STAGGER_FROM_CODE[stagger_code])


def write_raster(path, domain: DomainSpec, nx: int, nz: int, stagger_code: int, values: np.ndarray):
    values = np.ascontiguousarray(values, dtype="<f8")
    want = _payload_shape(domain, stagger_code, nx, nz)
    if values.shape != want:
        raise ValueError(f"payload shape {values.shape} does not match header (want {want})")
    header = _HEADER.pack(MAGIC, _KIND_CODES[domain.kind], stagger_code, nx, nz, domain.x_extent)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(values.tobytes(order="C"))


def read_raster(path):
    """Read any STF1 file; returns (domain, grid, stagger_code, values)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size or raw[:4] != MAGIC:
        raise ValueError(f"{path}: not an STF1 snapshot")
    magic, kind_code, stagger_code, nx, nz, x_extent = _HEADER.unpack_from(raw)
    if kind_code not in _KIND_FROM_CODE:
        raise ValueError(f"{path}: unknown domain kind code {kind_code}")
    if stagger_code not in (0, 1, 2, FLOWMAP_TAG):
        raise ValueError(f"{path}: unknown staggering code {stagger_code}")
    domain = DomainSpec(_KIND_FROM_CODE[kind_code], x_extent)
    grid = make_grid(domain, nx, nz)
    shape = _payload_shape(domain, stagger_code, nx, nz)
    count = int(np.prod(shape))
    body = raw[_HEADER.size:]
    if len(body) != 8 * count:
        raise ValueError(f"{path}: payload has {len(body)} bytes, header implies {8 * count}")
    values = np.frombuffer(body, dtype="<f8").reshape(shape).astype(np.float64)
    return domain, grid, stagger_code, values


def write_field(path, field: ScalarField):
    write_raster(path, field.domain, field.grid.nx, field.grid.nz,
                 _STAGGER_CODES[field.staggering], field.values)


def read_field(path) -> ScalarField:
    domain, grid, stagger_code, values = read_raster(path)
    if stagger_code == FLOWMAP_TAG:
        raise ValueError(f"{path}: flow-map snapshot, not a scalar field")
    return ScalarField(grid, domain, values, _STAGGER_FROM_CODE[stagger_code])
