"""Orbit serialization: the ORB1 binary column format and CSV export.

ORB1 layout (little-endian): magic "ORB1", u32 ell, u32 r, u32 bits,
u64 n, then n symbol bytes (1..ell), then n+1 points of bits/8 bytes each
as unsigned fixed-point fractions.  bits must be a multiple of 8 and at
least 64; `read_orb1` rejects a file whose body is not exactly that long.

Both writers work in chunks of `table.CHUNK_ROWS` rows, and both take the
points' bytes from the limb array (`fixedpoint.point_bytes`).  The CSV is
encoded column by column in numpy (`multirot.table`): integer columns
through a base-10**4 digit table, x_hex through a byte-to-hex table, one
compress and one write per chunk.  The bytes of both files are the same
as those of the row-by-row formatting they replace (`str(int(v))` per
integer cell, `format(x, "0{(bits+3)//4}x")` per point); the tests
compare against it.
"""

from __future__ import annotations

import struct

import numpy as np

from .. import fixedpoint, table
from ..errors import UsageError
from .generate import Orbit

MAGIC = b"ORB1"
HEADER = struct.Struct("<4sIIIQ")


def write_orb1(orbit: Orbit, path) -> None:
    if orbit.bits % 8:
        raise UsageError("ORB1 export requires bits to be a multiple of 8")
    with open(path, "wb") as fh:
        fh.write(HEADER.pack(MAGIC, orbit.ell, orbit.steps.r, orbit.bits, orbit.n))
        fh.write(orbit.omega.tobytes())
        for s, e in table.chunk_bounds(orbit.n + 1):
            fh.write(fixedpoint.point_bytes(orbit.points[s:e], orbit.bits)[:, ::-1].tobytes())


def read_orb1(path) -> dict:
    """Contents of an ORB1 file: header fields, symbols and the (n+1, L) limb array."""
    with open(path, "rb") as fh:
        head = fh.read(HEADER.size)
        body = fh.read()
    if len(head) < HEADER.size or head[:4] != MAGIC:
        raise UsageError("not an ORB1 file")
    _, ell, r, bits, n = HEADER.unpack(head)
    if bits % 8 or bits < 64:
        raise UsageError(f"ORB1 bits must be a multiple of 8 and at least 64, not {bits}")
    width = bits // 8
    if len(body) != n + (n + 1) * width:
        raise UsageError(
            f"ORB1 body has {len(body)} bytes; n={n} at {bits} bits needs {n + (n + 1) * width}"
        )
    omega = np.frombuffer(body, dtype=np.uint8, count=n)
    raw = np.frombuffer(body, dtype=np.uint8, offset=n).reshape(n + 1, width)
    points = fixedpoint.points_from_bytes(raw[:, ::-1], bits)
    return {"ell": ell, "r": r, "bits": bits, "n": n, "omega": omega, "points": points}


def write_orbit_csv(orbit: Orbit, path) -> None:
    """Columns: n, omega, x_hex, N_1..N_ell, b_1..b_r (omega blank at n=0)."""
    counts = orbit.counts()
    bvec = orbit.bvec()
    header = (
        ["n", "omega", "x_hex"]
        + [f"N_{i+1}" for i in range(orbit.ell)]
        + [f"b_{j+1}" for j in range(orbit.steps.r)]
    )
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("ascii"))
        for s, e in table.chunk_bounds(orbit.n + 1):
            # row k carries omega_k = orbit.omega[k - 1]; row 0 has none.  Built
            # per chunk: a full-length shifted copy raised peak RSS by 0.8 MB.
            omega = np.zeros(e - s, dtype=np.uint8)
            first = max(s, 1)
            omega[first - s:] = orbit.omega[first - 1:e - 1]
            omega_cells = table.int_cells(omega)
            if s == 0:
                omega_cells[1][0] = False
            cells = [
                table.int_cells(np.arange(s, e)),
                omega_cells,
                table.hex_cells(fixedpoint.point_bytes(orbit.points[s:e], orbit.bits), orbit.bits),
            ]
            cells += [table.int_cells(counts[s:e, i]) for i in range(orbit.ell)]
            cells += [table.int_cells(bvec[s:e, j]) for j in range(orbit.steps.r)]
            fh.write(table.join_cells(cells))
