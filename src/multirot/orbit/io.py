"""Orbit serialization: the ORB1 binary column format and CSV export.

ORB1 layout (little-endian): magic "ORB1", u32 ell, u32 r, u32 bits,
u64 n, then n symbol bytes (1..ell), then n+1 points of bits/8 bytes each
as unsigned fixed-point fractions.  bits must be a multiple of 8 and at
least 64; `read_orb1` rejects a file whose body is not exactly that long.

Neither writer holds the orbit's points.  Each sums them from the word
with `fixedpoint.limb_chunks`, one chunk at a time, in chunks of at most
`table.CHUNK_BYTES` of output rows and `table.CHUNK_ROWS` rows
(`table.chunk_bounds`), and writes each chunk's bytes
(`fixedpoint.point_bytes`) before the next is summed; row 0 is the zero
point x_0.  A CSV chunk is one call of `table.encode_rows`, the single
row encoder, and one write; row 0, whose omega cell is blank, is
formatted on its own.  The chunk's count columns come from
`generate.count_chunks` over the same chunks, so no per-point count
array exists either.  So the writers' temporaries stay within a few
megabytes per chunk at any bits, and the word is summed once per file
(the `table.CHUNK_BYTES` comment has the measured cost).  The bytes of
both files are the same as those of the row-by-row formatting they
replace (`str(int(v))` per integer cell, `format(x, "0{(bits+3)//4}x")`
per point); the tests compare against it.
"""

from __future__ import annotations

import struct

import numpy as np

from .. import fixedpoint, table
from ..errors import UsageError
from .generate import Orbit, count_chunks, guard_b_columns

MAGIC = b"ORB1"
HEADER = struct.Struct("<4sIIIQ")


def write_orb1(orbit: Orbit, path) -> None:
    if orbit.bits % 8:
        raise UsageError("ORB1 export requires bits to be a multiple of 8")
    with open(path, "wb") as fh:
        fh.write(HEADER.pack(MAGIC, orbit.ell, orbit.steps.r, orbit.bits, orbit.n))
        fh.write(orbit.omega.tobytes())
        fh.write(bytes(orbit.bits // 8))  # x_0 = 0
        chunks = fixedpoint.limb_chunks(orbit.omega, orbit.fp_steps, orbit.bits, orbit.bits // 8)
        for _, _, rows in chunks:
            fh.write(fixedpoint.point_bytes(rows, orbit.bits)[:, ::-1].tobytes())


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
    """Columns: n, omega, x_hex, N_1..N_ell, b_1..b_r (omega blank at n=0).

    Each chunk's N_i columns come from `count_chunks` and each b_j column
    is sum_i p_ij N_i, multiply-adds of whole columns.  Every b_j is exact:
    `guard_b_columns` refuses an orbit whose b_j could pass int64.
    """
    steps = orbit.steps
    guard_b_columns(steps, orbit.n)
    header = (
        ["n", "omega", "x_hex"]
        + [f"N_{i+1}" for i in range(orbit.ell)]
        + [f"b_{j+1}" for j in range(steps.r)]
    )
    # row 0 has no omega, the zero point and every count 0; row k >= 1 carries
    # omega_k = orbit.omega[k - 1]
    first = ["0", "", "0" * ((orbit.bits + 3) // 4)] + ["0"] * (orbit.ell + steps.r)
    # at most 20 characters and a comma per integer cell
    row_bytes = (orbit.bits + 3) // 4 + 1 + 21 * (2 + orbit.ell + steps.r)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n" + ",".join(first) + "\n").encode("ascii"))
        chunks = zip(count_chunks(orbit.omega, range(1, orbit.ell + 1), row_bytes),
                     fixedpoint.limb_chunks(orbit.omega, orbit.fp_steps, orbit.bits, row_bytes))
        for (s, e, counts), (_, _, rows) in chunks:
            b = [sum(col * row[j] for col, row in zip(counts, steps.p)) for j in range(steps.r)]
            points = fixedpoint.point_bytes(rows, orbit.bits)
            fh.write(table.encode_rows(
                [np.arange(s + 1, e + 1), orbit.omega[s:e], (points, orbit.bits), *counts, *b]
            ))
