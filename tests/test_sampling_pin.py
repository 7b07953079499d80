"""Byte-level pin of the Monte Carlo face tallies.

The SHA-256 in ``fixtures/sampling-core.sha256`` was computed before the
cone, subspace and arrangement fields became integer rows, when a face's
span basis was stored as its ``Fraction`` RREF.  Faces in another order, a
different face chosen or a draw accepted differently change the tallies
below; a last-bit change in the kernel's floats usually does not, and
`test_volumes.test_kernel_bases_are_qr_of_float_rref_rows` checks those
bits.  The chambers of ``generic-3d-n5`` are included because most of
their face spans have fractional RREF entries.
"""

import hashlib
import json
from pathlib import Path

from conevol.arrangement import chambers
from conevol.catalog import build_arrangements, build_cones
from conevol.volumes import SampleConfig, estimate_iv

PIN = Path(__file__).resolve().parent.parent / "fixtures" / "sampling-core.sha256"


def sampling_core_dump() -> bytes:
    """Face hit counts and sample count of one seeded `estimate_iv` per
    catalog cone and per chamber of generic-3d-n5."""
    cones = build_cones()
    generic = dict(build_arrangements())["generic-3d-n5"]
    cones += [(f"generic-3d-n5 chamber {i}", r.cone) for i, r in enumerate(chambers(generic))]
    cfg = SampleConfig(n_samples=4096, seed=16)
    lines = []
    for name, c in cones:
        est = estimate_iv(c, cfg)
        lines.append([name, list(est.face_hit_counts), est.n_samples])
    return "\n".join(json.dumps(x) for x in lines).encode()


def test_sampling_core_dump_matches_pin():
    assert hashlib.sha256(sampling_core_dump()).hexdigest() == PIN.read_text().split()[0]
