"""Byte-level pins of the Monte Carlo face tallies.

One seeded `estimate_iv` per catalog cone and per chamber of
``generic-3d-n5``, split in two by what is drawn:

* Full-dimensional pointed cones draw in the ambient coordinates, so their
  tallies are pinned in ``fixtures/sampling-pointed.sha256``, recorded
  before cones with a lower dimension or a lineality were sampled in their
  own coordinates.  The chambers of ``generic-3d-n5`` are among them
  because most of their face spans have fractional RREF entries.
* Every other cone draws h ~ N(0, I_k) in an orthonormal basis of
  span(C) ∩ lin(C)^⊥, or nothing at all for a subspace; its tallies are
  pinned in ``fixtures/sampling-core.sha256``.

Faces in another order, a different face chosen or a draw accepted
differently change the tallies; a last-bit change in the kernel's floats
usually does not, and `test_volumes.test_kernel_bases_are_qr_of_float_rref_rows`
checks those bits.
"""

import hashlib
import json
from pathlib import Path

from conevol.arrangement import chambers
from conevol.catalog import build_arrangements, build_cones
from conevol.volumes import SampleConfig, estimate_iv

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _full_pointed(c) -> bool:
    return c.is_pointed and c.dim == c.d


def sampling_dump(full_pointed: bool) -> bytes:
    """Face hit counts and sample count of one seeded `estimate_iv` per
    catalog cone and per chamber of generic-3d-n5, over the cones that are
    (or are not) full-dimensional and pointed."""
    cones = build_cones()
    generic = dict(build_arrangements())["generic-3d-n5"]
    cones += [(f"generic-3d-n5 chamber {i}", r.cone) for i, r in enumerate(chambers(generic))]
    cfg = SampleConfig(n_samples=4096, seed=16)
    lines = []
    for name, c in cones:
        if _full_pointed(c) != full_pointed:
            continue
        est = estimate_iv(c, cfg)
        lines.append([name, list(est.face_hit_counts), est.n_samples])
    return "\n".join(json.dumps(x) for x in lines).encode()


def _pin(name: str) -> str:
    return (FIXTURES / name).read_text().split()[0]


def test_full_dimensional_pointed_tallies_match_pin():
    assert hashlib.sha256(sampling_dump(True)).hexdigest() == _pin("sampling-pointed.sha256")


def test_sampling_core_dump_matches_pin():
    assert hashlib.sha256(sampling_dump(False)).hexdigest() == _pin("sampling-core.sha256")
