"""Byte-level pin of the exact core's canonical outputs.

The SHA-256 in ``fixtures/exact-core.sha256`` was computed from the
rational double description that the integer core replaced.  Every
integer vector of the core is a positive multiple of the rational vector
it stands for, so every ray, sign, order and canonical form must come out
the same; a reordering would change this digest even where counts agree.
"""

import hashlib
import json
from pathlib import Path

from conevol.arrangement import parse_family_spec, regions_j
from conevol.catalog import build_cones
from conevol.cone import cone_to_json, face_lattice, matrix_to_json

PIN = Path(__file__).resolve().parent.parent / "fixtures" / "exact-core.sha256"


def exact_core_dump() -> bytes:
    """Each catalog cone's H-representation, generators and f-vector, then
    every j-region's sign vector and H-representation of three families."""
    lines = []
    for name, c in build_cones():
        lines.append([name, cone_to_json(c), matrix_to_json(c.generators),
                      list(face_lattice(c).f_vector)])
    for spec in ("braid:4", "bc:3", "d:4"):
        a = parse_family_spec(spec)
        for j in range(a.d + 1):
            for r in regions_j(a, j):
                lines.append([spec, j, list(r.sign_vector), cone_to_json(r.cone)])
    return "\n".join(json.dumps(x, sort_keys=True) for x in lines).encode()


def test_exact_core_dump_matches_pin():
    assert hashlib.sha256(exact_core_dump()).hexdigest() == PIN.read_text().split()[0]
