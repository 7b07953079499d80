"""SHA-256 of every j-region of the named arrangement families.

    PYTHONPATH=src python tools/region_digest.py braid:6 d:5 bc:5

Dumps, for each family spec in turn and each j = 0..d, every j-region as
the JSON line ``[spec, j, sign_vector, cone_to_json(cone)]`` with sorted
keys, in the form of ``tests/test_exact_pin.py``'s dump, joins the lines
with newlines and prints the digest.  The region order, the sign vectors
and every canonical row enter the digest, so any change to them shows.
"""

from __future__ import annotations

import argparse
import hashlib
import json

from conevol.arrangement import parse_family_spec, regions_j
from conevol.cone import cone_to_json


def region_digest(specs) -> str:
    lines = []
    for spec in specs:
        a = parse_family_spec(spec)
        for j in range(a.d + 1):
            for r in regions_j(a, j):
                lines.append([spec, j, list(r.sign_vector), cone_to_json(r.cone)])
    dump = "\n".join(json.dumps(x, sort_keys=True) for x in lines).encode()
    return hashlib.sha256(dump).hexdigest()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("specs", nargs="+", help="family specs, such as braid:6 or bc:5")
    print(region_digest(ap.parse_args().specs))


if __name__ == "__main__":
    main()
