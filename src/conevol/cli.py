"""Command-line front end.

Verbs: cone-info, cone-iv, cone-polar, arr-chi, arr-regions, arr-family,
verify, suite.  `verify`'s identities come from one table, `_IDENTITIES`,
which names what each reads and the call that makes its reports.  Output
is JSON (--format json, default) or a fixed-width table; identical argv
and seed produce byte-identical output.  Exit codes: 0 success / all
pass, 1 verification failure, 2 input or usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .arrangement import (
    arrangement_from_json,
    arrangement_to_json,
    char_poly,
    intersection_lattice,
    level_char_poly,
    parse_family_spec,
    regions_j,
    zaslavsky_count,
)
from .cone import cone_from_json, cone_to_json, face_lattice, polar
from .identities import (
    STEINER_T_GRID,
    render_table,
    run_suite,
    status_counts,
    verify_crofton_probability,
    verify_euler,
    verify_face_alternation,
    verify_family_statdim,
    verify_gauss_bonnet,
    verify_generic_slice,
    verify_genfun_alternation,
    verify_hug_schneider,
    verify_kinematic,
    verify_klivans_swartz,
    verify_mcmullen_inverse,
    verify_polar_kinematic,
    verify_sommerville,
    verify_statdim_alternation,
    verify_statdim_consistency,
    verify_steiner_mgf,
    verify_zaslavsky,
)
from .volumes import SampleConfig, estimate_iv, exact_iv, statistical_dimension


def _common_flags() -> argparse.ArgumentParser:
    # SUPPRESS defaults: a flag given after the verb overrides the root
    # value instead of being reset by the subparser's own default
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--samples", type=int, default=argparse.SUPPRESS,
                        help="Monte Carlo samples per estimate")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="base random seed")
    common.add_argument("--workers", type=int, default=argparse.SUPPRESS,
                        help="independent sampling substreams")
    common.add_argument("--tolerance-sigmas", type=float, default=argparse.SUPPRESS,
                        help="z tolerance for statistical checks")
    common.add_argument("--trials", type=int, default=argparse.SUPPRESS,
                        help="rotations for kinematic checks")
    common.add_argument("--format", choices=("json", "table"),
                        default=argparse.SUPPRESS)
    common.add_argument("-o", "--output", default=argparse.SUPPRESS,
                        help="write output to FILE")
    return common


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="conevol",
        description="Exact combinatorics and Monte Carlo intrinsic volumes "
        "for polyhedral cones and central hyperplane arrangements.",
        parents=[_common_flags()],
    )
    p.set_defaults(samples=100_000, seed=0, workers=1, tolerance_sigmas=4.0,
                   trials=512, format="json", output=None)
    common = _common_flags()
    sub = p.add_subparsers(dest="verb", required=True)

    s = sub.add_parser("cone-info", parents=[common],
                       help="dimensions, f-vector, both representations")
    s.add_argument("file")
    s = sub.add_parser("cone-iv", parents=[common],
                       help="Monte Carlo intrinsic volumes of a cone")
    s.add_argument("file")
    s = sub.add_parser("cone-polar", parents=[common], help="polar cone as a cone file")
    s.add_argument("file")
    s = sub.add_parser("arr-chi", parents=[common],
                       help="characteristic and level polynomials")
    s.add_argument("file", nargs="?")
    s.add_argument("--family", help="family spec, e.g. braid:4 or generic:n=5,d=3,seed=1")
    s = sub.add_parser("arr-regions", parents=[common], help="region counts by dimension")
    s.add_argument("file", nargs="?")
    s.add_argument("--family")
    s.add_argument("--j", type=int, default=None)
    s = sub.add_parser("arr-family", parents=[common],
                       help="materialize a named family arrangement")
    s.add_argument("family_spec")
    s = sub.add_parser("verify", parents=[common], help="run one identity check")
    s.add_argument("identity", choices=_IDENTITIES)
    s.add_argument("targets", nargs="*")
    s.add_argument("--family")
    s.add_argument("--k", type=int, default=1)
    s.add_argument("--j", type=int, default=None)
    s.add_argument("--n", type=int, default=None)
    s.add_argument("--d", type=int, default=None)
    s.add_argument("--t-grid")
    sub.add_parser("suite", parents=[common],
                   help="full identity battery over the bundled library")
    return p


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _load_cone(path: str):
    return cone_from_json(_load_json(path))


def _load_arrangement(file: str | None, family: str | None):
    if file and family:
        raise ValueError(f"an arrangement file ({file}) and --family {family} "
                         "were both given; give one")
    if family:
        return parse_family_spec(family)
    if file:
        return arrangement_from_json(_load_json(file))
    raise ValueError("an arrangement file or --family spec is required")


def _emit(args, payload, table_text: str | None = None) -> None:
    if args.format == "json":
        text = json.dumps(payload, indent=2)
    else:
        text = table_text if table_text is not None else json.dumps(payload, indent=2)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cfg(args) -> SampleConfig:
    return SampleConfig(
        n_samples=args.samples,
        seed=args.seed,
        workers=args.workers,
        tolerance_sigmas=args.tolerance_sigmas,
    )


def _cmd_cone_info(args) -> int:
    from .cone import matrix_to_json

    c = _load_cone(args.file)
    fl = face_lattice(c)
    payload = {
        "d": c.d,
        "dim": c.dim,
        "lineality_dim": c.lineality_dim,
        "pointed": c.is_pointed,
        "subspace": c.is_subspace,
        "f_vector": list(fl.f_vector),
        "euler_sum": fl.euler_sum,
        "cone": cone_to_json(c),
        "generators": matrix_to_json(c.generators),
        "lineality": matrix_to_json(c.lineality.rref),
    }
    rows = [f"ambient d        {c.d}", f"dim              {c.dim}",
            f"lineality dim    {c.lineality_dim}",
            f"f-vector         {list(fl.f_vector)}",
            f"euler sum        {fl.euler_sum}"]
    _emit(args, payload, "\n".join(rows))
    return 0


def _cmd_cone_iv(args) -> int:
    c = _load_cone(args.file)
    est = estimate_iv(c, _cfg(args))
    payload = est.to_json()
    ex = exact_iv(c)
    if ex is not None:
        payload["exact_values"] = [float(v) for v in ex.values]
        payload["exact_provenance"] = ex.provenance
    payload["statistical_dimension"] = statistical_dimension(est)
    rows = [f"v_{k}  {v:.6f} +- {s:.6f}"
            for k, (v, s) in enumerate(zip(est.values, est.std_errors))]
    _emit(args, payload, "\n".join(rows))
    return 0


def _cmd_cone_polar(args) -> int:
    c = _load_cone(args.file)
    _emit(args, cone_to_json(polar(c)))
    return 0


def _cmd_arr_chi(args) -> int:
    a = _load_arrangement(args.file, args.family)
    chi = char_poly(a)
    levels = [list(level_char_poly(a, j).coeffs) for j in range(a.d + 1)]
    payload = {
        "d": a.d,
        "n_hyperplanes": len(a.normals),
        "chi": list(chi.coeffs),
        "levels": levels,
        "ell": list(intersection_lattice(a).ell),
    }
    rows = [f"chi      {list(chi.coeffs)} (lowest degree first)"]
    rows += [f"chi_{j}    {lv}" for j, lv in enumerate(levels)]
    _emit(args, payload, "\n".join(rows))
    return 0


def _cmd_arr_regions(args) -> int:
    a = _load_arrangement(args.file, args.family)
    js = range(a.d + 1) if args.j is None else [args.j]
    counts = {}
    zas = {}
    for j in js:
        counts[j] = len(regions_j(a, j))
        zas[j] = zaslavsky_count(a, j)
    payload = {
        "d": a.d,
        "counts": {str(j): counts[j] for j in js},
        "zaslavsky": {str(j): zas[j] for j in js},
        "match": all(counts[j] == zas[j] for j in js),
    }
    rows = [f"r_{j}   {counts[j]}  (zaslavsky {zas[j]})" for j in js]
    _emit(args, payload, "\n".join(rows))
    return 0 if payload["match"] else 1


def _cmd_arr_family(args) -> int:
    a = parse_family_spec(args.family_spec)
    _emit(args, arrangement_to_json(a))
    return 0


def _grid(args):
    """--t-grid as floats, STEINER_T_GRID when it is not given."""
    if args.t_grid is None:
        return STEINER_T_GRID
    grid = [float(x) for x in args.t_grid.split(",") if x.strip()]
    if not grid:
        raise ValueError("--t-grid holds no values")
    for t in grid:
        if not math.isfinite(t):
            raise ValueError(f"--t-grid values must be finite, got {t}")
    return grid


def _required(args, *names):
    values = [getattr(args, n) for n in names]
    if any(v is None or v == "" for v in values):
        raise ValueError(f"{args.identity} requires " + " and ".join(f"--{n}" for n in names))
    return values


# identity -> (what it reads: a number of cone files, or "arrangement" for one
# arrangement file or --family spec; the call (args, cfg, *inputs) making its reports)
_IDENTITIES = {
    "euler": (1, lambda args, cfg, c: [verify_euler(c)]),
    "gauss-bonnet": (1, lambda args, cfg, c: [verify_gauss_bonnet(c, cfg)]),
    "sommerville": (1, lambda args, cfg, c: [verify_sommerville(c, cfg)]),
    "face-alternation": (1, lambda args, cfg, c: [verify_face_alternation(c, args.k, cfg)]),
    "statdim-alternation": (1, lambda args, cfg, c: [verify_statdim_alternation(c, cfg)]),
    "statdim-consistency": (1, lambda args, cfg, c: [verify_statdim_consistency(c, cfg)]),
    "genfun": (1, lambda args, cfg, c: [
        verify_genfun_alternation(c, t, cfg) for t in _grid(args)]),
    "steiner-mgf": (1, lambda args, cfg, c: [verify_steiner_mgf(c, _grid(args), cfg)]),
    "mcmullen": (1, lambda args, cfg, c: [verify_mcmullen_inverse(c, cfg)]),
    "kinematic": (2, lambda args, cfg, c, d: [verify_kinematic(c, d, args.k, args.trials, cfg)]),
    "polar-kinematic": (2, lambda args, cfg, c, d: [
        verify_polar_kinematic(c, d, args.k, args.trials, cfg)]),
    "crofton": (2, lambda args, cfg, c, d: [verify_crofton_probability(c, d, args.trials, cfg)]),
    "zaslavsky": ("arrangement", lambda args, cfg, a: [verify_zaslavsky(a)]),
    "klivans-swartz": ("arrangement", lambda args, cfg, a: [
        verify_klivans_swartz(a, j, cfg)
        for j in (range(a.d + 1) if args.j is None else [args.j])]),
    "generic-slice": ("arrangement", lambda args, cfg, a: [
        verify_generic_slice(a, a.d if args.j is None else args.j, seed=args.seed)]),
    "hug-schneider": (0, lambda args, cfg: [
        verify_hug_schneider(*_required(args, "n", "d"), cfg)]),
    "family-statdim": (0, lambda args, cfg: [
        verify_family_statdim(*_required(args, "family", "j"), cfg)]),
}


def _cmd_verify(args) -> int:
    cfg = _cfg(args)
    reads, run = _IDENTITIES[args.identity]
    got = len(args.targets)
    if reads == "arrangement":
        if got > 1:
            raise ValueError(f"verify {args.identity} takes at most 1 arrangement file, got {got}")
        inputs = [_load_arrangement(args.targets[0] if got else None, args.family)]
    elif got != reads:
        raise ValueError(f"verify {args.identity} takes {reads} cone file"
                         f"{'s' * (reads != 1)}, got {got}")
    else:
        inputs = [_load_cone(t) for t in args.targets]
    reports = run(args, cfg, *inputs)
    _emit(args, [r.to_json() for r in reports], render_table(reports))
    return 0 if all(r.status != "fail" for r in reports) else 1


def _cmd_suite(args) -> int:
    reports = run_suite(_cfg(args), trials=min(args.trials, 128))
    counts = status_counts(reports)
    payload = {"reports": [r.to_json() for r in reports],
               **{f"n_{s}": n for s, n in counts.items()}}
    _emit(args, payload, render_table(reports))
    return 0 if counts["fail"] == 0 else 1


_COMMANDS = {
    "cone-info": _cmd_cone_info,
    "cone-iv": _cmd_cone_iv,
    "cone-polar": _cmd_cone_polar,
    "arr-chi": _cmd_arr_chi,
    "arr-regions": _cmd_arr_regions,
    "arr-family": _cmd_arr_family,
    "verify": _cmd_verify,
    "suite": _cmd_suite,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.verb](args)
    except (OSError, ValueError, KeyError, IndexError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
