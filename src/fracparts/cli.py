"""Command-line interface.

Subcommands: solve, oracle, exponent, verify-cert, fourier-scan, relations,
denom-analyze, lattice.  Exit codes: 0 found/success, 2 not-found or
inconclusive, 1 usage or input errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction

from .core import DEFAULT_ENUM_CAP, HorizonCapError, SystemState, brute_force_min, parse_threshold
from .denomstruct import (
    DEFAULT_FILTER_DELTA,
    cluster_by_denominator,
    dominant_divisor_filter,
    gcd_graph,
    rfold_sum_count,
)
from .diophantine import RelationTriple, build_relations, default_q_rel, large_coefficients
from .driver import (
    CSV_COLUMNS,
    C_ORTH,
    GENERATOR_SPECS,
    STATUS_FOUND,
    SolverConfig,
    measure_exponent,
    solve,
)
from .expsum import DEFAULT_MAX_BOX, BoxTooLargeError, FourierDichotomy
from .latgeom import (
    NoShortVector,
    _integral_rows,
    quasi_orthogonal_generators,
    reduce_basis,
    solution_lattice,
    subset_measures,
    wedge_norm,
)
from .reduction import verify_certificate
from .serialize import (
    SystemFileError,
    load_certificate,
    parse_system_file,
    write_certificate,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_FOUND = 2


def _emit(obj):
    json.dump(obj, sys.stdout, indent=2, default=str)
    sys.stdout.write("\n")


def _json_matrix(text: str, name: str) -> list:
    """A JSON matrix: a nonempty list of nonempty lists of one length."""
    rows = json.loads(text)
    if (not isinstance(rows, list) or not rows
            or not all(isinstance(row, list) and row for row in rows)):
        raise ValueError(f"{name}: need a nonempty list of nonempty rows")
    if len({len(row) for row in rows}) > 1:
        raise ValueError(f"{name}: rows of unequal length")
    return rows


def _parse_matrix(text: str, name: str):
    return [[Fraction(str(v)) for v in row] for row in _json_matrix(text, name)]


def _parse_int_matrix(text: str, name: str):
    rows = _json_matrix(text, name)
    if not all(type(v) is int for row in rows for v in row):
        raise ValueError(f"{name}: entries must be integers")
    return rows


def cmd_solve(args) -> int:
    state = parse_system_file(args.system)
    config = SolverConfig()
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = SolverConfig.from_dict(json.load(fh))
    outcome = solve(state, config)
    if args.cert:
        write_certificate(outcome.certificate, args.cert)
    _emit({"status": outcome.status, "n": outcome.n,
           "stats": outcome.stats.to_dict()})
    return EXIT_OK if outcome.status == STATUS_FOUND else EXIT_NOT_FOUND


def cmd_oracle(args) -> int:
    state = parse_system_file(args.system)
    n_star, value = brute_force_min(state.system, state.y, enum_cap=args.enum_cap)
    meets = all(value < e for e in state.eps.eps)
    _emit({"n_star": n_star, "min_max_dist": str(value),
           "min_max_dist_float": float(value), "meets_all_eps": meets})
    return EXIT_OK


def cmd_exponent(args) -> int:
    grid = [Fraction(tok) for tok in args.x.split(",")]  # exact: 1e30 stays 10^30
    if any(x.denominator != 1 for x in grid):
        raise ValueError(f"--x: every horizon must be an integer, got {args.x!r}")
    grid = [int(x) for x in grid]
    config = SolverConfig(seed=args.seed, enum_cap=args.enum_cap)
    rows, summary = measure_exponent(args.generator, args.k, args.d, grid,
                                     args.trials, config)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow(row.csv_row())
    _emit(summary)
    return EXIT_OK


def cmd_verify_cert(args) -> int:
    cert = load_certificate(args.cert)
    checks = verify_certificate(cert)
    failures = [c for c in checks if not c[1]]
    for name, ok, detail in checks:
        line = f"{'PASS' if ok else 'FAIL'} {name}"
        if detail and not ok:
            line += f" ({detail})"
        print(line)
    _emit({"checks": len(checks), "failures": len(failures),
           "valid": not failures})
    return EXIT_OK if not failures else EXIT_NOT_FOUND


def cmd_fourier_scan(args) -> int:
    state = parse_system_file(args.system)
    x = Fraction(args.x) if args.x else state.y
    dich = large_coefficients(state.system, state.eps, x, c_hit=args.c_hit,
                              max_box=args.max_box)
    _emit({"system": state.to_dict(), "x": str(x), "dichotomy": dich.to_dict()})
    return EXIT_OK


def _read_field(path, field: str, reader, value):
    """reader(value), a refusal raised as a SystemFileError naming the field."""
    try:
        return reader(value)
    except KeyError as exc:
        raise SystemFileError(f"{path}: field {field}: missing key {exc}") from exc
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise SystemFileError(f"{path}: field {field}: {exc}") from exc


def cmd_relations(args) -> int:
    with open(args.scan, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    for key in ("system", "dichotomy", "x"):
        if not isinstance(payload, dict) or key not in payload:
            raise SystemFileError(f"{args.scan}: missing field {key!r}")
    state = _read_field(args.scan, "'system'", SystemState.from_dict, payload["system"])
    dich = _read_field(args.scan, "'dichotomy'", FourierDichotomy.from_dict, payload["dichotomy"])
    x = _read_field(args.scan, "'x'", parse_threshold, payload["x"])
    q_rel = default_q_rel(state.eps) if args.q_rel is None else args.q_rel
    rels = build_relations(state.system, state.eps, x, dich, Q_rel=q_rel)
    _emit({"system": payload["system"], "q_rel": q_rel,
           "count": len(rels), "relations": [t.to_dict() for t in rels]})
    return EXIT_OK


def _load_relations(path):
    """The triples of a `relations` output; a malformed one is a SystemFileError
    naming the field."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or "relations" not in payload:
        raise SystemFileError(f"{path}: missing field 'relations'")
    if not isinstance(payload["relations"], list):
        raise SystemFileError(f"{path}: field 'relations': need a list of relation triples")
    rels = []
    for i, t in enumerate(payload["relations"]):
        field = f"'relations[{i}]'"
        rel = _read_field(path, field, RelationTriple.from_dict, t)
        if rels and rel.d != rels[0].d:
            raise SystemFileError(f"{path}: field {field}: {rel.d} slots, but "
                                  f"'relations[0]' has {rels[0].d}")
        rels.append(rel)
    return rels


def cmd_denom_analyze(args) -> int:
    rels = _load_relations(args.relations)
    if not rels:
        _emit({"error": "no relations to analyze"})
        return EXIT_NOT_FOUND
    cluster = cluster_by_denominator(rels)
    merged = sorted({t.q[j] for t in rels for j in range(rels[0].d)})
    graph = gcd_graph(merged, threshold=2) if len(merged) > 1 else []
    filt = dominant_divisor_filter(merged, DEFAULT_FILTER_DELTA)
    rfold = {}
    for r in (2, 3):
        try:
            rfold[str(r)] = rfold_sum_count(cluster.members, r, slot=1)
        except OverflowError as exc:
            rfold[str(r)] = f"skipped: {exc}"
    _emit({"cluster": cluster.to_dict(), "gcd_graph_edges": len(graph),
           "divisor_filter": filt.to_dict(), "rfold_counts": rfold})
    return EXIT_OK


def cmd_lattice(args) -> int:
    if args.wedge:
        vectors = _parse_matrix(args.wedge, "--wedge")
        _emit({"wedge_norm": wedge_norm(vectors)})
        return EXIT_OK
    if args.reduce:
        L, rows = _integral_rows(_parse_matrix(args.reduce, "--reduce"))
        reduced, U = reduce_basis(rows)
        # the successive minima estimated by the reduced rows' sup norms
        minima = sorted(max(map(abs, row)) for row in reduced)
        _emit({"vectors": [[str(Fraction(v, L)) for v in row] for row in reduced],
               "transform": U,
               "minima_estimates": [str(Fraction(m, L)) for m in minima]})
        return EXIT_OK
    if args.det_identity:
        if not (args.h1 and args.h2):
            print("--det-identity needs --h1 and --h2", file=sys.stderr)
            return EXIT_ERROR
        H1 = _parse_int_matrix(args.h1, "--h1")
        H2 = _parse_int_matrix(args.h2, "--h2")
        if len(H1[0]) != len(H1) or len(H2) != len(H1):
            raise ValueError(f"--h1 must be square with as many rows as --h2: got "
                             f"{len(H1)}x{len(H1[0])} and {len(H2)}x{len(H2[0])}")
        # raises unless D1 = D2 |det Z|, so |det Z| is D1 // D2
        D1, D2, _Z = solution_lattice(H1, H2)
        _emit({"det1": D1, "det2": D2, "det3": D1 // D2, "identity_holds": True})
        return EXIT_OK
    if args.generators:
        state = parse_system_file(args.generators)
        if not args.b or not args.eta:
            print("--generators needs --b and --eta", file=sys.stderr)
            return EXIT_ERROR
        B = [Fraction(tok) for tok in args.b.split(",")]
        gens = quasi_orthogonal_generators(state.system, B, Fraction(args.eta),
                                           N_target=args.n_target,
                                           c_orth=args.c_orth)
        if isinstance(gens, NoShortVector):
            _emit({"outcome": "no-short-vector", "reason": gens.reason})
            return EXIT_NOT_FOUND
        ratio_sq, tilde_product = subset_measures(gens.h_vecs, B)
        _emit({"outcome": "generators", "r": gens.r, **gens.to_dict(),
               "orth_ratio_sq": str(ratio_sq), "tilde_product": str(tilde_product)})
        return EXIT_OK
    print("choose a lattice mode: --wedge / --reduce / --generators / --det-identity",
          file=sys.stderr)
    return EXIT_ERROR


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="fracparts",
                                 description="small fractional parts of polynomial systems")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run the density-increment solver")
    p.add_argument("system")
    p.add_argument("--config", help="solver config JSON")
    p.add_argument("--cert", help="write the certificate here")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("oracle", help="exhaustive ground-truth minimum")
    p.add_argument("system")
    p.add_argument("--enum-cap", type=int, default=DEFAULT_ENUM_CAP)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("exponent", help="seeded exponent-measurement experiment")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--x", required=True, help="comma list of horizons, e.g. 1e3,1e4")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--generator", default="monomial", choices=GENERATOR_SPECS)
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--enum-cap", type=int, default=DEFAULT_ENUM_CAP)
    p.set_defaults(func=cmd_exponent)

    p = sub.add_parser("verify-cert", help="replay a certificate's invariants")
    p.add_argument("cert")
    p.set_defaults(func=cmd_verify_cert)

    p = sub.add_parser("fourier-scan", help="equidistribution dichotomy")
    p.add_argument("system")
    p.add_argument("--x", help="override the file's horizon")
    p.add_argument("--c-hit", type=float, default=SolverConfig.c_hit)
    p.add_argument("--max-box", type=int, default=DEFAULT_MAX_BOX)
    p.set_defaults(func=cmd_fourier_scan)

    p = sub.add_parser("relations", help="rational relations from a fourier scan")
    p.add_argument("scan", help="fourier-scan output JSON")
    p.add_argument("--q-rel", type=int, default=None)
    p.set_defaults(func=cmd_relations)

    p = sub.add_parser("denom-analyze", help="denominator clustering and diagnostics")
    p.add_argument("relations", help="relations output JSON")
    p.set_defaults(func=cmd_denom_analyze)

    p = sub.add_parser("lattice", help="lattice utilities")
    p.add_argument("--wedge", help="JSON rows: wedge norm")
    p.add_argument("--reduce", help="JSON rows: LLL-reduce")
    p.add_argument("--det-identity", action="store_true")
    p.add_argument("--h1", help="JSON integer matrix for --det-identity")
    p.add_argument("--h2", help="JSON integer matrix for --det-identity")
    p.add_argument("--generators", metavar="SYSTEM",
                   help="system JSON: extract quasi-orthogonal generators")
    p.add_argument("--b", help="comma list of box bounds B_i")
    p.add_argument("--eta", help="region thickness eta")
    p.add_argument("--n-target", type=int, default=2)
    p.add_argument("--c-orth", type=float, default=C_ORTH)
    p.set_defaults(func=cmd_lattice)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (SystemFileError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (BoxTooLargeError, HorizonCapError, OverflowError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
