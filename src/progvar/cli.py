"""Batch frontend.

Subcommands: variance, hybrid, parseval, spectrum, linnik, smooth,
dickman-table, character.  Output is CSV (comma, '.' decimal) or JSON
(UTF-8, stable key order).  CSV carries a schema header comment and a
timestamp comment; the body below the comments is byte-identical across
runs with the same configuration.

A plain-text key=value config file can seed any long option
(e.g. "format=json"); command-line flags override the file.  The env var
PROGVAR_SIEVE_LIMIT overrides the default sieve bound.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys

from . import linnik as linnik_mod
from . import sieve
from .characters import characters, classify
from .errors import CapacityError, DomainError
from .multfunc import parse_descriptor
from .smooth import dickman, psi_q, smooth_recip_sum
from .spectrum import large_value_census
from .variance import hybrid_variance, parseval_check, variance

SCHEMA = "# progvar-schema v1"


def _emit(args, fieldnames, rows, payload=None):
    """Write rows as CSV or a JSON document (payload overrides row dicts)."""
    out = open(args.output, "w", encoding="utf-8") if args.output else sys.stdout
    try:
        if args.format == "json":
            doc = payload if payload is not None else rows
            json.dump(doc, out, ensure_ascii=False)
            out.write("\n")
        else:
            out.write(SCHEMA + "\n")
            out.write(f"# generated: {datetime.datetime.now().isoformat()}\n")
            out.write(",".join(fieldnames) + "\n")
            for row in rows:
                out.write(",".join(_csv_cell(row.get(k)) for k in fieldnames) + "\n")
    finally:
        if args.output:
            out.close()


def _csv_cell(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (list, tuple, dict)):
        return json.dumps(v).replace(",", ";")
    return str(v)


def _positive_int(text):
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return n


def _chi1_arg(text):
    if text in ("principal", "auto"):
        return text
    return int(text)


def _int_list(text):
    return [int(x) for x in text.split(",") if x != ""]


def _float_list(text):
    return [float(x) for x in text.split(",") if x != ""]


def _range_arg(text):
    a, _, b = text.partition(":")
    lo, hi = int(a), int(b)
    if lo < 1 or hi < lo:
        raise argparse.ArgumentTypeError(f"bad range {text!r}")
    return lo, hi


# -- subcommand bodies -------------------------------------------------------


def _cmd_variance(args):
    f = parse_descriptor(args.f)
    reports = [variance(f, q, args.x, args.chi1, T=args.T, grid_dt=args.grid_dt,
                        refine_tol=args.refine_tol) for q in args.q]
    rows = [{
        "q": rep.q, "x": rep.x, "f": rep.f, "chi1_index": rep.chi1_index,
        "variance": rep.variance, "normalized": rep.normalized,
        "max_deviation": rep.max_deviation, "chi1_mode": rep.chi1_mode,
    } for rep in reports]
    payload = [json.loads(rep.to_json()) for rep in reports]
    if len(payload) == 1:
        payload = payload[0]
    _emit(args, ["q", "x", "f", "chi1_index", "variance", "normalized",
                 "max_deviation", "chi1_mode"], rows, payload)
    return 0


def _cmd_hybrid(args):
    f = parse_descriptor(args.f)
    value = hybrid_variance(f, args.q, args.X, args.h, args.chi1,
                            sample_step=args.step, T=args.T)
    row = {"f": f.name, "q": args.q, "X": args.X, "h": args.h,
           "step": args.step, "normalized": value}
    _emit(args, list(row), [row], row)
    return 0


def _cmd_parseval(args):
    f = parse_descriptor(args.f)
    lhs, rhs = parseval_check(f, args.q, args.x, args.xi)
    row = {"f": f.name, "q": args.q, "x": args.x,
           "xi": ";".join(str(i) for i in args.xi),
           "lhs": lhs, "rhs": rhs, "abs_err": abs(lhs - rhs)}
    _emit(args, list(row), [row], row)
    return 0


def _cmd_spectrum(args):
    coeffs = parse_descriptor(args.coeffs)
    count, points = large_value_census(args.q, args.t_grid, args.P, args.delta,
                                       coeffs, args.eps)
    scale = math.log(args.P) / (args.delta * args.P)
    rows = [{
        "q": args.q, "chi_index": pt.chi_index, "t": pt.t,
        "re": pt.value.real, "im": pt.value.imag, "abs": abs(pt.value),
        "normalized": scale * abs(pt.value),
    } for pt in points]
    payload = {"q": args.q, "P": args.P, "delta": args.delta, "eps": args.eps,
               "count": count, "points": rows}
    _emit(args, ["q", "chi_index", "t", "re", "im", "abs", "normalized"],
          rows, payload)
    return 0


def _resume_key(q, a, predicate):
    return f"{q}:{a}:{predicate}"


def _cmd_linnik(args):
    lo, hi = args.q_range
    state = {}
    if args.resume:
        try:
            with open(args.resume, "r", encoding="utf-8") as fh:
                state = json.load(fh)
        except FileNotFoundError:
            state = {}

    def scan_one(q):
        bound = max(8, int(round(q**args.bound_exponent)))
        units = sieve.units_mod(q).tolist()
        known = {a: state.get(_resume_key(q, a, args.predicate)) for a in units}
        # A stored minimum answers this run only when it lies within the bound.
        if all(isinstance(n, int) and n <= bound for n in known.values()):
            return linnik_mod._assemble(q, args.predicate, bound, known)
        if args.predicate in ("e3", "e3-distinct"):
            return linnik_mod.linnik_L3(q, bound,
                                        distinct_primes=args.predicate == "e3-distinct")
        sign = -1 if args.predicate == "mobius-minus" else 1
        return linnik_mod.linnik_mobius(q, sign, bound)

    rows = []
    for q in range(lo, hi + 1):
        res = scan_one(q)
        for a, n in sorted(res.minima.items()):
            key = _resume_key(q, a, args.predicate)
            # a minimum found earlier under a larger bound stays on record
            state[key] = n if n is not None else state.get(key, "pending")
            exponent = math.log(n) / math.log(q) if n is not None and q > 1 else None
            rows.append({"q": q, "a": a, "n": n, "exponent": exponent})
    if args.resume:
        # Write beside the state and rename, so it is never left half-written.
        tmp = args.resume + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(state, fh, sort_keys=True)
        os.replace(tmp, args.resume)
    _emit(args, ["q", "a", "n", "exponent"], rows, rows)
    return 0


def _cmd_smooth(args):
    if args.mode == "psi":
        value = psi_q(args.X, args.Y, args.q)
        row = {"mode": "psi", "X": args.X, "Y": args.Y, "q": args.q, "psi": value}
    elif args.mode == "ratio":
        lo = psi_q(args.X, args.Y, args.q)
        hi = psi_q((1 + args.delta) * args.X, args.Y, args.q)
        u = math.log(args.X) / math.log(args.Y)
        phi_over_q = sieve.euler_phi(args.q) / args.q
        predicted = dickman(u) * phi_over_q * args.delta * args.X
        row = {"mode": "ratio", "X": args.X, "Y": args.Y, "q": args.q,
               "delta": args.delta, "count": hi - lo, "predicted": predicted,
               "ratio": (hi - lo) / predicted if predicted else math.nan}
    else:  # recip
        value = smooth_recip_sum(args.x1, args.x2, args.Y, args.q)
        row = {"mode": "recip", "x1": args.x1, "x2": args.x2, "Y": args.Y,
               "q": args.q, "sum": value}
    _emit(args, list(row), [row], row)
    return 0


def _cmd_dickman_table(args):
    rows = []
    n = int(round(args.u_max / args.step))
    for i in range(n + 1):
        u = min(i * args.step, args.u_max)
        rows.append({"u": round(u, 12), "rho": dickman(u, u_max=args.u_max)})
    _emit(args, ["u", "rho"], rows, rows)
    return 0


def _cmd_character(args):
    chis = characters(args.q)
    wanted = chis if args.index is None else [chis[args.index]]
    rows = []
    for chi in wanted:
        flags = classify(chi)
        rows.append({
            "q": chi.q, "index": chi.index,
            "descriptor": chi.descriptor(),
            "conductor": chi.conductor(),
            "principal": flags.principal, "real": flags.real,
            "primitive": flags.primitive, "parity": flags.parity,
        })
    _emit(args, ["q", "index", "descriptor", "conductor", "principal", "real",
                 "primitive", "parity"], rows, rows)
    return 0


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="progvar",
        description="statistics for multiplicative functions in short arithmetic progressions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--output", default=None, help="file path; stdout when omitted")
        p.add_argument("--config", default=None, help="key=value file seeding these options")
        p.add_argument("--sieve-limit", type=_positive_int, default=None)

    p = sub.add_parser("variance", help="deviation/variance report per modulus")
    p.add_argument("--f", required=True, help="function descriptor, e.g. mobius")
    p.add_argument("--q", required=True, type=_int_list, help="modulus or comma list")
    p.add_argument("--x", required=True, type=float)
    p.add_argument("--chi1", type=_chi1_arg, default="auto")
    p.add_argument("--T", type=float, default=None,
                   help="twist range for --chi1 auto (default log x)")
    p.add_argument("--grid-dt", type=float, default=None)
    p.add_argument("--refine-tol", type=float, default=1e-4)
    common(p)
    p.set_defaults(run=_cmd_variance)

    p = sub.add_parser("hybrid", help="sampled short-interval/progression variance")
    p.add_argument("--f", required=True)
    p.add_argument("--q", required=True, type=_positive_int)
    p.add_argument("--X", required=True, type=float)
    p.add_argument("--h", required=True, type=float)
    p.add_argument("--chi1", type=_chi1_arg, default="auto")
    p.add_argument("--step", type=_positive_int, default=1)
    p.add_argument("--T", type=float, default=None,
                   help="twist search range for --chi1 auto (default log X)")
    common(p)
    p.set_defaults(run=_cmd_hybrid)

    p = sub.add_parser("parseval", help="both sides of the exact Parseval identity")
    p.add_argument("--f", required=True)
    p.add_argument("--q", required=True, type=_positive_int)
    p.add_argument("--x", required=True, type=float)
    p.add_argument("--xi", type=_int_list, default=[],
                   help="comma list of character indices removed as main terms")
    common(p)
    p.set_defaults(run=_cmd_parseval)

    p = sub.add_parser("spectrum", help="large-value census of a twisted prime sum")
    p.add_argument("--q", required=True, type=_positive_int)
    p.add_argument("--P", required=True, type=float)
    p.add_argument("--delta", required=True, type=float)
    p.add_argument("--eps", required=True, type=float)
    p.add_argument("--t-grid", type=_float_list, default=[0.0],
                   help="comma list, pairwise >= 1 apart (or just 0)")
    p.add_argument("--coeffs", default="one", help="function descriptor for a_p")
    common(p)
    p.set_defaults(run=_cmd_spectrum)

    p = sub.add_parser("linnik", help="least-element scan over a modulus range")
    p.add_argument("--q-range", required=True, type=_range_arg, help="A:B inclusive")
    p.add_argument("--predicate", default="e3",
                   choices=("e3", "e3-distinct", "mobius-minus", "mobius-plus"))
    p.add_argument("--bound-exponent", type=float, default=3.0)
    p.add_argument("--resume", default=None, help="JSON scan-state path")
    common(p)
    p.set_defaults(run=_cmd_linnik)

    p = sub.add_parser("smooth", help="smooth counting / reciprocal sums")
    p.add_argument("--mode", choices=("psi", "ratio", "recip"), default="psi")
    p.add_argument("--X", type=float, default=0.0)
    p.add_argument("--Y", type=float, required=True)
    p.add_argument("--q", type=_positive_int, default=1)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--x1", type=float, default=1.0)
    p.add_argument("--x2", type=float, default=0.0)
    common(p)
    p.set_defaults(run=_cmd_smooth)

    p = sub.add_parser("dickman-table", help="emit (u, rho(u)) at a resolution")
    p.add_argument("--u-max", type=float, default=20.0)
    p.add_argument("--step", type=float, default=0.01)
    common(p)
    p.set_defaults(run=_cmd_dickman_table)

    p = sub.add_parser("character", help="character descriptors mod q")
    p.add_argument("--q", required=True, type=_positive_int)
    p.add_argument("--index", type=int, default=None)
    common(p)
    p.set_defaults(run=_cmd_character)

    return parser


def _inject_config(argv):
    """Expand --config key=value pairs as leading args so flags override."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        return argv
    path = argv[i + 1]
    injected = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            injected.extend([f"--{key.strip()}", value.strip()])
    # keep the subcommand first, then config-derived options, then real flags
    return argv[:1] + injected + argv[1:]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    if argv and not argv[0].startswith("-"):
        try:
            argv = _inject_config(argv)
        except OSError as e:
            print(f"progvar: cannot read config: {e}", file=sys.stderr)
            return 2
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    if args.sieve_limit is not None:
        sieve._default_table = sieve.PrimeTable(args.sieve_limit)
    try:
        return args.run(args)
    except DomainError as e:
        # arguments violating an operation's contract are usage errors
        print(f"progvar: invalid arguments: {e}", file=sys.stderr)
        return 2
    except CapacityError as e:
        print(f"progvar: capacity error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
