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
from .characters import character, classify, unit_group
from .errors import CapacityError, DomainError
from .multfunc import parse_descriptor
from .smooth import dickman, psi_q, smooth_count, smooth_recip_sum
from .spectrum import large_value_census
from .variance import hybrid_variance, parseval_check, variance_scan

SCHEMA = "# progvar-schema v1"


def _emit(args, fieldnames, rows, payload=None, lines=None):
    """Write rows as CSV or a JSON document (payload overrides row dicts).

    `lines`, when given, replaces rows and payload: the rows already
    rendered in args.format, one CSV line or one JSON value each, written
    as the CSV body or as the items of a JSON list."""
    out = open(args.output, "w", encoding="utf-8") if args.output else sys.stdout
    try:
        if args.format == "json":
            if lines is not None:
                out.write("[" + ", ".join(lines) + "]\n")
            else:
                doc = payload if payload is not None else rows
                # dumps runs the C encoder; dump streams through pure Python
                out.write(json.dumps(doc, ensure_ascii=False))
                out.write("\n")
        else:
            out.write(SCHEMA + "\n")
            out.write(f"# generated: {datetime.datetime.now().isoformat()}\n")
            out.write(",".join(fieldnames) + "\n")
            if lines is None:
                lines = [",".join(_csv_cell(row.get(k)) for k in fieldnames) for row in rows]
            if lines:
                out.write("\n".join(lines) + "\n")
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
    reports = variance_scan(f, args.q, args.x, args.chi1, T=args.T,
                            grid_dt=args.grid_dt)
    # CSV writes only the named columns of each dict, not its deviations
    rows = [rep.to_dict() for rep in reports]
    payload = rows[0] if len(rows) == 1 else rows
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


def _load_state(path):
    """The scan state stored at path; empty when there is no file yet."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            state = json.load(fh)
    except FileNotFoundError:
        return {}
    except (OSError, ValueError) as e:  # ValueError covers bad JSON and UTF-8
        raise DomainError(f"cannot read resume state {path}: {e}") from None
    if not isinstance(state, dict):
        raise DomainError(f"resume state {path} is not a JSON object")
    return state


def _stored_minimum(state, q, a, predicate):
    """The stored least n = a (mod q), or None when the entry is missing or
    cannot be one (not an int, below 1, or in another class)."""
    n = state.get(_resume_key(q, a, predicate))
    return n if type(n) is int and n >= 1 and n % q == a else None


def _cmd_linnik(args):
    lo, hi = args.q_range
    qs = range(lo, hi + 1)
    e = args.bound_exponent
    if not math.isfinite(e):
        raise DomainError(f"bound exponent must be finite, got {e}")
    try:
        bounds = {q: max(8, int(round(q**e))) for q in qs}
    except OverflowError:
        raise DomainError(f"bound exponent {e} gives bounds beyond float range") from None
    results = {}
    state = None
    if args.resume:
        state = _load_state(args.resume)
        for q in qs:
            known = {a: _stored_minimum(state, q, a, args.predicate)
                     for a in sieve.units_mod(q).tolist()}
            # A stored minimum answers this run only when it lies within the bound.
            if all(n is not None and n <= bounds[q] for n in known.values()):
                results[q] = linnik_mod._assemble(q, args.predicate, bounds[q], known)
    todo = [q for q in qs if q not in results]
    for res in linnik_mod.linnik_scan(todo, [bounds[q] for q in todo], args.predicate):
        results[res.q] = res

    # Each row is rendered as it is read, exactly as json.dumps or _csv_cell
    # would write its dict {"q", "a", "n", "exponent"}.
    as_json = args.format == "json"
    none = "null" if as_json else ""
    lines = []
    for q in qs:
        log_q = math.log(q)
        for a, n in sorted(results[q].minima.items()):
            if state is not None:
                # a minimum found earlier under a larger bound stays on record
                state[_resume_key(q, a, args.predicate)] = (
                    n if n is not None
                    else _stored_minimum(state, q, a, args.predicate) or "pending")
            if n is None:
                n_text = e_text = none
            else:
                # math.log, not np.log, whose last bit may differ by build
                n_text = n
                e_text = repr(math.log(n) / log_q) if q > 1 else none
            lines.append(f'{{"q": {q}, "a": {a}, "n": {n_text}, "exponent": {e_text}}}'
                         if as_json else f"{q},{a},{n_text},{e_text}")
    if state is not None:
        # Write beside the state and rename, so it is never left half-written.
        tmp = args.resume + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(state, fh, sort_keys=True)
        os.replace(tmp, args.resume)
    _emit(args, ["q", "a", "n", "exponent"], None, lines=lines)
    return 0


def _cmd_smooth(args):
    if args.mode == "psi":
        value = psi_q(args.X, args.Y, args.q)
        row = {"mode": "psi", "X": args.X, "Y": args.Y, "q": args.q, "psi": value}
    elif args.mode == "ratio":
        if not (1 <= args.X < math.inf and 1 < args.Y and 0 < args.delta < math.inf):
            raise DomainError(f"ratio mode needs finite X >= 1, Y > 1 and finite delta > 0, "
                              f"got X={args.X}, Y={args.Y}, delta={args.delta}")
        count = smooth_count(args.X, (1 + args.delta) * args.X, args.Y, args.q)
        u = math.log(args.X) / math.log(args.Y)
        phi_over_q = sieve.euler_phi(args.q) / args.q
        predicted = dickman(u) * phi_over_q * args.delta * args.X
        row = {"mode": "ratio", "X": args.X, "Y": args.Y, "q": args.q,
               "delta": args.delta, "count": count, "predicted": predicted,
               "ratio": count / predicted if predicted else math.nan}
    else:  # recip
        value = smooth_recip_sum(args.x1, args.x2, args.Y, args.q)
        row = {"mode": "recip", "x1": args.x1, "x2": args.x2, "Y": args.Y,
               "q": args.q, "sum": value}
    _emit(args, list(row), [row], row)
    return 0


def _cmd_dickman_table(args):
    if not (0 <= args.u_max < math.inf and 0 < args.step < math.inf):
        raise DomainError(f"need finite u-max >= 0 and finite step > 0, "
                          f"got u-max={args.u_max}, step={args.step}")
    rows = []
    n = int(round(args.u_max / args.step))
    for i in range(n + 1):
        u = min(i * args.step, args.u_max)
        rows.append({"u": round(u, 12), "rho": dickman(u, u_max=args.u_max)})
    _emit(args, ["u", "rho"], rows, rows)
    return 0


def _cmd_character(args):
    indices = range(unit_group(args.q).phi) if args.index is None else [args.index]
    rows = []
    for i in indices:
        chi = character(args.q, i)  # one at a time: memory stays flat in phi(q)
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
    previous = sieve._default_table
    try:
        if args.sieve_limit is not None:
            sieve._default_table = sieve.PrimeTable(args.sieve_limit)
        return args.run(args)
    except DomainError as e:
        # arguments violating an operation's contract are usage errors
        print(f"progvar: invalid arguments: {e}", file=sys.stderr)
        return 2
    except CapacityError as e:
        print(f"progvar: capacity error: {e}", file=sys.stderr)
        return 1
    finally:
        # --sieve-limit holds for this one command, not for later calls
        sieve._default_table = previous


if __name__ == "__main__":
    raise SystemExit(main())
