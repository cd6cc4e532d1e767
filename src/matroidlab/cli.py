"""Command line interface: every module surfaced as a subcommand with
file-based, reproducible I/O.

Results go to stdout (or --output); diagnostics go to stderr.  Exit
codes: 0 success, 2 input error, 3 enumeration budget exceeded.  All
randomized commands take an explicit seed (default 0) and echo it in the
output, and every command is deterministic for fixed inputs, seed, and
caps, independent of --workers.
"""

import argparse
import json
import sys
from fractions import Fraction

from . import fileio
from .codes import (
    DEFAULT_CODEWORD_CAP,
    THETA_GRAPHIC_STATUS,
    code_params,
    cut_code_distance_bound,
    ml_error_mc,
    theta_binary,
    theta_graphic,
)
from .constructions import (
    ag,
    bicircular,
    complete_graph,
    gamma_frame_full,
    graphic,
    pg,
    reid,
    uniform,
    uniform_represented,
)
from .errors import CapExceeded, ToolkitError
from .field import make_field, subgroup_of_order
from .growth import (
    DEFAULT_SEARCH_CAP,
    h_exhaustive,
    h_exponential,
    h_gamma_frame,
    h_nelson_pg_excluded,
    h_nelson_two_field,
    is_alpha_t_frame,
)
from .linalg import DEFAULT_WEIGHT_CAP
from .matroid import (
    DEFAULT_MINOR_CAP,
    DEFAULT_VCONN_CAP,
    UNBOUNDED,
    check_subset_cap,
    confinement_witness,
    dual,
    from_generator,
    has_minor,
    smallest_circuit,
    smallest_cocircuit,
    vertical_connectivity,
)
from .perturb import (
    DEFAULT_LATTICE_CAP,
    PerturbPair,
    apply_perturbation,
    dist,
    pert_bounds,
    pert_exact,
)
from .templates import (
    DEFAULT_ENUM_CAP,
    FrameTemplate,
    check_frame_conforms,
    check_subfield,
    enumerate_conforming,
    frame_matroid_of,
    member_of,
    subfield_matroid_of,
)

_RANK_TABLE_CAP = 12  # default largest |E| of a rank table that construct prints
_RANK_TABLE_CAP_HELP = ("the largest |E| of the matroid whose rank table is built "
                        "(default %(default)s)")
_WEIGHT_CAP_HELP = ("budget: the minimum-weight search scores at most this many "
                   "combinations of basis rows (default %(default)s)")


def _emit(args, text):
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json(obj):
    return json.dumps(obj, sort_keys=True) + "\n"


def _emit_csv(args, header, rows):
    """A header line, then one line per row: its values as str, joined by
    commas."""
    lines = [header] + [",".join(map(str, row)) for row in rows]
    _emit(args, "\n".join(lines) + "\n")


def _read_matroid(path):
    with open(path) as fh:
        return fileio.read_matrix(fh.read())


def _matroid_of(path):
    return from_generator(_read_matroid(path))


def _graph_arg(args):
    if args.kn is not None:
        return complete_graph(args.kn)
    if not getattr(args, "graph", None):
        raise ToolkitError("give --kn N or --graph FILE")
    with open(args.graph) as fh:
        return fileio.read_graph(fh.read())


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise ToolkitError(f"--{name} is required for this shape")


def _field_arg(pair):
    return make_field(pair[0], pair[1])


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------

def _emit_matroid(args, M):
    _emit(args, fileio.write_matrix(M.generator_matrix()))


def _emit_rank_table(args, n, rank):
    """The rank of every subset of range(n), keyed by its elements joined
    by commas; n is at most args.cap."""
    check_subset_cap(n, args.cap)
    table = {}
    for mask in range(1 << n):
        S = [i for i in range(n) if mask >> i & 1]
        table[",".join(map(str, S))] = rank(S)
    _emit(args, _json({"ground": list(range(n)), "ranks": table}))


def _cmd_construct(args):
    kind = args.shape
    if kind == "pg":
        _require(args, "rank", "gf")
        _emit_matroid(args, pg(args.rank, _field_arg(args.gf)))
    elif kind == "ag":
        _require(args, "rank", "gf")
        _emit_matroid(args, ag(args.rank, _field_arg(args.gf)))
    elif kind == "uniform":
        _require(args, "m", "n")
        if args.gf:
            _emit_matroid(args, uniform_represented(args.m, args.n, _field_arg(args.gf)))
        else:
            _emit_rank_table(args, args.n, uniform(args.m, args.n))
    elif kind == "kn":
        _require(args, "n", "gf")
        _emit_matroid(args, graphic(complete_graph(args.n), _field_arg(args.gf)))
    elif kind == "bicircular":
        if args.kn is not None and args.kn >= 0:  # else complete_graph reports the bad n
            check_subset_cap(args.kn * (args.kn - 1) // 2, args.cap)
        G = _graph_arg(args)
        _emit_rank_table(args, len(G.edges), bicircular(G))
    elif kind == "reid":
        _require(args, "gf")
        _emit_matroid(args, reid(_field_arg(args.gf)))
    elif kind == "gammaframe":
        _require(args, "rank", "gf")
        F = _field_arg(args.gf)
        _emit_matroid(args, gamma_frame_full(args.rank, subgroup_of_order(F, args.gamma_order)))
    return 0


# ---------------------------------------------------------------------------
# matroid queries
# ---------------------------------------------------------------------------

def _cmd_girth(args):
    """girth and cogirth: args.search is smallest_circuit or
    smallest_cocircuit."""
    hit = args.search(_matroid_of(args.matrix), workers=args.workers, cap=args.cap)
    value, witness = (None, None) if hit is None else hit
    _emit(args, _json({"value": value,
                       "witness": None if witness is None else list(witness)}))
    return 0


def _cmd_dual(args):
    _emit_matroid(args, dual(_matroid_of(args.matrix)))
    return 0


def _cmd_minor(args):
    M = _matroid_of(args.matrix)
    N = _matroid_of(args.minor)
    found, wit = has_minor(M, N, cap=args.cap)
    _emit(args, _json({
        "value": found,
        "witness": None if wit is None else {"contract": list(wit[0]),
                                             "delete": list(wit[1])},
    }))
    return 0


def _cmd_vconn(args):
    k, wit = vertical_connectivity(_matroid_of(args.matrix), cap=args.cap,
                                   with_witness=True)
    _emit(args, _json({
        "value": "unbounded" if k is UNBOUNDED else k,
        "witness": None if wit is None else {"X": list(wit[0]), "Y": list(wit[1])},
    }))
    return 0


def _cmd_confine(args):
    M = _matroid_of(args.matrix)
    sub = _field_arg(args.sub)
    wit = confinement_witness(M, sub)
    _emit(args, _json({
        "value": wit is not None,
        "witness": None if wit is None else {str(e): c for e, c in wit.items()},
    }))
    return 0


# ---------------------------------------------------------------------------
# perturbations
# ---------------------------------------------------------------------------

def _cmd_perturb(args):
    if args.action == "dist":
        pair = PerturbPair(_matroid_of(args.matrix), _matroid_of(args.other))
        _emit(args, _json({"value": dist(pair, cap=args.cap)}))
    elif args.action == "pert":
        pair = PerturbPair(_matroid_of(args.matrix), _matroid_of(args.other))
        lo, hi, diff = pert_bounds(pair, with_witness=True)
        out = {"lo": lo, "hi": hi, "exact": None,
               "witness": [list(r) for r in diff]}
        if args.exact:
            out["exact"] = pert_exact(pair, cap=args.cap)
        _emit(args, _json(out))
    else:  # apply
        M = _matroid_of(args.matrix)
        with open(args.other) as fh:
            P = fileio.read_matrix(fh.read())
        out, rank_p = apply_perturbation(M, P)
        print(f"applied perturbation of rank {rank_p}", file=sys.stderr)
        _emit_matroid(args, out)
    return 0


# ---------------------------------------------------------------------------
# templates
# ---------------------------------------------------------------------------

def _read_template(path):
    with open(path) as fh:
        return fileio.read_template(fh.read())


def _cmd_template(args):
    tmpl = _read_template(args.template)
    if args.action == "check":
        A = _read_matroid(args.matrix)
        if isinstance(tmpl, FrameTemplate):
            report = check_frame_conforms(A, tmpl)
            out = {"conforms": report.ok, "violated": report.violated}
            if report.ok:
                out["Z"] = list(report.Z)
        else:
            report = check_subfield(A, tmpl)
            out = {"conforms": report.ok, "violated": report.violated}
        _emit(args, _json(out))
    elif args.action == "realize":
        A = _read_matroid(args.matrix)
        if isinstance(tmpl, FrameTemplate):
            M = frame_matroid_of(A, tmpl)
        else:
            M = subfield_matroid_of(A, tmpl)
        _emit_matroid(args, M)
    elif args.action == "enumerate":
        out = []
        for M in enumerate_conforming(tmpl, args.rows, args.cols, cap=args.cap):
            out.append({
                "ground": list(M.ground),
                "rank": M.rank,
                "generator": [list(r) for r in M.space.basis],
            })
        _emit(args, _json(out))
    else:  # member
        M = _matroid_of(args.matrix)
        _emit(args, _json({"member": member_of(tmpl, M, cap=args.cap)}))
    return 0


# ---------------------------------------------------------------------------
# codes and thresholds
# ---------------------------------------------------------------------------

def _cmd_code(args):
    if args.action == "params":
        cp = code_params(_matroid_of(args.matrix), workers=args.workers, cap=args.cap)
        _emit_csv(args, "n,k,d,rate,rel_dist",
                  [(cp.n, cp.k, cp.d, cp.rate, cp.rel_dist)])
    else:  # cut
        rep = cut_code_distance_bound(_graph_arg(args), args.R, cap=args.cap)
        _emit_csv(args, "vertices,edges,distance,min_degree,rate_cut,rate_cycle,"
                  "delta_stated,delta_degree,holds",
                  [(rep.n_vertices, rep.n_edges, rep.distance, rep.min_degree,
                    rep.rate_cut, rep.rate_cycle, rep.delta_stated,
                    rep.delta_degree, rep.holds)])
    return 0


def _cmd_threshold(args):
    rs = list(args.R or [])
    if args.grid:
        rs += [i / (args.grid + 1) for i in range(1, args.grid + 1)]
    if not rs:
        raise ToolkitError("give --R values or --grid")
    rows = [(R, theta_binary(R),
             theta_graphic(Fraction(R).limit_denominator(10 ** 9)
                           if args.rational else R),
             THETA_GRAPHIC_STATUS) for R in rs]
    _emit_csv(args, "R,theta_binary,theta_graphic,theta_graphic_status", rows)
    return 0


def _cmd_mlsim(args):
    M = _matroid_of(args.matrix)
    est = ml_error_mc(M, args.p, args.seed, args.trials, workers=args.workers,
                      cap=args.cap)
    _emit_csv(args, "p,err,ci_lo,ci_hi,trials,seed",
              [(est.p, est.rate, est.ci_lo, est.ci_hi, est.trials, est.seed)])
    return 0


# ---------------------------------------------------------------------------
# growth
# ---------------------------------------------------------------------------

def _forbidden_arg(spec):
    if spec in (None, "none"):
        return None
    if spec == "fano":
        return pg(3, make_field(2, 1))
    if spec.startswith("kn:"):
        return graphic(complete_graph(int(spec[3:])), make_field(2, 1))
    if spec.startswith("pg:"):
        rank, p, k = (int(t) for t in spec[3:].split(","))
        return pg(rank, make_field(p, k))
    if spec.startswith("file:"):
        return _matroid_of(spec[5:])
    raise ToolkitError(f"unknown forbidden minor spec {spec!r}")


def _cmd_growth(args):
    if args.action == "formula":
        rows = []
        for r in range(1, args.rmax + 1):
            if args.family == "exponential":
                out = h_exponential(args.q, args.k, args.d, r)
                value, flag = out.value, out.pre_asymptotic
            elif args.family == "gammaframe":
                value, flag = h_gamma_frame(args.alpha, r), False
            elif args.family == "twofield":
                out = h_nelson_two_field(args.q, r)
                value, flag = out.value, out.pre_asymptotic
            else:
                out = h_nelson_pg_excluded(args.q, args.n, r)
                value, flag = out.value, out.pre_asymptotic
            rows.append((r, value, flag))
        _emit_csv(args, "r,value,pre_asymptotic", rows)
    elif args.action == "exhaustive":
        value, witness = h_exhaustive(_field_arg(args.gf), args.rank,
                                      forbidden=_forbidden_arg(args.forbidden),
                                      cap=args.cap)
        _emit(args, _json({"value": value, "witness": list(witness)}))
    else:  # alphat
        M = _matroid_of(args.matrix)
        found, wit = is_alpha_t_frame(M, args.alpha, args.t, exact=args.exact)
        _emit(args, _json({
            "value": found,
            "witness": None if wit is None else {"V": list(wit[0]),
                                                 "T": list(wit[1])},
        }))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _positive_int(text):
    """argparse type of --workers and --cap."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _add_common(p, workers=False, cap=None, cap_help=None):
    p.add_argument("-o", "--output", help="write results here instead of stdout")
    if workers:
        p.add_argument("--workers", type=_positive_int, default=1)
    if cap is not None:
        p.add_argument("--cap", type=_positive_int, default=cap, help=cap_help)


def build_parser():
    top = argparse.ArgumentParser(
        prog="matroidlab",
        description="finite-field matroids, codes, templates and growth rates")
    sub = top.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="emit a named matroid")
    c.add_argument("shape", choices=["pg", "ag", "uniform", "kn", "bicircular",
                                     "reid", "gammaframe"])
    c.add_argument("--gf", type=int, nargs=2, metavar=("P", "K"))
    c.add_argument("--rank", type=int)
    c.add_argument("--m", type=int)
    c.add_argument("--n", type=int)
    c.add_argument("--kn", type=int, help="use the complete graph K_n")
    c.add_argument("--graph", help="graph file")
    c.add_argument("--gamma-order", type=int, default=1)
    _add_common(c, cap=_RANK_TABLE_CAP, cap_help=_RANK_TABLE_CAP_HELP)
    c.set_defaults(fn=_cmd_construct)

    for name, search in (("girth", smallest_circuit), ("cogirth", smallest_cocircuit)):
        p = sub.add_parser(name, help=f"{name} with witness")
        p.add_argument("matrix")
        _add_common(p, workers=True, cap=DEFAULT_WEIGHT_CAP, cap_help=_WEIGHT_CAP_HELP)
        p.set_defaults(fn=_cmd_girth, search=search)

    p = sub.add_parser("dual", help="dual matroid as a matrix file")
    p.add_argument("matrix")
    _add_common(p)
    p.set_defaults(fn=_cmd_dual)

    p = sub.add_parser("minor", help="minor search with witness")
    p.add_argument("matrix")
    p.add_argument("minor")
    _add_common(p, cap=DEFAULT_MINOR_CAP, cap_help=_RANK_TABLE_CAP_HELP)
    p.set_defaults(fn=_cmd_minor)

    p = sub.add_parser("vconn", help="vertical connectivity")
    p.add_argument("matrix")
    _add_common(p, cap=DEFAULT_VCONN_CAP, cap_help=_RANK_TABLE_CAP_HELP)
    p.set_defaults(fn=_cmd_vconn)

    p = sub.add_parser("confine", help="subfield confinement")
    p.add_argument("matrix")
    p.add_argument("--sub", type=int, nargs=2, metavar=("P", "K"), required=True)
    _add_common(p)
    p.set_defaults(fn=_cmd_confine)

    p = sub.add_parser("perturb", help="distance / perturbation rank / apply")
    p.add_argument("action", choices=["dist", "pert", "apply"])
    p.add_argument("matrix")
    p.add_argument("other", help="second matrix (or the perturbation for apply)")
    p.add_argument("--exact", action="store_true")
    _add_common(p, cap=DEFAULT_LATTICE_CAP, cap_help=(
        "budget: dist builds at most this many lifts and as many hyperplanes "
        "of each subspace it reaches and visits at most this many subspaces; "
        "pert --exact searches at most this many subspaces (default %(default)s)"))
    p.set_defaults(fn=_cmd_perturb)

    p = sub.add_parser("template", help="conformance / realization / members")
    p.add_argument("action", choices=["check", "realize", "enumerate", "member"])
    p.add_argument("template")
    p.add_argument("matrix", nargs="?")
    p.add_argument("--rows", type=int, default=2)
    p.add_argument("--cols", type=int, default=2)
    _add_common(p, cap=DEFAULT_ENUM_CAP, cap_help=(
        "budget: enumerate builds at most this many conforming matrices; member "
        "searches at most this many candidate matrices per row count (frame "
        "templates: search nodes in all) and builds no rank table of more than "
        "this many entries, 2^|E| for |E| elements (default %(default)s)"))
    p.set_defaults(fn=_cmd_template)

    p = sub.add_parser("code", help="code parameters / cut-code bound")
    p.add_argument("action", choices=["params", "cut"])
    p.add_argument("matrix", nargs="?")
    p.add_argument("--R", type=float, default=0.5)
    p.add_argument("--kn", type=int)
    p.add_argument("--graph")
    _add_common(p, workers=True, cap=DEFAULT_WEIGHT_CAP, cap_help=_WEIGHT_CAP_HELP)
    p.set_defaults(fn=_cmd_code)

    p = sub.add_parser("threshold", help="binary and graphic thresholds")
    p.add_argument("--R", type=float, action="append")
    p.add_argument("--grid", type=int)
    p.add_argument("--rational", action="store_true",
                   help="evaluate the graphic threshold in exact rationals")
    _add_common(p)
    p.set_defaults(fn=_cmd_threshold)

    p = sub.add_parser("mlsim", help="Monte Carlo ML decoding on a BSC")
    p.add_argument("matrix")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=10000)
    _add_common(p, workers=True, cap=DEFAULT_CODEWORD_CAP, cap_help=(
        "budget: decode against at most this many codewords, 2^k for a "
        "k-dimensional code (default %(default)s)"))
    p.set_defaults(fn=_cmd_mlsim)

    p = sub.add_parser("growth", help="growth-rate formulas and searches")
    p.add_argument("action", choices=["formula", "exhaustive", "alphat"])
    p.add_argument("matrix", nargs="?")
    p.add_argument("--family", choices=["exponential", "gammaframe",
                                        "twofield", "pgexcluded"],
                   default="exponential")
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--d", type=int, default=0)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--alpha", type=int, default=1)
    p.add_argument("--t", type=int, default=0)
    p.add_argument("--rmax", type=int, default=8)
    p.add_argument("--rank", type=int, default=3)
    p.add_argument("--gf", type=int, nargs=2, metavar=("P", "K"), default=[2, 1])
    p.add_argument("--forbidden", default="none")
    p.add_argument("--exact", action="store_true")
    _add_common(p, cap=DEFAULT_SEARCH_CAP, cap_help=(
        "budget: exhaustive examines at most this many point subsets "
        "(default %(default)s); alphat ignores it"))
    p.set_defaults(fn=_cmd_growth)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3
    except (ToolkitError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
