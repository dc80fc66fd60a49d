"""Batch command-line front end.

Subcommands parse CDGA / simplicial-set files and run the computations.
Each one builds a single document and renders its aligned-table text from
that document; `main` prints either the text or (with --json) the
document, versioned with "schema": 1.  Exit codes: 0 success, 1 domain
error (bad file, failed precondition) or a document with "ok": false,
2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .cdga import (
    CdgaError,
    format_cdga,
    load_cdga,
    parse_cdga_file,
)
from .graded import AlgebraError, directives, format_element, read_text
from .invariants import (
    classify_ellipticity,
    classify_space,
    full_invariants,
    report_json,
)
from .linalg import LinalgError
from .models import (
    check_minimal_sullivan,
    free_loop_model,
    loop_cohomology,
    minimal_model,
    path_space_model,
)
from .plforms import (
    BUILTIN_COMPLEXES,
    FormError,
    builtin_complex,
    load_scomplex,
    parse_scomplex_file,
    verify_stokes,
)

DOMAIN_ERRORS = (CdgaError, FormError, AlgebraError, LinalgError, OSError)


def _sniff(path):
    text = read_text(path, CdgaError)
    kw = next(directives(text), (1, None, ""))[1]
    if kw in ("cdga", "scomplex"):
        return kw, text
    raise CdgaError(f"{path}:1: expected a 'cdga' or 'scomplex' header line")


def _table(headers, rows):
    cols = [headers] + [[str(x) for x in r] for r in rows]
    widths = [max(len(row[i]) for row in cols) for i in range(len(headers))]
    out = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for row in cols[1:]:
        out.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(out)


def _is_minimal(c):
    return (c.is_free and all(g.degree >= 2 for g in c.algebra.generators)
            and check_minimal_sullivan(c))


def _model_json(c):
    """The generators of a free model and its nonzero differentials (the
    images a `Derivation` keeps), in ordinal order."""
    alg = c.algebra
    images = sorted(c.differential.images.items())
    return {"generators": [{"name": g.name, "degree": g.degree}
                           for g in alg.generators],
            "differentials": {alg.by_ordinal(o).name: format_element(e)
                              for o, e in images}}


def _as_model(c, max_degree):
    """Use a free minimal input as-is; otherwise synthesize its model."""
    return c if _is_minimal(c) else minimal_model(c, max_degree).model


def _classify(c, bound):
    """The ellipticity report of a free minimal input, or of the space a
    non-minimal presentation describes."""
    if _is_minimal(c):
        return classify_ellipticity(c, bound)
    return classify_space(c, bound)


# ----- subcommands: each returns (JSON document, text rendered from it) -----

def cmd_validate(args):
    kind, text = _sniff(args.file)
    if kind == "cdga":
        obj = parse_cdga_file(text, filename=args.file, check=False)
    else:
        obj = parse_scomplex_file(text, filename=args.file, check=False)
    defects = [str(d) for d in obj.validate()]
    doc = {"kind": kind, "name": obj.name, "defects": defects,
           "ok": not defects}
    lines = ([f"{args.file}: {d}" for d in doc["defects"]]
             or [f"{args.file}: ok ({doc['kind']} {doc['name']})"])
    return doc, "\n".join(lines)


def cmd_cohomology(args):
    c = load_cdga(args.file)
    rep = c.cohomology(args.max_degree)
    doc = {
        "name": c.name,
        "maxDegree": args.max_degree,
        "dims": rep.dims,
        "representatives": {
            str(k): [format_element(r) for r in rep.representatives[k]]
            for k in range(args.max_degree + 1) if rep.representatives[k]},
    }
    rows = [(k, dim, ", ".join(doc["representatives"].get(str(k), [])))
            for k, dim in enumerate(doc["dims"])]
    return doc, (f"H*({doc['name']}) through degree {doc['maxDegree']}\n"
                 + _table(["degree", "dim", "representatives"], rows))


def cmd_minimal_model(args):
    target = load_cdga(args.file)
    res = minimal_model(target, args.max_degree)
    doc = {"target": target.name, **_model_json(res.model),
           "certifiedDegree": res.certified_degree}
    comments = [f"stage {s['degree']}: added {len(s['cocycle_gens'])} "
                f"cocycle gens, {len(s['kernel_gens'])} kernel gens"
                for s in res.stages if s["cocycle_gens"] or s["kernel_gens"]]
    gens = ", ".join(f"{g['name']}:{g['degree']}" for g in doc["generators"])
    return doc, (f"minimal model of {doc['target']} (certified through "
                 f"degree {doc['certifiedDegree']})\ngens {gens}\n"
                 + format_cdga(res.model, comments=comments))


def cmd_loop(args):
    c = load_cdga(args.file)
    model = _as_model(c, args.max_degree)
    lc = loop_cohomology(model, args.max_degree)
    doc = {
        "name": c.name,
        "maxDegree": args.max_degree,
        "dims": lc.dims,
        "piRanks": {str(k): v for k, v in sorted(lc.pi_ranks.items())},
    }
    rows = [(k, dim, doc["piRanks"].get(str(k), 0))
            for k, dim in enumerate(doc["dims"])]
    return doc, (f"loop-space cohomology for {doc['name']}\n"
                 + _table(["degree", "dim H(loops)", "rank pi"], rows))


def cmd_free_loop(args):
    c = load_cdga(args.file)
    model = _as_model(c, args.max_degree)
    fl = free_loop_model(model)
    doc = {
        "name": c.name,
        "maxDegree": args.max_degree,
        **_model_json(fl),
        "dims": [fl.h_dim(k) for k in range(args.max_degree + 1)],
    }
    return doc, (format_cdga(fl) + "\nfree-loop cohomology\n"
                 + _table(["degree", "dim"], enumerate(doc["dims"])))


def cmd_path_space(args):
    c = load_cdga(args.file)
    model = _as_model(c, args.max_degree)
    rel = path_space_model(model)
    doc = {"name": c.name, **_model_json(rel.total),
           "fiber": [g.name for g in rel.fiber]}
    degree = {g["name"]: g["degree"] for g in doc["generators"]}
    fiber = ", ".join(f"{name}:{degree[name]}" for name in doc["fiber"])
    return doc, format_cdga(rel.total,
                            comments=[f"fiber generators: {fiber}"])


def cmd_classify(args):
    c = load_cdga(args.file)
    doc = {"name": c.name, **report_json(_classify(c, args.bound))}
    lines = [f"{doc['name']}: {doc['verdict']}"]
    if doc["formalDimension"] is not None:
        lines.append(f"formal dimension: {doc['formalDimension']}")
    if "exponents" in doc:
        lines.append(f"even exponents: {doc['exponents']['even']}")
        lines.append(f"odd exponents:  {doc['exponents']['odd']}")
    if doc["numerology"] is not None:
        names = ["degree identity", "even-degree bound", "odd-degree bound",
                 "even<=odd"]
        for nm, ok in zip(names, doc["numerology"]):
            lines.append(f"numerology {nm}: {'true' if ok else 'FALSE'}")
    if "chi" in doc:
        chi = doc["chi"]
        lines.append(f"chi_H = {chi['H']}, chi_V = {chi['V']}, "
                     f"chi_pi = {chi['pi']}")
    if doc.get("vDims"):
        vals = ", ".join(f"{k}:{v}" for k, v in doc["vDims"].items())
        lines.append(f"generator degrees: {vals}")
    if "hDims" in doc:
        lines.append("H dims: " + " ".join(map(str, doc["hDims"])))
    if "pureQuotientDims" in doc:
        lines.append("pure quotient dims: "
                     + " ".join(map(str, doc["pureQuotientDims"])))
    return doc, "\n".join(lines)


def cmd_invariants(args):
    c = load_cdga(args.file)
    model = _as_model(c, args.max_degree)
    doc = {"name": c.name,
           **full_invariants(model, args.max_degree, args.bound,
                             report=_classify(c, args.bound))}
    return doc, "\n".join([
        f"invariants of {doc['name']} (N={args.max_degree}, B={args.bound})",
        f"verdict: {doc['verdict']}",
        f"formal dimension: {doc['formalDimension']}",
        f"exponents: even {doc['exponents']['even']}, "
        f"odd {doc['exponents']['odd']}",
        f"numerology: {doc['numerology']}",
        f"chi: {doc['chi']}",
        f"cuplength: {doc['cuplength']}",
        f"cat upper bound: {doc['catUpper']}",
        f"word-length injectivity at: {doc['toomerN']}",
        "loop series coefficients: "
        + " ".join(map(str, doc["poincare"]["coeffs"]))])


def cmd_pl_verify(args):
    K = (builtin_complex(args.builtin) if args.builtin
         else load_scomplex(args.file))
    rep = verify_stokes(K, args.trials, args.poly_cap, args.seed)
    doc = {
        "complex": K.name,
        "trials": len(rep.trials),
        "passed": rep.passed,
        "cochainCohomology": rep.h_dims,
        "cocycleRanks": rep.cocycle_ranks,
        "ok": rep.ok,
    }
    rows = [(t["trial"], t["degree"],
             "zero" if t["zero_form"] else "sampled",
             "pass" if t["passed"] else "FAIL") for t in rep.trials]
    rank_rows = [(r["degree"], r["sampled_rank"], r["h_dim"])
                 for r in doc["cocycleRanks"]]
    return doc, (f"Stokes verification on {doc['complex']}: "
                 f"{doc['passed']}/{doc['trials']} exact\n"
                 + _table(["trial", "degree", "form", "result"], rows)
                 + "\ncochain cohomology dims: "
                 + " ".join(map(str, doc["cochainCohomology"])) + "\n"
                 + _table(["degree", "sampled cocycle rank", "dim H"],
                          rank_rows))


# name, function, help, default of -N (None: no -N), whether -B is taken
COMMANDS = (
    ("validate", cmd_validate, "parse and validate a file", None, False),
    ("cohomology", cmd_cohomology, "degreewise cohomology of a CDGA",
     12, False),
    ("minimal-model", cmd_minimal_model,
     "synthesize the minimal Sullivan model", 12, False),
    ("loop", cmd_loop, "loop-space cohomology dims and homotopy ranks",
     20, False),
    ("free-loop", cmd_free_loop, "free-loop-space model and its cohomology",
     12, False),
    ("path-space", cmd_path_space, "path-space model over two base copies",
     12, False),
    ("classify", cmd_classify, "elliptic/hyperbolic classification",
     20, True),
    ("invariants", cmd_invariants,
     "full invariant report (JSON schema documented)", 16, True),
    ("pl-verify", cmd_pl_verify, "Stokes verification for polynomial forms",
     None, False),
)


@functools.lru_cache(maxsize=None)
def build_parser():
    """The argument parser, built once per process."""
    p = argparse.ArgumentParser(
        prog="sullivan",
        description="Exact rational computations with Sullivan models: "
                    "cohomology, minimal models, loop spaces, ellipticity, "
                    "and polynomial-form integration.")
    sub = p.add_subparsers(dest="command", required=True)
    for name, fn, help_, n_default, bound in COMMANDS:
        sp = sub.add_parser(name, help=help_)
        sp.set_defaults(func=fn)
        sp.add_argument("file", nargs="?" if fn is cmd_pl_verify else None)
        if n_default is not None:
            sp.add_argument("-N", "--max-degree", type=int, default=n_default,
                            help="accepted and ignored: classify scans to -B"
                            if fn is cmd_classify else f"top degree to "
                            f"compute (default {n_default}, must be >= 2)")
        if bound:
            sp.add_argument("-B", "--bound", type=int, default=40,
                            help="scan bound for finiteness detection "
                                 "(default 40, must be >= 0)")
        if fn is not cmd_validate:
            sp.add_argument("--json", action="store_true",
                            help="emit a JSON document (schema 1)")
    sp = sub.choices["pl-verify"]
    sp.add_argument("--builtin", choices=BUILTIN_COMPLEXES,
                    help="use a built-in complex instead of a file")
    sp.add_argument("--trials", type=int, default=20,
                    help="number of sampled forms (default 20)")
    sp.add_argument("--poly-cap", type=int, default=3,
                    help="polynomial degree cap for sampling (default 3)")
    sp.add_argument("--seed", type=int, default=0,
                    help="sampling seed (default 0)")
    return p


def _usage_error(args):
    """The message of a usage error the parser cannot see, or None."""
    for flag, attr, low in (("-N", "max_degree", 2), ("-B", "bound", 0),
                            ("--trials", "trials", 1),
                            ("--poly-cap", "poly_cap", 0)):
        if getattr(args, attr, low) < low and not (
                attr == "max_degree" and args.command == "classify"):
            return f"{flag} must be at least {low}"
    if args.command == "pl-verify" and (args.builtin is None) == \
            (args.file is None):
        return "pl-verify needs exactly one of --builtin NAME or FILE"
    return None


def main(argv):
    args = build_parser().parse_args(argv)
    message = _usage_error(args)
    if message:
        print(f"error: {message}", file=sys.stderr)
        return 2
    try:
        doc, text = args.func(args)
    except DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if getattr(args, "json", False):
        print(json.dumps({"schema": 1, "command": args.command, **doc},
                         indent=2))
    else:
        print(text)
    return 0 if doc.get("ok", True) else 1


def entry():
    """Run `main` on the command line and exit with its code; a reader
    that closed the pipe early gets exit 1 and no traceback."""
    try:
        code = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:  # the exit flush then writes to nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    entry()
