"""Batch command-line front end.

Subcommands parse CDGA / simplicial-set files, run the computations, and
print aligned tables or (with --json) versioned JSON documents.  Exit
codes: 0 success, 1 domain error (bad file, failed precondition), 2 usage
error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .cdga import (
    CdgaError,
    format_cdga,
    load_cdga,
    parse_cdga_file,
)
from .graded import AlgebraError, format_element, read_text
from .invariants import (
    classify_ellipticity,
    classify_space,
    full_invariants,
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
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        kw = line.split()[0]
        if kw == "cdga":
            return "cdga", text
        if kw == "scomplex":
            return "scomplex", text
        break
    raise CdgaError(f"{path}:1: expected a 'cdga' or 'scomplex' header line")


def _table(headers, rows):
    cols = [headers] + [[str(x) for x in r] for r in rows]
    widths = [max(len(row[i]) for row in cols) for i in range(len(headers))]
    out = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for row in cols[1:]:
        out.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(out)


def _emit(args, text_fn, json_obj):
    if args.json:
        print(json.dumps(json_obj, indent=2))
    else:
        print(text_fn())
    return 0


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
    if _is_minimal(c):
        return c, None
    res = minimal_model(c, max_degree)
    return res.model, res


# ----- subcommands -----

def cmd_validate(args):
    kind, text = _sniff(args.file)
    if kind == "cdga":
        obj = parse_cdga_file(text, filename=args.file, check=False)
    else:
        obj = parse_scomplex_file(text, filename=args.file, check=False)
    defects = obj.validate()
    if defects:
        for d in defects:
            print(f"{args.file}: {d}")
        return 1
    print(f"{args.file}: ok ({kind} {obj.name})")
    return 0


def cmd_cohomology(args):
    c = load_cdga(args.file)
    rep = c.cohomology(args.max_degree)
    obj = {
        "schema": 1,
        "command": "cohomology",
        "name": c.name,
        "maxDegree": args.max_degree,
        "dims": rep.dims,
        "representatives": {
            str(k): [format_element(r) for r in rep.representatives[k]]
            for k in range(args.max_degree + 1) if rep.representatives[k]},
    }

    def text():
        rows = [(k, rep.dims[k],
                 ", ".join(format_element(r) for r in rep.representatives[k]))
                for k in range(args.max_degree + 1)]
        return (f"H*({c.name}) through degree {args.max_degree}\n"
                + _table(["degree", "dim", "representatives"], rows))

    return _emit(args, text, obj)


def cmd_minimal_model(args):
    target = load_cdga(args.file)
    res = minimal_model(target, args.max_degree)
    obj = {"schema": 1, "command": "minimal-model", "target": target.name,
           **_model_json(res.model), "certifiedDegree": res.certified_degree}

    def text():
        comments = [f"stage {s['degree']}: added {len(s['cocycle_gens'])} "
                    f"cocycle gens, {len(s['kernel_gens'])} kernel gens"
                    for s in res.stages
                    if s["cocycle_gens"] or s["kernel_gens"]]
        gens = ", ".join(f"{g.name}:{g.degree}"
                         for g in res.model.algebra.generators)
        head = (f"minimal model of {target.name} "
                f"(certified through degree {res.certified_degree})\n"
                f"gens {gens}\n")
        return head + format_cdga(res.model, comments=comments)

    return _emit(args, text, obj)


def cmd_loop(args):
    c = load_cdga(args.file)
    model, _ = _as_model(c, args.max_degree)
    lc = loop_cohomology(model, args.max_degree)
    obj = {
        "schema": 1,
        "command": "loop",
        "name": c.name,
        "maxDegree": args.max_degree,
        "dims": lc.dims,
        "piRanks": {str(k): v for k, v in sorted(lc.pi_ranks.items())},
    }

    def text():
        rows = [(k, lc.dims[k], lc.pi_rank(k))
                for k in range(args.max_degree + 1)]
        return (f"loop-space cohomology for {c.name}\n"
                + _table(["degree", "dim H(loops)", "rank pi"], rows))

    return _emit(args, text, obj)


def cmd_free_loop(args):
    c = load_cdga(args.file)
    model, _ = _as_model(c, args.max_degree)
    fl = free_loop_model(model)
    dims = [fl.h_dim(k) for k in range(args.max_degree + 1)]
    obj = {
        "schema": 1,
        "command": "free-loop",
        "name": c.name,
        "maxDegree": args.max_degree,
        **_model_json(fl),
        "dims": dims,
    }

    def text():
        rows = [(k, dims[k]) for k in range(args.max_degree + 1)]
        return (format_cdga(fl)
                + "\nfree-loop cohomology\n"
                + _table(["degree", "dim"], rows))

    return _emit(args, text, obj)


def cmd_path_space(args):
    c = load_cdga(args.file)
    model, _ = _as_model(c, args.max_degree)
    rel = path_space_model(model)
    obj = {
        "schema": 1,
        "command": "path-space",
        "name": c.name,
        **_model_json(rel.total),
        "fiber": [g.name for g in rel.fiber],
    }

    def text():
        fiber = ", ".join(f"{g.name}:{g.degree}" for g in rel.fiber)
        return format_cdga(rel.total,
                           comments=[f"fiber generators: {fiber}"])

    return _emit(args, text, obj)


def _report_json(rep):
    out = {
        "verdict": rep.verdict,
        "formalDimension": rep.formal_dimension,
    }
    if rep.profile is not None:
        out["exponents"] = {"even": rep.profile.even_exponents,
                            "odd": rep.profile.odd_exponents}
    out["numerology"] = list(rep.numerology) if rep.numerology else None
    if rep.euler:
        out["chi"] = {"H": rep.euler["chi_H"], "V": rep.euler["chi_V"],
                      "pi": rep.euler["chi_pi"]}
    if rep.h_dims is not None:
        out["hDims"] = rep.h_dims
    if rep.h0_dims is not None:
        out["pureQuotientDims"] = rep.h0_dims
    if rep.v_dims is not None:
        out["vDims"] = {str(k): v for k, v in sorted(rep.v_dims.items())}
    if rep.gap_report is not None:
        out["gapProbe"] = [{"k": k, "status": s} for k, s in rep.gap_report]
    if rep.bound is not None:
        out["bound"] = rep.bound
    return out


def cmd_classify(args):
    c = load_cdga(args.file)
    if _is_minimal(c):
        rep = classify_ellipticity(c, args.bound)
    else:
        rep = classify_space(c, args.bound)
    obj = {"schema": 1, "command": "classify", "name": c.name}
    obj.update(_report_json(rep))

    def text():
        lines = [f"{c.name}: {rep.verdict}"]
        if rep.formal_dimension is not None:
            lines.append(f"formal dimension: {rep.formal_dimension}")
        if rep.profile is not None:
            lines.append(f"even exponents: {rep.profile.even_exponents}")
            lines.append(f"odd exponents:  {rep.profile.odd_exponents}")
        if rep.numerology is not None:
            names = ["degree identity", "even-degree bound",
                     "odd-degree bound", "even<=odd"]
            for nm, ok in zip(names, rep.numerology):
                lines.append(f"numerology {nm}: {'true' if ok else 'FALSE'}")
        if rep.euler:
            lines.append(f"chi_H = {rep.euler['chi_H']}, "
                         f"chi_V = {rep.euler['chi_V']}, "
                         f"chi_pi = {rep.euler['chi_pi']}")
        if rep.v_dims:
            vals = ", ".join(f"{k}:{v}" for k, v in sorted(rep.v_dims.items()))
            lines.append(f"generator degrees: {vals}")
        if rep.h_dims is not None:
            lines.append("H dims: " + " ".join(str(d) for d in rep.h_dims))
        if rep.h0_dims is not None:
            lines.append("pure quotient dims: "
                         + " ".join(str(d) for d in rep.h0_dims))
        return "\n".join(lines)

    return _emit(args, text, obj)


def cmd_invariants(args):
    c = load_cdga(args.file)
    model, _ = _as_model(c, args.max_degree)
    if model is c:
        report = classify_ellipticity(c, args.bound)
    else:
        report = classify_space(c, args.bound)
    inv = full_invariants(model, args.max_degree, args.bound, report=report)
    obj = {"schema": 1, "command": "invariants", "name": c.name}
    obj.update(inv)

    def text():
        lines = [f"invariants of {c.name} (N={args.max_degree}, "
                 f"B={args.bound})",
                 f"verdict: {inv['verdict']}",
                 f"formal dimension: {inv['formalDimension']}",
                 f"exponents: even {inv['exponents']['even']}, "
                 f"odd {inv['exponents']['odd']}",
                 f"numerology: {inv['numerology']}",
                 f"chi: {inv['chi']}",
                 f"cuplength: {inv['cuplength']}",
                 f"cat upper bound: {inv['catUpper']}",
                 f"word-length injectivity at: {inv['toomerN']}",
                 "loop series coefficients: "
                 + " ".join(str(v) for v in inv["poincare"]["coeffs"])]
        return "\n".join(lines)

    return _emit(args, text, obj)


def cmd_pl_verify(args):
    if args.builtin:
        K = builtin_complex(args.builtin)
    elif args.file:
        K = load_scomplex(args.file)
    else:
        print("error: pl-verify needs --builtin NAME or FILE",
              file=sys.stderr)
        return 2
    rep = verify_stokes(K, args.trials, args.poly_cap, args.seed)
    obj = {
        "schema": 1,
        "command": "pl-verify",
        "complex": K.name,
        "trials": len(rep.trials),
        "passed": rep.passed,
        "cochainCohomology": rep.h_dims,
        "cocycleRanks": rep.cocycle_ranks,
        "ok": rep.ok,
    }

    def text():
        rows = [(t["trial"], t["degree"],
                 "zero" if t["zero_form"] else "sampled",
                 "pass" if t["passed"] else "FAIL")
                for t in rep.trials]
        rank_rows = [(r["degree"], r["sampled_rank"], r["h_dim"])
                     for r in rep.cocycle_ranks]
        return (f"Stokes verification on {K.name}: "
                f"{rep.passed}/{len(rep.trials)} exact\n"
                + _table(["trial", "degree", "form", "result"], rows)
                + "\ncochain cohomology dims: "
                + " ".join(str(d) for d in rep.h_dims) + "\n"
                + _table(["degree", "sampled cocycle rank", "dim H"],
                         rank_rows))

    code = _emit(args, text, obj)
    return code if rep.ok else 1


@functools.lru_cache(maxsize=None)
def build_parser():
    """The argument parser, built once per process."""
    p = argparse.ArgumentParser(
        prog="sullivan",
        description="Exact rational computations with Sullivan models: "
                    "cohomology, minimal models, loop spaces, ellipticity, "
                    "and polynomial-form integration.")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, help_, *, n_default=None, bound=False, json_flag=True):
        sp = sub.add_parser(name, help=help_)
        sp.set_defaults(func=fn)
        if n_default is not None:
            sp.add_argument("-N", "--max-degree", type=int, default=n_default,
                            help=f"top degree to compute (default "
                                 f"{n_default}, must be >= 2)")
        if bound:
            sp.add_argument("-B", "--bound", type=int, default=40,
                            help="scan bound for finiteness detection "
                                 "(default 40)")
        if json_flag:
            sp.add_argument("--json", action="store_true",
                            help="emit a JSON document (schema 1)")
        return sp

    sp = add("validate", cmd_validate, "parse and validate a file",
             json_flag=False)
    sp.add_argument("file")

    sp = add("cohomology", cmd_cohomology,
             "degreewise cohomology of a CDGA", n_default=12)
    sp.add_argument("file")

    sp = add("minimal-model", cmd_minimal_model,
             "synthesize the minimal Sullivan model", n_default=12)
    sp.add_argument("file")

    sp = add("loop", cmd_loop,
             "loop-space cohomology dims and homotopy ranks", n_default=20)
    sp.add_argument("file")

    sp = add("free-loop", cmd_free_loop,
             "free-loop-space model and its cohomology", n_default=12)
    sp.add_argument("file")

    sp = add("path-space", cmd_path_space,
             "path-space model over two base copies", n_default=12)
    sp.add_argument("file")

    sp = add("classify", cmd_classify,
             "elliptic/hyperbolic classification", n_default=20, bound=True)
    sp.add_argument("file")

    sp = add("invariants", cmd_invariants,
             "full invariant report (JSON schema documented)",
             n_default=16, bound=True)
    sp.add_argument("file")

    sp = add("pl-verify", cmd_pl_verify,
             "Stokes verification for polynomial forms", json_flag=True)
    sp.add_argument("file", nargs="?")
    sp.add_argument("--builtin", choices=BUILTIN_COMPLEXES,
                    help="use a built-in complex instead of a file")
    sp.add_argument("--trials", type=int, default=20,
                    help="number of sampled forms (default 20)")
    sp.add_argument("--poly-cap", type=int, default=3,
                    help="polynomial degree cap for sampling (default 3)")
    sp.add_argument("--seed", type=int, default=0,
                    help="sampling seed (default 0)")

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    for flag, attr, low in (("-N", "max_degree", 2), ("--trials", "trials", 1),
                            ("--poly-cap", "poly_cap", 0)):
        if getattr(args, attr, low) < low:
            print(f"error: {flag} must be at least {low}", file=sys.stderr)
            return 2
    try:
        return args.func(args)
    except DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
