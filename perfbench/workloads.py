"""Inputs, jobs and oracles of the four benchmark workloads.

Each workload is a `Workload` object built from a seed.  `setup()` makes
the inputs the program will see (seeded `.cdga` texts, a command list);
`operations()` lists the timed calls of one closed-loop job, each with
the oracle check of its output.  The oracles here are independent of
the code under test: Bott-Samelson series, Kunneth convolutions of the
classical free-loop Betti numbers, known cochain cohomology, and the CLI
outputs recorded at the parent commit.

Every call into `sullivan` goes through a module attribute looked up at
call time (`sullivan.models.minimal_model(...)`), so the tracer's
patches see it.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN_CLI = HERE / "golden_cli.json"

# ----- seeded .cdga texts -----------------------------------------------
#
# A presentation is (name, generators, differentials, relations):
# generators [(ident, degree)], differentials {ident: poly},
# relations [poly], poly = [(coefficient, ((ident, exponent), ...))].
# The monomial factor order is kept when rendering, so the parser applies
# the Koszul sign of that order whatever the generator declaration order.

WEDGE_S2S2 = ("H(S2vS2)", [("y", 2), ("y_2", 2)], {},
              [[(1, (("y", 2),))], [(1, (("y_2", 2),))],
               [(1, (("y", 1), ("y_2", 1)))]])
WEDGE_S3S3 = ("H(S3vS3)", [("x", 3), ("x_2", 3)], {},
              [[(1, (("x", 1), ("x_2", 1)))]])
WEDGE_S2S3 = ("H(S2vS3)", [("y", 2), ("x", 3)], {},
              [[(1, (("y", 2),))], [(1, (("y", 1), ("x", 1)))]])
S2S2S4_MODEL = ("S2xS2xS4",
                [("y", 2), ("z", 3), ("y_2", 2), ("z_2", 3), ("y_3", 4),
                 ("z_3", 7)],
                {"z": [(1, (("y", 2),))], "z_2": [(1, (("y_2", 2),))],
                 "z_3": [(1, (("y_3", 2),))]},
                [])

SCALES = [Fraction(c) for c in ("1", "-1", "2", "-2", "1/2", "-1/2", "3",
                                "-1/3", "2/3")]


def _render_poly(poly):
    text = ""
    for coeff, mono in poly:
        coeff = Fraction(coeff)
        sign = "-" if coeff < 0 else "+"
        factors = [f"{g}^{e}" if e > 1 else g for g, e in mono]
        if abs(coeff) != 1 or not factors:
            factors.insert(0, str(abs(coeff)))
        term = "*".join(factors)
        text += (f"{sign} {term} " if text or sign == "-" else f"{term} ")
    return text.strip()


def _substitute(poly, scale):
    """Rewrite a polynomial in x under x = scale[x] * x'."""
    out = []
    for coeff, mono in poly:
        c = Fraction(coeff)
        for g, e in mono:
            c *= scale[g] ** e
        out.append((c, mono))
    return out


def seeded_cdga_text(presentation, seed):
    """`.cdga` text of an isomorphic copy of `presentation`.

    Seed 0 gives the presentation as written.  Another seed permutes the
    declaration order of same-degree generators and rescales every
    generator x by a small nonzero rational c (x = c x'), rewriting the
    differentials and relations accordingly.  Cohomology, minimal-model
    generator degrees and free-loop dimensions are unchanged.
    """
    name, gens, diffs, rels = presentation
    gens = list(gens)
    scale = {g: Fraction(1) for g, _ in gens}
    if seed:
        rng = random.Random(seed)
        by_degree = {}
        for g, d in gens:
            by_degree.setdefault(d, []).append(g)
        for group in by_degree.values():
            rng.shuffle(group)
        order = sorted(by_degree)
        gens = [(g, d) for d in order for g in by_degree[d]]
        scale = {g: rng.choice(SCALES) for g, _ in gens}
    lines = [f"cdga {name}"]
    lines += [f"gen {g} {d}" for g, d in gens]
    for g, poly in diffs.items():
        # d(c x') = P(c x')  =>  d x' = P(c x') / c
        new = [(c / scale[g], m) for c, m in _substitute(poly, scale)]
        lines.append(f"diff {g} = {_render_poly(new)}")
    for poly in rels:
        new = _substitute(poly, scale)
        degree = sum(e * dict(gens)[g] for g, e in poly[0][1])
        lines.append(f"rel {degree} : {_render_poly(new)}")
    return "\n".join(lines) + "\n"


# ----- oracles ------------------------------------------------------------

def bott_samelson(a, b, order):
    """Coefficients of 1/(1 - z^(a-1) - z^(b-1)): H*(Omega(S^a v S^b))."""
    coeffs = [0] * (order + 1)
    coeffs[0] = 1
    for n in range(1, order + 1):
        coeffs[n] = sum(coeffs[n - s] for s in (a - 1, b - 1) if n >= s)
    return coeffs


def free_loop_sphere(n, order):
    """Rational Betti numbers of the free loop space of S^n, n even:
    1 in degree 0, then 1 in degrees (n-1) + k(2n-2) and n + k(2n-2)."""
    if n % 2:
        raise ValueError("even spheres only")
    dims = [0] * (order + 1)
    dims[0] = 1
    for i in range(1, order + 1):
        if i >= n - 1 and (i - (n - 1)) % (2 * n - 2) in (0, 1):
            dims[i] = 1
    return dims


def convolve(a, b):
    return [sum(a[j] * b[i - j] for j in range(i + 1)) for i in range(len(a))]


class Workload:
    """One workload: seeded inputs, a job of timed operations, and the
    oracle checks of each operation's output."""

    name = ""
    min_ops = 1  # operations an untraced run makes at the least
    ops_are_requests = False  # latency per job, not per operation
    warmup_jobs = 0  # jobs run and checked, but not timed, before timing

    def __init__(self, seed):
        self.seed = seed

    def setup(self, sullivan):
        """Build or parse the inputs, before the first timed job."""

    def operations(self):
        """The operations of one job, in order: [(label, run, check)].

        `run(sullivan)` is the timed call; `check(sullivan, result)`
        returns None or a failure message and runs untimed and untraced.
        """
        raise NotImplementedError


class ModelSynthesis(Workload):
    name = "model-synthesis"
    # (presentation, a, b, N); 131, 127 and 58 generators at the seed commit
    cases = [(WEDGE_S2S2, 2, 2, 10), (WEDGE_S3S3, 3, 3, 20),
             (WEDGE_S2S3, 2, 3, 12)]

    def setup(self, sullivan):
        self.texts = [seeded_cdga_text(p, self.seed) for p, *_ in self.cases]
        for text in self.texts:
            sullivan.cdga.parse_cdga_file(text, filename="<bench>")

    def operations(self):
        ops = []
        for text, (p, a, b, n) in zip(self.texts, self.cases):
            def run(sullivan, text=text, n=n):
                target = sullivan.cdga.parse_cdga_file(text, "<bench>")
                return sullivan.models.minimal_model(target, n)

            def check(sullivan, res, a=a, b=b, n=n):
                got = sullivan.invariants.loop_poincare_series(
                    res.model, n - 2).coefficients
                want = bott_samelson(a, b, n - 2)
                if got != want:
                    return f"loop series {got} != Bott-Samelson {want}"
                return None
            ops.append((f"{p[0]} N={n}", run, check))
        return ops


class FreeLoop(Workload):
    name = "free-loop"
    top = 10

    def setup(self, sullivan):
        self.text = seeded_cdga_text(S2S2S4_MODEL, self.seed)
        sullivan.cdga.parse_cdga_file(self.text, filename="<bench>")

    def operations(self):
        def run(sullivan):
            model = sullivan.cdga.parse_cdga_file(self.text, "<bench>")
            loops = sullivan.models.free_loop_model(model)
            return [loops.h_dim(k) for k in range(self.top + 1)]

        def check(sullivan, dims):
            s2 = free_loop_sphere(2, self.top)
            want = convolve(convolve(s2, s2), free_loop_sphere(4, self.top))
            return None if dims == want else f"dims {dims} != Kunneth {want}"
        return [(f"L(S2xS2xS4) h_dim 0..{self.top}", run, check)]


class PlStokes(Workload):
    name = "pl-stokes"
    # complex -> cochain cohomology (a 3-simplex is contractible, its
    # boundary is a 2-sphere)
    cases = [("delta3", [1, 0, 0, 0]), ("bddelta3", [1, 0, 1])]
    trials = 20
    poly_cap = 3

    def operations(self):
        ops = []
        for name, want in self.cases:
            def run(sullivan, name=name):
                K = sullivan.plforms.builtin_complex(name)
                return sullivan.plforms.verify_stokes(
                    K, self.trials, self.poly_cap, self.seed)

            def check(sullivan, rep, want=want):
                bad_ranks = [r for r in rep.cocycle_ranks
                             if r["sampled_rank"] != r["h_dim"]]
                if not rep.ok:
                    failed = len(rep.trials) - rep.passed
                    return f"Stokes failed on {failed} trials"
                if rep.h_dims != want:
                    return f"cochain cohomology {rep.h_dims} != {want}"
                if bad_ranks:
                    return f"sampled cocycle ranks differ: {bad_ranks}"
                if all(t["zero_form"] for t in rep.trials):
                    return "every sampled form was zero"
                return None
            ops.append((name, run, check))
        return ops


def cli_corpus_commands():
    """The CLI corpus: README commands, every data/*.cdga file through
    seven subcommands, and pl-verify on both .scx files."""
    readme = [
        ["validate", "data/elliptic6.cdga"],
        ["cohomology", "data/nonformal.cdga", "-N", "12"],
        ["minimal-model", "data/h_cp2.cdga", "-N", "10"],
        ["loop", "data/model_s3.cdga", "-N", "20"],
        ["free-loop", "data/model_s2.cdga", "-N", "12"],
        ["path-space", "data/model_s2.cdga"],
        ["classify", "data/elliptic6.cdga", "-N", "40", "-B", "60"],
        ["invariants", "data/h_cp2.cdga", "-N", "12", "-B", "40"],
        ["pl-verify", "--builtin", "bddelta3", "--trials", "20",
         "--poly-cap", "3", "--seed", "1"],
    ]
    cdga_files = ["elliptic6", "h_cp2", "h_cp3", "h_s2", "h_s3",
                  "h_wedge_s3s3", "model_s2", "model_s3", "model_s3xs3",
                  "nonformal"]
    commands = [c + ["--json"] if c[0] != "validate" else c for c in readme]
    for stem in cdga_files:
        for sub in ("cohomology", "minimal-model", "loop", "free-loop",
                    "path-space", "classify", "invariants"):
            commands.append([sub, f"data/{stem}.cdga", "--json"])
    for scx in ("bddelta3", "s2_one_cell"):
        commands.append(["pl-verify", f"data/{scx}.scx", "--json"])
    return commands


def run_cli(sullivan, argv):
    """Run `sullivan.cli.main(argv)` in process: (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = sullivan.cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


class CliCorpus(Workload):
    name = "cli-corpus"
    min_ops = 100  # so that ten latency samples lie beyond p90
    ops_are_requests = True  # latency per command
    # A command's first run in the process is up to 1.8x slower than its
    # later runs, and the shuffled order decides which commands run cold;
    # one untimed pass makes every timed command warm.
    warmup_jobs = 1

    def setup(self, sullivan):
        golden = json.loads(GOLDEN_CLI.read_text(encoding="utf-8"))
        self.expected = {tuple(r["argv"]): (r["exit"], r["stdout"])
                         for r in golden}
        commands = cli_corpus_commands()
        missing = [c for c in commands if tuple(c) not in self.expected]
        if missing:
            raise RuntimeError(f"no recorded output for {missing[0]}")
        for argv in commands:
            for arg in argv:
                if arg.startswith("data/") and not Path(arg).is_file():
                    raise FileNotFoundError(arg)
        if self.seed:
            random.Random(self.seed).shuffle(commands)
        self.commands = commands

    def operations(self):
        ops = []
        for argv in self.commands:
            def run(sullivan, argv=argv):
                return run_cli(sullivan, argv)

            def check(sullivan, got, argv=argv):
                code, out = self.expected[tuple(argv)]
                if got[0] != code:
                    return f"exit {got[0]} != recorded {code}"
                if got[1] != out:
                    return "stdout differs from the recorded bytes"
                return None
            ops.append((" ".join(argv), run, check))
        return ops


WORKLOADS = {w.name: w for w in (ModelSynthesis, FreeLoop, PlStokes,
                                 CliCorpus)}
