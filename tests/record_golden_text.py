"""Record the text locks: the CLI's text output and the constructions'.

Run from the repository root at the commit whose outputs are the
reference:

    PYTHONPATH=src python3 tests/record_golden_text.py

It rewrites two files, which tests/test_golden_cli.py replays.
tests/data/golden_text.json holds the exit code and default (text)
stdout per command: `validate` on every data file, the seven model
subcommands on every data/*.cdga file, and `pl-verify` on every
data/*.scx file, all with their default options.
tests/data/golden_constructions.json holds `format_cdga` of each CDGA
that a model construction of `constructions()` returns, and for a
relative algebra its base, its total space and its fiber names.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib

from sullivan.catalog import (
    cp_model,
    elliptic_six,
    nonformal_model,
    sphere_model,
    wedge_cohomology,
)
from sullivan.cdga import (
    Cdga,
    CdgaMorphism,
    format_cdga,
    tensor_product,
)
from sullivan.cli import main as cli_main
from sullivan.models import (
    acyclic_closure,
    fiber_model,
    free_loop_model,
    path_space_model,
    pushout_model,
)

from helpers import identity_morphism, multiplication_morphism

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN_TEXT = ROOT / "tests" / "data" / "golden_text.json"
GOLDEN_CONSTRUCTIONS = ROOT / "tests" / "data" / "golden_constructions.json"
MODEL_COMMANDS = ("cohomology", "minimal-model", "loop", "free-loop",
                  "path-space", "classify", "invariants")


def text_commands():
    files = sorted(p.name for p in (ROOT / "data").iterdir())
    commands = [["validate", f"data/{f}"] for f in files]
    for f in files:
        if f.endswith(".cdga"):
            commands += [[sub, f"data/{f}"] for sub in MODEL_COMMANDS]
    commands += [["pl-verify", f"data/{f}"] for f in files
                 if f.endswith(".scx")]
    return commands


def run(argv):
    """Run `sullivan.cli.main(argv)` in process: (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(list(argv))
    return code, out.getvalue()


def constructions():
    """(label, thunk) per construction: products, wedges, and for each
    of five minimal models its acyclic closure and that closure's fiber,
    pushouts along the identity, to the unit and along the multiplication
    of the path space, the path space and the free loop space."""
    cases = [
        ("S3 (x) CP2", lambda: tensor_product(sphere_model(3), cp_model(2))[0]),
        ("elliptic6 (x) nonformal",
         lambda: tensor_product(elliptic_six(), nonformal_model())[0]),
        ("wedge S2vS3", lambda: wedge_cohomology(2, 3)),
        ("wedge S3vS3", lambda: wedge_cohomology(3, 3)),
    ]

    def to_unit(m):
        return CdgaMorphism(m, Cdga.build("Q", []), {})

    def along_mult(m):
        rel = path_space_model(m)
        return pushout_model(multiplication_morphism(m, rel.base), rel)

    for make in (lambda: sphere_model(2), lambda: sphere_model(3),
                 lambda: cp_model(2), elliptic_six, nonformal_model):
        name = make().name
        cases += [
            (f"acyclic closure of {name}", lambda m=make: acyclic_closure(m())),
            (f"fiber of the acyclic closure of {name}",
             lambda m=make: fiber_model(acyclic_closure(m()))),
            (f"pushout of the acyclic closure of {name} along the identity",
             lambda m=make: pushout_model(identity_morphism(m()),
                                          acyclic_closure(m()))),
            (f"pushout of the acyclic closure of {name} to the unit",
             lambda m=make: pushout_model(to_unit(m()), acyclic_closure(m()))),
            (f"pushout of the path space of {name} along the multiplication",
             lambda m=make: along_mult(m())),
            (f"path space of {name}", lambda m=make: path_space_model(m())),
            (f"free loop space of {name}", lambda m=make: free_loop_model(m())),
        ]
    return cases


def construction_record(result):
    """`format_cdga` of a CDGA, or of a relative algebra's base and total
    space with its fiber names."""
    if isinstance(result, Cdga):
        return {"cdga": format_cdga(result)}
    return {"base": format_cdga(result.base),
            "total": format_cdga(result.total),
            "fiber": [g.name for g in result.fiber]}


def main():
    os.chdir(ROOT)  # the recorded argv name files under data/
    records = [dict(zip(("argv", "exit", "stdout"), (argv, *run(argv))))
               for argv in text_commands()]
    GOLDEN_TEXT.write_text(json.dumps(records, indent=1) + "\n",
                           encoding="utf-8")
    built = [{"label": label, **construction_record(make())}
             for label, make in constructions()]
    GOLDEN_CONSTRUCTIONS.write_text(json.dumps(built, indent=1) + "\n",
                                    encoding="utf-8")


if __name__ == "__main__":
    main()
