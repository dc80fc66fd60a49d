"""The text formats: `.cdga` files and polynomials.

Random line soup and edited copies of the shipped `.cdga` files may only
raise domain errors, in the parser and in the cohomology of whatever
parses.  Printing and parsing are inverse: for elements, and for whole
presentations, shipped, from the catalog, or synthesized.
"""

import pathlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sullivan.catalog import (
    cp_cohomology,
    elliptic_six,
    nonformal_model,
    product_model,
    sphere_model,
    wedge_cohomology,
)
from sullivan.cdga import (
    CdgaError,
    CdgaFileError,
    format_cdga,
    load_cdga,
    parse_cdga_file,
)
from sullivan.cli import DOMAIN_ERRORS
from sullivan.graded import FreeAlgebra, format_element, parse_poly
from sullivan.models import free_loop_model, minimal_model, path_space_model

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"
CDGA_FILES = sorted(DATA.glob("*.cdga"))


# ----- fuzzing the .cdga format -----

CDGA_SEEDS = [p.read_text(encoding="utf-8").splitlines()
              for p in CDGA_FILES] + [["cdga empty"], []]
NAMES = st.sampled_from(["x", "y", "u", "v", "w", "z", "x_bar", "q",
                         "2x", "x+y", "x'", "\u00e9"])
NUMBERS = st.one_of(st.integers(-1, 7).map(str),
                    st.sampled_from(["x", "2.5", "", "1/2", "-0"]))
POLYS = st.lists(st.one_of(NAMES, NUMBERS,
                           st.sampled_from(["*", "+", "-", "^", "/", "(",
                                            ")", " ", "#", "!"])),
                 max_size=8).map("".join)
CDGA_LINES = st.one_of(
    st.builds("cdga {}".format, NAMES),
    st.builds("gen {} {}".format, NAMES, NUMBERS),
    st.builds("diff {} = {}".format, NAMES, POLYS),
    st.builds("rel {} : {}".format, NUMBERS, POLYS),
    st.sampled_from(["cdga", "gen x", "gen x 2 3", "diff x", "diff = x",
                     "rel 4", "rel : x", "scomplex s", "# comment", ""]),
)


@st.composite
def cdga_texts(draw):
    """A shipped .cdga file, or none, with a few lines deleted, replaced or
    inserted."""
    lines = list(draw(st.sampled_from(CDGA_SEEDS)))
    for _ in range(draw(st.integers(0, 5))):
        i = draw(st.integers(0, len(lines)))
        action = draw(st.sampled_from(["delete", "replace", "insert"]))
        if lines and action == "delete":
            del lines[min(i, len(lines) - 1)]
        elif lines and action == "replace":
            lines[min(i, len(lines) - 1)] = draw(CDGA_LINES)
        else:
            lines.insert(i, draw(CDGA_LINES))
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(cdga_texts())
def test_cdga_parser_and_cohomology_raise_only_domain_errors(text):
    """A refusal of the parser names a line of the text."""
    try:
        c = parse_cdga_file(text, "fuzz.cdga")
    except CdgaError as exc:
        where = re.match(r"fuzz\.cdga:(\d+): ", str(exc))
        assert where and isinstance(exc, CdgaFileError), exc
        assert 1 <= exc.line == int(where[1]) <= len(text.splitlines())
        return
    try:
        c.cohomology(4)
    except DOMAIN_ERRORS:
        pass


# ----- round trips -----

COEFFS = st.fractions(min_value=-7, max_value=7, max_denominator=5)


@st.composite
def elements(draw):
    """An element over 1..4 generators of odd and even degrees, with
    parts in degrees 0..8 (constants included)."""
    degrees = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    alg = FreeAlgebra.build([(f"g{i}", d) for i, d in enumerate(degrees)])
    monos = [m for k in range(9) for m in alg.basis_of_degree(k)]
    picked = draw(st.lists(st.sampled_from(monos), max_size=6))
    return alg.element({m: draw(COEFFS) for m in picked})


@settings(max_examples=300, deadline=None)
@given(elements())
def test_parse_inverts_format_element(e):
    assert parse_poly(format_element(e), e.algebra) == e


PRESENTATIONS = {
    **{p.name: (lambda p=p: load_cdga(p)) for p in CDGA_FILES},
    "sphere model S^4": lambda: sphere_model(4),
    "H(CP^3)": lambda: cp_cohomology(3),
    "nonformal model": nonformal_model,
    "elliptic6": elliptic_six,
    "H(S^2 v S^2 v S^3)": lambda: wedge_cohomology(2, 2, 3),
    "minimal model of H(CP^2)":
        lambda: minimal_model(cp_cohomology(2), 8).model,
    "minimal model of H(S^2 v S^3)":
        lambda: minimal_model(wedge_cohomology(2, 3), 7).model,
    "free loops on S^2": lambda: free_loop_model(sphere_model(2)),
    "free loops on S^3 x S^2": lambda: free_loop_model(
        product_model(sphere_model(3), sphere_model(2))),
    "path space over S^2": lambda: path_space_model(sphere_model(2)).total,
}


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_cdga_file_round_trip(name):
    c = PRESENTATIONS[name]()
    text = format_cdga(c)
    back = parse_cdga_file(text)
    assert back.name == c.name
    assert back.algebra.generators == c.algebra.generators
    assert back.differential == c.differential
    assert back.relations == c.relations
    assert format_cdga(back) == text
