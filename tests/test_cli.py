import argparse
import contextlib
import hashlib
import io
import json
import math
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conesing import catalog, checks, cli, toric_an
from conesing.cli import (
    _an_blowups,
    _an_blowups_json,
    _an_blowups_text,
    _json_text,
    _resolve_json,
    _solve,
    main,
)
from conesing.divisors import SeifertData
from conesing.resolution import build_graph
from reference import an_blowups_box_scan, elimination_discrepancies, star_graph


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mld_text(capsys):
    code, out, err = run_cli(capsys, "mld", "--divisor", "inf:3")
    assert code == 0
    assert out == "2/3\n"
    assert err == ""


def test_mld_json(capsys):
    code, out, _ = run_cli(capsys, "mld", "--divisor", "inf:3", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"mld": "2/3"}


def test_mld_domain_error_is_structured(capsys):
    code, out, err = run_cli(capsys, "mld", "--divisor", "inf:-3")
    assert code == 1
    assert out == ""
    record = json.loads(err)
    assert record["error"] == "NOT_A_CONE"
    assert "message" in record


def test_usage_errors_exit_2(capsys):
    assert main(["mld", "--divisor", "not a divisor"]) == 2
    assert main(["mld"]) == 2  # missing required flag
    code, _, err = run_cli(capsys, "tjurina")  # neither --poly nor --family-n
    assert code == 2
    assert "usage error" in err
    code, _, err = run_cli(capsys, "an-blowups", "--n", "0")  # default bound 4n is 0
    assert code == 2
    assert "n must be >= 1" in err


def test_main_returns_usage_exit_code(capsys):
    # an option's type function rejects the value inside argparse, which
    # exits; main turns that into the same return value a builder's
    # rejection gives
    assert main(["mld", "--divisor", "inf:1/0"]) == 2
    assert "argument --divisor" in capsys.readouterr().err
    assert main(["tjurina", "--poly", "x^2+1/0*y^2"]) == 2
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("argv", "expected"),
    [
        (["mld", "--divisor", "-1:1/2,inf:1"], "1\n"),
        (["tjurina", "--poly", "-x^2-y^2-z^2"], "1\n"),
        (["tjurina", "--family-n", "5", "--t", "-1/2"], "6\n"),
    ],
)
def test_leading_minus_value_matches_equals_form(capsys, argv, expected):
    *head, option, value = argv
    spaced = run_cli(capsys, *argv)
    attached = run_cli(capsys, *head, f"{option}={value}")
    assert spaced == attached == (0, expected, "")


# short ids: the inputs themselves would make 100000-character test names
@pytest.mark.parametrize("argv", [
    ["tjurina", "--poly", "x*" * 50_000 + "?"],
    ["tjurina", "--poly", "x+" * 50_000 + "1/0"],
    ["mld", "--divisor", "0:1/2," + "7" * 100_000],
    ["mld", "--divisor", "0:" + "1" * 100_000 + "/x"],
    ["enumerate", "--epsilon0", "1/" + "x" * 100_000, "--isotropy", "2"],
], ids=["poly", "poly-zero-denominator", "divisor-term", "divisor-coefficient", "epsilon0"])
def test_long_refused_input_is_a_short_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert len(err.encode()) < 1024


# Three coefficients (p - 1)/p with distinct 1500-digit p: each literal is
# short enough to read, but the answer's denominators multiply to about 4500
# digits, above the interpreter's default limit of 4300 for printing an int.
# LONG is a literal above that limit for reading one.
WIDE_DENOMINATORS = tuple(10**1499 + k for k in (7, 9, 13))
WIDE = ",".join(f"{point}:{p - 1}/{p}" for point, p in zip(("0", "1", "inf"), WIDE_DENOMINATORS))
LONG = "1" + "0" * 5000


@pytest.mark.parametrize("argv", [
    ["resolve", "--divisor", WIDE],
    ["mld", "--divisor", WIDE],
    ["mld", "--divisor", f"inf:1/{LONG}"],
    ["enumerate", "--epsilon0", f"1/{LONG}", "--isotropy", "2"],
    ["veronese", "--divisor", "inf:1" + "0" * 1500, "--m", "1" + "0" * 3000],
    ["tjurina", "--poly", f"x^2+y^2+{LONG}*z^2"],
], ids=["resolve-wide", "mld-wide", "mld-long", "epsilon0-long", "veronese-wide", "poly-long"])
def test_numbers_too_long_for_int_are_a_domain_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == "DOMAIN_ERROR"


@pytest.mark.parametrize("argv", [
    ["veronese", "--divisor", "inf:1", "--m", LONG],
    ["degenerate", "--divisor", "inf:1", "--m", LONG],
    ["enumerate", "--epsilon0", "1", "--isotropy", LONG],
    ["an-blowups", "--n", LONG],
    ["an-blowups", "--n", "1", "--bound", LONG],
    ["tjurina", "--family-n", LONG],
], ids=["veronese-m", "degenerate-m", "isotropy", "n", "bound", "family-n"])
def test_integer_options_above_the_digit_limit_are_short_domain_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "error": "DOMAIN_ERROR",
        "message": "number too long at offset 0: 5001 digits, "
                   f"above the limit of {sys.get_int_max_str_digits()}",
    }
    assert len(err.encode()) < 300


@pytest.mark.parametrize("value", ["1x", "x" * 5000], ids=["suffix", "long"])
def test_malformed_integer_option_is_a_short_usage_error(capsys, value):
    code, out, err = run_cli(capsys, "an-blowups", "--n", value)
    assert (code, out) == (2, "")
    stopped = re.match(r"\d*", value).end()
    assert err.endswith(
        f"argument --n: cannot parse {value[stopped:stopped + 20]!r} at offset {stopped}\n"
    )
    assert len(err.encode()) < 300


@pytest.mark.parametrize(("argv", "record"), [
    (["fano-angle"], {"error": "NOT_LOG_FANO", "message": "deg delta = <4498/4498 digits> >= 2"}),
    (["isotropy"], {"error": "NOT_LOG_FANO", "message": "deg delta = <4498/4498 digits> >= 2"}),
    (["veronese", "--m", "2"],
     {"error": "NOT_LOG_FANO", "message": "deg delta = <4498/4498 digits> >= 2"}),
    (["degenerate", "--m", "2"],
     {"error": "NOT_A_CONE", "message": "2 * <4498/4498 digits> is not integral"}),
], ids=["fano-angle", "isotropy", "veronese", "degenerate"])
def test_domain_error_names_a_number_too_long_to_print_by_its_digits(capsys, argv, record):
    code, out, err = run_cli(capsys, *argv, "--divisor", WIDE)
    assert (code, out) == (1, "")
    assert json.loads(err) == record


SEVENS = "7" * 1500


# Requests whose numbers are long but readable: each refusal names them by
# their digit counts, so its record stays short.
@pytest.mark.parametrize(("argv", "code", "kind"), [
    (["an-blowups", "--n", "1" + "0" * 2000], 1, "DOMAIN_ERROR"),
    (["enumerate", "--epsilon0", "2", "--isotropy", "1" + "0" * 2000], 1, "DOMAIN_ERROR"),
    (["mld", "--divisor", "inf:1/1" + "0" * 4000], 1, "DOMAIN_ERROR"),
    (["tjurina", "--poly", "x^1" + "0" * 4000 + "+y^2+z^2"], 1, "DOMAIN_ERROR"),
    (["mld", "--divisor", f"0:1/{SEVENS},1:1/{SEVENS}1,inf:-6"], 1, "NOT_A_CONE"),
    (["veronese", "--divisor", "inf:1", "--m", "-1" + "0" * 4000], 2, None),
    (["enumerate", "--epsilon0", "1/1" + "0" * 19, "--isotropy", "1"], 1, "DOMAIN_ERROR"),
], ids=["an-blowups-n", "enumerate-isotropy", "mld-nodes", "tjurina-box", "mld-degree",
        "veronese-m", "enumerate-epsilon0"])
def test_refusal_records_stay_short_however_long_the_numbers(capsys, argv, code, kind):
    result, out, err = run_cli(capsys, *argv)
    assert (result, out) == (code, "")
    if kind is None:
        assert err.startswith("usage error: ")
    else:
        assert json.loads(err)["error"] == kind
    assert len(err.encode()) < 300


def test_too_long_literal_names_its_offset_digits_and_limit(capsys):
    code, _, err = run_cli(capsys, "mld", "--divisor", f"inf:1/{LONG}")
    assert code == 1
    assert json.loads(err) == {
        "error": "DOMAIN_ERROR",
        "message": "number too long at offset 6: 5001 digits, "
                   f"above the limit of {sys.get_int_max_str_digits()}",
    }


def test_epsilon0_takes_a_leading_minus_like_t(capsys):
    spaced = run_cli(capsys, "enumerate", "--epsilon0", "-1/2", "--isotropy", "2")
    attached = run_cli(capsys, "enumerate", "--epsilon0=-1/2", "--isotropy", "2")
    message = "usage error: epsilon0 must be positive (the search window is unbounded otherwise)\n"
    assert spaced == attached == (2, "", message)


# An integer option: a small value, in range or not, or the literal LONG.
INTEGERS = st.one_of(st.integers(-1, 6), st.just(LONG))
# An epsilon0 small enough that the count of graph solves passes sys.maxsize.
TINY = "1/1" + "0" * 30


@st.composite
def requests(draw):
    """(argv, mistake) for any subcommand but paper-check, which takes no
    input: small values, the WIDE coefficients, or literals above the digit
    limit, with mistake true when some value is out of the range the
    subcommand accepts or its options conflict.  Only such a request may be
    a usage error."""
    command = draw(st.sampled_from([
        "mld", "resolve", "fano-angle", "isotropy", "veronese", "degenerate",
        "enumerate", "an-blowups", "tjurina",
    ]))
    formats = ["text", "json", "dot"] if command == "resolve" else ["text", "json"]
    argv = [command, "--format", draw(st.sampled_from(formats))]
    mistake = False

    def integer(option, low, value=None):
        nonlocal mistake
        value = draw(INTEGERS) if value is None else value
        argv.extend([option, str(value)])
        mistake = mistake or value != LONG and value < low

    if command == "enumerate":
        epsilon0 = draw(st.sampled_from(
            [Fraction(1, k) for k in range(1, 11)] + [Fraction(0), Fraction(-1, 2), Fraction(3)]
        ))
        mistake = not 0 < epsilon0 <= 2
        argv += ["--epsilon0", draw(st.sampled_from([str(epsilon0), TINY, f"1/{LONG}"]))]
        integer("--isotropy", 1)
    elif command == "an-blowups":
        integer("--n", 1)
        if draw(st.booleans()):
            integer("--bound", 1, draw(st.one_of(INTEGERS, st.integers(7, 30))))
    elif command == "tjurina":
        poly = draw(st.sampled_from([
            None, "x^2+y^2+z^2", "x^2+y^3+z^7", "x*y+z^2", "x^2+y^2+z^3+z^2*w", "x-x",
            f"x^2+y^2+{LONG}*z^2",
        ]))
        family = draw(st.one_of(st.none(), INTEGERS, st.integers(4, 8)))
        t = draw(st.sampled_from([None, "1", "2/3", "0", "-1/2", f"1/{LONG}"]))
        mistake = (poly is None) == (family is None) or poly == "x-x"
        if poly is not None:
            argv += ["--poly", poly]
            mistake = mistake or t is not None
        if family is not None:
            integer("--family-n", 4, family)
        if t is not None:
            argv += ["--t", t]
    else:
        coefficients = st.one_of(
            st.builds("{}/{}".format, st.integers(-6, 12), st.integers(1, 12)),
            st.sampled_from([f"{p - 1}/{p}" for p in WIDE_DENOMINATORS] + [LONG, f"1/{LONG}"]),
        )
        points = draw(st.lists(
            st.sampled_from(["0", "1", "inf", "-1", "2"]), min_size=1, max_size=4, unique=True
        ))
        argv += ["--divisor", ",".join(f"{point}:{draw(coefficients)}" for point in points)]
        if command == "veronese" or command == "degenerate" and draw(st.booleans()):
            integer("--m", 1)
    return argv, mistake


def _wide(*argv):
    return [*argv, "--divisor", WIDE], False


@settings(max_examples=200, deadline=None)
@given(requests())
@example(_wide("resolve", "--format", "text"))
@example(_wide("fano-angle"))
@example(_wide("isotropy"))
@example(_wide("veronese", "--m", "2"))
@example(_wide("degenerate", "--m", "2"))
@example((["an-blowups", "--n", LONG], False))
@example((["an-blowups", "--n", "1", "--bound", LONG], False))
@example((["enumerate", "--epsilon0", "1", "--isotropy", LONG], False))
@example((["enumerate", "--epsilon0", TINY, "--isotropy", "1"], False))
@example((["tjurina", "--family-n", LONG], False))
@example((["paper-check"], False))
def test_main_exits_with_a_code_and_prints_nothing_on_failure(request):
    # exit 1 and 3 write one JSON record, and exit 2 is the user's mistake:
    # a request whose values are all in range never gets it
    argv, mistake = request
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert type(code) is int and code in {0, 1, 2, 3}
    assert code == 0 or out.getvalue() == ""
    if code in (1, 3) and argv[0] != "paper-check":
        assert set(json.loads(err.getvalue())) == {"error", "message"}
    assert code != 2 or mistake


def test_refused_polynomial_names_where_reading_stopped(capsys):
    code, _, err = run_cli(capsys, "tjurina", "--poly", "x*" * 50_000 + "?")
    assert (code, err) == (2, "usage error: cannot parse '?' at offset 100000\n")


@pytest.mark.parametrize("following", [["--format", "json"], ["-h"]])
def test_option_after_value_option_is_not_swallowed(capsys, following):
    assert main(["mld", "--divisor", *following]) == 2
    assert "argument --divisor: expected one argument" in capsys.readouterr().err


def test_resolve_dot_and_json(capsys):
    code, out, _ = run_cli(
        capsys, "resolve", "--divisor", "0:1/2,1:1/3,inf:-4/5", "--format", "dot"
    )
    assert code == 0
    assert out.startswith("digraph resolution {")
    assert '[label="E_0: -2, 1"]' in out
    assert out.count("->") == 7  # E8 star has 7 edges

    code, out, _ = run_cli(
        capsys, "resolve", "--divisor", "0:1/2,1:1/3,inf:-4/5", "--format", "json"
    )
    document = json.loads(out)
    assert document["mld"] == "1"
    assert document["canonical_index"] == 1
    assert len(document["nodes"]) == 8
    assert sum(node["is_central"] for node in document["nodes"]) == 1


def test_fano_angle_record(capsys):
    code, out, _ = run_cli(
        capsys, "fano-angle", "--divisor", "inf:5", "--format", "json"
    )
    record = json.loads(out)
    assert record == {
        "degree": "5",
        "fano_angle": "5/2",
        "vertex_log_discrepancy": "2/5",
        "cartier_index": 1,
        "max_isotropy": 1,
    }


def test_isotropy_and_veronese_records(capsys):
    _, out, _ = run_cli(
        capsys, "isotropy", "--divisor", "0:1/2,inf:1/2", "--format", "json"
    )
    assert json.loads(out)["max_isotropy"] == 2

    _, out, _ = run_cli(
        capsys, "veronese", "--divisor", "0:1/2,inf:1/2", "--m", "2",
        "--format", "json",
    )
    record = json.loads(out)
    assert record["degree"] == "2"
    assert record["max_isotropy"] == 1


def test_degenerate_record(capsys):
    code, out, _ = run_cli(
        capsys, "degenerate", "--divisor", "0:1/2,inf:1/2", "--format", "json"
    )
    assert code == 0
    record = json.loads(out)
    assert record["degree"] == "2"
    assert record["max_isotropy"] == 1
    assert record["cartier_index"] == 1

    code, _, err = run_cli(
        capsys, "degenerate", "--divisor", "0:1/2,inf:1/2", "--m", "3"
    )
    assert code == 1
    assert json.loads(err)["error"] == "NOT_A_CONE"

    # a well-formed divisor with four adjunction points is out of range, not misused
    code, _, err = run_cli(capsys, "degenerate", "--divisor", "0:1/2,1:1/2,2:1/2,inf:1/2")
    assert code == 1
    assert json.loads(err)["error"] == "DOMAIN_ERROR"
    code, _, err = run_cli(capsys, "degenerate", "--divisor", "0:1/2,inf:1/2", "--m", "0")
    assert code == 2
    assert "usage error" in err


@pytest.mark.parametrize("name", list(cli._COMMANDS))
def test_every_subcommand_answers_help_with_its_formats(capsys, name):
    code, out, err = run_cli(capsys, name, "--help")
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: conesing {name} ")
    # text and json for every subcommand; resolve alone has a further view
    formats = "{text,json,dot}" if name == "resolve" else "{text,json}"
    assert f"--format {formats}" in out


def test_dot_format_is_resolve_only(capsys):
    assert run_cli(capsys, "mld", "--divisor", "inf:3", "--format", "dot")[:2] == (2, "")
    code, out, _ = run_cli(capsys, "resolve", "--divisor", "inf:3", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph resolution {")


def test_enumerate_json_catalog(capsys, tmp_path):
    out_path = tmp_path / "catalog.json"
    dot_dir = tmp_path / "graphs"
    code, out, _ = run_cli(
        capsys,
        "enumerate", "--epsilon0", "1", "--isotropy", "1",
        "--format", "json", "--json", str(out_path), "--dot", str(dot_dir),
    )
    assert code == 0
    document = json.loads(out)
    assert document["epsilon0"] == "1"
    assert document["N"] == 1
    assert len(document["entries"]) == 2
    assert document["entries"][0]["divisor"] == "inf:1"
    assert document["entries"][1]["seifert"] == {"b": 2, "branches": []}
    assert out_path.read_text() == out
    assert sorted(p.name for p in dot_dir.iterdir()) == ["entry_000.dot", "entry_001.dot"]


def test_enumerate_dot_files_are_the_resolve_dot_views(capsys, tmp_path):
    rows = catalog.enumerate_catalog(Fraction(1, 2), 3)
    code, _, _ = run_cli(capsys, "enumerate", "--epsilon0", "1/2", "--isotropy", "3",
                         "--dot", str(tmp_path))
    assert code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        f"entry_{index:03d}.dot" for index in range(len(rows))
    ]
    for index, row in enumerate(rows):
        # the divisor text is passed attached: it may begin with "-"
        code, out, _ = run_cli(capsys, "resolve", f"--divisor={row.divisor}", "--format", "dot")
        assert code == 0
        assert (tmp_path / f"entry_{index:03d}.dot").read_text() == out


def test_enumerate_json_file_is_the_json_view(capsys, tmp_path):
    # branches, ties and negative coefficients at infinity
    json_path = tmp_path / "catalog.json"
    code, out, _ = run_cli(
        capsys, "enumerate", "--epsilon0", "1/3", "--isotropy", "4",
        "--format", "json", "--json", str(json_path),
    )
    assert code == 0
    assert json_path.read_text() == out == _json_text(json.loads(out))
    assert '"divisor": "0:1/2,1:1/2,inf:-3/4"' in out


def test_enumerate_byte_stability(capsys):
    _, first, _ = run_cli(
        capsys, "enumerate", "--epsilon0", "1/2", "--isotropy", "2", "--format", "json"
    )
    _, second, _ = run_cli(
        capsys, "enumerate", "--epsilon0", "1/2", "--isotropy", "2", "--format", "json"
    )
    assert first == second


def test_enumerate_above_the_candidate_cap_is_a_domain_error(capsys, tmp_path):
    json_path = tmp_path / "catalog.json"
    code, out, err = run_cli(
        capsys, "enumerate", "--epsilon0", "1/100000", "--isotropy", "6",
        "--format", "json", "--json", str(json_path),
    )
    assert code == 1
    assert out == ""
    record = json.loads(err)
    assert record["error"] == "DOMAIN_ERROR"
    assert "1950001 graph solves" in record["message"]
    assert not json_path.exists()


@pytest.mark.parametrize("zero", ["0", "x-x"])
def test_tjurina_refuses_the_zero_polynomial(capsys, zero):
    code, out, err = run_cli(capsys, "tjurina", "--poly", zero)
    assert (code, out) == (2, "")
    assert "zero polynomial" in err


def test_enumerate_json_is_laid_out_once_for_file_and_stdout(capsys, tmp_path, monkeypatch):
    # the json view is reached both as a module global and through the
    # command table; count either way
    calls = []
    original = cli._enumerate_json

    def counting(document):
        calls.append(document)
        return original(document)

    monkeypatch.setattr(cli, "_enumerate_json", counting)
    monkeypatch.setitem(cli._COMMANDS["enumerate"][3], "json", counting)
    json_path = tmp_path / "catalog.json"
    code, out, _ = run_cli(
        capsys, "enumerate", "--epsilon0", "1/3", "--isotropy", "4",
        "--format", "json", "--json", str(json_path),
    )
    assert code == 0
    assert json_path.read_text() == out
    assert len(calls) == 1


def test_tjurina_cli(capsys):
    code, out, _ = run_cli(capsys, "tjurina", "--family-n", "5", "--t", "1")
    assert code == 0
    assert out == "6\n"
    code, out, _ = run_cli(capsys, "tjurina", "--poly", "x^2+y^2+z^4")
    assert out == "3\n"
    code, _, err = run_cli(capsys, "tjurina", "--poly", "x^2+y^2+z^3+z^2*w")
    assert code == 1
    assert json.loads(err)["error"] == "NOT_ISOLATED"


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "out.txt"
    code, out, _ = run_cli(capsys, "mld", "--divisor", "inf:4", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == "1/2\n"


def test_no_decimal_output_anywhere(capsys):
    commands = [
        ["mld", "--divisor", "inf:7"],
        ["resolve", "--divisor", "0:1/2,inf:1/2", "--format", "json"],
        ["fano-angle", "--divisor", "0:2/3,inf:2/3", "--format", "json"],
        ["enumerate", "--epsilon0", "1/2", "--isotropy", "2", "--format", "json"],
        ["an-blowups", "--n", "4", "--format", "json"],
    ]
    for argv in commands:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert not re.search(r"\d\.\d", out), argv


def test_an_blowups_rows(capsys):
    code, out, _ = run_cli(capsys, "an-blowups", "--n", "3", "--bound", "6",
                           "--format", "json")
    assert code == 0
    rows = json.loads(out)
    by_ray = {tuple(row["ray"]): row for row in rows}
    assert by_ray[(2, -1)]["a"] == 2
    assert by_ray[(2, -1)]["threshold"] == "1/2"
    assert by_ray[(1, 0)]["diff"] == ["0", "2/3"]


def test_an_blowups_above_the_lattice_point_cap_is_a_domain_error(capsys):
    code, out, err = run_cli(capsys, "an-blowups", "--n", "1", "--bound", "900")
    assert code == 1
    assert out == ""
    record = json.loads(err)
    assert record["error"] == "DOMAIN_ERROR"
    assert "1012950 lattice points" in record["message"]
    # the largest benchmark request (60, 240) and (1, 800) stay under the cap
    assert toric_an.lattice_points_visited(60, 240) == 86163
    assert toric_an.lattice_points_visited(1, 800) == 800400 <= toric_an.MAX_LATTICE_POINTS


@pytest.mark.parametrize("command", [["mld"], ["resolve", "--format", "json"]])
def test_graphs_above_the_node_cap_are_a_domain_error(capsys, command):
    # one chain of 10^12 - 1 curves of self-intersection -2
    start = time.perf_counter()
    code, out, err = run_cli(capsys, command[0], "--divisor", "inf:1/1000000000000", *command[1:])
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert out == ""
    record = json.loads(err)
    assert record["error"] == "DOMAIN_ERROR"
    assert "1000000000000 nodes" in record["message"]


def box_scan_rows(n: int, bound: int | None) -> list[dict]:
    """The an-blowups rows, with their rationals as str, from the
    box scan of tests/reference.py rather than the package's walk."""
    return [
        {
            "ray": list(ray),
            "a": a,
            "b": b,
            "diff": [str(d) for d in diff],
            "threshold": str(threshold),
        }
        for ray, a, b, diff, threshold in an_blowups_box_scan(
            n, bound if bound is not None else 4 * n
        )
    ]


an_blowups_requests = (
    st.integers(min_value=1, max_value=30),
    st.one_of(st.none(), st.integers(min_value=1, max_value=40)),
)


@settings(max_examples=60, deadline=None)
@given(*an_blowups_requests)
@example(1, 1)  # the one ray (1, 0) with a = b = 1: diff ["0", "0"], threshold "1"
def test_an_blowups_json_view_is_the_json_document(n, bound):
    records = _an_blowups(argparse.Namespace(n=n, bound=bound))
    # compared line by line: pytest's diff of two long strings takes minutes
    expected = _json_text(box_scan_rows(n, bound))
    assert _an_blowups_json(records).split("\n") == expected.split("\n")


@settings(max_examples=60, deadline=None)
@given(*an_blowups_requests)
@example(1, 1)
def test_an_blowups_text_view_lists_the_box_scan(n, bound):
    rows = box_scan_rows(n, bound)
    records = _an_blowups(argparse.Namespace(n=n, bound=bound))
    assert _an_blowups_text(records).split("\n") == [
        f"ray=({row['ray'][0]},{row['ray'][1]})  a={row['a']}  b={row['b']}"
        f"  diff=({row['diff'][0]},{row['diff'][1]})  threshold={row['threshold']}"
        for row in rows
    ] + [f"{len(rows)} rays", ""]


class ByteCounter(io.TextIOBase):
    """A stdout that keeps only the number of characters written to it."""

    size = 0

    def write(self, text: str) -> int:
        self.size += len(text)
        return len(text)


def test_an_blowups_memory_is_bounded_by_the_output(monkeypatch):
    sink = ByteCounter()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = main(["an-blowups", "--n", "60", "--format", "json"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert sink.size == 8_444_162  # ASCII, so characters are bytes
    assert peak <= 4 * sink.size


def test_resolve_memory_is_bounded_by_the_output(monkeypatch):
    # one chain of 19999 curves: the graph, its report and the rows, with
    # no second copy of the graph as per-node dicts
    sink = ByteCounter()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = main(["resolve", "--divisor", "inf:1/20000", "--format", "json"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert sink.size == 2_386_747
    assert peak <= 4 * sink.size


@pytest.mark.parametrize("option", ["--out", "--json", "--dot"])
def test_unwritable_output_path_is_an_io_error(capsys, tmp_path, option):
    blocker = tmp_path / "file"
    blocker.write_text("")
    # a missing directory for a file; for --dot, a path that is a file
    target = blocker if option == "--dot" else tmp_path / "missing" / "x"
    code, out, err = run_cli(capsys, "enumerate", "--epsilon0", "1/2", "--isotropy", "2",
                             option, str(target))
    assert (code, out) == (1, "")
    record = json.loads(err)
    assert record["error"] == "IO_ERROR"
    assert str(target) in record["message"]


@st.composite
def seifert_forms(draw):
    branches = []
    for _ in range(draw(st.integers(0, 4))):
        alpha = draw(st.integers(2, 30))
        beta = draw(st.sampled_from([b for b in range(1, alpha) if math.gcd(alpha, b) == 1]))
        branches.append((alpha, beta))
    return SeifertData(draw(st.integers(1, 4)), tuple(branches))


@settings(max_examples=150, deadline=None)
@given(seifert_forms())
@example(SeifertData(1))  # a single node: "edges": []
def test_resolve_json_view_is_the_json_document(seifert):
    assume(seifert.degree() > 0)
    nodes, edges = star_graph(seifert)
    report = elimination_discrepancies(build_graph(seifert))
    expected = {
        "nodes": [
            {"self_intersection": e, "is_central": i == 0} for i, e in enumerate(nodes)
        ],
        "edges": [list(edge) for edge in sorted(edges)],
        "log_discrepancies": [str(a) for a in report.log_discrepancies],
        "mld": str(report.mld),
        "canonical_index": report.canonical_index,
    }
    assert _resolve_json(_solve(seifert)) == _json_text(expected)


@pytest.mark.parametrize("module", ["conesing", "conesing.cli"])
@pytest.mark.parametrize("divisor", ["inf:3", "inf:-3"])
def test_python_dash_m_runs_main(capsys, module, divisor):
    src = Path(__file__).resolve().parents[1] / "src"
    completed = subprocess.run(
        [sys.executable, "-m", module, "mld", "--divisor", divisor],
        capture_output=True, text=True, cwd=src, timeout=60,
    )
    code, out, err = run_cli(capsys, "mld", "--divisor", divisor)
    assert (completed.returncode, completed.stdout, completed.stderr) == (code, out, err)


def test_runtime_imports_only_the_standard_library():
    # -I -S: no site, .pth files or PYTHONPATH, so only src is added to the path
    src = Path(__file__).resolve().parents[1] / "src"
    script = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import conesing.cli, conesing.checks; "
        "print(*sorted({name.partition('.')[0] for name in sys.modules}))"
    )
    completed = subprocess.run(
        [sys.executable, "-I", "-S", "-c", script],
        capture_output=True, text=True, timeout=60, check=True,
    )
    allowed = {*sys.stdlib_module_names, *sys.builtin_module_names, "conesing", "__main__"}
    loaded = set(completed.stdout.split())
    assert "conesing" in loaded and loaded - allowed == set()


def test_paper_check_text_reports_and_exit(capsys):
    code, out, _ = run_cli(capsys, "paper-check")
    lines = out.strip().splitlines()
    assert all(line.split()[0] in {"PASS", "FAIL"} for line in lines[:-1])
    assert code == (1 if any(line.startswith("FAIL") for line in lines) else 0)
    assert lines[-1].endswith("checks passed")


def test_paper_check_passes_fresh_build(capsys):
    code, out, _ = run_cli(capsys, "paper-check", "--format", "json")
    assert code == 0
    document = json.loads(out)
    assert document["ok"] is True
    assert all(check["ok"] for check in document["checks"])
    assert len(document["checks"]) > 200


def test_paper_check_negative_control_sign_flip(capsys, monkeypatch):
    import conesing.resolution as resolution_module

    true_solver = resolution_module.discrepancies

    def flipped(graph):
        report = true_solver(graph)
        mirrored = tuple(2 - a for a in report.log_discrepancies)
        return resolution_module.DiscrepancyReport(
            log_discrepancies=mirrored,
            mld=min(mirrored),
            is_klt=all(a > 0 for a in mirrored),
            canonical_index=report.canonical_index,
        )

    monkeypatch.setattr(resolution_module, "discrepancies", flipped)
    results = checks.check_cone_family()
    failed = [r for r in results if not r["ok"]]
    assert failed
    assert any(r["id"] == "cone-degree-3-mld" for r in failed)
    sample = next(r for r in failed if r["id"] == "cone-degree-3-mld")
    assert sample["expected"] == "2/3"
    assert sample["actual"] == "4/3"


def test_paper_check_negative_control_range_off_by_one(capsys, monkeypatch):
    import conesing.catalog as catalog_module

    true_parts = catalog_module.integer_parts

    def shrunk(*shape):
        full = true_parts(*shape)
        return range(full.start, full.stop - 1)

    monkeypatch.setattr(catalog_module, "integer_parts", shrunk)
    results = checks.check_catalogs()
    failed = [r for r in results if not r["ok"]]
    assert any("completeness" in r["id"] for r in failed) or any(
        "size" in r["id"] for r in failed
    )

# Exit code and sha256 of stdout for every subcommand in every format it
# accepts, every README example, and usage and domain errors.  No argument
# contains a space, so str.split() turns each line into its argv.
EMPTY = hashlib.sha256(b"").hexdigest()
E8 = "0:1/2,1:1/3,inf:-4/5"
NOT_LC = "0:1/7,1:1/7,2:1/7,3:1/7,inf:1/7"
PINNED_OUTPUT = [
    ("mld --divisor inf:3", 0,
     "63074f735ae43544e4969a0608118c895195395192afae62695b5ab9ec8fa90f"),
    ("mld --divisor inf:3 --format json", 0,
     "fc12f9d2cf528f55497aeff98f9b70f2d524d337d5ba3d200f3e9e4848928f86"),
    (f"mld --divisor {NOT_LC}", 0,
     "e0e193494bdf24849feea35de76690ede80f8cb209a3ad182a8701f18b73dca8"),
    (f"mld --divisor {NOT_LC} --format json", 0,
     "5ca6749c36234c5681d530ed085f5b2fb4e29cd3ab1bb0f30af10c0c205d95be"),
    ("mld --divisor -1:1/2,inf:1", 0,
     "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865"),
    ("mld --divisor inf:-3", 1, EMPTY),
    ("mld --divisor inf:1/0", 2, EMPTY),
    (f"resolve --divisor {E8}", 0,
     "323abef660239c3626781d697b52978eb358f8ed3ad2d0ec958edfe246eb8bf5"),
    (f"resolve --divisor {E8} --format json", 0,
     "b6639568e5406f9d86e6e1990568042b09d64dbb1b944a930eb4948345d636bd"),
    (f"resolve --divisor {E8} --format dot", 0,
     "48dae46fb004cbd16b1ecbf2781a448dfc58678459af42e5cd96f5bbd384772e"),
    (f"resolve --divisor {NOT_LC}", 0,
     "4f53d3b792141034410b48c3606a7d9a4853035c5e8bf6f171532cebad3e403e"),
    (f"resolve --divisor {NOT_LC} --format json", 0,
     "3451cbac4a7e2b41cb4f06c2cac3b248cf61428e78535ce7c3d90efe6de777f8"),
    (f"resolve --divisor {NOT_LC} --format dot", 0,
     "50637435959f9dae3d954c149a43d80da7d7a3e2c1000b1b21027921f4f5f474"),
    ("resolve --divisor inf:3 --format dot", 0,
     "86c584377a677cacc33ffd67d5a2fa0afb60a635907a7d7ed62ae9bacd02461e"),
    ("resolve --divisor 0:1/2,1:1/2,inf:-1 --format json", 1, EMPTY),
    ("resolve --divisor 0:1/0", 2, EMPTY),
    ("fano-angle --divisor 0:1/2,inf:1/2 --format json", 0,
     "1cf8485c1b0775e8d3664c15b65b15ae67f0cea5a3215d7edde46c9ce148b931"),
    ("fano-angle --divisor 0:1/2,inf:1/2", 0,
     "b269715e4be452a4327db1bb71bf3a491f426e478dee4676b1c5db6704dad2d8"),
    (f"fano-angle --divisor {E8}", 0,
     "a159ac698a3cb4c64499b274d7dbe1d9cb62ab4e52039700e36e84901d216264"),
    (f"fano-angle --divisor {NOT_LC}", 1, EMPTY),
    ("isotropy --divisor 0:1/2,1:2/3", 0,
     "520bd9a59e3e407d61d07dff90533e222c62e70ea3bab6aad8d0cc24c1a5bbe8"),
    ("isotropy --divisor 0:1/2,1:2/3 --format json", 0,
     "49e1d25887be19216bbd8df5d2908f51cb8f029edf20f828401c958717c16f3c"),
    ("veronese --divisor 0:1/2,inf:1/2 --m 2", 0,
     "26fed9ca40272a946e608e4ad7712ee149425116ddaf4d06d06e2c1dcd2dc4f5"),
    ("veronese --divisor 0:1/2,inf:1/2 --m 2 --format json", 0,
     "a1e212ba6847244b0d54ec02e270f65414bc8e81747e188e2c30322f53049439"),
    ("veronese --divisor 0:1/2,inf:1/2 --m 0", 2, EMPTY),
    ("degenerate --divisor 0:1/2,inf:1/2", 0,
     "26fed9ca40272a946e608e4ad7712ee149425116ddaf4d06d06e2c1dcd2dc4f5"),
    ("degenerate --divisor 0:1/2,inf:1/2 --format json", 0,
     "a1e212ba6847244b0d54ec02e270f65414bc8e81747e188e2c30322f53049439"),
    ("degenerate --divisor 0:3/7,1:5/11,inf:1/13 --format json", 0,
     "e890c3a88c7fa6af43e11a029c83ce4bc6215b7fd608d96ac06a7ab3b0af2dab"),
    ("degenerate --divisor 0:1/2,inf:1/2 --m 3", 1, EMPTY),
    ("degenerate --divisor 0:1/2,1:1/2,2:1/2,inf:1/2", 1, EMPTY),
    ("enumerate --epsilon0 1/2 --isotropy 2", 0,
     "c8328dbe4bb02d06193fb1f364e74357a266e27ebc7b8d0b604e1721cbe69de6"),
    ("enumerate --epsilon0 1/2 --isotropy 2 --format json", 0,
     "ba246f5eeef97fea1b71144d1eb10710b3c77511ac2a104130baff86778b77f3"),
    ("enumerate --epsilon0 1/3 --isotropy 3", 0,
     "b0e156156b66a828c53c399d4befe2b9b5c4989b8f6c889f46f41be207d6618d"),
    ("enumerate --epsilon0 1 --isotropy 1 --format json", 0,
     "e1ea68c44d263d89da88710d3ae7b5cc8d19c1425f3cc3540aa9fd9b31a42b08"),
    ("enumerate --epsilon0 0 --isotropy 2", 2, EMPTY),
    ("enumerate --epsilon0 1/0 --isotropy 2", 2, EMPTY),
    ("an-blowups --n 3 --bound 12 --format json", 0,
     "8be899aecdeec8d48b874a68c707ed83a64aa2f6198a5353cf096d075cf2be1c"),
    ("an-blowups --n 3 --bound 12", 0,
     "4509e234eda0ef13b80099ce229602ee4f2236dbe74b6910722ec3b71b732b9b"),
    ("an-blowups --n 5", 0,
     "c4becfefc6bec242d528f12eff07f02a6b89a27afdeea0f2e6cc234de70cb2d8"),
    ("an-blowups --n 5 --format json", 0,
     "eb7cdd89f694c2a58b3f392567882c8921db2f639ee7ef01d83eaeeab7115de8"),
    ("an-blowups --n 60 --format json", 0,
     "7a1bea99d92655fc8ec78b6a231a8ed58ea5db6122faad653307282640c94c4f"),
    ("an-blowups --n 1 --bound 1 --format json", 0,
     "a24aba1e39a03191e982492e6bf9baabcb344561e1f626b7cbe53dcefde89488"),
    ("an-blowups --n 0", 2, EMPTY),
    ("tjurina --poly x^2+y^2+z^3+z^2*w+w^4", 0,
     "f0b5c2c2211c8d67ed15e75e656c7862d086e9245420892a7de62cd9ec582a06"),
    ("tjurina --poly x^2+y^2+z^3+z^2*w+w^4 --format json", 0,
     "018e8fc9270610bd51262bbbe7265e47d7095be6c705eaaaf2ca42175f2723ef"),
    ("tjurina --family-n 5 --t 1", 0,
     "06e9d52c1720fca412803e3b07c4b228ff113e303f4c7ab94665319d832bbfb7"),
    ("tjurina --family-n 5 --t 1 --format json", 0,
     "f19eb0e1204a40fae9eefaa3e473440c66cbf528581a0cc6d499543a6e213556"),
    ("tjurina --poly -x^2-y^2-z^2", 0,
     "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865"),
    ("tjurina --poly x^2+y^2+z^3+z^2*w --format json", 1, EMPTY),
    ("tjurina --family-n 3", 2, EMPTY),
    ("tjurina", 2, EMPTY),
    ("tjurina --poly x^2+1/0*y^2", 2, EMPTY),
    ("tjurina --poly 2x^2+y^2+z^2", 2, EMPTY),
    ("tjurina --poly x^2+y^2+z^2 --t 5", 2, EMPTY),
    ("tjurina --poly x^1000+y^1000+z^1000+w^1000", 1, EMPTY),
    ("paper-check", 0,
     "477464e8d7664d85d3bbd4648159d76ed0bda546cfc7891193736530163a0388"),
    ("paper-check --format json", 0,
     "3f52f3dd747eb2a9151bd2b0a37f8e546153d9adbca031e9e42a9fa9d1e9b993"),
]

# The files written by the README's enumerate example with --out added.
PINNED_FILES = {
    "catalog.json": "ba246f5eeef97fea1b71144d1eb10710b3c77511ac2a104130baff86778b77f3",
    "graphs/entry_000.dot": "cc850c408f21bda1e8b769d694c2d7cc2a8be40d95be131de3f0cfe285e8c3ee",
    "graphs/entry_001.dot": "e8b98115baea86555db8078dfcfacb14a5ce31f3594e6acda86db718fc697b6a",
    "graphs/entry_002.dot": "708718a3ecff646986604d36a45aedac03caf1061cfe43ffe14d611a872e2af5",
    "graphs/entry_003.dot": "bf9689ed40f51ba9f502f3b4824b8dd39b08f5679189ec9cb5416be343eb024e",
    "graphs/entry_004.dot": "19ad2217b8610667d82809a3ab42cb3870c25ae73b3cf9e3817347d276193423",
    "graphs/entry_005.dot": "1dac60f5acee80f6fc0c30a292d757b8676ba160e89898c1d6e13499628280b1",
    "graphs/entry_006.dot": "0368fb9003279562ac6936b6d0b38247910d0732f5ed16f5454100b9514251bf",
    "graphs/entry_007.dot": "198f319d4d49c008ddad02ff92e5affdd8044d96e6feeddf6bfcac4a04373b4c",
    "graphs/entry_008.dot": "86c584377a677cacc33ffd67d5a2fa0afb60a635907a7d7ed62ae9bacd02461e",
    "graphs/entry_009.dot": "4b17b927b651b3922eabe019e499b0f6b249e34d5b5aaa8f1715217292412aa9",
    "out.txt": "c8328dbe4bb02d06193fb1f364e74357a266e27ebc7b8d0b604e1721cbe69de6",
}


def test_cli_output_bytes_are_pinned(capsys, tmp_path):
    changed = []
    for line, code, digest in PINNED_OUTPUT:
        actual_code, out, _ = run_cli(capsys, *line.split())
        actual = hashlib.sha256(out.encode()).hexdigest()
        if (actual_code, actual) != (code, digest):
            changed.append((line, actual_code, actual))
    assert changed == []

    code, out, _ = run_cli(
        capsys, "enumerate", "--epsilon0", "1/2", "--isotropy", "2",
        "--json", str(tmp_path / "catalog.json"), "--dot", str(tmp_path / "graphs"),
        "--out", str(tmp_path / "out.txt"),
    )
    assert (code, out) == (0, "")
    written = {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.rglob("*")) if path.is_file()
    }
    assert written == PINNED_FILES


# One sha256 per workload of benchmarks/workloads.py over (argv, exit code,
# stdout, stderr) of every request in its first 4 cycles at seed 11.
CORPUS_DIGESTS = {
    "algebra": "16fbd1c984897eaa15f33152e85c64a337e87e311e9f1494213ca55dd0188303",
    "catalog": "91db5332862aba8774f5c1809f7663baa077d10c2637411716d39b9bd295db47",
    "graph": "f3b6b4922c73b94d0b8106de3ae246c52474cfa595df1227d1c9fb0ec56f84e0",
}


@pytest.mark.parametrize("workload", sorted(CORPUS_DIGESTS))
def test_request_corpus_bytes_are_pinned(capsys, monkeypatch, workload):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmarks"))
    import workloads

    digest = hashlib.sha256()
    for cycle in range(4):
        for request in workloads.WORKLOADS[workload](11, cycle):
            code, out, err = run_cli(capsys, *request.argv)
            digest.update(json.dumps([request.argv, code, out, err]).encode())
    assert digest.hexdigest() == CORPUS_DIGESTS[workload]


@pytest.mark.parametrize("command", [["fano-angle"], ["isotropy"], ["veronese", "--m", "2"]])
def test_cone_commands_refuse_a_cone_that_is_not_klt(capsys, command):
    # deg delta = 5 * 6/7 >= 2
    code, out, err = run_cli(capsys, command[0], "--divisor", NOT_LC, *command[1:])
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == "NOT_LOG_FANO"


def test_paper_check_failure_exits_1(capsys, monkeypatch):
    failing = [{"id": "cone-degree-3-mld", "ok": False, "expected": "2/3", "actual": "4/3"}]
    monkeypatch.setattr(checks, "run_paper_checks", lambda: failing)

    code, out, _ = run_cli(capsys, "paper-check")
    assert code == 1
    assert out.splitlines() == [
        "FAIL cone-degree-3-mld expected=2/3 actual=4/3",
        "0/1 checks passed",
    ]

    code, out, _ = run_cli(capsys, "paper-check", "--format", "json")
    assert code == 1
    assert json.loads(out)["ok"] is False


def test_internal_self_check_is_structured(capsys, monkeypatch):
    import conesing.resolution as resolution_module

    def broken(graph):
        raise RuntimeError("exact solve verification failed")

    monkeypatch.setattr(resolution_module, "discrepancies", broken)
    code, out, err = run_cli(capsys, "mld", "--divisor", "inf:3")
    assert code == 3
    assert out == ""
    assert json.loads(err) == {
        "error": "INTERNAL",
        "message": "exact solve verification failed",
    }
