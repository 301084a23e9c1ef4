import json
import re

import pytest

from conesing import checks
from conesing.cli import main


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
    with pytest.raises(SystemExit) as info:
        main(["mld", "--divisor", "not a divisor"])
    assert info.value.code == 2
    with pytest.raises(SystemExit):
        main(["mld"])  # missing required flag
    code, _, err = run_cli(capsys, "tjurina")  # neither --poly nor --family-n
    assert code == 2
    assert "usage error" in err


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


@pytest.mark.parametrize("following", [["--format", "json"], ["-h"]])
def test_option_after_value_option_is_not_swallowed(capsys, following):
    with pytest.raises(SystemExit) as info:
        main(["mld", "--divisor", *following])
    assert info.value.code == 2
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


def test_enumerate_byte_stability(capsys):
    _, first, _ = run_cli(
        capsys, "enumerate", "--epsilon0", "1/2", "--isotropy", "2", "--format", "json"
    )
    _, second, _ = run_cli(
        capsys, "enumerate", "--epsilon0", "1/2", "--isotropy", "2", "--format", "json"
    )
    assert first == second


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
    results = checks.check_cone_family(max_degree=6)
    failed = [r for r in results if not r.ok]
    assert failed
    assert any(r.check_id == "cone-degree-3-mld" for r in failed)
    sample = next(r for r in failed if r.check_id == "cone-degree-3-mld")
    assert sample.expected == "2/3"
    assert sample.actual == "4/3"


def test_paper_check_negative_control_range_off_by_one(capsys, monkeypatch):
    import conesing.catalog as catalog_module

    true_range = catalog_module.a_inf_range

    def shrunk(epsilon0, n_isotropy, a0, a1):
        full = true_range(epsilon0, n_isotropy, a0, a1)
        return range(full.start, full.stop - 1)

    monkeypatch.setattr(catalog_module, "a_inf_range", shrunk)
    results = checks.check_catalogs()
    failed = [r for r in results if not r.ok]
    assert any("completeness" in r.check_id for r in failed) or any(
        "size" in r.check_id for r in failed
    )