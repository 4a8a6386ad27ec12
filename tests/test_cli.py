import json
import os

import pytest

from slcong import enumeration, structure
from slcong.cli import main
from slcong.core import extend_below, named


def write_table(tmp_path, name, table=None):
    obj = table if table is not None else named(name).to_obj()
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(obj))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# --- validate -----------------------------------------------------------------


def test_validate_ok(tmp_path, capsys):
    path = write_table(tmp_path, "b4")
    code, out, _ = run(capsys, "validate", path)
    assert code == 0 and "n=4" in out


def test_validate_inline_json(capsys):
    code, out, _ = run(capsys, "validate", '{"n": 2, "meet": [[0, 0], [0, 1]]}')
    assert code == 0


def test_validate_catalog_name(capsys):
    code, _, _ = run(capsys, "validate", "grid2x3")
    assert code == 0


def test_validate_bad_table(capsys):
    code, _, err = run(capsys, "validate", '{"meet": [[0, 0], [0, 0]]}')
    assert code == 2 and "meet(1,1)" in err


def test_validate_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, _ = run(capsys, "validate", str(path))
    assert code == 3


def test_validate_missing_file(capsys):
    code, _, _ = run(capsys, "validate", "/nonexistent/table.json")
    assert code == 3


def test_usage_error_exits_three(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "b4", "--method", "bogus"])
    assert exc.value.code == 3


# --- count ----------------------------------------------------------------------


def test_count_all_m3(capsys):
    code, out, _ = run(capsys, "count", "m3", "--method=all")
    assert code == 0
    assert out.count("12") == 3
    assert "agreement: yes" in out


def test_count_default_chain6(capsys):
    code, out, _ = run(capsys, "count", "chain_6")
    assert code == 0 and "32" in out


def test_count_thirteen_element_fixture(tmp_path, capsys):
    obj = extend_below(named("n6"), 7).to_obj()
    path = tmp_path / "big_n6.json"
    path.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "count", str(path), "--method=subsets", "--format=json")
    assert code == 0
    assert json.loads(out)["counts"]["subsets"] == 3200


def test_count_default_route_beyond_subset_bound(capsys):
    code, out, _ = run(capsys, "count", "chain_30", "--format=json")
    assert code == 0
    assert json.loads(out)["counts"] == {"incl-excl": 1 << 29}
    code, out, _ = run(capsys, "count", "chain_30")
    assert code == 0 and out == f"incl-excl: {1 << 29} = 32*2^(30-6)\n"


def test_count_json_all(capsys):
    code, out, _ = run(capsys, "count", "b4", "--method=all", "--format=json")
    assert code == 0
    payload = json.loads(out)
    assert payload["counts"] == {"congruences": 7, "subsets": 7, "incl-excl": 7}
    assert payload["agree"] is True


# --- classify -------------------------------------------------------------------


def test_classify_n5_json(capsys):
    code, out, _ = run(capsys, "classify", "n5", "--format=json")
    assert code == 0
    payload = json.loads(out)
    assert payload["class"] == "NucleusN5" and payload["congruence_count"] == 13


def test_classify_internal_inconsistency_exits_one(monkeypatch, capsys):
    monkeypatch.setattr(structure, "congruence_count", lambda S: 12)
    code, out, err = run(capsys, "classify", "n5")
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "predicts 13 congruences, counted 12" in err


def test_classify_chain9(capsys):
    code, out, _ = run(capsys, "classify", "chain_9")
    assert code == 0 and "Tree" in out and "256" in out


def test_classify_twelve_element(tmp_path, capsys):
    path = write_table(tmp_path, "fig2", extend_below(named("n5"), 7).to_obj())
    code, out, _ = run(capsys, "classify", path, "--format=json")
    payload = json.loads(out)
    assert payload["class"] == "NucleusN5" and payload["congruence_count"] == 1664


# --- spectrum / enumerate ---------------------------------------------------------


def test_spectrum_five(capsys):
    code, out, _ = run(capsys, "spectrum", "5", "--format=json")
    assert code == 0
    assert json.loads(out)["values"] == [12, 13, 14, 16]


def test_spectrum_top(capsys):
    code, out, _ = run(capsys, "spectrum", "6", "--top", "4", "--format=json")
    payload = json.loads(out)
    assert payload["top"][0] == {"value": 32, "classes": ["Tree"]}
    assert payload["top"][3] == {"value": 25, "classes": ["NucleusF", "NucleusN6"]}


@pytest.mark.parametrize("top", ["-1", "0"])
def test_spectrum_top_below_one_exits_two(capsys, top):
    code, out, err = run(capsys, "spectrum", "5", "--top", top)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "at least 1" in err


def test_spectrum_top_checked_before_spectrum(capsys, monkeypatch):
    def no_spectrum(*args, **kwargs):
        raise AssertionError("spectrum computed before --top was checked")

    monkeypatch.setattr(enumeration, "spectrum", no_spectrum)
    code, out, err = run(capsys, "spectrum", "9", "--top", "0")
    assert code == 2 and out == ""
    assert err == "error: top count must be at least 1, got 0\n"


def test_spectrum_byte_stable(capsys):
    _, first, _ = run(capsys, "spectrum", "5", "--witnesses", "--format=json")
    _, second, _ = run(capsys, "spectrum", "5", "--witnesses", "--format=json")
    assert first == second


def test_enumerate_stdout(capsys):
    code, out, _ = run(capsys, "enumerate", "4")
    lines = [line for line in out.splitlines() if line]
    assert code == 0 and len(lines) == 5
    for line in lines:
        json.loads(line)


def test_enumerate_out_dir(tmp_path, capsys):
    out_dir = tmp_path / "dump"
    code, _, _ = run(capsys, "enumerate", "4", "--out", str(out_dir))
    assert code == 0
    files = sorted(os.listdir(out_dir))
    assert len(files) == 5
    for name in files:
        json.loads((out_dir / name).read_text())


def test_enumerate_filters(capsys):
    code, out, _ = run(capsys, "enumerate", "4", "--filter", "tree")
    assert code == 0 and len(out.splitlines()) == 4
    code, out, _ = run(capsys, "enumerate", "5", "--filter", "class:NucleusB4")
    assert code == 0 and len(out.splitlines()) == 4
    code, out, _ = run(capsys, "enumerate", "4", "--filter", "lattice")
    assert code == 0 and len(out.splitlines()) == 2
    code, out, _ = run(capsys, "enumerate", "4", "--filter", "quasi-tree")
    assert code == 0 and len(out.splitlines()) == 1


def test_enumerate_bad_filter(capsys):
    code, _, _ = run(capsys, "enumerate", "4", "--filter", "bogus")
    assert code == 3


def test_enumerate_too_large(capsys):
    code, _, err = run(capsys, "enumerate", "10")
    assert code == 2


# --- verify --------------------------------------------------------------------------


def test_verify_small(capsys):
    code, out, _ = run(capsys, "verify", "5")
    assert code == 0
    assert "FAIL" not in out
    assert "small-spectra" in out


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "4", "--format=json")
    payload = json.loads(out)
    assert code == 0 and payload["passed"] is True


@pytest.mark.parametrize("n_max", ["0", "1"])
def test_verify_below_two_exits_two(capsys, n_max):
    code, out, err = run(capsys, "verify", n_max)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "at least 2" in err


def test_verify_seven_all_claims_pass(capsys):
    code, out, _ = run(capsys, "verify", "7")
    assert code == 0
    assert out.count("PASS") == 9 and "FAIL" not in out


# --- export-dot ------------------------------------------------------------------------


def test_export_dot_chain(capsys):
    code, out, _ = run(capsys, "export-dot", "chain_3")
    assert code == 0
    assert out.count("->") == 2


def test_export_dot_b4(capsys):
    code, out, _ = run(capsys, "export-dot", "b4")
    assert out.count("->") == 4


def test_export_dot_nucleus(capsys):
    code, out, _ = run(capsys, "export-dot", "n5", "--mark-nucleus")
    assert code == 0
    assert out.count("fillcolor=black") == 5


def test_export_dot_nucleus_needs_quasi_tree(capsys):
    code, _, _ = run(capsys, "export-dot", "chain_4", "--mark-nucleus")
    assert code == 2
