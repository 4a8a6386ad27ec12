import ast
import io
import json
import os
import re
import subprocess
import sys

import pytest

from slcong import enumeration, structure, verify
from slcong.cli import main
from conftest import three_b4
from slcong.core import extend_below, named
from slcong.errors import DualityViolation


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


def test_validate_json(capsys):
    code, out, _ = run(capsys, "validate", "b4", "--format", "json")
    assert code == 0 and out == '{"n":4,"valid":true}\n'


def test_validate_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(named("n5").to_obj())))
    code, out, _ = run(capsys, "validate", "-")
    assert code == 0 and out == "valid meet semilattice, n=5\n"


@pytest.mark.parametrize("text", ["[[0]]", '{"n": 1}'], ids=["list", "no-meet"])
def test_validate_json_that_is_no_table_object_exits_three(capsys, monkeypatch, text):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run(capsys, "validate", "-")
    assert code == 3 and out == ""
    assert err == 'error: expected a JSON object {"n": ..., "meet": [[...], ...]}\n'


def test_validate_bad_table(capsys):
    code, _, err = run(capsys, "validate", '{"meet": [[0, 0], [0, 0]]}')
    assert code == 2 and "meet(1,1)" in err


def test_validate_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, _ = run(capsys, "validate", str(path))
    assert code == 3


def test_validate_deeply_nested_json_exits_three(capsys):
    code, out, err = run(capsys, "validate", '{"meet": ' + "[" * 50000)
    assert code == 3 and out == ""
    assert err == "error: JSON input is nested too deeply\n"


@pytest.mark.parametrize("n", ["true", "1.0"])
def test_validate_n_must_be_an_integer(capsys, n):
    code, out, err = run(capsys, "validate", f'{{"n": {n}, "meet": [[0]]}}')
    assert code == 3 and out == ""
    assert err == 'error: field "n" is not an integer\n'


def test_validate_mismatched_n_is_reported_without_its_value(capsys):
    code, out, err = run(capsys, "validate", '{"n": ' + "9" * 4000 + ', "meet": [[0]]}')
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and len(err) < 100


@pytest.mark.parametrize(
    "entry", ["[" + ", ".join(["0"] * 3000) + "]", "9" * 4000], ids=["long-list", "long-integer"]
)
def test_validate_bad_entry_names_its_position(capsys, entry):
    code, out, err = run(capsys, "validate", f'{{"meet": [[0, {entry}], [0, 1]]}}')
    assert code == 2 and out == ""
    assert err == "invalid semilattice: meet[0][1] is not an element index in 0..1\n"
    assert err.count("\n") == 1 and len(err) < 100


def test_validate_missing_file(capsys):
    code, _, _ = run(capsys, "validate", "/nonexistent/table.json")
    assert code == 3


def test_usage_error_exits_three(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "b4", "--method", "bogus"])
    assert exc.value.code == 3


def _usage_cases():
    path = os.path.join(os.path.dirname(__file__), "data", "cli_usage.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("case", _usage_cases(), ids=lambda case: " ".join(case["argv"]))
def test_help_and_usage_errors_are_pinned(monkeypatch, capsys, case):
    # main builds only the named command's parser; top-level help, a missing
    # or unknown command and every command's help must read as when it
    # built all of them (argparse wraps help at $COLUMNS)
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(case["argv"])
    out = capsys.readouterr()
    assert (exc.value.code, out.out, out.err) == (case["code"], case["out"], case["err"])


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


def test_count_chain_beyond_catalog_bound(capsys):
    code, out, err = run(capsys, "count", "chain_1001")
    assert code == 2 and out == ""
    assert err == "error: chain_k needs k <= 1000\n"


def test_count_json_all(capsys):
    code, out, _ = run(capsys, "count", "b4", "--method=all", "--format=json")
    assert code == 0
    payload = json.loads(out)
    assert payload["counts"] == {"congruences": 7, "subsets": 7, "incl-excl": 7}
    assert payload["agree"] is True


def test_count_components_route(capsys):
    table = json.dumps(extend_below(three_b4(), 4).to_obj())
    code, out, _ = run(capsys, "count", table)
    assert code == 0 and out == "components: 5488 = 343/16*2^(14-6)\n"
    code, out, _ = run(capsys, "count", table, "--format=json")
    assert code == 0 and json.loads(out)["counts"] == {"components": 5488}


def test_count_components_route_agrees_with_subsets_and_incl_excl(capsys):
    # n = 14 is beyond the congruence bound, so --method=all refuses this
    # table; the scan and the sum check it
    table = json.dumps(extend_below(three_b4(), 4).to_obj())
    for method in ("subsets", "incl-excl"):
        code, out, _ = run(capsys, "count", table, f"--method={method}")
        assert code == 0 and out == f"{method}: 5488 = 343/16*2^(14-6)\n"
    code, out, err = run(capsys, "count", table, "--method=all")
    assert code == 2 and out == "" and err == "error: n=14 exceeds bound 10\n"


def test_count_counts_three_b4_whole(capsys):
    # three_b4 itself, not extended below: its three b4 components split
    code, out, _ = run(capsys, "count", json.dumps(three_b4().to_obj()))
    assert code == 0 and out == "components: 343 = 343/16*2^(10-6)\n"


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


def test_duality_violation_exits_one(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise DualityViolation("dual of 1 is not a congruence")

    monkeypatch.setattr(enumeration, "spectrum", broken)
    code, out, err = run(capsys, "spectrum", "5")
    assert code == 1 and out == ""
    assert err == "internal inconsistency: dual of 1 is not a congruence\n"


def test_classify_chain9(capsys):
    code, out, _ = run(capsys, "classify", "chain_9")
    assert code == 0 and "Tree" in out and "256" in out


def test_classify_prints_the_skeleton_as_covers(capsys):
    code, out, _ = run(capsys, "classify", "n5")
    assert code == 0 and 'skeleton: {"covers":[[]],"n":1}\n' in out
    S = extend_below(named("b4"), 2)
    code, out, _ = run(capsys, "classify", json.dumps(S.to_obj()))
    line = next(x for x in out.splitlines() if x.startswith("skeleton: "))
    code, out, _ = run(capsys, "classify", json.dumps(S.to_obj()), "--format=json")
    skel = json.loads(out)["skeleton"]
    assert json.loads(line.removeprefix("skeleton: ")) == skel == {"n": 3, "covers": [[], [0], [1]]}


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
    # enumeration.spectrum checks --top before it walks
    def no_walk(*args, **kwargs):
        raise AssertionError("spectrum walked before --top was checked")

    monkeypatch.setattr(enumeration, "_in_shares", no_walk)
    code, out, err = run(capsys, "spectrum", "9", "--top", "0")
    assert code == 2 and out == ""
    assert err == "error: top count must be at least 1, got 0\n"


@pytest.mark.parametrize("n", ["3", "10"])
def test_spectrum_top_checked_before_the_enumeration_bound(capsys, n):
    code, out, err = run(capsys, "spectrum", n, "--top", "0")
    assert code == 2 and out == ""
    assert err == "error: top count must be at least 1, got 0\n"


def test_spectrum_top_above_the_value_count_exits_two(capsys):
    code, out, err = run(capsys, "spectrum", "3", "--top", "5")
    assert code == 2 and out == ""
    assert err == "error: NCsl(3) has 1 value, fewer than the 5 asked for\n"


@pytest.mark.parametrize("argv", [["1"], ["0"], ["1", "--top", "1"]])
def test_spectrum_below_two_checked_before_spectrum(capsys, monkeypatch, argv):
    # enumeration.spectrum checks n before it walks
    def no_walk(*args, **kwargs):
        raise AssertionError("spectrum walked before n was checked")

    monkeypatch.setattr(enumeration, "_in_shares", no_walk)
    code, out, err = run(capsys, "spectrum", *argv)
    assert code == 2 and out == ""
    assert err == f"error: n must be at least 2, got {argv[0]}\n"
    # a one-element semilattice is still enumerable
    monkeypatch.undo()
    code, out, _ = run(capsys, "enumerate", "1")
    assert code == 0 and json.loads(out) == {"meet": [[0]], "n": 1}


def test_spectrum_byte_stable(capsys):
    _, first, _ = run(capsys, "spectrum", "5", "--witnesses", "--format=json")
    _, second, _ = run(capsys, "spectrum", "5", "--witnesses", "--format=json")
    assert first == second


def test_spectrum_witnesses_human(capsys):
    # one line per witness, value by value, in the order and with the
    # tables of the JSON output
    code, out, _ = run(capsys, "spectrum", "6", "--witnesses")
    assert code == 0
    _, payload, _ = run(capsys, "spectrum", "6", "--witnesses", "--format", "json")
    witnesses = json.loads(payload)["witnesses"]
    lines = [line.split(": ", 1) for line in out.splitlines() if line.startswith("witness ")]
    assert [(head, json.loads(table)) for head, table in lines] == [
        (f"witness {value}", table)
        for value in sorted(witnesses, key=int)
        for table in witnesses[value]
    ]
    assert len(lines) == 53  # every 6-element class: no value has WITNESS_CAP of them
    assert "witness " not in run(capsys, "spectrum", "6")[1]


def test_spectrum_json_builds_witness_tables_only_when_printed(capsys, monkeypatch):
    built = []
    real = enumeration._table

    def table(key, n):
        built.append(key)
        return real(key, n)

    monkeypatch.setattr(enumeration, "_table", table)
    code, out, _ = run(capsys, "spectrum", "6", "--top", "4", "--format=json")
    assert code == 0 and "witnesses" not in json.loads(out)
    assert built == []
    code, out, _ = run(capsys, "spectrum", "6", "--top", "4", "--witnesses", "--format=json")
    witnesses = json.loads(out)["witnesses"]
    assert code == 0 and len(built) == sum(map(len, witnesses.values())) > 0


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


def test_enumerate_unknown_class_filter_exits_three(capsys):
    code, out, err = run(capsys, "enumerate", "4", "--filter", "class:Bogus")
    assert code == 3 and out == ""
    assert err.startswith("error: unknown class 'Bogus', expected one of [")
    assert "'NucleusB4'" in err and err.count("\n") == 1


def test_enumerate_filter_checked_before_enumeration(capsys, monkeypatch):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("enumerated before --filter was checked")

    monkeypatch.setattr(enumeration, "enumerate_semilattices", no_enumeration)
    code, out, err = run(capsys, "enumerate", "9", "--filter", "bogus")
    assert code == 3 and out == ""
    assert err == "error: unknown filter 'bogus'\n"


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


@pytest.mark.parametrize("n_max", ["10", "1000000"])
def test_verify_above_the_enumeration_bound_exits_two(capsys, monkeypatch, n_max):
    def no_walk(*args):
        raise AssertionError("walked before the bound was checked")

    monkeypatch.setattr(enumeration, "walk", no_walk)
    code, out, err = run(capsys, "verify", n_max)
    assert code == 2 and out == ""
    assert err == f"error: n_max={n_max} exceeds enumeration bound 9\n"


VERIFY_CLAIMS = [
    "small-spectra",
    "top-four-values",
    "quasi-tree-fixtures",
    "congruence-subalgebra-duality",
    "tree-quotient",
    "convex-block-criterion",
    "lattice-congruence-bound",
    "interval-block-counts",
    "enumeration-oracle",
]


def test_verify_seven_all_claims_pass(capsys):
    code, out, _ = run(capsys, "verify", "7")
    assert code == 0
    assert re.findall(r"^PASS (\S+) ", out, re.M) == VERIFY_CLAIMS
    # each exhaustive claim names the largest n it checked
    assert re.findall(r"\(n <= (\d+):", out) == ["7", "7", "6", "7", "6"]
    assert "n=6: 53 classes" in out and "n=7: 222 classes" in out


def test_verify_seven_json_is_pinned(capsys):
    # the whole stdout, byte for byte: every claim's detail, with its counts
    path = os.path.join(os.path.dirname(__file__), "data", "verify_7.json")
    with open(path) as f:
        expected = f.read()
    code, out, _ = run(capsys, "verify", "7", "--format", "json")
    assert code == 0 and out == expected


def test_verify_claims_read_the_same_from_shared_and_own_classes():
    # run_claims hands every exhaustive claim the classes of one walk; each
    # claim_ function alone walks for itself
    shared = {r.claim: r.detail for r in verify.run_claims(6)}
    for c, sizes in verify.SIZES.items():
        own = getattr(verify, f"claim_{c}")(min(sizes[-1], 6))
        assert shared[verify.CLAIMS[c]] == own, c


def test_verify_check_that_raises_fails_only_its_own_claim(capsys, monkeypatch):
    seen = []
    real = verify.tree_congruence

    def broken(S):
        seen.append(S)
        if len(seen) == 40:
            raise ValueError("broken on purpose")
        return real(S)

    monkeypatch.setattr(verify, "tree_congruence", broken)
    # one process, so that seen counts the checks of every share
    code, out, _ = run(capsys, "verify", "6", "--jobs", "1")
    assert code == 1
    assert re.findall(r"^(PASS|FAIL) (\S+) ", out, re.M) == [
        ("FAIL" if name == "tree-quotient" else "PASS", name) for name in VERIFY_CLAIMS
    ]
    assert "FAIL tree-quotient (ValueError: broken on purpose)" in out
    assert len(seen) == 40  # the failed check got no more of the 77 classes


def test_verify_claims_check_under_python_O():
    # python -O strips assert statements; a wrong top four must still fail
    script = (
        "from slcong import verify\n"
        "verify._top_four = lambda n: [1, 2, 3, 4]\n"
        "[r] = [r for r in verify.run_claims(6, jobs=1) if r.claim == 'top-four-values']\n"
        "print(r.passed, r.detail)\n"
    )
    src = os.path.dirname(os.path.dirname(verify.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.startswith("False AssertionError: (6, ")


def test_the_package_has_no_assert_statement():
    # python -O would skip it; checks raise through verify._require instead
    package = os.path.dirname(verify.__file__)
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
            assert not lines, (name, lines)


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
