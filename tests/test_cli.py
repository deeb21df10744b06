import gc
import json
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pathlib import Path

from onerel.cli import dispatch, main, render
from onerel.oracles import MAX_QUOTIENT_ORDER

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def trefoil_file(tmp_path):
    path = tmp_path / "trefoil.grp"
    path.write_text("gens: a, b\nrels: a^2*b^-3\n")
    return str(path)


@pytest.fixture
def bs_file(tmp_path):
    path = tmp_path / "bs.grp"
    path.write_text("gens: a, t\nrels: t*a*t^-1*a^-2\n")
    return str(path)


@pytest.fixture
def theta_file(tmp_path):
    path = tmp_path / "theta.graph"
    path.write_text("u v e1\nu v e2\nu v e3\n")
    return str(path)


class TestDispatch:
    def test_fox(self, trefoil_file):
        status, report, text = dispatch(
            ["fox", "--file", trefoil_file, "--word", "a*b*a^-1", "--gen", "a"])
        assert status == 0
        assert text == "1 - a*b*a^-1"
        assert report["results"]["derivative"] == "1 - a*b*a^-1"

    def test_seqcheck(self):
        status, report, text = dispatch(
            ["seqcheck", "--a", "2", "--b", "3", "--seq", "0,3,1,4,0"])
        assert status == 0
        assert "LargeEntry at index 3" in text
        assert report["results"]["verdict"] == "LargeEntry"

    def test_verify_example(self):
        status, report, text = dispatch(["verify-example", "--n", "2"])
        assert status == 0
        assert report["results"]["exponent"] == 16
        assert report["results"]["verdict"] is True

    def test_jacobian_to_abelian(self, trefoil_file):
        status, report, _ = dispatch(
            ["jacobian", "--file", trefoil_file, "--to-abelian", "a=3,b=2"])
        assert status == 0
        assert report["results"]["rows"] == [["1 + t^3", "-1 - t^2 - t^4"]]

    def test_trapezoid(self, trefoil_file):
        status, report, text = dispatch(
            ["trapezoid", "--file", trefoil_file, "--to-abelian", "a=3,b=2",
             "--certify", "orderedOracle"])
        assert status == 0
        assert text.startswith("rows: [0] cols: [0, 1] diag: [1]")
        assert report["results"]["all_non_engulfing"] is True

    def test_hierarchy(self, bs_file):
        status, report, text = dispatch(["hierarchy", "--file", bs_file])
        assert status == 0
        assert report["results"]["leaves"] == ["free"]
        assert "[hnn]" in text

    def test_complex(self, trefoil_file):
        status, report, _ = dispatch(["complex", "--file", trefoil_file])
        assert status == 0
        assert report["results"]["composite_zero"] is True
        assert report["results"]["homology"]["h1_free_rank"] == 1

    def test_upcheck(self):
        status, report, _ = dispatch(
            ["upcheck", "--oracle", "z", "--A", "0,1", "--B", "0,5",
             "--k", "2", "--side", "left"])
        assert status == 0
        assert report["results"]["verdict"] is True

    def test_engulf_cyclic(self):
        status, report, text = dispatch(
            ["engulf", "--cyclic", "2", "--coeffs", "1,1", "--field", "3"])
        assert status == 0
        assert report["results"]["status"] == "witness"
        assert text == "WitnessFound: g"

    def test_weinbaum(self, tmp_path):
        path = tmp_path / "p.grp"
        path.write_text(
            "gens: a, b\nrels: a^2*b^-3\n"
            "quotient: a -> (1 4 7 10)(2 5 8 11)(3 6 9 12), "
            "b -> (1 3 5 7 9 11)(2 4 6 8 10 12)\n")
        status, report, _ = dispatch(["weinbaum", "--file", str(path)])
        assert status == 0
        assert report["results"]["certified"] == report["results"]["total"] == 16

    def test_lift(self, theta_file):
        status, report, text = dispatch(
            ["lift", "--graph", theta_file, "--h-edges", "e1",
             "--cycle", "e1:1,e2:-1"])
        assert status == 0
        assert report["results"]["unit"] == "1"
        assert "embedded cycle: e1 e2^-1" in text

    def test_lift_on_an_unlabelled_graph(self, tmp_path):
        path = tmp_path / "theta.graph"
        path.write_text("u v\nu v\nu v\n")
        status, report, text = dispatch(
            ["lift", "--graph", str(path), "--h-edges", "e0", "--cycle", "e0:1,e1:-1"])
        assert status == 0
        assert report["results"]["cycle"] == [["e0", 1], ["e1", -1]]
        assert "embedded cycle: e0 e1^-1" in text

    def test_usage_error_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            dispatch(["frobnicate"])
        assert exc.value.code == 2

    def test_malformed_quotient_option_is_a_json_refusal(self, tmp_path, capsys):
        path = tmp_path / "torus.grp"
        path.write_text("gens: a, b\nrels: [a, b]\n")
        status = main(["complex", "--file", str(path),
                       "--quotient", "a (1 2), b -> ()", "--json"])
        captured = capsys.readouterr()
        assert status == 1
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "schema": 1, "command": "complex",
            "error": "bad quotient chunk 'a (1 2)'"}

    @pytest.mark.parametrize("perm, error", [
        ("(1 x)", "permutation point 'x' is not an integer"),
        ("(1 2)(2 3)", "point 2 appears twice; cycles must be disjoint"),
    ])
    def test_bad_permutation_is_a_json_refusal(self, tmp_path, capsys, perm, error):
        inline = tmp_path / "trefoil.grp"
        inline.write_text("gens: a, b\nrels: a^2*b^-3\n")
        stanza = tmp_path / "stanza.grp"
        stanza.write_text(f"gens: a, b\nrels: a^2*b^-3\nquotient: a -> {perm}, b -> ()\n")
        for argv in (["--file", str(inline), "--quotient", f"a -> {perm}, b -> ()"],
                     ["--file", str(stanza)]):
            status = main(["complex"] + argv + ["--json"])
            captured = capsys.readouterr()
            assert status == 1
            assert json.loads(captured.err)["error"] == error

    @pytest.mark.parametrize("argv", [
        ["jacobian", "--to-abelian", "a3,b=2"],
        ["jacobian", "--to-abelian", "a=x"],
        ["weinbaum", "--relator", "5"],
        ["engulf", "--cyclic", "0", "--coeffs", "1,1"],
        ["engulf", "--cyclic", "5", "--coeffs", "1,x"],
        ["lift", "--h-edges", "e1", "--cycle", "e1"],
        ["seqcheck", "--a", "2", "--b", "3", "--seq", "0,x"],
    ])
    def test_malformed_values_are_json_refusals(self, trefoil_file, theta_file,
                                                capsys, argv):
        if argv[0] in ("jacobian", "weinbaum"):
            argv = argv + ["--file", trefoil_file]
        if argv[0] == "lift":
            argv = argv + ["--graph", theta_file]
        status = main(argv + ["--json"])
        captured = capsys.readouterr()
        assert status == 1
        assert captured.out == ""
        report = json.loads(captured.err)
        assert report["command"] == argv[0] and report["error"]

    @pytest.mark.parametrize("argv, flag", [
        (["engulf", "--cyclic", "5"], "--coeffs"),
        (["engulf", "--file", "TREFOIL"], "--terms"),
        (["engulf"], "--file"),
    ])
    def test_engulf_missing_flag_is_a_json_refusal(self, trefoil_file, capsys,
                                                   argv, flag):
        argv = [trefoil_file if a == "TREFOIL" else a for a in argv]
        status = main(argv + ["--json"])
        captured = capsys.readouterr()
        assert status == 1
        assert captured.out == ""
        report = json.loads(captured.err)
        assert report["command"] == "engulf" and flag in report["error"]

    @pytest.mark.parametrize("h_edges, cycle, label", [
        ("zz", "e1:1,e2:-1", "zz"),
        ("e1", "zz:1", "zz"),
        ("7", "e1:1,e2:-1", "7"),
    ])
    def test_lift_unknown_edge_label_is_a_json_refusal(self, theta_file, capsys,
                                                       h_edges, cycle, label):
        status = main(["lift", "--graph", theta_file, "--h-edges", h_edges,
                       "--cycle", cycle, "--json"])
        captured = capsys.readouterr()
        assert status == 1
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "schema": 1, "command": "lift",
            "error": f"unknown edge label '{label}'"}

    @pytest.mark.parametrize("n", [1001, 1500, 100000000])
    def test_verify_example_above_cap_is_refused(self, n):
        status, report, text = dispatch(["verify-example", "--n", str(n)])
        assert status == 1
        assert report["error"] == f"n = {n} is above the supported maximum 1000"

    def test_verify_example_at_cap(self):
        status, report, _ = dispatch(["verify-example", "--n", "1000"])
        assert status == 0
        assert report["results"]["verdict"] is True
        assert len(str(report["results"]["exponent"])) == 3004

    S12 = "a -> (1 2), b -> (1 2 3 4 5 6 7 8 9 10 11 12)"
    CAP = "the group has more than 5040 elements, the supported maximum"

    @pytest.mark.parametrize("argv, error", [
        # the trefoil relator is not killed in S_12, which is refused first
        (["complex", "--file", "samples/trefoil.grp", "--quotient", S12],
         "quotient map does not kill relator 0 (a^2*b^-3)"),
        (["complex", "--file", "POWERS", "--quotient", S12], CAP),
        (["engulf", "--file", "POWERS", "--quotient", S12, "--terms", "a:1"], CAP),
        (["engulf", "--cyclic", "5041", "--coeffs", "1,1"], CAP),
    ])
    def test_groups_above_the_order_cap_are_json_refusals(self, tmp_path, capsys,
                                                          monkeypatch, argv, error):
        monkeypatch.chdir(ROOT)
        powers = tmp_path / "powers.grp"
        powers.write_text("gens: a, b\nrels: a^2 ; b^12\n")
        argv = [str(powers) if a == "POWERS" else a for a in argv]
        status = main(argv + ["--json"])
        captured = capsys.readouterr()
        assert status == 1 and captured.out == ""
        assert json.loads(captured.err)["error"] == error

    def test_weinbaum_answers_above_the_order_cap(self, tmp_path):
        # the scan needs only the subwords' images, not the group's elements
        powers = tmp_path / "powers.grp"
        powers.write_text("gens: a, b\nrels: a^2 ; b^12\n")
        status, report, text = dispatch(
            ["weinbaum", "--file", str(powers), "--quotient", self.S12, "--relator", "1"])
        assert status == 0
        assert report["results"]["certified"] == report["results"]["total"] == 11
        assert text.endswith("certified 11 of 11")

    @pytest.mark.parametrize("argv", [
        ["complex", "--ring", "4"],
        ["engulf", "--terms", "a:1", "--field", "4"],
    ])
    def test_input_errors_come_before_the_order_cap(self, tmp_path, capsys, argv):
        # the cap is met only when the cover or the engulf system enumerates
        powers = tmp_path / "powers.grp"
        powers.write_text("gens: a, b\nrels: a^2 ; b^12\n")
        status = main(argv + ["--file", str(powers), "--quotient", self.S12, "--json"])
        captured = capsys.readouterr()
        assert status == 1 and captured.out == ""
        assert json.loads(captured.err)["error"] == "unknown coefficient domain '4'"

    @pytest.mark.parametrize("ring", ["Z", "2"])
    def test_order_5040_trefoil_cover(self, monkeypatch, ring):
        monkeypatch.chdir(ROOT)
        status, report, _ = dispatch(
            ["complex", "--file", "samples/trefoil.grp", "--quotient",
             "a -> (1 4)(2 6)(5 7), b -> (1 6 3)(2 5 4)", "--ring", ring])
        assert status == 0
        results = report["results"]
        assert results["group_order"] == MAX_QUOTIENT_ORDER == 5040
        assert (results["homology"]["h1_free_rank"],
                results["homology"]["h1_torsion"]) == (842, [])

    # relators whose order-5040 covers leave rows without a unit entry, with
    # H1 over Z, F2 and F3 as (free rank, {torsion order: count}); the
    # F_p ranks agree with Z through the universal coefficient theorem
    @pytest.mark.parametrize("relator, ring, expected", [
        ("a^4*b^-6", "Z", (842, {2: 4199})),
        ("a^4*b^-6", "2", (5041, {})),
        ("a^4*b^-6", "3", (842, {})),
        ("a^6*b^-9", "Z", (842, {3: 4199})),
        ("a^2*b*a^2*b^-1", "Z", (2521, {2: 1})),
    ])
    def test_order_5040_covers_without_unit_entries(self, tmp_path, relator, ring,
                                                    expected):
        path = tmp_path / "power.grp"
        path.write_text(f"gens: a, b\nrels: {relator}\n")
        start = time.perf_counter()
        status, report, _ = dispatch(
            ["complex", "--file", str(path), "--quotient",
             "a -> (1 4)(2 6)(5 7), b -> (1 6 3)(2 5 4)", "--ring", ring])
        elapsed = time.perf_counter() - start
        assert status == 0
        homology = report["results"]["homology"]
        assert (homology["h1_free_rank"], Counter(homology["h1_torsion"])) == expected
        assert elapsed < 20, f"{relator} over {ring} took {elapsed:.1f} s"

    def test_domain_error_exit_one(self):
        status, report, text = dispatch(
            ["seqcheck", "--a", "2", "--b", "2", "--seq", "0,0,0"])
        assert status == 1
        assert "error" in report
        assert text.startswith("error:")


class TestRendering:
    def test_json_deterministic(self, trefoil_file):
        argv = ["complex", "--file", trefoil_file, "--json"]
        outputs = set()
        for _ in range(2):
            status, report, text = dispatch(argv)
            outputs.add(render(report, "json"))
        assert len(outputs) == 1

    def test_json_round_trip(self, bs_file):
        status, report, _ = dispatch(["hierarchy", "--file", bs_file, "--json"])
        blob = render(report, "json")
        assert json.loads(blob) == report

    def test_schema_field(self):
        _, report, _ = dispatch(["verify-example", "--n", "1"])
        assert report["schema"] == 1

    @pytest.mark.parametrize("flag", ["--json", "--jso", "--js"])
    def test_abbreviated_json_flag_prints_json(self, monkeypatch, capsys, flag):
        # argparse takes any unambiguous prefix of a long flag as the flag
        monkeypatch.chdir(ROOT)
        status = main(["fox", "--file", "samples/trefoil.grp", "--word", "a*b",
                       "--gen", "a", flag])
        assert status == 0
        assert json.loads(capsys.readouterr().out)["results"]["derivative"] == "1"


# argv of --json runs whose report the collector must not find in cycles
GARBAGE_RUNS = {
    "fox": ["fox", "--file", "samples/trefoil.grp", "--word", "a*b", "--gen", "a"],
    "hierarchy": ["hierarchy", "--file", "samples/bs12.grp"],
    "complex": ["complex", "--file", "samples/trefoil.grp",
                "--quotient", "a -> (1 2), b -> (1 2 3)"],
    "weinbaum": ["weinbaum", "--file", "samples/cyclic6.grp"],
}


def test_a_run_leaves_little_cyclic_garbage(monkeypatch, capsys):
    # The parser is built once per process, so a run after the first adds no
    # argparse objects, and the JSON writer builds no closures or generators:
    # the collector finds nothing.
    monkeypatch.chdir(ROOT)
    found = {}
    for command, argv in GARBAGE_RUNS.items():
        main(argv + ["--json"])
        gc.collect()
        gc.disable()
        try:
            main(argv + ["--json"])
            found[command] = gc.collect()
        finally:
            gc.enable()
    capsys.readouterr()
    assert found == dict.fromkeys(GARBAGE_RUNS, 0)


# JSON text: control characters, quotes, backslashes and non-ASCII included
JSON_TEXT = st.text(st.one_of(st.sampled_from('"\\/\n\t\x00\x1f\x7f\u2028 aé€\U0001f600'),
                              st.characters()), max_size=12)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.integers(-10 ** 80, 10 ** 80) | JSON_TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.tuples(inner, inner)
    | st.dictionaries(JSON_TEXT, inner, max_size=4),
    max_leaves=24)


@settings(max_examples=500, derandomize=True, deadline=None)
@given(JSON_VALUES)
def test_render_writes_the_bytes_of_json_dumps(value):
    expected = json.dumps(value, sort_keys=True, indent=1, separators=(",", ": ")) + "\n"
    assert render(value, "json") == expected


@pytest.mark.parametrize("value", [1.5, Fraction(1, 2), {1, 2}, b"x", 1j, object()])
def test_render_refuses_other_types(value):
    for payload in (value, {"a": [1, value]}, [{"b": value}]):
        with pytest.raises(TypeError):
            render(payload, "json")
    with pytest.raises(TypeError):
        render({1: "a"}, "json")
