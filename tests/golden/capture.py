"""Golden CLI corpus: the cases, how one is run, and a writer for the files.

Each case is an argv for ``onerel.cli.main``, run in-process from the
repository root.  Its golden file ``tests/golden/<case>.txt`` records the
exit status, stdout and stderr byte for byte; ``tests/test_golden.py``
compares a fresh run against it.  The ``TRIPLETS`` cases pin the file that
``complex --triplets`` writes, in ``tests/golden/triplets/<case>.txt``.
Rewrite the files only when an output is meant to change, and review the
diff:

    PYTHONPATH=src python3 tests/golden/capture.py          # every case
    PYTHONPATH=src python3 tests/golden/capture.py fox_a    # named cases
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
TRIPLET_DIR = GOLDEN / "triplets"
ROOT = GOLDEN.parent.parent
INPUTS = "tests/golden/inputs"

TREFOIL = "samples/trefoil.grp"
TORUS = "samples/torus.grp"
BS12 = "samples/bs12.grp"
CYCLIC6 = "samples/cyclic6.grp"
THETA = "samples/theta.graph"
MULTI = f"{INPUTS}/multi.graph"
THREE_GENS = f"{INPUTS}/three_gens.grp"
# an order-24 quotient of three_gens.grp onto S4; its relator has inverse letters
THREE_GENS_S4 = "a -> (3 4), b -> (1 2), c -> (2 3 4)"
# proper-power relators at an order-24 quotient onto S4: the cover repeats
# each relator row along the cyclic subgroup of its root; in triangle_434.grp
# a^4 is twice the order of a, so its repeated rows carry the coefficient 2
TRIANGLES = {"triangle_234": f"{INPUTS}/triangle_234.grp",
             "triangle_434": f"{INPUTS}/triangle_434.grp"}
TRIANGLE_S4 = "a -> (1 2), b -> (2 3 4)"
# <a, b | a^4*b^-6> at an order-360 quotient where a^2 and b^3 are not 1: its
# cover over Z has torsion, H1 = Z^152 + (Z/2)^119
POWER_TREFOIL = f"{INPUTS}/power_trefoil.grp"
POWER_TREFOIL_360 = "a -> (1 4 3 2)(5 6), b -> (1 6 2)(3 4 5)"
# <a, b | a^2*b^-2> with an order-120 quotient onto D60 on 60 points
TORUS_D60 = f"{INPUTS}/torus_d60.grp"

# trefoil quotients <a, b | a^2*b^-3> by group order
LADDER = {
    6: "a -> (1 2), b -> (1 2 3)",
    12: "a -> (1 2)(3 4), b -> (1 2 3)",
    24: "a -> (1 2), b -> (2 3 4)",
    60: "a -> (1 2)(3 4), b -> (1 3 5)",
}


def _both(name, argv):
    """The case in text mode and under ``--json``."""
    return [(name, argv), (f"{name}_json", argv + ["--json"])]


def _cases():
    out = []
    for name, path, word, gens in (
            ("trefoil", TREFOIL, "a*b*a^-1", "ab"),
            ("trefoil_relator", TREFOIL, "a^2*b^-3", "ab"),
            ("trefoil_long", TREFOIL, "a^2*b^-1*a^-3*b^2*a*b*a^-1*b^3", "ab"),
            ("commutator", TORUS, "[a, b]*[a^-1, b^2]*a^3*b^-1", "ab"),
            ("bs12", BS12, "t*a*t^-1*a^-2*t^-1*a^3*t^2", "at"),
            ("cyclic6", CYCLIC6, "b^-2*a*b*a^-2*b^3*a", "ab"),
            ("identity", TREFOIL, "1", "a")):
        for g in gens:
            out += _both(f"fox_{name}_{g}",
                         ["fox", "--file", path, "--word", word, "--gen", g])
    out += _both("fox_unknown_generator",
                 ["fox", "--file", TREFOIL, "--word", "a*c", "--gen", "a"])

    for name, path in (("trefoil", TREFOIL), ("torus", TORUS), ("bs12", BS12),
                       ("cyclic6", CYCLIC6)):
        out += _both(f"jacobian_{name}", ["jacobian", "--file", path])
    for cmd in ("jacobian", "trapezoid"):
        out += _both(f"{cmd}_torus_abelianize",
                     [cmd, "--file", TORUS, "--abelianize"])
        out += _both(f"{cmd}_trefoil_to_abelian",
                     [cmd, "--file", TREFOIL, "--to-abelian", "a=3,b=2"])
        out += _both(f"{cmd}_bs12_to_abelian",
                     [cmd, "--file", BS12, "--to-abelian", "a=0,t=1"])
        out += _both(f"{cmd}_trefoil_quotient",
                     [cmd, "--file", TREFOIL, "--quotient", LADDER[6]])
        out += _both(f"{cmd}_trefoil_quotient_q",
                     [cmd, "--file", TREFOIL, "--quotient", LADDER[12], "--ring", "Q"])
        # a generator named twice in --to-abelian is refused
        out += _both(f"{cmd}_trefoil_to_abelian_repeated",
                     [cmd, "--file", TREFOIL, "--to-abelian", "a=5,b=2,a=3"])
    out += _both("jacobian_bs12_abelianize_refused",
                 ["jacobian", "--file", BS12, "--abelianize"])
    out += _both("jacobian_quotient_not_killing",
                 ["jacobian", "--file", TREFOIL, "--quotient", "a -> (1 2 3), b -> ()"])
    # over F5 the coefficient -1 is 4, printed with a minus sign
    out += _both("jacobian_trefoil_quotient_f5",
                 ["jacobian", "--file", TREFOIL, "--quotient", LADDER[6], "--ring", "5"])

    out += _both("trapezoid_trefoil", ["trapezoid", "--file", TREFOIL])
    out += _both("trapezoid_ordered",
                 ["trapezoid", "--file", TREFOIL, "--to-abelian", "a=3,b=2",
                  "--certify", "orderedOracle"])
    out += _both("trapezoid_finite_search",
                 ["trapezoid", "--file", CYCLIC6, "--ring", "Q",
                  "--certify", "finiteSearch"])
    out += _both("trapezoid_row_fixed",
                 ["trapezoid", "--file", TORUS, "--row-fixed"])
    z3 = ["trapezoid", "--file", f"{INPUTS}/z3.grp", "--abelianize"]
    out += _both("trapezoid_z3_impossible", z3)
    out += _both("trapezoid_z3_row_fixed_impossible", z3 + ["--row-fixed"])
    out += _both("trapezoid_z3_over_cap", z3 + ["--cap", "2"])
    swap = ["trapezoid", "--file", f"{INPUTS}/rowfixed.grp",
            "--quotient", "a -> (1 2), b -> ()"]
    out += _both("trapezoid_row_swap", swap)
    out += _both("trapezoid_row_swap_row_fixed_impossible", swap + ["--row-fixed"])

    for name, path in (("trefoil", TREFOIL), ("torus", TORUS), ("bs12", BS12),
                       ("cyclic6", CYCLIC6)):
        out += _both(f"complex_{name}", ["complex", "--file", path])
    out += _both("complex_cyclic6_f3", ["complex", "--file", CYCLIC6, "--ring", "3"])
    out += _both("complex_cyclic6_q", ["complex", "--file", CYCLIC6, "--ring", "Q"])
    out += _both("complex_cyclic6_torsion",
                 ["complex", "--file", f"{INPUTS}/cyclic6_torsion.grp"])
    for order, images in LADDER.items():
        for ring, tag in (("Z", "z"), ("2", "f2")):
            out += _both(f"complex_trefoil_{order}_{tag}",
                         ["complex", "--file", TREFOIL, "--quotient", images,
                          "--ring", ring])
    for ring, tag in (("Z", "z"), ("3", "f3")):
        out += _both(f"complex_three_gens_24_{tag}",
                     ["complex", "--file", THREE_GENS, "--quotient", THREE_GENS_S4,
                      "--ring", ring])
    for name, path in TRIANGLES.items():
        for ring, tag in (("Z", "z"), ("2", "f2")):
            out += _both(f"complex_{name}_24_{tag}",
                         ["complex", "--file", path, "--quotient", TRIANGLE_S4,
                          "--ring", ring])
    for ring, tag in (("Z", "z"), ("2", "f2")):
        out += _both(f"complex_power_trefoil_360_{tag}",
                     ["complex", "--file", POWER_TREFOIL, "--quotient", POWER_TREFOIL_360,
                      "--ring", ring])

    for name, path in (("trefoil", TREFOIL), ("torus", TORUS), ("bs12", BS12),
                       ("cyclic6", CYCLIC6),
                       ("bs13", f"{INPUTS}/bs13.grp"),
                       ("three_gens", THREE_GENS),
                       ("two_steps", f"{INPUTS}/two_steps.grp"),
                       ("steps25", f"{INPUTS}/steps25.grp")):
        out += _both(f"hierarchy_{name}", ["hierarchy", "--file", path])
    out += _both("hierarchy_depth_1",
                 ["hierarchy", "--file", f"{INPUTS}/two_steps.grp", "--max-depth", "1"])

    out += _both("seqcheck_large_entry",
                 ["seqcheck", "--a", "2", "--b", "3", "--seq", "0,3,1,4,0"])
    out += _both("seqcheck_sum_zero",
                 ["seqcheck", "--a", "2", "--b", "3", "--seq", "0,0,0"])
    out += _both("seqcheck_not_coprime",
                 ["seqcheck", "--a", "2", "--b", "2", "--seq", "0,0,0"])

    out += _both("upcheck_z_left",
                 ["upcheck", "--oracle", "z", "--A", "0,1", "--B", "0,5",
                  "--k", "2", "--side", "left"])
    out += _both("upcheck_z2", ["upcheck", "--oracle", "z2", "--A", "0:0,1:0,0:1",
                                "--B", "0:0,1:1", "--k", "3"])
    out += _both("upcheck_mod", ["upcheck", "--oracle", "mod:4", "--A", "0,2",
                                 "--B", "0,2", "--k", "1", "--side", "right"])
    # 3 and -1 are 0 and 2 mod 3: A has two elements, not three
    out += _both("upcheck_mod_out_of_range", ["upcheck", "--oracle", "mod:3",
                                              "--A", "0,3,-1", "--B", "0,1", "--k", "2"])
    out += _both("upcheck_free", ["upcheck", "--oracle", "free:a+b",
                                  "--A", "a,b,a*b", "--B", "1,b^-1", "--k", "2"])
    out += _both("upcheck_bad_oracle",
                 ["upcheck", "--oracle", "sym:3", "--A", "0", "--B", "0"])
    # 501 * 500 products, past MAX_PRODUCTS = 250,000
    out += _both("upcheck_z_over_cap",
                 ["upcheck", "--oracle", "z", "--A", ",".join(map(str, range(501))),
                  "--B", ",".join(map(str, range(500)))])

    out += _both("engulf_cyclic_f3",
                 ["engulf", "--cyclic", "2", "--coeffs", "1,1", "--field", "3"])
    out += _both("engulf_cyclic_q",
                 ["engulf", "--cyclic", "5", "--coeffs", "1,-1,0,2", "--side", "right"])
    # the fourth coefficient sits at g^3 = 1 and merges with the first: 3 + g + g^2
    out += _both("engulf_cyclic_wraps",
                 ["engulf", "--cyclic", "3", "--coeffs=1,1,1,2", "--field", "5"])
    out += _both("engulf_cyclic6",
                 ["engulf", "--file", CYCLIC6, "--terms", "1:1;a:1;b:-1"])
    out += _both("engulf_trefoil_quotient",
                 ["engulf", "--file", TREFOIL, "--quotient", LADDER[6],
                  "--terms", "a:1;b:1;1:-1", "--field", "2"])
    # a single-term element has only scalar witnesses: "none"; the
    # coefficients 1 and 2 of a cancel over F3, leaving the identity
    for order, terms, field, side, tag in (
            (24, "b:2", "Q", "left", "none_q"),
            (24, "a:1;b:1;1:-1", "3", "right", "witness_f3"),
            (60, "1:1;a:1;b:-1", "Q", "right", "witness_q"),
            (60, "1:1;a:1;a:2", "3", "left", "none_f3")):
        out += _both(f"engulf_trefoil_{order}_{tag}",
                     ["engulf", "--file", TREFOIL, "--quotient", LADDER[order],
                      "--terms", terms, "--field", field, "--side", side])
    # witnesses of dozens of terms, each a permutation of 60 points with
    # two-digit labels and fixed points
    for field, side, terms in (("3", "left", "b*a^-2:1;a^2:-1;b^-1*a:1"),
                               ("7", "right", "b*a^-2:2;a^2:-1;b^-1*a:3")):
        out += _both(f"engulf_d60_f{field}_{side}",
                     ["engulf", "--file", TORUS_D60, "--terms", terms,
                      "--field", field, "--side", side])
    out += _both("engulf_infinite_refused",
                 ["engulf", "--file", TREFOIL, "--terms", "a:1", "--field", "Z"])

    out += _both("weinbaum_cyclic6", ["weinbaum", "--file", CYCLIC6])
    out += _both("weinbaum_trefoil_quotient",
                 ["weinbaum", "--file", TREFOIL, "--quotient", LADDER[12]])
    out += _both("weinbaum_repeats",
                 ["weinbaum", "--file", f"{INPUTS}/weinbaum_repeats.grp"])
    # 66 letters, past the 64 that weinbaum scans
    out += _both("weinbaum_long", ["weinbaum", "--file", f"{INPUTS}/weinbaum_long.grp"])

    out += _both("lift_theta", ["lift", "--graph", THETA, "--h-edges", "e1",
                                "--cycle", "e1:1,e2:-1"])
    out += _both("lift_theta_q", ["lift", "--graph", THETA, "--h-edges", "e1,e2",
                                  "--cycle", "e1:2,e3:-2", "--ring", "Q"])
    for ring, tag in (("Z", ""), ("Q", "_q"), ("5", "_f5")):
        out += _both(f"lift_multi{tag}",
                     ["lift", "--graph", MULTI, "--h-edges", "e1",
                      "--cycle", "e1:1,e2:1,e3:-2,e4:3", "--ring", ring])
    out += _both("lift_multi_not_spanned",
                 ["lift", "--graph", MULTI, "--h-edges", "e1,e4",
                  "--cycle", "e1:1,e2:-1,e4:2"])
    # one cycle of a theta graph, doubled: 2 is a unit over Q but not over Z
    for ring, tag in (("Z", ""), ("Q", "_q")):
        out += _both(f"lift_theta_doubled{tag}",
                     ["lift", "--graph", THETA, "--h-edges", "e1",
                      "--cycle", "e1:2,e2:-2", "--ring", ring])
    out += _both("lift_not_cycle", ["lift", "--graph", THETA, "--h-edges", "e1",
                                     "--cycle", "e1:1"])
    # the lift is the fundamental cycle of the one designated edge that a
    # forest leaves out: the loop e5, or e4 of two designated triangle sides
    for ring, tag in (("Z", ""), ("3", "_f3")):
        out += _both(f"lift_designated_loop{tag}",
                     ["lift", "--graph", f"{INPUTS}/designated_loop.graph",
                      "--h-edges", "e1,e5", "--cycle", "e3:-1,e4:-1,e5:-1,e6:2",
                      "--ring", ring])
        out += _both(f"lift_designated_triangle{tag}",
                     ["lift", "--graph", f"{INPUTS}/designated_triangle.graph",
                      "--h-edges", "e1,e3,e4", "--cycle", "e1:-1,e2:1,e4:-1,e5:2",
                      "--ring", ring])
    # an edge named twice in --cycle is refused
    out += _both("lift_theta_repeated_edge",
                 ["lift", "--graph", THETA, "--h-edges", "e1",
                  "--cycle", "e1:5,e1:1,e2:-1"])

    for n in (1, 2, 3):
        out += _both(f"verify_example_{n}", ["verify-example", "--n", str(n)])

    # refusals
    out += _both("quotient_stanza_missing_image",
                 ["complex", "--file", f"{INPUTS}/missing_image.grp"])
    out += _both("quotient_stanza_bad_chunk",
                 ["jacobian", "--file", f"{INPUTS}/bad_chunk.grp"])
    out += _both("quotient_stanza_unknown_name",
                 ["jacobian", "--file", f"{INPUTS}/unknown_name.grp"])
    out += _both("quotient_stanza_duplicate_name",
                 ["jacobian", "--file", f"{INPUTS}/duplicate_name.grp"])
    out += _both("quotient_option_duplicate_name",
                 ["jacobian", "--file", TREFOIL, "--quotient",
                  "a -> (1 2 3), a -> (1 2), b -> (1 2 3)"])
    out += _both("quotient_option_missing_image",
                 ["complex", "--file", TREFOIL, "--quotient", "a -> (1 2)"])
    out += _both("quotient_option_bad_permutation",
                 ["complex", "--file", TREFOIL, "--quotient", "a -> (1 0), b -> ()"])
    # the word grammar's refusals, one per message
    for tag, word in (("end", "a*"), ("exponent", "a^x"), ("close_paren", "(a*b]"),
                      ("comma", "[a b]"), ("trailing", "a b"), ("character", "a$b"),
                      ("token", "*a")):
        out += _both(f"fox_word_{tag}",
                     ["fox", "--file", TREFOIL, "--gen", "a", "--word", word])
    # the presentation file's refusals, one per message
    for name in ("rels_before_gens", "unknown_stanza", "no_colon", "partition_bad_chunk",
                 "partition_unknown_name", "partition_not_covering", "missing_gens"):
        out += _both(f"hierarchy_file_{name}",
                     ["hierarchy", "--file", f"{INPUTS}/{name}.grp"])
    # the parser's caps: nesting past MAX_NESTING, words past MAX_WORD_LETTERS
    # (the 16 nested commutators spell 131,072 letters) and a file whose
    # relators reach the budget together; a power of the empty word is empty
    nested = "a"
    for _ in range(16):
        nested = f"[{nested}, b]"
    for tag, word in (("deep_nesting", "(" * 500 + "a" + ")" * 500),
                      ("huge_exponent", "a^99999999999999999999"),
                      ("nested_commutators", nested),
                      ("empty_power", "(a*a^-1)^99999999999999999999")):
        out += _both(f"fox_word_{tag}",
                     ["fox", "--file", TREFOIL, "--gen", "a", "--word", word])
    # exponents of 5,000 digits, past Python's limit on the digits int() reads
    for tag, word in (("exponent_digits", "a^" + "9" * 5000),
                      ("empty_power_digits", "(a*a^-1)^" + "9" * 5000)):
        out += _both(f"fox_word_{tag}",
                     ["fox", "--file", TREFOIL, "--gen", "a", "--word", word])
    # fox differentiates words of at most MAX_FOX_LETTERS = 1000 letters
    for tag, word in (("at_fox_cap", "b^999*a"), ("past_fox_cap", "b^1000*a")):
        out += _both(f"fox_word_{tag}",
                     ["fox", "--file", TREFOIL, "--gen", "a", "--word", word])
    # the words of one flag together: two terms of 60,000 letters each
    out += _both("engulf_terms_over_budget",
                 ["engulf", "--file", TREFOIL, "--quotient", LADDER[6],
                  "--terms", "a^60000:1;a^60000:1", "--field", "3"])
    out += _both("upcheck_free_over_budget",
                 ["upcheck", "--oracle", "free:a+b", "--A", "a^60000", "--B", "a^60000",
                  "--k", "1"])
    for name in ("deep_nesting", "huge_exponent", "nested_commutators",
                 "relators_over_budget"):
        out += _both(f"hierarchy_file_{name}",
                     ["hierarchy", "--file", f"{INPUTS}/{name}.grp"])
    out += _both("missing_file", ["complex", "--file", "samples/no_such.grp"])
    out += _both("bad_ring", ["jacobian", "--file", TREFOIL, "--ring", "R"])
    fox_ring = ["fox", "--file", TREFOIL, "--word", "a*b^-1", "--gen", "b", "--ring"]
    out += _both("fox_ring_f2", fox_ring + ["2"])
    # over F3 the coefficient -1 is 2, printed with a minus sign
    out += _both("fox_ring_f3", ["fox", "--file", TREFOIL, "--word", "a^-2*b", "--gen", "a",
                                 "--ring", "3"])
    out += _both("fox_ring_bogus", fox_ring + ["bogus"])
    # F_p is refused above p = MAX_PRIME = 2^31 - 1, before trial division
    out += _both("fox_ring_at_cap", ["fox", "--file", TREFOIL, "--word", "a^-2*b", "--gen", "a",
                                     "--ring", "2147483647"])
    out += _both("fox_ring_over_cap", ["fox", "--file", TREFOIL, "--word", "a", "--gen", "a",
                                       "--ring", "1000000000000000003"])
    out += _both("hierarchy_ring_bogus", ["hierarchy", "--file", TREFOIL, "--ring", "bogus"])
    out += _both("weinbaum_ring_bogus", ["weinbaum", "--file", CYCLIC6, "--ring", "bogus"])

    # a value that starts with "-" and is not a plain number is read as a
    # flag, so it needs the --flag=value form
    out += [("usage_negative_values", ["engulf", "--cyclic", "3", "--coeffs", "-1,1,0"])]
    out += _both("engulf_cyclic_negative_values",
                 ["engulf", "--cyclic", "3", "--coeffs=-1,1,0"])

    # argparse's help and usage errors: exit status 0 or 2, text wrapped to
    # COLUMNS=80
    out += [("usage_no_arguments", []), ("help_top_level", ["--help"]),
            ("usage_unknown_command", ["frobnicate"]),
            ("usage_negative_number_command", ["-5", "fox"])]
    for cmd in ("fox", "jacobian", "complex", "trapezoid", "hierarchy", "seqcheck",
                "upcheck", "engulf", "weinbaum", "lift", "verify-example"):
        out.append((f"help_{cmd.replace('-', '_')}", [cmd, "--help"]))
    out += _both("usage_missing_required_flag", ["fox", "--file", TREFOIL])
    out += [("usage_missing_value", ["complex", "--file"]),
            ("usage_bad_int", ["trapezoid", "--cap", "x"]),
            ("usage_bad_choice", ["trapezoid", "--certify", "bogus"]),
            ("usage_unknown_flag", ["complex", "--file", TREFOIL, "--bogus"])]
    return out


CASES = dict(_cases())

# ``complex`` runs whose ``--triplets`` file is pinned: a torsion cover, one
# with loop edges (b maps to the identity), two trefoil quotients, a
# three-generator quotient and repeated rows with the coefficient 2
TRIPLETS = {
    "cyclic6_torsion": ["complex", "--file", f"{INPUTS}/cyclic6_torsion.grp"],
    "loop_edges": ["complex", "--file", f"{INPUTS}/rowfixed.grp",
                   "--quotient", "a -> (1 2), b -> ()"],
    "trefoil_12": ["complex", "--file", TREFOIL, "--quotient", LADDER[12]],
    "trefoil_60": ["complex", "--file", TREFOIL, "--quotient", LADDER[60]],
    "three_gens_24": ["complex", "--file", THREE_GENS, "--quotient", THREE_GENS_S4],
    "triangle_434_24": ["complex", "--file", TRIANGLES["triangle_434"],
                        "--quotient", TRIANGLE_S4],
}


def run(argv):
    """``(status, stdout, stderr)`` of one in-process CLI run from the root.

    argparse's ``--help`` and usage errors raise ``SystemExit``; its code is
    the status.  argparse wraps help and usage to the terminal width, so the
    run sees ``COLUMNS=80``.
    """
    from onerel.cli import main

    out, err = io.StringIO(), io.StringIO()
    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    os.chdir(ROOT)
    os.environ["COLUMNS"] = "80"
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                status = main(list(argv))
            except SystemExit as exc:
                status = exc.code
    finally:
        os.chdir(cwd)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return status, out.getvalue(), err.getvalue()


def render(status, stdout, stderr):
    """The golden-file text of one run."""
    return f"status: {status}\n--- stdout\n{stdout}--- stderr\n{stderr}"


def path_of(name):
    return GOLDEN / f"{name}.txt"


def triplets(argv):
    """The text that ``argv + ["--triplets", file]`` writes to the file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "triplets.txt")
        status, _, err = run(list(argv) + ["--triplets", path])
        if status:
            raise RuntimeError(f"{argv} exited with status {status}: {err}")
        return Path(path).read_text(encoding="utf-8")


def triplet_path_of(name):
    return TRIPLET_DIR / f"{name}.txt"


def main(names):
    for name in names or CASES:
        if name in CASES:
            path_of(name).write_text(render(*run(CASES[name])), encoding="utf-8")
    TRIPLET_DIR.mkdir(exist_ok=True)
    for name in names or TRIPLETS:
        if name in TRIPLETS:
            triplet_path_of(name).write_text(triplets(TRIPLETS[name]), encoding="utf-8")
    print(f"wrote {len(names or [*CASES, *TRIPLETS])} golden files under {GOLDEN}")


if __name__ == "__main__":
    main(sys.argv[1:])
