"""Property tests over argv for every subcommand.

Flag values are mutated from valid ones: permutation images on at most five
points, explicit abelian images, coefficient domains, relator indices,
engulf terms, words, sequences, product sets and graph chains, each possibly
garbled character by character.  Numbers stay below the caps, so no example
starts an expensive run; only words go past the word grammar's caps (deep
brackets, huge exponents, nested commutators), which the parser refuses
before it builds them.  The argv is then mutated as a whole: a flag is
dropped, repeated or abbreviated, the flags are shuffled, or an unknown flag
is inserted.  Whatever the input, a run ends with exit status 0, 1 or 2 and
no traceback, and its ``--json`` report parses with ``schema``, ``command``
and exactly one of ``results`` and ``error``, in the bytes that ``json.dumps``
gives it with sorted keys and an indent of one.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from onerel.cli import main
from onerel.oracles import permutation_cycles

ROOT = Path(__file__).resolve().parent.parent
# each sample's generators, and permutation quotients that kill its relator
SAMPLES = {
    "trefoil.grp": ("ab", ["a -> (1 2), b -> (1 2 3)", "a -> (1 2)(3 4), b -> (1 3 5)",
                           "a -> (1 2), b -> (2 3 4)"]),
    "cyclic6.grp": ("ab", ["a -> (1 2)(3 4), b -> (1 2 3)"]),
    "torus.grp": ("ab", ["a -> (1 2), b -> (3 4)", "a -> (1 2 3), b -> (1 3 2)"]),
    "bs12.grp": ("at", ["a -> (1 2 3), t -> (2 3)", "a -> (1 2 3 4 5), t -> (2 4 5 3)"]),
}
NOISE = "()->,=;: *^-0123456789abtxQZ"


def garbled(valid):
    """``valid`` text, or a copy with a few characters deleted, replaced or added."""
    @st.composite
    def mutate(draw):
        text = list(draw(valid))
        for _ in range(draw(st.integers(1, 3))):
            at = draw(st.integers(0, len(text)))
            edit = draw(st.sampled_from(["delete", "replace", "insert"]))
            if edit != "insert" and at < len(text):
                del text[at]
            if edit != "delete":
                text.insert(at, draw(st.sampled_from(NOISE)))
        return "".join(text)

    return st.one_of(valid, mutate())


permutation = st.integers(1, 5).flatmap(
    lambda n: st.permutations(range(n)).map(permutation_cycles))


def quotients(names, killing):
    """A quotient that kills the relator, or random images of some generators."""
    images = st.lists(st.tuples(st.sampled_from(names), permutation),
                      min_size=1, max_size=len(names) + 1)
    return garbled(st.one_of(st.sampled_from(killing), images.map(
        lambda pairs: ", ".join(f"{g} -> {perm}" for g, perm in pairs))))


def abelian_images(names):
    images = st.lists(st.tuples(st.sampled_from(names), st.integers(-3, 3)),
                      min_size=1, max_size=len(names) + 1)
    return garbled(images.map(lambda pairs: ",".join(f"{g}={v}" for g, v in pairs)))


def terms(names):
    a, b = names
    return garbled(st.sampled_from([f"1:1;{a}:1;{b}:-1", f"{a}:2", f"{a}*{b}:1;{b}:-1"]))


domains = garbled(st.sampled_from(["Q", "2", "3", "5", "Z", "4", "0", "-3"]))
relators = garbled(st.sampled_from(["0", "1", "-1", "2"]))


def numbers(low, high):
    """A small integer as text, or text that is not one."""
    return st.sampled_from([str(n) for n in range(low, high + 1)] + ["x", "1.5"])


def comma_list(values, max_size=6):
    return garbled(st.lists(values, min_size=1, max_size=max_size).map(",".join))


# flags that no subcommand has, and that abbreviate none of them
UNKNOWN = ["--frobnicate", "--zz", "-x", "--Json"]


@st.composite
def mutated(draw, pairs):
    """The argv of ``(flag, value or None)`` pairs, perhaps mutated as a whole.

    ``--json`` is never abbreviated, so the test knows when to expect JSON.
    """
    pairs = list(pairs)
    for _ in range(draw(st.integers(0, 2))):
        edit = draw(st.sampled_from(["drop", "repeat", "shuffle", "abbreviate",
                                     "unknown"]))
        at = draw(st.integers(0, max(len(pairs) - 1, 0)))
        if edit == "drop" and pairs:
            del pairs[at]
        elif edit == "repeat" and pairs:
            pairs.insert(draw(st.integers(0, len(pairs))), pairs[at])
        elif edit == "shuffle":
            pairs = draw(st.permutations(pairs))
        elif edit == "abbreviate" and pairs and pairs[at][0].startswith("--") \
                and pairs[at][0] != "--json":
            flag, value = pairs[at]
            pairs[at] = flag[:draw(st.integers(3, len(flag)))], value
        elif edit == "unknown":
            value = draw(st.sampled_from([None, "1"]))
            pairs.insert(draw(st.integers(0, len(pairs))),
                         (draw(st.sampled_from(UNKNOWN)), value))
    return [token for flag, value in pairs
            for token in ((flag,) if value is None else (flag, value))]


@st.composite
def quotient_flags(draw, command):
    sample = draw(st.sampled_from(sorted(SAMPLES)))
    names, killing = SAMPLES[sample]
    pairs = [("--file", str(ROOT / "samples" / sample))]
    if draw(st.booleans()):
        pairs.append(("--quotient", draw(quotients(names, killing))))
    if command in ("jacobian", "trapezoid"):
        if draw(st.booleans()):
            pairs.append(("--to-abelian", draw(abelian_images(names))))
        if draw(st.booleans()):
            pairs.append(("--abelianize", None))
    if command == "engulf":
        pairs += [("--field", draw(domains)), ("--terms", draw(terms(names)))]
    elif draw(st.booleans()):
        pairs.append(("--ring", draw(domains)))
    if command == "weinbaum" and draw(st.booleans()):
        pairs.append(("--relator", draw(relators)))
    return pairs


# each commutator level doubles the word: 20 levels spell millions of letters
NESTED_COMMUTATORS = "[" * 20 + "a" + ", b]" * 20
WORDS = ["a*b*a^-1", "a^2*b^-3", "[a, b]*a^-1", "t*a*t^-1*a^-2", "1",
         "(" * 500 + "a" + ")" * 500, "a^99999999999999999999",
         "(a*b^-1)^-99999999999999999999", NESTED_COMMUTATORS]
UPCHECK_ORACLES = {
    "z": st.integers(-4, 4).map(str),
    "z2": st.tuples(st.integers(-2, 2), st.integers(-2, 2)).map(
        lambda p: f"{p[0]}:{p[1]}"),
    "mod:6": st.integers(0, 8).map(str),
    "free:a+b": st.sampled_from(["1", "a", "b", "a*b", "b^-1", "a^2*b"]),
}
GRAPHS = {str(ROOT / "samples" / "theta.graph"): ["e1", "e2", "e3"],
          str(ROOT / "tests" / "golden" / "inputs" / "multi.graph"):
              ["e1", "e2", "e3", "e4", "e5", "e6"]}


@st.composite
def other_flags(draw, command):
    """Flags of the subcommands that take no quotient, and of ``engulf --cyclic``."""
    if command in ("fox", "hierarchy"):
        sample = draw(st.sampled_from(sorted(SAMPLES)))
        names = SAMPLES[sample][0]
        pairs = [("--file", str(ROOT / "samples" / sample))]
        if command == "fox":
            pairs += [("--word", draw(garbled(st.sampled_from(WORDS)))),
                      ("--gen", draw(garbled(st.sampled_from([*names, "c"]))))]
        elif draw(st.booleans()):
            pairs.append(("--max-depth", draw(numbers(0, 4))))
        if draw(st.booleans()):
            pairs.append(("--ring", draw(domains)))
    elif command == "seqcheck":
        pairs = [("--a", draw(numbers(-1, 5))), ("--b", draw(numbers(-1, 7))),
                 ("--seq", draw(comma_list(st.integers(-2, 9).map(str))))]
    elif command == "upcheck":
        oracle = draw(st.sampled_from(sorted(UPCHECK_ORACLES)))
        elements = UPCHECK_ORACLES[oracle]
        pairs = [("--oracle", draw(garbled(st.just(oracle)))),
                 ("--A", draw(comma_list(elements, 4))),
                 ("--B", draw(comma_list(elements, 4)))]
        if draw(st.booleans()):
            pairs.append(("--k", draw(numbers(-1, 4))))
        if draw(st.booleans()):
            pairs.append(("--side", draw(st.sampled_from(
                ["plain", "left", "right", "up"]))))
    elif command == "lift":
        graph = draw(st.sampled_from(sorted(GRAPHS)))
        labels = st.sampled_from(GRAPHS[graph] + ["zz"])
        chain = st.tuples(labels, st.integers(-3, 3)).map(lambda p: f"{p[0]}:{p[1]}")
        pairs = [("--graph", graph),
                 ("--h-edges", draw(comma_list(labels, 3))),
                 ("--cycle", draw(comma_list(chain, 5)))]
        if draw(st.booleans()):
            pairs.append(("--ring", draw(domains)))
    elif command == "verify-example":
        pairs = [("--n", draw(numbers(-1, 12)))]
    else:       # engulf --cyclic
        pairs = [("--cyclic", draw(numbers(0, 8))),
                 ("--coeffs", draw(comma_list(st.integers(-3, 3).map(str), 5))),
                 ("--field", draw(domains))]
        if draw(st.booleans()):
            pairs.append(("--side", draw(st.sampled_from(["left", "right"]))))
    return pairs


@st.composite
def argvs(draw, command, flags):
    pairs = draw(flags)
    if draw(st.booleans()):
        pairs.append(("--json", None))
    return [command.split()[0]] + draw(mutated(pairs))


def assert_answer_or_refusal(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:       # argparse's usage errors
            status = exc.code
    assert status in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    if "--json" in argv and status != 2:
        text = out.getvalue() if status == 0 else err.getvalue()
        report = json.loads(text)
        # the renderer's oracle: the bytes of json.dumps
        assert text == json.dumps(report, sort_keys=True, indent=1,
                                  separators=(",", ": ")) + "\n", argv
        assert report["schema"] == 1 and report["command"] == argv[0], argv
        assert ("results" in report) != ("error" in report), argv
        assert ("results" in report) == (status == 0), argv


FUZZ = settings(derandomize=True, max_examples=25, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@pytest.mark.parametrize("command", ["complex", "weinbaum", "engulf", "jacobian",
                                     "trapezoid"])
@FUZZ
@given(data=st.data())
def test_quotient_flags_end_in_an_answer_or_a_refusal(command, data):
    assert_answer_or_refusal(data.draw(argvs(command, quotient_flags(command))))


@pytest.mark.parametrize("command", ["fox", "hierarchy", "seqcheck", "upcheck",
                                     "lift", "verify-example", "engulf --cyclic"])
@FUZZ
@given(data=st.data())
def test_other_flags_end_in_an_answer_or_a_refusal(command, data):
    assert_answer_or_refusal(data.draw(argvs(command, other_flags(command))))
