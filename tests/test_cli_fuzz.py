"""Property test over argv for the subcommands that take a quotient.

Flag values are mutated from valid ones: permutation images on at most five
points, explicit abelian images, coefficient domains, relator indices and
engulf terms, each possibly garbled character by character.  Whatever the
input, a run ends with exit status 0, 1 or 2 and no traceback, and its
``--json`` report parses with ``schema``, ``command`` and exactly one of
``results`` and ``error``.
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


@st.composite
def argvs(draw, command):
    sample = draw(st.sampled_from(sorted(SAMPLES)))
    names, killing = SAMPLES[sample]
    argv = [command, "--file", str(ROOT / "samples" / sample)]
    if draw(st.booleans()):
        argv += ["--quotient", draw(quotients(names, killing))]
    if command in ("jacobian", "trapezoid"):
        if draw(st.booleans()):
            argv += ["--to-abelian", draw(abelian_images(names))]
        if draw(st.booleans()):
            argv.append("--abelianize")
    if command == "engulf":
        argv += ["--field", draw(domains), "--terms", draw(terms(names))]
    elif draw(st.booleans()):
        argv += ["--ring", draw(domains)]
    if command == "weinbaum" and draw(st.booleans()):
        argv += ["--relator", draw(relators)]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@pytest.mark.parametrize("command", ["complex", "weinbaum", "engulf", "jacobian",
                                     "trapezoid"])
@settings(derandomize=True, max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_quotient_flags_end_in_an_answer_or_a_refusal(command, data):
    argv = data.draw(argvs(command))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:       # argparse's usage errors
            status = exc.code
    assert status in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    if "--json" in argv and status != 2:
        report = json.loads(out.getvalue() if status == 0 else err.getvalue())
        assert report["schema"] == 1 and report["command"] == command, argv
        assert ("results" in report) != ("error" in report), argv
        assert ("results" in report) == (status == 0), argv
