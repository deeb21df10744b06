"""Byte-for-byte CLI outputs against the golden corpus in ``tests/golden/``.

Each case runs ``onerel.cli.main`` in-process and compares the exit status,
stdout and stderr with the file written by ``tests/golden/capture.py``; the
triplet cases compare the file that ``complex --triplets`` writes.
"""

import difflib

import pytest

from golden import capture


@pytest.mark.parametrize("name", sorted(capture.CASES))
def test_golden_output(name):
    path = capture.path_of(name)
    expected = path.read_text(encoding="utf-8")
    actual = capture.render(*capture.run(capture.CASES[name]))
    if actual != expected:
        diff = "".join(difflib.unified_diff(
            expected.splitlines(keepends=True), actual.splitlines(keepends=True),
            fromfile=f"golden/{path.name}", tofile=f"{name} (this run)"))
        pytest.fail(f"golden case {name} differs:\n{diff}", pytrace=False)


def test_every_golden_file_has_a_case():
    stale = sorted(p.stem for p in capture.GOLDEN.glob("*.txt")
                   if p.stem not in capture.CASES)
    assert not stale, f"golden files without a case: {stale}"


@pytest.mark.parametrize("name", sorted(capture.TRIPLETS))
def test_golden_triplets(name):
    expected = capture.triplet_path_of(name).read_text(encoding="utf-8")
    assert capture.triplets(capture.TRIPLETS[name]) == expected, name


def test_every_triplet_file_has_a_case():
    stale = sorted(p.stem for p in capture.TRIPLET_DIR.glob("*.txt")
                   if p.stem not in capture.TRIPLETS)
    assert not stale, f"triplet files without a case: {stale}"
