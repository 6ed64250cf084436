"""The declaration rule of the CI's cross-commit parity table (.github/parity.py)."""
import importlib.util
import re
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "parity", Path(__file__).resolve().parents[1] / ".github" / "parity.py")
parity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(parity)


def test_equal_outputs_pass():
    assert parity.verdict("trace_1d", True, []) == (True, "trace_1d: equal")


@pytest.mark.parametrize("line", ["+  - ci-output-changed: scale_d2 because it prints more",
                                  "+ci-output-changed: scale_d2."])
def test_declared_difference_passes(line):
    passed, message = parity.verdict("scale_d2", False, [line])
    assert passed and "declared" in message


@pytest.mark.parametrize("added", [[], ["+ci-output-changed: scale_d1"], ["+ci-output-changed: scale_d"]])
def test_undeclared_difference_fails(added):
    passed, message = parity.verdict("scale_d2", False, added)
    assert not passed and "undeclared (ci-output-changed: scale_d2)" in message


def test_a_case_is_matched_as_a_whole_word():
    added = ["+  - ci-output-changed: trace_1d because the 1-D trace solve takes the new step."]
    assert parity.verdict("trace_1d", False, added)[0]
    assert not parity.verdict("trace_1d_p4", False, added)[0]


def test_a_missing_output_file_fails_even_when_declared(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for side in (parent, change):
        side.mkdir()
        (side / "stdout").write_text("PASS\nexit 0\n")
        (side / "u.hjg").write_bytes(b"\0")
    assert parity.outputs_equal(parent, change, ["u.hjg"]) is True
    (change / "u.hjg").write_bytes(b"\1")
    assert parity.outputs_equal(parent, change, ["u.hjg"]) is False
    (parent / "u.hjg").unlink()
    assert parity.outputs_equal(parent, change, ["u.hjg"]) is None
    passed, message = parity.verdict("trace_1d", None, ["+ci-output-changed: trace_1d"])
    assert not passed and message == "trace_1d: an output file is missing"


def test_case_names_are_single_words():
    # so that a declaration can name exactly one case
    assert len(parity.CASES) == 44
    assert all(re.fullmatch(r"\w+", name) for name in parity.CASES)
