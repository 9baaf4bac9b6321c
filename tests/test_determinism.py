"""Seeded outputs against ``tests/determinism_transcript.txt``, the output of
``scripts/determinism_hashes.py`` (its docstring lists the sections) at the
current rounding table.  A change that means to alter results regenerates it.

Each ``test_golden_*`` test regenerates its own sections and compares them with
the transcript's lines of those sections; ``test_transcript_matches`` compares
the whole file, sections in order, so a line added, lost or moved shows too."""

import difflib
import sys
from collections import Counter
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))

from determinism_hashes import (  # noqa: E402
    SECTIONS, avoider_lines, extract_lines, oracle_lines, probe_lines, text_lines,
)

TRANSCRIPT = ROOT / "tests" / "determinism_transcript.txt"
REGENERATE = "PYTHONPATH=src python scripts/determinism_hashes.py > tests/determinism_transcript.txt"
DIFF_LINES = 60


def transcript_diff(expected: list[str], actual: list[str]) -> str:
    """Empty when the transcripts agree.  Otherwise the number of lines removed
    and added per section, a unified diff without context (each line names its
    own inputs) cut at ``DIFF_LINES`` lines, and the command that regenerates
    the file."""
    diff = list(difflib.unified_diff(expected, actual, "checked in", "regenerated", lineterm="", n=0))
    if not diff:
        return ""
    moved = Counter((line[1:].split(" ", 1)[0], line[0]) for line in diff[2:] if line[0] in "-+")
    sections = dict.fromkeys(section for section, _ in moved)
    summary = ", ".join(f"{s} -{moved[s, '-']} +{moved[s, '+']}" for s in sections)
    if len(diff) > DIFF_LINES:
        diff = diff[:DIFF_LINES] + [f"... {len(diff) - DIFF_LINES} more diff lines"]
    return "\n".join(
        ["seeded outputs differ from tests/determinism_transcript.txt", f"moved: {summary}", *diff,
         f"if the change is meant, regenerate the transcript:\n    {REGENERATE}"]
    )


@cache
def generated(section) -> list[str]:
    """The lines of one section, generated once per test session."""
    return list(section())


def check(expected: list[str], actual: list[str]) -> None:
    message = transcript_diff(expected, actual)
    if message:
        pytest.fail(message, pytrace=False)


def check_sections(*sections, keys: tuple[str, ...]) -> None:
    """The given sections against the transcript's lines whose first word is in ``keys``."""
    expected = [line for line in TRANSCRIPT.read_text().splitlines() if line.split(" ", 1)[0] in keys]
    check(expected, [line for section in sections for line in generated(section)])


def test_transcript_matches():
    check(TRANSCRIPT.read_text().splitlines(), [line for section in SECTIONS for line in generated(section)])


def test_golden_extraction_outputs():
    check_sections(extract_lines, keys=("extract",))


def test_golden_avoider_colourings():
    check_sections(avoider_lines, keys=("avoider",))


def test_golden_oracle_outputs():
    check_sections(oracle_lines, keys=("rt", "richness", "witnesses", "tilings", "aux", "planted"))


def test_golden_canonical_text():
    check_sections(text_lines, keys=("text",))


def test_golden_probe_witnesses_and_processes():
    check_sections(probe_lines, keys=("probe", "process"))


def test_transcript_diff_names_the_changed_line():
    expected = TRANSCRIPT.read_text().splitlines()
    assert transcript_diff(expected, expected) == ""
    i = next(i for i, line in enumerate(expected) if line.startswith("extract p3 "))
    changed = expected.copy()
    changed[i] = changed[i].replace(" achieved=", " achieved=1")
    message = transcript_diff(expected, changed)
    assert f"\n-{expected[i]}\n+{changed[i]}\n" in message
    assert "\nmoved: extract -1 +1\n" in message
    assert message.endswith(REGENERATE)
    everything = transcript_diff(expected, [line + " moved" for line in expected])
    assert "\nmoved: extract -72 +72, sweep -108 +108, avoider -20 +20, " in everything
    assert f"\n... {2 * len(expected) + 3 - DIFF_LINES} more diff lines\n" in everything
