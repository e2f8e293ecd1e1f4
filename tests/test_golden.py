"""The suite's reports and stdout, and the sharp maximal function's
floats, are byte-identical to the digests in tests/golden/suite.sha256
and tests/golden/sharp_maximal.sha256 (see tests/golden_digests.py)."""

import pytest

import golden_digests
from fatou_lab import cli


def test_suite_output_matches_the_golden_digests(battery, tmp_path,
                                                 monkeypatch, capsys):
    made_with, expected = golden_digests.read()
    here = golden_digests.environment()
    if made_with != here:
        pytest.skip(f"the digests were made with {made_with}; this is {here}")
    # the battery's cached reports, rendered and printed by the suite itself
    monkeypatch.setattr(cli, "run_experiment",
                        lambda cfg: battery[cfg.experiment][0])
    cli.main(["suite", "--output-dir", str(tmp_path)])
    got = golden_digests.digests(tmp_path, capsys.readouterr().out)
    differ = sorted(name for name in expected.keys() | got.keys()
                    if expected.get(name) != got.get(name))
    assert not differ, f"not as in {golden_digests.PATH.name}: {differ}"


def test_sharp_maximal_floats_match_the_golden_digests():
    made_with, expected = golden_digests.read(golden_digests.SHARP_PATH)
    here = golden_digests.environment()
    if made_with != here:
        pytest.skip(f"the digests were made with {made_with}; this is {here}")
    got = golden_digests.sharp_digests()
    differ = sorted(name for name in expected.keys() | got.keys()
                    if expected.get(name) != got.get(name))
    assert not differ, f"not as in {golden_digests.SHARP_PATH.name}: {differ}"
