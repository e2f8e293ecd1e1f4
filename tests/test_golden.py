"""The suite's reports and stdout, and the floats of the sharp maximal
function, the ball means and the Hardy-Littlewood maximal function, are
byte-identical to the digests in tests/golden/suite.sha256,
tests/golden/sharp_maximal.sha256 and tests/golden/ball_means.sha256
(see tests/golden_digests.py)."""

import pytest

import golden_digests
from fatou_lab import cli


def _expected(path) -> dict:
    """The digests path records; skips in another environment."""
    made_with, expected = golden_digests.read(path)
    here = golden_digests.environment()
    if made_with != here:
        pytest.skip(f"the digests were made with {made_with}; this is {here}")
    return expected


def _assert_same(path, expected: dict, got: dict) -> None:
    differ = sorted(name for name in expected.keys() | got.keys()
                    if expected.get(name) != got.get(name))
    assert not differ, f"not as in {path.name}: {differ}"


def test_suite_output_matches_the_golden_digests(battery, tmp_path,
                                                 monkeypatch, capsys):
    expected = _expected(golden_digests.PATH)
    # the battery's cached reports, rendered and printed by the suite itself
    monkeypatch.setattr(cli, "run_experiment",
                        lambda cfg: battery[cfg.experiment][0])
    cli.main(["suite", "--output-dir", str(tmp_path)])
    _assert_same(golden_digests.PATH, expected,
                 golden_digests.digests(tmp_path, capsys.readouterr().out))


def test_sharp_maximal_floats_match_the_golden_digests():
    expected = _expected(golden_digests.SHARP_PATH)
    _assert_same(golden_digests.SHARP_PATH, expected,
                 golden_digests.sharp_digests())


def test_ball_means_and_hl_max_floats_match_the_golden_digests():
    expected = _expected(golden_digests.BALL_PATH)
    _assert_same(golden_digests.BALL_PATH, expected,
                 golden_digests.ball_digests())
