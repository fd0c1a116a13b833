"""The bundled-season script regenerates data/ byte for byte."""

import sys
from pathlib import Path

import pytest

from gen_synthetic_season import TEAMS, double_round_robin, main, season_matches

ROOT = Path(__file__).resolve().parent.parent


def test_script_regenerates_the_bundled_season_byte_for_byte(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["gen_synthetic_season.py", "--out", str(tmp_path)])
    main()
    for name in ("synthetic_season.csv", "synthetic_season.json"):
        assert (tmp_path / name).read_bytes() == (ROOT / "data" / name).read_bytes()


def test_a_goalless_match_may_declare_its_length():
    # Seed 1 draws goalless matches that declare a length.
    fixtures = list(season_matches(1, TEAMS))
    assert any(not goals and length is not None for _, _, _, goals, length in fixtures)
    for _, _, _, goals, length in fixtures:
        if length is not None:
            assert length >= 91
            assert all(length > minute for _, minute in goals)


@pytest.mark.parametrize("count", [0, 1, 3])
def test_the_schedule_refuses_an_odd_or_too_small_league(count):
    # A check that python -O keeps: an odd league would get a schedule in
    # which some pairs never meet.
    with pytest.raises(ValueError, match="the schedule needs an even number of teams"):
        double_round_robin(["A", "B", "C"][:count])
