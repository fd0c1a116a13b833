"""Season-level symmetries of the ``report`` command, checked without an oracle.

A drawn season and its image under a symmetry are each written as CSV or JSON
and run through ``cli.main``. Mirroring every fixture, or shuffling the match
list, must leave every report byte, the error line and the exit code unchanged.
"""

import random
import tempfile
from pathlib import Path

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from clirun import run_cli
from matchgen import minute_season, random_season, season_text, team_names, weight_triples
from reference import weight_fractions
from timescore.ingest import MatchRecord, SeasonDataset
from timescore.scoring import ScoringSystem

# A drawn seed is opaque, so shrinking it finds no simpler season.
_NO_SHRINK = [phase for phase in Phase if phase is not Phase.shrink]


def _report(season: SeasonDataset, as_csv: bool, args: list[str], seed: int):
    """The exit code, stderr and every written file of ``report`` on ``season``."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "season", Path(tmp) / "out"
        path.write_text(season_text(season, as_csv, random.Random(seed)), encoding="utf-8")
        result = run_cli(["report", "--input", str(path), "--out", str(out), *args])
        files = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}
    return result.exit_code, result.stderr, files


@st.composite
def _reports(draw):
    """(season, as_csv, report args, seed): a drawn season and the flags to report it."""
    seed = draw(st.integers(0, 2**32))
    teams = draw(st.sampled_from([4, 6]).flatmap(team_names))
    season = random_season(random.Random(seed), teams=teams)
    as_csv = draw(st.booleans())
    if as_csv:
        season = minute_season(season)
    systems = draw(st.lists(st.sampled_from(list(ScoringSystem)), min_size=1, max_size=4))
    args = [
        "--systems", ",".join(system.value for system in systems),
        "--weights", ",".join(map(str, weight_fractions(draw(weight_triples())))),
        "--decimals", str(draw(st.integers(0, 3))),
    ]
    return season, as_csv, args, seed


@given(_reports())
@settings(max_examples=25, deadline=None, phases=_NO_SHRINK)
def test_mirroring_every_fixture_leaves_every_report_byte(case):
    # Home and away swap and each goal changes side: every side keeps its own
    # clock split, result and goals, so no team's numbers move.
    season, as_csv, args, seed = case
    mirrored = SeasonDataset(matches=tuple(
        MatchRecord(m.round, m.away, m.home, tuple(-goal for goal in m.goals),
                    m.declared_length_s)
        for m in season.matches
    ))
    assert _report(mirrored, as_csv, args, seed) == _report(season, as_csv, args, seed)


@given(_reports(), st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None, phases=_NO_SHRINK)
def test_shuffling_the_match_list_leaves_every_report_byte(case, rng):
    # Rounds come from each match's round number, not from its place in the file.
    season, as_csv, args, seed = case
    matches = list(season.matches)
    rng.shuffle(matches)
    shuffled = SeasonDataset(matches=tuple(matches))
    assert _report(shuffled, as_csv, args, seed) == _report(season, as_csv, args, seed)
