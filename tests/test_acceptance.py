"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines. Every
check is exact (rational equality) unless a runtime budget is stated.
"""

import itertools
import random
import time
from fractions import Fraction
from pathlib import Path

from clirun import run_cli
from matchgen import random_match_corpus, random_season, random_weight_triple
from reference import (
    package_awards,
    paper_awards,
    season_awards,
    segment_oracle,
    weight_fractions,
)
from timescore.display import format_ratios
from timescore.indicators import draws_to_wins, ecdf_steps, minutes_to_upper
from timescore.ingest import MatchRecord, SeasonDataset, parse_season
from timescore.scoring import ScoringSystem, scoring_rule
from timescore.standings import SeasonLedger, Standings

ROOT = Path(__file__).resolve().parent.parent
SEASON_CSV = ROOT / "data" / "synthetic_season.csv"
GOLDEN = ROOT / "tests" / "golden"

CORPUS = random_match_corpus(1000, seed=987654321)
TIME = scoring_rule(ScoringSystem.TIME)


def _ok(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number:02d} PASS: {text}")


def test_criterion_01_sum_identity_for_random_weights():
    rng = random.Random(24680)
    triples = [random_weight_triple(rng) for _ in range(20)]
    start = time.perf_counter()
    draw_shares = [Fraction(m.timeline[1], m.timeline[3]) for m in CORPUS]
    for weights, (match, draw_share) in itertools.product(triples, zip(CORPUS, draw_shares)):
        home, away = package_awards(match, scoring_rule(ScoringSystem.TIME, weights))
        w, d, l = weight_fractions(weights)
        expected = (w + l) + (2 * d - w - l) * draw_share
        assert home + away == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 5, f"took {elapsed:.2f}s, budget is 5s"
    _ok(1, f"sum identity exact on 1000 matches x 20 weight triples ({elapsed:.2f}s)")


def test_criterion_02_default_weights_ranges():
    for match in CORPUS:
        home, away = package_awards(match, TIME)
        total = home + away
        assert 2 <= total < 3
        if not match.goals:
            assert (home, away) == (1, 1)
        else:
            assert 0 < home < 3
            assert 0 < away < 3
    _ok(2, "per-match totals in [2,3) and awards in (0,3); goalless pairs exactly (1,1)")


def test_criterion_03_thirty_minute_lead_equals_goalless_draw():
    # No goal sequence leads 30' then trails 60' without a level second, so
    # the paper formula scores that breakdown.
    lead_then_trail, _ = paper_awards((1800, 0, 3600, 5400), (1, 2), ScoringSystem.TIME)
    goalless, _ = package_awards(MatchRecord(1, "Home", "Away"), TIME)
    assert lead_then_trail == Fraction(1)
    assert lead_then_trail == goalless
    _ok(3, "leading 30' and trailing 60' is worth exactly 1.0, same as a 0-0 draw")


def test_criterion_04_overtake_arithmetic():
    standings = Standings(("Lead", "Chase"), TIME, 100, [7573, 7500], 2, [0, 1])
    (num,), den = minutes_to_upper(standings)
    assert Fraction(num, den) == Fraction(3285, 100)
    assert format_ratios((num,), den, 0) == ["33"]

    classic = scoring_rule(ScoringSystem.CLASSIC)
    standings = Standings(("Chase", "Lead", "Third"), classic, 1, [71, 81, 60], 3, [0, 1, 2])
    assert standings.order == [1, 0, 2]
    assert draws_to_wins(standings, [11, 4, 6]) == [(5, False), (6, False)]
    _ok(4, "deficit 0.73 -> 32.85 min (displays 33); deficit 10 -> 5 draws-to-wins")


def test_criterion_05_average_points_denominator():
    teams = [f"Club{i:02d}" for i in range(1, 21)]
    pairs = list(itertools.permutations(teams, 2))
    assert len(pairs) == 380
    matches = []
    for i, (home, away) in enumerate(pairs):
        goals = (600,) if i < 273 else ()
        matches.append(
            MatchRecord(round=i // 10 + 1, home=home, away=away, goals=goals)
        )
    season = SeasonDataset(matches=tuple(matches))
    final = SeasonLedger(season).final(scoring_rule(ScoringSystem.CLASSIC))
    num, den = final.average()
    assert Fraction(num, den) == Fraction(1033, 760)
    assert format_ratios((num,), den, 2) == ["1.36"]
    _ok(5, "380-fixture season totaling 1033 classic points averages 1033/760 (1.36)")


def test_criterion_06_segment_matches_oracle_at_one_second():
    assert any(abs(g) > 5400 for m in CORPUS for g in m.goals), "corpus lacks stoppage goals"
    start = time.perf_counter()
    for match in CORPUS:
        assert match.timeline[:4] == segment_oracle(match, 1)
    elapsed = time.perf_counter() - start
    assert elapsed < 30, f"took {elapsed:.2f}s, budget is 30s"
    _ok(6, f"timeline equals 1-second oracle on 1000 matches incl. stoppage time ({elapsed:.2f}s)")


def test_criterion_07_mixed_final_points_are_exact_means():
    seasons = [parse_season(SEASON_CSV.read_bytes())]
    seasons += [random_season(random.Random(seed)) for seed in (31, 32, 33)]
    for season in seasons:
        ledger = SeasonLedger(season)
        points = []
        for system in (ScoringSystem.CLASSIC, ScoringSystem.TIME, ScoringSystem.MIXED_HALF):
            final = ledger.final(scoring_rule(system))
            points.append(
                {team: Fraction(p, final.den) for team, p in zip(final.teams, final.points)}
            )
        classic, timed, mixed = points
        for team in classic:
            assert mixed[team] == (classic[team] + timed[team]) / 2
    _ok(7, "mixed final points equal the exact mean of classic and time final points")


def test_criterion_08_extra_time_sensitivity():
    at_ninety = MatchRecord(1, "Home", "Away", (5400,))
    base = package_awards(at_ninety, TIME)[0]
    for k in range(1, 11):
        shifted = MatchRecord(1, "Home", "Away", ((90 + k) * 60,))
        moved = package_awards(shifted, TIME)[0]
        change = abs(moved - base)
        assert change <= Fraction(2 * k, 90 + k)
    _ok(8, "moving a lone decisive goal from 90' to 90+k' shifts <= 2k/(90+k) points, k=1..10")


def test_criterion_09_cli_determinism_and_goldens(tmp_path):
    produced = {
        "table": ["table.csv"],
        "evolution": ["evolution_classic.csv", "evolution_time.csv"],
        "indicators": ["indicators.csv", "indicators.json"],
        "ecdf": ["ecdf_classic.csv", "ecdf_time.csv"],
    }
    for command, filenames in produced.items():
        first = tmp_path / f"{command}_1"
        second = tmp_path / f"{command}_2"
        for out in (first, second):
            result = run_cli([command, "--input", str(SEASON_CSV), "--out", str(out)])
            assert result.exit_code == 0, result.output
        for name in filenames:
            once = (first / name).read_bytes()
            assert once == (second / name).read_bytes()
            assert once == (GOLDEN / name).read_bytes()
    _ok(9, "every CLI command is byte-identical across runs and matches the goldens")


def test_criterion_10_classic_ecdf_structure():
    seasons = [parse_season(SEASON_CSV.read_bytes())]
    seasons += [random_season(random.Random(seed)) for seed in (41, 42)]
    rule = scoring_rule(ScoringSystem.CLASSIC)
    for season in seasons:
        ledger = SeasonLedger(season)
        uppers, counts, bits = ecdf_steps(ledger.tally(rule))
        # Classic awards are whole points, so each step's key is its award.
        assert {(upper - 1) >> bits for upper in uppers} <= {0, 1, 3}
        assert counts[-1] == len(season_awards(ledger, rule)) == 2 * len(season.matches)
    _ok(10, "classic ECDF support within {0,1,3} and cumulative mass exactly 1")
