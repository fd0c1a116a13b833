"""The season ledger against paper-formula awards summed and ranked from scratch.

Each season goes through the JSON parser, each goal with its own precision,
and each match is segmented by the step-by-step oracle, not by ``MatchRecord.timeline``.
Rules that read no time are recounted from each match's goals alone, over their own scale.
"""

import hashlib
import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from clirun import run_cli
from matchgen import random_season, weight_triples
from reference import (
    SLACK_S, draws_recount, expected_rounds, final_score, paper_awards, paper_match_awards,
    segment_oracle,
)
import timescore.standings as standings_module
from timescore.cli import ecdf_report, evolution_report, indicators_report, table_report
from timescore.ingest import MatchRecord, SeasonDataset, parse_season
from timescore.scoring import ScoringRule, ScoringSystem, WeightTriple, scoring_rule
from timescore.standings import SeasonLedger, Standings


ROOT = Path(__file__).resolve().parent.parent
SEASON_CSV = ROOT / "data" / "synthetic_season.csv"
GOLDEN = ROOT / "tests" / "golden"

# These properties draw an opaque seed, and a smaller seed is no simpler season,
# so shrinking one finds nothing and re-ranks whole seasons in Fractions at each
# step: a failure is reported as drawn.
_NO_SHRINK = [phase for phase in Phase if phase is not Phase.shrink]


def _with_second_lengths(season: SeasonDataset, rng: random.Random) -> SeasonDataset:
    # Declare about half the matches a length to the second past 90' or the
    # last goal, so the ledger's common denominator spans many lengths.
    matches = []
    for match in season.matches:
        if rng.random() < 0.5:
            floor = max(5400, abs(match.goals[-1]) if match.goals else 0)
            length = floor + rng.randint(1, 600)
            match = MatchRecord(match.round, match.home, match.away, match.goals, length)
        matches.append(match)
    return SeasonDataset(matches=tuple(matches))


def _through_json(season: SeasonDataset, rng: random.Random) -> SeasonDataset:
    # Write every goal as a JSON goal object with a random precision and parse
    # the season back: the same signed goals, each match's slack the sum.
    docs, slacks = [], []
    for match in season.matches:
        precisions = [rng.choice(sorted(SLACK_S)) for _ in match.goals]
        goals = [
            {"side": "H" if goal > 0 else "A", "time_s": abs(goal), "precision": precision}
            for goal, precision in zip(match.goals, precisions)
        ]
        doc = {"round": match.round, "home": match.home, "away": match.away, "goals": goals}
        if match.declared_length_s is not None:
            doc["length_s"] = match.declared_length_s
        docs.append(doc)
        slacks.append(sum(map(SLACK_S.__getitem__, precisions)))
    parsed = parse_season(json.dumps({"matches": docs}))
    assert [m.goals for m in parsed.matches] == [m.goals for m in season.matches]
    assert [m.slack_s for m in parsed.matches] == slacks
    return parsed


def _seasons(seed: int, teams: int) -> SeasonDataset:
    rng = random.Random(seed)
    return _through_json(_with_second_lengths(random_season(rng, num_teams=teams), rng), rng)


@given(st.integers(0, 2**32), weight_triples(), st.sampled_from([4, 6, 8]))
@settings(max_examples=40, deadline=None, phases=_NO_SHRINK)
def test_ledger_rounds_equal_summed_match_points(seed, weights, teams):
    season = _seasons(seed, teams)
    segments = {match: segment_oracle(match) for match in season.matches}
    ledger = SeasonLedger(season)
    for system in ScoringSystem:
        rule = scoring_rule(system, weights)
        rounds = ledger.rounds(rule)
        expected = expected_rounds(season, system, weights, segments)
        count = 0
        for standings, (points, order) in zip(rounds, expected, strict=True):
            assert [standings.teams[i] for i in standings.order] == order
            for i, team in enumerate(standings.teams):
                assert Fraction(standings.points[i], standings.den) == points[team]
            count += 1
        assert count == season.num_rounds


@given(st.integers(0, 2**32), weight_triples())
@settings(max_examples=25, deadline=None, phases=_NO_SHRINK)
def test_order_read_once_equals_order_read_every_round(seed, weights):
    # Standings rank lazily: a stream whose order is read only after the last
    # round must end where a stream read every round ends, and both where the
    # from-scratch recount ends. The final standings, summed per team, are that
    # last round field by field; the first rule asks for them before any stream
    # has sorted a tie-break.
    season = _seasons(seed, 6)
    segments = {match: segment_oracle(match) for match in season.matches}
    ledger = SeasonLedger(season)
    assert dict(zip(ledger.teams, ledger.draws)) == draws_recount(season)
    for system in ScoringSystem:
        rule = scoring_rule(system, weights)
        final = ledger.final(rule)
        *_, read_once = ledger.rounds(rule)
        for read_every_round in ledger.rounds(rule):
            read_every_round.order  # ranks this round
        _assert_same_standings(final, read_once)
        *_, (points, order) = expected_rounds(season, system, weights, segments)
        for standings in (read_once, read_every_round, final):
            assert [standings.teams[i] for i in standings.order] == order
            assert [Fraction(p, standings.den) for p in standings.points] == [
                points[team] for team in standings.teams
            ]
            # Each fixture is one appearance for each side.
            assert standings.appearances == 2 * len(season.matches)


@given(st.integers(0, 2**32), weight_triples())
@settings(max_examples=15, deadline=None, phases=_NO_SHRINK)
def test_kept_rounds_each_hold_their_own_round(seed, weights):
    # Each round is its own Standings: kept in a list and read only after the
    # stream ends, every round still holds its own totals, count and order.
    season = _seasons(seed, 6)
    segments = {match: segment_oracle(match) for match in season.matches}
    ledger = SeasonLedger(season)
    fixtures = Counter(match.round for match in season.matches)
    for system in ScoringSystem:
        kept = list(ledger.rounds(scoring_rule(system, weights)))
        expected = expected_rounds(season, system, weights, segments)
        appearances = 0
        for round_no, (standings, (points, order)) in enumerate(
            zip(kept, expected, strict=True), start=1
        ):
            appearances += 2 * fixtures[round_no]
            assert standings.appearances == appearances
            assert [standings.teams[i] for i in standings.order] == order
            assert [Fraction(p, standings.den) for p in standings.points] == [
                points[team] for team in standings.teams
            ]


@given(st.integers(0, 2**32), weight_triples(), st.sampled_from([4, 6, 8]))
@settings(max_examples=30, deadline=None, phases=_NO_SHRINK)
def test_tally_expanded_by_its_counts_is_the_award_stream(seed, weights, teams):
    # Each distinct row's award, repeated as many times as sides had the row,
    # gives every side's paper-formula award as a multiset: classic over its
    # scale alone, and negative weights too.
    season = _seasons(seed, teams)
    ledger = SeasonLedger(season)
    for system in ScoringSystem:
        rule = scoring_rule(system, weights)
        nums, dens, counts = ledger.tally(rule)
        assert min(counts) >= 1
        if not rule.reads_time:
            assert set(dens) == {rule.scale}
        expanded = Counter()
        for num, den, count in zip(nums, dens, counts, strict=True):
            expanded[Fraction(num, den)] += count
        paper = Counter(
            award for match in season.matches
            for award in paper_awards(segment_oracle(match), final_score(match), system, weights)
        )
        assert expanded == paper
        assert sum(counts) == 2 * len(season.matches)


def test_rows_are_counted_once_per_ledger_and_only_for_the_ecdf(monkeypatch):
    # table, evolution and indicators never count the rows; the first ECDF
    # counts them for every rule, and a second ECDF reuses that count.
    calls = []

    def counting(rows):
        calls.append(1)
        return Counter(rows)

    monkeypatch.setattr(standings_module, "Counter", counting)
    ledger = SeasonLedger(random_season(random.Random(3)))
    rules = [scoring_rule(system) for system in ScoringSystem]
    for report in (table_report, evolution_report, indicators_report):
        report(ledger, rules, 2, False)
    assert calls == []
    ecdf_report(ledger, rules, 2, False)
    ecdf_report(ledger, rules, 2, False)
    assert calls == [1]


def test_commands_read_only_what_they_need(tmp_path, monkeypatch):
    # table reads the final standings alone, so it gives the same bytes with
    # the round stream gone; the ECDF ranks nothing, so it sorts no tie-break.
    def refuse(*args):
        raise AssertionError("read by a command that has no use for it")

    monkeypatch.setattr(SeasonLedger, "rounds", refuse)
    assert run_cli(["table", "--input", str(SEASON_CSV), "--out", str(tmp_path)]).exit_code == 0
    assert (tmp_path / "table.csv").read_bytes() == (GOLDEN / "table.csv").read_bytes()
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from workloads import FULL_TEAMS, WORKLOADS, season_bytes

    expected = json.loads((ROOT / "bench" / "expected.json").read_text())
    for name in ("league60_minute", "league60_exact"):
        workload = WORKLOADS[name]
        season = tmp_path / f"{name}.{'csv' if workload.kind == 'minute' else 'json'}"
        season.write_bytes(season_bytes(workload.kind, 1, FULL_TEAMS))
        out_dir = tmp_path / name
        argv = ["table", "--input", str(season), "--out", str(out_dir), *workload.flags]
        assert run_cli(argv).exit_code == 0
        digest = hashlib.sha256((out_dir / "table.csv").read_bytes()).hexdigest()
        assert digest == expected[name]["outputs"]["table.csv"]
    monkeypatch.setattr(standings_module, "_tiebreak", refuse)
    assert run_cli(["ecdf", "--input", str(SEASON_CSV), "--out", str(tmp_path)]).exit_code == 0
    for name in ("ecdf_classic.csv", "ecdf_time.csv"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()


def _assert_same_standings(final: Standings, last_round: Standings) -> None:
    assert final.teams == last_round.teams and final.rule == last_round.rule
    assert final.points == last_round.points
    assert final.den == last_round.den
    assert final.appearances == last_round.appearances
    assert list(final.tiebreak) == list(last_round.tiebreak)
    assert final.order == last_round.order


def _assert_classic_is_wins_and_draws_over_one(season: SeasonDataset, weights) -> None:
    # Classic reads no time, so the season's length lcm never reaches its
    # totals: each is 3*wins + draws over 1, every award is over 1.
    ledger = SeasonLedger(season)
    classic = scoring_rule(ScoringSystem.CLASSIC)
    assert ledger.den(classic) == 1
    assert set(ledger.tally(classic)[1]) == {1}
    final = ledger.final(classic)
    *_, last_round = ledger.rounds(classic)
    _assert_same_standings(final, last_round)
    assert final.den == 1
    points = Counter()
    for match in season.matches:
        home_goals, away_goals = final_score(match)
        if home_goals == away_goals:
            points[match.home] += 1
            points[match.away] += 1
        else:
            points[match.home if home_goals > away_goals else match.away] += 3
    assert final.points == [points[team] for team in final.teams]
    # A rule that reads time keeps the lcm, and its final standings, summed
    # per team, are the last round's and the paper's per-match awards summed.
    time = scoring_rule(ScoringSystem.TIME, weights)
    assert ledger.den(time) == time.scale * ledger.length_lcm
    final = ledger.final(time)
    *_, last_round = ledger.rounds(time)
    _assert_same_standings(final, last_round)
    paper = dict.fromkeys(season.teams, Fraction(0))
    for match in season.matches:
        home, away = paper_match_awards(match, ScoringSystem.TIME, weights)
        paper[match.home] += home
        paper[match.away] += away
    assert [Fraction(p, final.den) for p in final.points] == [paper[t] for t in final.teams]


@given(st.integers(0, 2**32), weight_triples())
@settings(max_examples=25, deadline=None, phases=_NO_SHRINK)
def test_classic_points_are_wins_and_draws_over_one(seed, weights):
    _assert_classic_is_wins_and_draws_over_one(_seasons(seed, 6), weights)


@given(weight_triples().map(
    # The same triple moved below zero: every weight negative.
    lambda w: WeightTriple(-1, w.alpha_d - w.alpha_w - 1, w.alpha_l - w.alpha_w - 1, w.scale)
))
@settings(max_examples=5, deadline=None)
def test_classic_den_is_one_past_a_two_thousand_bit_length_lcm(weights):
    # Each of a 20-team season's 380 matches has its own length.
    season = random_season(random.Random(23), num_teams=20)
    season = SeasonDataset(
        matches=tuple(
            MatchRecord(m.round, m.home, m.away, m.goals, 6001 + i)
            for i, m in enumerate(season.matches)
        )
    )
    assert SeasonLedger(season).length_lcm.bit_length() > 2000
    _assert_classic_is_wins_and_draws_over_one(season, weights)


@given(st.integers(0, 2**32))
@settings(max_examples=25, deadline=None, phases=_NO_SHRINK)
def test_time_free_rule_totals_are_fraction_sums_over_its_scale(seed):
    # (2r + g)/3: a rule other than classic that reads no time.
    season = _seasons(seed, 6)
    rule = ScoringRule(ScoringSystem.CLASSIC, 0, 0, 0, 2, 1, 3)
    ledger = SeasonLedger(season)
    assert ledger.den(rule) == 3
    points = dict.fromkeys(season.teams, Fraction(0))
    goals_for = dict.fromkeys(season.teams, 0)
    goal_diff = dict.fromkeys(season.teams, 0)
    standings = ledger.rounds(rule)
    for round_no in range(1, season.num_rounds + 1):
        for match in season.matches:
            if match.round != round_no:
                continue
            hg, ag = final_score(match)
            for team, gf, ga in ((match.home, hg, ag), (match.away, ag, hg)):
                result = 3 if gf > ga else 1 if gf == ga else 0
                points[team] += Fraction(2 * result + min(max(gf - ga, 0), 3), 3)
                goals_for[team] += gf
                goal_diff[team] += gf - ga
        order = sorted(
            season.teams, key=lambda t: (-points[t], -goal_diff[t], -goals_for[t], t)
        )
        current = next(standings)
        assert current.den == 3
        assert [Fraction(p, 3) for p in current.points] == [points[t] for t in current.teams]
        assert [current.teams[i] for i in current.order] == order
    assert next(standings, None) is None
