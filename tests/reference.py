"""Reference code for the tests: the paper's award formulas, a step-by-step segmenter
and a goal count.

``paper_awards`` scores a match straight from the definitions of the four
systems in ``Fraction`` arithmetic. It shares no code with the package's
integer scoring rule, so a test that compares the season ledger with it
compares two independent codings. ``season_awards`` expands a ledger's
:meth:`SeasonLedger.tally` into every award as a ``Fraction``, and
``package_awards`` reads one match's awards from the final standings of a
one-match :class:`SeasonLedger`. ``final_points`` totals a season's awards
from ``paper_awards``, and ``gaps_recount``,
``average_recount`` and ``minutes_to_upper_recount`` recount the indicators
from those totals in ``Fraction`` arithmetic. ``expected_rounds`` ranks each
round from scratch by the documented tie-break. ``indicator_files`` lays out
``indicators.csv`` and ``indicators.json``, and ``report_files`` every file of
the ``report`` command, from those rounds and recounts without the package's
standings, indicators or renderer: ``draws_recount`` and ``draws_to_wins_cells``
recount the classic draws-to-wins column with its ``N*`` cap, and
``csv_by_hand`` quotes cells by the README's rule. ``ecdf_columns`` renders an
ECDF from exact awards by counting, and ``rendered_by_hand`` rounds one value
half up without the package's renderer. ``segment_oracle`` and
``final_score`` recompute ``MatchRecord.timeline`` without the record's walk, and
``SLACK_S`` gives each goal precision's timing slack, apart from the parser's
table. ``build_parser`` and ``glue_values`` are the argparse reading of the
command line that the CLI's own reader replaced.
"""

import argparse
import itertools
import json
import math
from collections import Counter
from fractions import Fraction
from pathlib import Path

from timescore.cli import _COMMANDS, _SYSTEM_NAMES
from timescore.ingest import MatchRecord, SeasonDataset
from timescore.scoring import ScoringSystem, WeightTriple
from timescore.standings import SeasonLedger

PAPER_WEIGHTS = WeightTriple(3, 1, 0)
# The most seconds a goal recorded at each precision can be off its true time.
SLACK_S = {"minute_truncated": 59, "minute_rounded": 30, "exact": 0}


Breakdown = tuple[int, int, int, int]  # the home side's (leading, level, trailing, T) seconds


def weight_fractions(weights: WeightTriple) -> tuple[Fraction, Fraction, Fraction]:
    """(alpha_w, alpha_d, alpha_l) as Fractions."""
    alphas = (weights.alpha_w, weights.alpha_d, weights.alpha_l)
    w, d, l = (Fraction(alpha, weights.scale) for alpha in alphas)
    return w, d, l


def _time_share(seg: Breakdown, weights: WeightTriple) -> tuple[Fraction, Fraction]:
    """(alpha_w*T_lead + alpha_d*T_level + alpha_l*T_trail) / T for (home, away)."""
    w, d, l = weight_fractions(weights)
    lead, level, trail, t = seg
    return (w * lead + d * level + l * trail) / t, (w * trail + d * level + l * lead) / t


def _classic(goals_for: int, goals_against: int) -> int:
    return 3 if goals_for > goals_against else 1 if goals_for == goals_against else 0


def paper_awards(
    seg: Breakdown,
    score: tuple[int, int],
    system: ScoringSystem,
    weights: WeightTriple = PAPER_WEIGHTS,
) -> tuple[Fraction, Fraction]:
    """(home, away) points of a match with breakdown ``seg`` that ended ``score``.

    classic is 3/1/0; time is the time share under ``weights``; mixed is
    (time share at 3,1,0 + classic) / 2; goaldiff is (time share at 3,1,0 +
    classic + the goal difference clamped to 0..3) / 3.
    """
    hg, ag = score
    classic = (Fraction(_classic(hg, ag)), Fraction(_classic(ag, hg)))
    if system is ScoringSystem.CLASSIC:
        return classic
    if system is ScoringSystem.TIME:
        return _time_share(seg, weights)
    share = _time_share(seg, PAPER_WEIGHTS)
    if system is ScoringSystem.MIXED_HALF:
        return (share[0] + classic[0]) / 2, (share[1] + classic[1]) / 2
    assert system is ScoringSystem.GOALDIFF_THIRD
    bonus = (min(max(hg - ag, 0), 3), min(max(ag - hg, 0), 3))
    return (share[0] + classic[0] + bonus[0]) / 3, (share[1] + classic[1] + bonus[1]) / 3


def paper_match_awards(
    match: MatchRecord, system: ScoringSystem, weights: WeightTriple = PAPER_WEIGHTS
) -> tuple[Fraction, Fraction]:
    """:func:`paper_awards` for ``match``, segmented by the record's own ``timeline``."""
    return paper_awards(match.timeline[:4], final_score(match), system, weights)


def final_points(
    season: SeasonDataset, system: ScoringSystem, weights: WeightTriple = PAPER_WEIGHTS
) -> list[Fraction]:
    """Every team's season points from :func:`paper_match_awards`, highest first."""
    points = dict.fromkeys(season.teams, Fraction(0))
    for match in season.matches:
        home, away = paper_match_awards(match, system, weights)
        points[match.home] += home
        points[match.away] += away
    return sorted(points.values(), reverse=True)


def gaps_recount(points: list[Fraction]) -> list[Fraction] | None:
    """100*(P_1 - P_k)/P_1 for the 3rd, 9th (or last) and last of ``points``, highest first.

    None when the leader has no positive points, so no share of it means anything.
    """
    leader = points[0]
    if leader <= 0:
        return None
    return [100 * (leader - points[k]) / leader for k in (2, min(9, len(points)) - 1, -1)]


def average_recount(
    season: SeasonDataset, system: ScoringSystem, weights: WeightTriple
) -> Fraction:
    """Mean points per team appearance: every award of the season over twice the matches."""
    total = sum(sum(paper_match_awards(m, system, weights)) for m in season.matches)
    return total / (2 * len(season.matches))


def expected_rounds(
    season: SeasonDataset, system: ScoringSystem, weights: WeightTriple, segments
):
    """Per round: team -> exact points, and the teams in documented tie-break order.

    ``segments`` maps each match to its home side's (leading, level, trailing, T) seconds.
    """
    points = {team: Fraction(0) for team in season.teams}
    goals_for = dict.fromkeys(season.teams, 0)
    goal_diff = dict.fromkeys(season.teams, 0)
    for round_no in range(1, season.num_rounds + 1):
        for match in season.matches:
            if match.round != round_no:
                continue
            hg, ag = final_score(match)
            home_pts, away_pts = paper_awards(segments[match], (hg, ag), system, weights)
            points[match.home] += home_pts
            points[match.away] += away_pts
            goals_for[match.home] += hg
            goals_for[match.away] += ag
            goal_diff[match.home] += hg - ag
            goal_diff[match.away] += ag - hg
        # Points desc, goal difference desc, goals scored desc, name asc.
        order = sorted(
            season.teams, key=lambda t: (-points[t], -goal_diff[t], -goals_for[t], t)
        )
        yield dict(points), order


def rank_moves_recount(orders: list[list[str]]) -> int:
    """Teams whose rank differs from their rank the round before, summed over rounds 2..n."""
    moves = 0
    for before, after in zip(orders, orders[1:]):
        rank_before = {team: rank for rank, team in enumerate(before)}
        moves += sum(1 for rank, team in enumerate(after) if rank_before[team] != rank)
    return moves


def leaders_recount(orders: list[list[str]]) -> tuple[int, int]:
    """(rounds 2..n whose leader differs from the round before, distinct leaders)."""
    leaders = [order[0] for order in orders]
    changes = sum(1 for r in range(1, len(leaders)) if leaders[r] != leaders[r - 1])
    return changes, len(set(leaders))


# Each indicators row: its CSV label, its JSON key and its CSV decimals (None for a count).
INDICATOR_ROWS = (
    ("Gap 1st-3rd place (%)", "gap_1_3_pct", 1),
    ("Gap 1st-9th place (%)", "gap_1_9_pct", 1),
    ("Gap 1st-last (%)", "gap_1_last_pct", 1),
    ("# Overall Changes", "overall_changes", None),
    ("# Changes on Leadership", "leadership_changes", None),
    ("# Different Leaders", "distinct_leaders", None),
    ("Aver. points per game", "avg_points_per_team_game", 2),
)


def indicator_files(
    season: SeasonDataset, systems: list[ScoringSystem], weights: WeightTriple, comma: bool
) -> dict[str, str] | str:
    """``indicators.csv`` and ``indicators.json`` for ``systems``, from ``Fraction`` recounts.

    When a system's leader has no positive points, the CLI's error line for the
    first such system instead.
    """
    segments = {match: match.timeline[:4] for match in season.matches}
    columns = [["indicator", *(label for label, _, _ in INDICATOR_ROWS)]]
    doc: dict[str, dict[str, object]] = {}
    for system in systems:
        rounds = list(expected_rounds(season, system, weights, segments))
        orders = [order for _, order in rounds]
        points, order = rounds[-1]
        ranked = [points[team] for team in order]
        season_gaps = gaps_recount(ranked)
        if season_gaps is None:
            return (
                f"error: NON_POSITIVE_LEADER: {system.value} leader {order[0]} has "
                f"{ranked[0]} points; percentages of the leader need a positive leader\n"
            )
        values = (
            *season_gaps,
            rank_moves_recount(orders),
            *leaders_recount(orders),
            average_recount(season, system, weights),
        )
        column, fields = [system.value], doc.setdefault(system.value, {})
        for (_, key, places), value in zip(INDICATOR_ROWS, values, strict=True):
            if places is None:
                column.append(str(value))
                fields[key] = value
            else:
                column.append(rendered_by_hand(value, places, comma))
                fields[key] = str(value)
        columns.append(column)
    json_text = json.dumps(doc, indent=2, ensure_ascii=False) + "\n"
    return {"indicators.csv": csv_by_hand(zip(*columns)), "indicators.json": json_text}


def minutes_to_upper_recount(points: list[Fraction], weights: WeightTriple) -> list[Fraction]:
    """Each deficit to the team above, highest first, as 90-minute-match minutes of lead."""
    w, d, _ = weight_fractions(weights)
    return [(above - below) * 90 / (w - d) for above, below in zip(points, points[1:])]


def season_awards(ledger: SeasonLedger, rule) -> list[Fraction]:
    """Every award of the season, as :meth:`SeasonLedger.tally` counts them, in no set order."""
    nums, dens, counts = ledger.tally(rule)
    return [
        Fraction(num, den) for num, den, count in zip(nums, dens, counts) for _ in range(count)
    ]


def package_awards(match: MatchRecord, rule) -> tuple[Fraction, Fraction]:
    """(home, away) awards of ``match`` under ``rule``: a one-match ledger's final standings."""
    one = MatchRecord(1, match.home, match.away, match.goals, match.declared_length_s)
    *_, final = SeasonLedger(SeasonDataset(matches=(one,))).rounds(rule)
    points = dict(zip(final.teams, final.points))
    return Fraction(points[match.home], final.den), Fraction(points[match.away], final.den)


def rendered_by_hand(value: Fraction, decimals: int, comma: bool = False) -> str:
    """floor(value * 10**decimals + 1/2), with the point put in by hand."""
    digits = math.floor(value * 10**decimals + Fraction(1, 2))
    text = str(abs(digits)).rjust(decimals + 1, "0")
    if decimals:
        text = text[:-decimals] + ("," if comma else ".") + text[-decimals:]
    return "-" + text if digits < 0 else text


def ecdf_columns(awards: list[Fraction], comma: bool = False) -> tuple[list[str], list[str]]:
    """An ECDF's points and cumulative-fraction cells at six decimals, by counting.

    One row per distinct award, in increasing order; the fraction is the share
    of ``awards`` at or below it.
    """
    tally = Counter(awards)
    values = sorted(tally)
    counts = itertools.accumulate(tally[value] for value in values)
    return (
        [rendered_by_hand(value, 6, comma) for value in values],
        [rendered_by_hand(Fraction(count, len(awards)), 6, comma) for count in counts],
    )


def csv_by_hand(rows) -> str:
    """A CSV file's text from its rows, each ending in a newline.

    A cell holding a comma, a double quote, a carriage return or a line feed is
    put in double quotes with each double quote doubled; every other cell is
    written as it is.
    """
    def cell(text: str) -> str:
        if any(c in text for c in ',"\r\n'):
            return '"' + text.replace('"', '""') + '"'
        return text

    return "".join(",".join(map(cell, row)) + "\n" for row in rows)


def draws_recount(season: SeasonDataset) -> dict[str, int]:
    """Team -> the season's matches it drew, counted from each final score."""
    draws = dict.fromkeys(season.teams, 0)
    for match in season.matches:
        home_goals, away_goals = final_score(match)
        if home_goals == away_goals:
            draws[match.home] += 1
            draws[match.away] += 1
    return draws


def draws_to_wins_cells(
    order: list[str], points: dict[str, Fraction], draws: dict[str, int]
) -> list[str]:
    """Per team below the top: draws it must turn into wins to catch the team above.

    Each turned draw gains two classic points, so the count is ceil(deficit/2).
    When that is more than the team's draws, the cell is its draws and a ``*``.
    """
    cells = []
    for above, team in zip(order, order[1:]):
        needed = math.ceil((points[above] - points[team]) / 2)
        cells.append(f"{draws[team]}*" if needed > draws[team] else str(needed))
    return cells


def report_files(
    season: SeasonDataset, systems: list[ScoringSystem], weights: WeightTriple,
    decimals: int, comma: bool,
) -> dict[str, str] | str:
    """Every file the ``report`` command writes for ``systems``, from ``Fraction`` recounts.

    ``table.csv``, ``evolution_<system>.csv``, ``ecdf_<system>.csv`` and the
    two files of :func:`indicator_files`. When a system's leader has no
    positive points, the CLI's error line for the first such system instead.
    """
    files = indicator_files(season, systems, weights, comma)
    if isinstance(files, str):
        return files
    segments = {match: match.timeline[:4] for match in season.matches}
    ranks = [str(rank) for rank in range(1, len(season.teams) + 1)]
    table = [["rank", *ranks]]
    finals = {}
    for system in systems:
        rounds = list(expected_rounds(season, system, weights, segments))
        evolution = [("round", "team", "rank", "points")]
        for round_no, (points, order) in enumerate(rounds, start=1):
            evolution += (
                (str(round_no), team, rank, rendered_by_hand(points[team], decimals, comma))
                for rank, team in zip(ranks, order)
            )
        files[f"evolution_{system.value}.csv"] = csv_by_hand(evolution)
        awards = [a for match in season.matches for a in paper_match_awards(match, system, weights)]
        ecdf = [("points", "cumulative_fraction"), *zip(*ecdf_columns(awards, comma))]
        files[f"ecdf_{system.value}.csv"] = csv_by_hand(ecdf)
        points, order = finals[system] = rounds[-1]
        ranked = [points[team] for team in order]
        table += (
            [f"{system.value}_team", *order],
            [f"{system.value}_points", *(rendered_by_hand(p, decimals, comma) for p in ranked)],
            [f"{system.value}_pct_of_1st",
             *(rendered_by_hand(100 * p / ranked[0], 0, comma) for p in ranked)],
        )
    if ScoringSystem.TIME in finals:
        points, order = finals[ScoringSystem.TIME]
        minutes = minutes_to_upper_recount([points[team] for team in order], weights)
        table.append(["time_min_to_upper", "", *(rendered_by_hand(m, 0, comma) for m in minutes)])
    if ScoringSystem.CLASSIC in finals:
        points, order = finals[ScoringSystem.CLASSIC]
        cells = draws_to_wins_cells(order, points, draws_recount(season))
        table.append(["classic_draws_to_wins", "", *cells])
    files["table.csv"] = csv_by_hand(zip(*table))
    return files


def segment_oracle(match: MatchRecord, resolution_s: int = 1) -> Breakdown:
    """Reference implementation: step the clock and classify each step.

    Simulates the score at ``resolution_s``-second steps, classifying each
    step by the score sign at the step's start (a goal at time t counts from
    the step starting at t). A goal ``g`` falls at ``abs(g)`` seconds, for the
    home side when ``g > 0``. The match lasts its declared length, else 90'
    or until the last goal if later. A trailing remainder shorter than the
    resolution is handled as one final short step. At 1-second resolution
    this equals ``match.timeline[:4]`` exactly; it exists as an
    independently-coded check.
    """
    if resolution_s < 1:
        raise ValueError("resolution must be a positive number of seconds")
    goals = match.goals
    t_match = match.declared_length_s
    if t_match is None:
        t_match = max([90 * 60] + [abs(goal) for goal in goals])
    win = draw = lose = 0
    home = away = 0
    i = 0
    t = 0
    times = [abs(goal) for goal in goals] + [t_match + 1]  # a sentinel past the end
    while t < t_match:
        while times[i] <= t:
            if goals[i] > 0:
                home += 1
            else:
                away += 1
            i += 1
        step = resolution_s if t_match - t > resolution_s else t_match - t
        if home > away:
            win += step
        elif home == away:
            draw += step
        else:
            lose += step
        t += step
    return win, draw, lose, t_match


def final_score(match: MatchRecord) -> tuple[int, int]:
    """(home goals, away goals) at the final whistle, counted apart from ``match.timeline``."""
    home = sum(1 for goal in match.goals if goal > 0)
    return home, len(match.goals) - home


# The options that take a value; see glue_values.
_VALUE_OPTIONS = frozenset({"--input", "--systems", "--weights", "--out", "--decimals"})


def build_parser() -> argparse.ArgumentParser:
    """The CLI's grammar as an argparse parser; it parses ``glue_values(argv)``."""
    epilog = "commands:\n" + "".join(
        f"  {name:<12}{summary}\n" for name, (summary, _) in _COMMANDS.items()
    )
    parser = argparse.ArgumentParser(
        prog="timescore",
        description="Recompute league standings and competitiveness reports from goal timelines.",
        epilog=epilog,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        add_help=False,
        allow_abbrev=False,
    )
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    parser.add_argument(
        "command", choices=_COMMANDS, metavar="COMMAND", help="one of the commands below"
    )
    parser.add_argument(
        "--input", dest="input_path", required=True, type=Path, metavar="FILE",
        help="Season file, CSV or JSON (told apart by its content).",
    )
    parser.add_argument(
        "--systems", default="classic,time",
        help=f"Comma-separated scoring systems: {_SYSTEM_NAMES} (default: %(default)s).",
    )
    parser.add_argument(
        "--weights", default="3,1,0",
        help="Weights W,D,L for the time system (integers, decimals or fractions; "
        "default: %(default)s).",
    )
    parser.add_argument(
        "--out", dest="output_dir", required=True, type=Path, metavar="DIR",
        help="Output directory (created if missing).",
    )
    parser.add_argument(
        "--decimals", type=int, choices=range(4), default=2,
        help="Decimal places for points columns (default: %(default)s).",
    )
    parser.add_argument(
        "--decimal-comma", dest="decimal_comma", action="store_true",
        help="Render decimal values with a comma separator.",
    )
    return parser


def glue_values(argv: list[str]) -> list[str]:
    """Join each value option to the token after it, as ``--weights=-1,-2,-3``.

    A value may start with "-" (a negative first weight); argparse would read
    such a token as an option unless it is glued to its option with "=".
    """
    glued = []
    tokens = iter(argv)
    for token in tokens:
        if token in _VALUE_OPTIONS:
            value = next(tokens, None)
            if value is not None:
                token = f"{token}={value}"
        glued.append(token)
    return glued
