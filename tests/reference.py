"""Reference code for the tests: the paper's award formulas and a step-by-step segmenter.

``paper_awards`` scores a match straight from the definitions of the four
systems in ``Fraction`` arithmetic. It shares no code with the package's
integer scoring rule, so a test that compares the season ledger with it
compares two independent codings. ``package_awards`` scores one match the way
the CLI does, through a one-match :class:`SeasonLedger`.
"""

from fractions import Fraction

from timescore.ingest import MatchRecord, SeasonDataset, Side
from timescore.scoring import ScoringSystem, WeightTriple
from timescore.standings import SeasonLedger
from timescore.timeline import SegmentBreakdown, effective_length, segment

PAPER_WEIGHTS = WeightTriple(3, 1, 0)


def _time_share(seg: SegmentBreakdown, weights: WeightTriple) -> tuple[Fraction, Fraction]:
    """(alpha_w*T_lead + alpha_d*T_level + alpha_l*T_trail) / T for (home, away)."""
    w, d, l = weights.alpha_w, weights.alpha_d, weights.alpha_l
    lead, level, trail, t = seg.t_win_home, seg.t_draw, seg.t_lose_home, seg.t_match
    return (w * lead + d * level + l * trail) / t, (w * trail + d * level + l * lead) / t


def _classic(goals_for: int, goals_against: int) -> int:
    return 3 if goals_for > goals_against else 1 if goals_for == goals_against else 0


def paper_awards(
    seg: SegmentBreakdown,
    final_score: tuple[int, int],
    system: ScoringSystem,
    weights: WeightTriple = PAPER_WEIGHTS,
) -> tuple[Fraction, Fraction]:
    """(home, away) points of a match with breakdown ``seg`` that ended ``final_score``.

    classic is 3/1/0; time is the time share under ``weights``; mixed is
    (time share at 3,1,0 + classic) / 2; goaldiff is (time share at 3,1,0 +
    classic + the goal difference clamped to 0..3) / 3.
    """
    hg, ag = final_score
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
    """:func:`paper_awards` for ``match``, segmented by the package's ``segment``."""
    return paper_awards(segment(match), match.final_score, system, weights)


def package_awards(match: MatchRecord, rule) -> tuple[Fraction, Fraction]:
    """(home, away) awards of ``match`` under ``rule``, from a one-match season ledger."""
    one = MatchRecord(1, match.home, match.away, match.goals, match.declared_length_s)
    ledger = SeasonLedger(SeasonDataset(matches=(one,)))
    home, away = ledger.awards(rule)
    den = ledger.den(rule)
    return Fraction(home, den), Fraction(away, den)


def segment_oracle(match: MatchRecord, resolution_s: int = 1) -> SegmentBreakdown:
    """Reference implementation: step the clock and classify each step.

    Simulates the score at ``resolution_s``-second steps, classifying each
    step by the score sign at the step's start (a goal at time t counts from
    the step starting at t). A trailing remainder shorter than the resolution
    is handled as one final short step. At 1-second resolution this equals
    :func:`segment` exactly; it exists as an independently-coded check.
    """
    if resolution_s < 1:
        raise ValueError("resolution must be a positive number of seconds")
    t_match = effective_length(match)
    goals = match.goals
    win = draw = lose = 0
    home = away = 0
    i = 0
    t = 0
    while t < t_match:
        while i < len(goals) and goals[i].time_s <= t:
            if goals[i].side is Side.HOME:
                home += 1
            else:
                away += 1
            i += 1
        step = min(resolution_s, t_match - t)
        if home > away:
            win += step
        elif home == away:
            draw += step
        else:
            lose += step
        t += step
    return SegmentBreakdown(win, draw, lose, t_match)
