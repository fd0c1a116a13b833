"""Deterministic league-standings engine for time-share soccer scoring systems."""

from .errors import SeasonDataError
from .indicators import draws_to_wins, minutes_to_upper
from .ingest import minute_error_bound, parse_season
from .scoring import ScoringSystem, WeightTriple, scoring_rule
from .standings import SeasonLedger

__version__ = "0.1.0"
