"""Deterministic league-standings engine for time-share soccer scoring systems."""

from .errors import SeasonDataError
from .indicators import draws_to_wins, indicator_bundle, minutes_to_upper
from .ingest import TimePrecision, minute_error_bound, parse_season, serialize_season
from .scoring import ScoringSystem, WeightTriple, scoring_rule
from .standings import SeasonLedger
from .timeline import segment

__version__ = "0.1.0"
