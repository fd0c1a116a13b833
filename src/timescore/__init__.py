"""Deterministic league-standings engine for time-share soccer scoring systems."""

from .errors import SeasonDataError
from .indicators import compute_bundle, draws_to_wins, minutes_to_upper, points_ecdf
from .ingest import TimePrecision, minute_error_bound, parse_season, serialize_season
from .scoring import ScoringSystem, WeightTriple, scoring_rule, time_points
from .standings import SeasonLedger, evolution, final_table
from .timeline import segment, segment_oracle

__version__ = "0.1.0"
