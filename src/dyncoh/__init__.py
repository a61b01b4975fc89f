"""Dynamical coherence of quantum channels.

Quantifies how well a channel detects or creates coherence through binary
phase-discrimination games: exact SDP evaluation of the pre-processed
improvement, certified lower-bound heuristics for the post-processed
improvement, and Monte-Carlo validation of the game interpretation.
"""

from .errors import DimensionMismatch, SolverFailure, ValidationError
from .measures import GameConfig, IncoherentPovm
from .sdp import (
    MeasureReport,
    enumerate_sign_vectors,
    extract_optimal,
    preprocessed_improvement,
)
from .search import (
    GameTranscript,
    brute_force_game_value,
    monte_carlo_game,
    no_preprocessing_improvement,
    postprocessed_improvement_lower,
)

__version__ = "0.1.0"

__all__ = [
    "DimensionMismatch",
    "GameConfig",
    "GameTranscript",
    "IncoherentPovm",
    "MeasureReport",
    "SolverFailure",
    "ValidationError",
    "brute_force_game_value",
    "enumerate_sign_vectors",
    "extract_optimal",
    "monte_carlo_game",
    "no_preprocessing_improvement",
    "postprocessed_improvement_lower",
    "preprocessed_improvement",
    "__version__",
]
