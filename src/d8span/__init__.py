"""Bounded-degree plane spanner construction on Delaunay triangulations."""

from .analysis import run_audits, stretch_vs_dt, witness_path
from .builder import ConstructionError, construct_d8
from .geometry import GeneralPositionError, PointSet

__all__ = [
    "PointSet",
    "construct_d8",
    "run_audits",
    "stretch_vs_dt",
    "witness_path",
    "ConstructionError",
    "GeneralPositionError",
]
