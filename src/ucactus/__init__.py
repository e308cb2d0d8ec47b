"""Exact two-center optimisation for uncertain points on cactus networks."""

from ucactus.decision import Verdict, decide, one_center
from ucactus.errors import (
    FormatError,
    InfeasibleParams,
    InternalInvariantError,
    TooLargeForOracle,
    UcactusError,
    ValidationError,
)
from ucactus.graph import CactusGraph, GraphPoint, validate_cactus
from ucactus.io import (
    instance_to_dict,
    parse_instance,
    random_instance,
    read_instance,
    write_instance,
)
from ucactus.optimizer import Solution, solve
from ucactus.oracle import (
    oracle_decide,
    oracle_median,
    oracle_one_center,
    oracle_solve,
)
from ucactus.reduction import Reduction, reduce_instance
from ucactus.uncertain import (
    Instance,
    Location,
    LocationTable,
    UncertainPoint,
    build_instance,
    expected_distance,
    instance_from_table,
    median,
    objective,
)

__version__ = "0.1.0"

__all__ = [
    "CactusGraph",
    "FormatError",
    "GraphPoint",
    "InfeasibleParams",
    "Instance",
    "InternalInvariantError",
    "Location",
    "LocationTable",
    "Reduction",
    "Solution",
    "TooLargeForOracle",
    "UcactusError",
    "UncertainPoint",
    "ValidationError",
    "Verdict",
    "build_instance",
    "decide",
    "expected_distance",
    "instance_from_table",
    "instance_to_dict",
    "median",
    "objective",
    "one_center",
    "oracle_decide",
    "oracle_median",
    "oracle_one_center",
    "oracle_solve",
    "parse_instance",
    "random_instance",
    "read_instance",
    "reduce_instance",
    "solve",
    "validate_cactus",
    "write_instance",
]
