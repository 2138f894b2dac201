"""Collaboration analytics for small-group projects.

Models student-subtask interactions as bipartite networks, measures the
quantity and heterogeneity of each student's contribution, classifies
emerging roles, tracks role transitions across projects, and runs the
matching small-sample tests (Mann-Whitney U, Barnard's exact test).
"""

__version__ = "0.1.0"

from .measures import (
    BipartiteNetwork,
    TypeHistogram,
    build_network,
    heterogeneity,
    max_entropy_composition,
    max_entropy_constant,
    type_histogram,
    weighted_degree,
)
from .model import (
    Dataset,
    DataFormatError,
    InteractionRecord,
    ProjectSpec,
    Subtask,
    TeamRoster,
    Violation,
    dataset_to_json,
    load_dataset,
    parse_interactions,
    parse_project_specs,
    parse_team_rosters,
    validate_dataset,
    write_dataset,
)
from .roles import (
    ContingencyTable2x2,
    ContributionProfile,
    Role,
    RoleTransition,
    Thresholds,
    build_contingency,
    classify,
    profile_team,
    role_transitions,
    unpaired_students,
)
from .stats import (
    BarnardResult,
    MwuResult,
    barnard_test,
    exact_u_distribution,
    mann_whitney_from_u,
    mann_whitney_u,
    wald_pooled_statistic,
)
from .synth import (
    InfeasibleTargetError,
    PlantedCohortSpec,
    ProjectTemplate,
    RoleTarget,
    generate_cohort,
    load_cohort_spec,
    plant_contribution,
)

__all__ = [name for name in dir() if not name.startswith("_")]
