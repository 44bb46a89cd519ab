"""alertsift: provenance-guided suppression of false-positive monitoring alerts.

Five processing layers (record assembly, threshold detection, specialist
routing, six domain rule evaluators, weighted conflict resolution) plus a
deterministic synthetic scenario generator and an evaluation harness.
"""

from .assembly import SourceBundle, assemble, project_for_specialists
from .evaluate import aggregate_case, evaluate, wilson_interval
from .meta import DecisionHistory, MetaConfig, resolve
from .model import (
    AgentClaim,
    AgentDomain,
    AlertType,
    CandidateAlert,
    DeviceStatus,
    Epoch,
    PatientContext,
    ProvenanceTag,
    SystemDecision,
    TaggedValue,
    Verdict,
    VeritasRecord,
)
from .routing import RoutingDecision, route
from .sentinel import SentinelConfig, detect
from .specialists import SpecialistConfig, claims_for
from .synthgen import (
    TaxonomyEntry,
    default_taxonomy_path,
    generate_dataset,
    load_taxonomy,
    sample_truncated_gaussian,
)

__version__ = "0.1.0"

__all__ = [
    "AgentClaim",
    "AgentDomain",
    "AlertType",
    "CandidateAlert",
    "DecisionHistory",
    "DeviceStatus",
    "Epoch",
    "MetaConfig",
    "PatientContext",
    "ProvenanceTag",
    "RoutingDecision",
    "SentinelConfig",
    "SourceBundle",
    "SpecialistConfig",
    "SystemDecision",
    "TaggedValue",
    "TaxonomyEntry",
    "Verdict",
    "VeritasRecord",
    "aggregate_case",
    "assemble",
    "claims_for",
    "default_taxonomy_path",
    "detect",
    "evaluate",
    "generate_dataset",
    "load_taxonomy",
    "project_for_specialists",
    "resolve",
    "route",
    "sample_truncated_gaussian",
    "wilson_interval",
    "__version__",
]
