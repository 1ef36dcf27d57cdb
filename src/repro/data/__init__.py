"""Instances, configurations, accesses, and access paths (paper Section 2)."""

from repro.data.configuration import Configuration
from repro.data.instance import Fact, Instance
from repro.data.paths import (
    AccessPath,
    AccessResponse,
    PathView,
    apply_access,
    enumerate_well_formed_accesses,
    is_well_formed,
    response_from_instance,
)

__all__ = [
    "Fact",
    "Instance",
    "Configuration",
    "AccessResponse",
    "AccessPath",
    "PathView",
    "is_well_formed",
    "apply_access",
    "response_from_instance",
    "enumerate_well_formed_accesses",
]
