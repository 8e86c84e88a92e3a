"""Synthetic Internet model: providers, AS database, population."""

from repro.internet.asdb import AsDatabase, AsEntry, IpAddr, build_default_asdb
from repro.internet.population import (
    DomainRecord,
    ListGroup,
    Population,
    PopulationConfig,
    build_population,
)
from repro.internet.providers import (
    NO_QUIC_PROVIDERS,
    PROVIDERS,
    Provider,
    provider_by_name,
)

__all__ = [
    "AsDatabase",
    "AsEntry",
    "DomainRecord",
    "IpAddr",
    "ListGroup",
    "NO_QUIC_PROVIDERS",
    "PROVIDERS",
    "Population",
    "PopulationConfig",
    "Provider",
    "build_default_asdb",
    "build_population",
    "provider_by_name",
]
