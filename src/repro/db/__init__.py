"""Database facade, catalog, indexes and sample data."""

from repro.db.catalog import Catalog
from repro.db.database import (
    Database,
    QueryResult,
    demo_company_database,
    demo_database,
    demo_travel_database,
)
from repro.db.index import HashIndex
from repro.db.persist import (
    dump_database,
    load_database,
    restore_database,
    save_database,
)
from repro.db.sample_data import (
    company_schema,
    make_company,
    make_travel_agency,
    travel_schema,
)

__all__ = [
    "Catalog",
    "Database",
    "HashIndex",
    "QueryResult",
    "company_schema",
    "demo_company_database",
    "demo_database",
    "dump_database",
    "load_database",
    "restore_database",
    "save_database",
    "demo_travel_database",
    "make_company",
    "make_travel_agency",
    "travel_schema",
]
