"""Empirical side of the thresholds: witnesses, search, and audits.

The three checks live in their own modules, each importing only the ones
before it: `witnesses` (engine dispatch, replay and the catalog of
extremal constructions), `search` (bounded brute force over unit-ballot
profiles) and `audit` (the inequality families over the threshold
corpus).  This module re-exports their public names.
"""

from .audit import (AUDIT_SPEC, AuditCheck, AuditReport, audit_table,
                    covering_token, default_scope)
from .search import SearchSpec, search_lower_bound
from .witnesses import (CATALOG, Witness, construct_witness,
                        party_seat_vectors, run_method, verify_witness)

__all__ = ["AUDIT_SPEC", "AuditCheck", "AuditReport", "CATALOG", "SearchSpec",
           "Witness", "audit_table", "construct_witness", "covering_token",
           "default_scope", "party_seat_vectors", "run_method",
           "search_lower_bound", "verify_witness"]
