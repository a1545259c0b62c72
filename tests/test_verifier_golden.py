"""Golden search results and witness constructions, recorded before the
verifier's profile builders, badness tests and search loops were merged.

SEARCH_GOLDEN is one sha256 over canonical JSON of search_lower_bound on
every default-scope pair at ell <= S <= 2 under SEARCH_SPEC: the best
fraction, the witness profile in file format and its sorted target, or
the error class when the search refuses the cell.  CATALOG_GOLDEN pins
construct_witness for every catalog token over the default-scope methods,
every scenario and ell <= S <= 3 in the same way.
"""

import hashlib
import json

from multiwin.ballots import format_profile
from multiwin.numerics import format_rational
from multiwin.scenarios import ScenarioId
from multiwin.verifier import (CATALOG, SearchSpec, construct_witness,
                               default_scope, search_lower_bound)

SEARCH_SPEC = SearchSpec(max_candidates=4, weight_grid=3)

SEARCH_GOLDEN = (
    "613d4d03d39cc734ca344947ae7a69865fd08c04ab97097f4939169487e3b28f")
CATALOG_GOLDEN = (
    "063f21ac73b07a06a56a7d4ad6246f94f23732dc56abf49b816f1316137a7ea1")


def _witness_record(witness) -> list:
    inst = witness.instance
    return [format_rational(witness.claimed_fraction),
            format_profile(inst.profile), sorted(inst.target), inst.ell,
            inst.scenario.value, witness.source]


def _cells(max_seats):
    for method, scenario in default_scope():
        for seats in range(1, max_seats + 1):
            for ell in range(1, seats + 1):
                yield method, ScenarioId(scenario), ell, seats


def _digest(records) -> str:
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def search_records() -> list:
    records = []
    for method, scenario, ell, seats in _cells(2):
        key = [method.label(), scenario.value, ell, seats]
        try:
            found, witness = search_lower_bound(method, scenario, ell, seats,
                                                SEARCH_SPEC)
        except (ValueError, TypeError) as exc:
            records.append(key + [type(exc).__name__])
            continue
        records.append(key + [format_rational(found)] + (
            _witness_record(witness) if witness is not None else []))
    return records


def catalog_records() -> list:
    records = []
    for token in CATALOG:
        for method, scenario, ell, seats in _cells(3):
            key = [token, method.label(), scenario.value, ell, seats]
            try:
                witness = construct_witness(token, method, scenario, ell,
                                            seats)
            except (ValueError, TypeError) as exc:
                records.append(key + [type(exc).__name__])
                continue
            records.append(key + _witness_record(witness))
    return records


def test_golden_search():
    assert _digest(search_records()) == SEARCH_GOLDEN


def test_golden_catalog():
    assert _digest(catalog_records()) == CATALOG_GOLDEN
