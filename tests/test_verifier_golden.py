"""Golden search results and witness constructions, recorded before the
verifier's profile builders, badness tests and search loops were merged.

The audited cells are every registry kind at its audited parameters,
under every scenario (refusals included), at 1 <= ell <= S.
SEARCH_GOLDEN is one sha256 over canonical JSON of search_lower_bound on
every audited cell at S <= 2 under SEARCH_SPEC: the best fraction, the
witness profile in file format and its sorted target, or the error class
when the search refuses the cell.  CATALOG_GOLDEN pins construct_witness
for every catalog token over the audited cells at S <= 3 in the same
way.  WIDE_CATALOG_GOLDEN does the same at S <= 5 with eps None and 1/7,
and COVERING_GOLDEN pins covering_token on every audited cell at S <= 5;
both were recorded before the catalog rows stated the kinds and scenarios
each construction covers.  AUDIT_GOLDEN pins search_lower_bound under the
audit's own spec on every pi-exact audited cell at S = 3.  It was
recorded before the search decided instances up to renaming, without the
phragmen-u/-o tactic cells at ell = 2, 3, and re-recorded with them once the sequential engines filled
the seats no candidate supports.  DEFAULT_SPEC_GOLDEN pins, at the
SearchSpec defaults, the best fraction and witness profile of cells where
some W strategy is fixed by a renaming of the decoys only together with
one of the targets, recorded while such answers were still keyed together
with W's groups.  PARTY_GOLDEN pins search_lower_bound on every party
cell of the default scope's apportionment methods at S <= 5, under the
audit's spec and under PARTY_SPEC, recorded while the party answers came
from a partition enumerator of their own.  AUDIT, PARTY, CATALOG and
WIDE_CATALOG were re-recorded when party witnesses stopped padding their
profiles with silent `!candidates Z...` parties; each new digest is the
old records' with those lines removed.  CATALOG, WIDE_CATALOG and
COVERING were re-recorded when `common-list-tie` came to cover the party
cells of every kind that elects as D'Hondt on party lists: the records
that changed are the thiele-add, thiele-o and borda party cells of that
row (18 and 90 catalog records, formerly CoverageError) and 45 covering
cells of those kinds (21 formerly None, 24 formerly symmetric-parties,
which comes later in the catalog); every other record is as before.
"""

import pytest

import hashlib
import json
from fractions import Fraction
from functools import lru_cache

from multiwin import search
from multiwin.audit import AUDIT_SPEC, covering_token, default_scope
from multiwin.ballots import format_profile
from multiwin.numerics import format_rational
from multiwin.scenarios import ScenarioId
from multiwin.search import SearchSpec, search_lower_bound
from multiwin.thresholds import PI, REGISTRY, MethodId, threshold
from multiwin.witnesses import CATALOG, construct_witness

SEARCH_SPEC = SearchSpec(max_candidates=4, weight_grid=3)

SEARCH_GOLDEN = (
    "001e299e2ee2da872bd00dfd9d68762638aeb379f81c3c02a4e8997b9ce71cac")
CATALOG_GOLDEN = (
    "70bd83c107dd35bbe08b866b8574e510dd08ff3cdd39890e241d0c6be0c81000")
AUDIT_GOLDEN = (
    "ce58c4a8f5d0222bf8cbd0d6fcd4e84a36e053a9303f6ac21b8f80d5525cac4a")
WIDE_CATALOG_GOLDEN = (
    "8bfa3ace30b0d3ca18141e8b897f047bb4b781735fbed3336f567be0112ad117")
COVERING_GOLDEN = (
    "79fb242ba13472149f3c9a8e525a421486969c9215d89a09628d19fe523cd487")
PARTY_SPEC = SearchSpec(max_candidates=6, weight_grid=8)
PARTY_GOLDEN = (
    "dcb2c41db94e940fa3364948253d87ff9356557fcd99636325a2bae6e3eb2922")

_ONE_DECOY = "!candidates A2 B2 B3\n!W %d : {A1}\n1 : {B1}\n"

DEFAULT_SPEC_GOLDEN = [
    # (method, scenario, ell, S, best fraction, witness profile)
    ("lv:2", "tactic", 2, 2, "1/2", "!seats 2\n" + _ONE_DECOY % 1),
    ("lv:2", "tactic", 2, 3, "1/2", "!seats 3\n" + _ONE_DECOY % 1),
    ("lv:2", "tactic", 1, 3, "2/5",
     "!seats 3\n!candidates B4\n!W 2 : {A1}\n1 : {B1 B2}\n1 : {B1 B3}\n"
     "1 : {B2 B3}\n"),
    ("bv", "tactic", 2, 2, "1/2", "!seats 2\n" + _ONE_DECOY % 1),
    ("bv", "tactic", 2, 3, "1/2", "!seats 3\n" + _ONE_DECOY % 1),
    ("bv", "tactic", 3, 3, "1/2",
     "!seats 3\n!candidates A2 A3 B2\n!W 1 : {A1}\n1 : {B1}\n"),
    ("av", "tactic", 2, 2, "1/2", "!seats 2\n" + _ONE_DECOY % 1),
    ("av", "tactic", 2, 3, "1/2", "!seats 3\n" + _ONE_DECOY % 1),
    ("av", "tactic", 3, 3, "1/2",
     "!seats 3\n!candidates A2 A3 B2\n!W 1 : {A1}\n1 : {B1}\n"),
    ("cvq", "tactic", 2, 2, "2/3", "!seats 2\n" + _ONE_DECOY % 2),
    ("phragmen-u", "tactic", 2, 2, "2/3", "!seats 2\n" + _ONE_DECOY % 2),
    ("thiele-opt", "tactic", 2, 2, "2/3", "!seats 2\n" + _ONE_DECOY % 2),
    ("thiele-elim", "tactic", 2, 2, "2/3", "!seats 2\n" + _ONE_DECOY % 2),
    ("cvq", "pjr", 1, 1, "3/4",
     "!seats 1\n!candidates B4\n!W 3 : {A1 B1 B2}\n1 : {B3}\n"),
    ("cvq", "ejr", 1, 1, "3/4",
     "!seats 1\n!candidates B4\n!W 3 : {A1 B1 B2}\n1 : {B3}\n"),
]


def _witness_record(witness) -> list:
    inst = witness.instance
    return [format_rational(witness.claimed_fraction),
            format_profile(inst.profile), sorted(inst.target), inst.ell,
            inst.scenario.value, witness.source]


def _cells(max_seats):
    # Every registry kind at its audited parameters under every scenario,
    # refusals included: the audit's default scope leaves out the
    # scenarios a kind's ballots cannot express.
    for kind, spec in REGISTRY.items():
        for param in spec.audited:
            for scenario in ScenarioId:
                for seats in range(1, max_seats + 1):
                    for ell in range(1, seats + 1):
                        yield MethodId(kind, param), scenario, ell, seats


def _digest(records) -> str:
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _search_record(method, scenario, ell, seats, spec) -> list:
    key = [method.label(), scenario.value, ell, seats]
    try:
        found, witness = search_lower_bound(method, scenario, ell, seats, spec)
    except (ValueError, TypeError) as exc:
        return key + [type(exc).__name__]
    return key + [format_rational(found)] + (
        _witness_record(witness) if witness is not None else [])


def search_records() -> list:
    return [_search_record(*cell, SEARCH_SPEC) for cell in _cells(2)]


def _pi_exact(method, scenario, ell, seats) -> bool:
    try:
        entry = threshold(method, scenario, ell, seats)
    except ValueError:
        return False
    return entry.is_exact and entry.kind == PI


def audit_search_records() -> list:
    return [_search_record(method, scenario, ell, seats, AUDIT_SPEC)
            for method, scenario, ell, seats in _cells(3)
            if seats == 3 and _pi_exact(method, scenario, ell, seats)]


def party_search_records() -> list:
    methods = dict.fromkeys(method for method, _ in default_scope()
                            if method.spec.ballot == "party")
    return [_search_record(method, ScenarioId.PARTY, ell, seats, spec)
            for spec in (AUDIT_SPEC, PARTY_SPEC) for method in methods
            for seats in range(1, 6) for ell in range(1, seats + 1)]


def catalog_records(max_seats=3, eps=None) -> list:
    records = []
    for token in CATALOG:
        for method, scenario, ell, seats in _cells(max_seats):
            key = [token, method.label(), scenario.value, ell, seats]
            try:
                witness = construct_witness(token, method, scenario, ell,
                                            seats, eps)
            except (ValueError, TypeError) as exc:
                records.append(key + [type(exc).__name__])
                continue
            records.append(key + _witness_record(witness))
    return records


def wide_catalog_records() -> list:
    return [[eps] + record for eps in (None, "1/7")
            for record in catalog_records(5, eps and Fraction(eps))]


def covering_records() -> list:
    return [[method.label(), scenario.value, ell, seats,
             covering_token(method, scenario, ell, seats)]
            for method, scenario, ell, seats in _cells(5)]


def test_golden_search():
    assert _digest(search_records()) == SEARCH_GOLDEN


def test_golden_audit_search():
    assert _digest(audit_search_records()) == AUDIT_GOLDEN


def test_golden_party_search():
    assert _digest(party_search_records()) == PARTY_GOLDEN


def test_golden_audit_search_with_a_small_orbit_cache(monkeypatch):
    # Evicted orbit sequences are built again; the level recursion reads
    # the cache through the module name, so it meets the small one too.
    small = lru_cache(maxsize=2)(search._orbit_firsts.__wrapped__)
    monkeypatch.setattr(search, "_orbit_firsts", small)
    assert _digest(audit_search_records()) == AUDIT_GOLDEN
    assert small.cache_info().currsize == 2


def test_golden_catalog():
    assert _digest(catalog_records()) == CATALOG_GOLDEN


def test_golden_wide_catalog():
    assert _digest(wide_catalog_records()) == WIDE_CATALOG_GOLDEN


def test_golden_covering_tokens():
    assert _digest(covering_records()) == COVERING_GOLDEN


@pytest.mark.parametrize("label, scenario, ell, seats, best, profile",
                         DEFAULT_SPEC_GOLDEN,
                         ids=["%s-%s-%d-%d" % cell[:4]
                              for cell in DEFAULT_SPEC_GOLDEN])
def test_golden_default_spec_search(label, scenario, ell, seats, best,
                                    profile):
    found, witness = search_lower_bound(MethodId.parse(label), scenario, ell,
                                        seats, SearchSpec())
    assert format_rational(found) == best
    assert format_profile(witness.instance.profile) == profile
