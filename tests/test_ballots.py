"""Profile parsing, formatting, normalization and weight schemes."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from multiwin.ballots import (RESERVED_CHARS, ListBallot, OutcomeSet,
                              PartyBallot, Profile, ProfileError,
                              ProfileParseError, SetBallot, WeightScheme,
                              WeightedBallot, _check_name, _check_names,
                              format_profile, normalize, parse_profile, scale)

SET_TEXT = """
# comment line
!seats 3
!W 13 : {K L M}
1 : {A}
9 : {A B}   # trailing comment
9 : {A C}
9 : {B}
9 : {C}
"""


def test_parse_set_profile():
    profile = parse_profile(SET_TEXT)
    assert profile.seats == 3
    assert profile.kind == "set"
    assert profile.total_weight == 50
    assert profile.w_weight == 13
    assert profile.candidates == frozenset("ABCKLM")


def test_parse_ordered_profile():
    profile = parse_profile("!seats 2\n61 : [A B]\n!W 39 : [C D]\n")
    assert profile.kind == "list"
    assert profile.w_ballots()[0].content.ranking == ("C", "D")


def test_parse_party_profile():
    profile = parse_profile("!seats 3\n5 : party P\n3 : party Q\n"
                            "!candidates R\n1 : party R\n")
    assert profile.kind == "party"
    assert {b.content.party for b in profile.ballots} == {"P", "Q", "R"}


def test_party_profile_may_name_fewer_parties_than_seats():
    profile = parse_profile("!seats 5\n3 : party P0\n2 : party P1\n")
    assert (profile.seats, profile.candidates) == (5, frozenset({"P0", "P1"}))
    assert format_profile(profile) == "!seats 5\n3 : party P0\n2 : party P1\n"
    with pytest.raises(ProfileError, match="universe"):
        Profile([WeightedBallot(ListBallot(["A"]), 1)], 2)


def test_parse_rational_weights():
    profile = parse_profile("!seats 1\n1/3 : {A}\n2/3 : {B}\n")
    assert profile.total_weight == 1


def test_extra_candidates_directive():
    profile = parse_profile("!seats 2\n!candidates X Y\n1 : {A}\n")
    assert profile.candidates == frozenset("AXY")


@pytest.mark.parametrize("text, fragment", [
    ("1 : {A}\n", "seats"),
    ("!seats 2\n", "no ballot"),
    ("!seats 1\nx : {A}\n", "weight"),
    ("!seats 1\n1 : (A)\n", "unrecognized"),
    ("!seats 1\n1 : {A A}\n", "duplicate"),
    ("!seats 1\n1 : {}\n", "empty"),
    ("!seats 1\n!bogus\n1 : {A}\n", "directive"),
    ("!seats 2\n1 : {A}\n", "universe"),
    ("!seats 1\n1 : {A}\n1 : [A B]\n", "mixes"),
    ("!seats x\n1 : {A}\n", "bad seat count"),
    ("!seats 0\n1 : {A}\n", "seats must be positive"),
    ("!seats 1\n1 : []\n", "empty ordered ballot"),
    ("!seats 1\n1 : [A A]\n", "duplicate"),
    ("!seats 1\n0 : {A}\n", "weight must be positive"),
    ("!seats 1\n-1/2 : {A}\n", "weight must be positive"),
    ("!seats 1\n1 : {A}\n!seats 1\n", "line 3: duplicate '!seats' directive"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(ProfileError) as err:
        parse_profile(text)
    assert fragment in str(err.value)


def test_parse_error_reports_line_number():
    with pytest.raises(ProfileParseError) as err:
        parse_profile("!seats 1\n1 : {A}\nbroken\n")
    assert "line 3" in str(err.value)


def test_format_round_trip():
    profile = parse_profile(SET_TEXT)
    again = parse_profile(format_profile(profile))
    assert again == profile


def test_format_round_trip_ordered():
    profile = parse_profile("!seats 2\n!W 1/2 : [B A]\n3 : [A B]\n")
    assert parse_profile(format_profile(profile)) == profile


def test_normalize_merges_duplicate_groups():
    profile = parse_profile("!seats 1\n1 : {A}\n2 : {A}\n!W 1 : {A}\n")
    merged = normalize(profile)
    assert len(merged.ballots) == 2          # W flag kept distinct
    assert merged.total_weight == profile.total_weight
    weights = sorted(b.weight for b in merged.ballots)
    assert weights == [1, 3]


def test_scale_preserves_ratios():
    profile = parse_profile(SET_TEXT)
    doubled = scale(profile, 2)
    assert doubled.total_weight == 100
    assert doubled.w_weight / doubled.total_weight == \
        profile.w_weight / profile.total_weight


def test_outcome_set_sorted_and_membership():
    outcomes = OutcomeSet([frozenset("AB"), frozenset("AC")])
    assert outcomes.sorted_committees() == [("A", "B"), ("A", "C")]
    assert frozenset("CA") in outcomes
    assert len(outcomes) == 2


@pytest.mark.parametrize("build, fragment", [
    (lambda: SetBallot([]), "must be non-empty"),
    (lambda: ListBallot([]), "must be non-empty"),
    (lambda: ListBallot(["A", "B", "A"]), "duplicate names"),
    (lambda: WeightedBallot(SetBallot(["A"]), 0), "weight must be positive"),
    (lambda: WeightedBallot(SetBallot(["A"]), -1), "weight must be positive"),
    (lambda: Profile([], 1), "at least one ballot group"),
    (lambda: Profile([WeightedBallot(SetBallot(["A"]), 1)], 0),
     "seats must be positive"),
    (lambda: Profile([WeightedBallot(SetBallot(["A:B"]), 1)], 1),
     "invalid candidate/party name"),
    (lambda: Profile([WeightedBallot(PartyBallot("P"), 1)], 1, ["Q R"]),
     "invalid candidate/party name"),
    (lambda: scale(parse_profile(SET_TEXT), 0), "scale factor"),
    (lambda: scale(parse_profile(SET_TEXT), Fraction(-1, 2)), "scale factor"),
])
def test_ballots_and_profiles_refuse_invalid_input(build, fragment):
    with pytest.raises(ProfileError, match=fragment):
        build()


@pytest.mark.parametrize("kind", [list, tuple, set, frozenset])
def test_outcome_set_takes_committees_of_any_collection(kind):
    outcomes = OutcomeSet(kind(c) for c in (("A", "B"), ("C", "A"), "BA"))
    assert outcomes.committees == {frozenset("AB"), frozenset("AC")}
    assert all(type(c) is frozenset for c in outcomes.committees)


def test_outcome_set_requires_committees():
    for empty in ([], (), iter(())):
        with pytest.raises(ProfileError):
            OutcomeSet(empty)


def test_harmonic_scheme_weights():
    scheme = WeightScheme.harmonic()
    assert [scheme.w(k) for k in (1, 2, 3)] == [1, Fraction(1, 2),
                                                Fraction(1, 3)]
    assert scheme.psi(3) == Fraction(11, 6)


def test_weak_scheme_weights():
    scheme = WeightScheme.weak()
    assert scheme.w(1) == 1
    assert scheme.w(2) == 0
    assert scheme.psi(5) == 1


def test_constant_scheme_weights():
    scheme = WeightScheme.constant()
    assert scheme.w(9) == 1
    assert scheme.psi(4) == 4


def test_explicit_scheme_prefix_and_tail():
    scheme = WeightScheme.explicit([1, Fraction(1, 3)], tail=Fraction(1, 9))
    assert scheme.w(1) == 1
    assert scheme.w(2) == Fraction(1, 3)
    assert scheme.w(5) == Fraction(1, 9)


def test_explicit_scheme_must_not_increase():
    with pytest.raises(ValueError):
        WeightScheme.explicit([1, Fraction(1, 3)], tail=Fraction(1, 2))
    for prefix in ([], [Fraction(1, 2)], [2, 1]):
        with pytest.raises(ValueError, match="requires w_1 = 1"):
            WeightScheme.explicit(prefix)
    for scheme in (WeightScheme.harmonic(), WeightScheme.explicit([1])):
        with pytest.raises(ValueError, match="index must be >= 1"):
            scheme.w(0)


def test_scheme_labels_round_trip_identity():
    for scheme in (WeightScheme.harmonic(), WeightScheme.weak(),
                   WeightScheme.constant(),
                   WeightScheme.explicit([1, Fraction(1, 3)], Fraction(1, 9)),
                   WeightScheme.explicit([1, Fraction(1, 3)], Fraction(1, 5)),
                   WeightScheme.explicit([1, Fraction(1, 2), Fraction(1, 2)],
                                         Fraction(1, 3))):
        assert WeightScheme.parse(scheme.label()) == scheme
    assert WeightScheme.parse("") == WeightScheme.harmonic()
    with pytest.raises(ValueError, match="unknown weight scheme 'bogus'"):
        WeightScheme.parse("bogus")


def test_ballot_names():
    assert SetBallot(["B", "A"]).names() == ("A", "B")
    assert ListBallot(["B", "A"]).names() == ("B", "A")
    assert PartyBallot("P").names() == ("P",)


def test_profile_equality_is_structural():
    one = parse_profile("!seats 1\n1 : {A}\n2 : {B}\n")
    two = parse_profile("!seats 1\n1 : {A}\n2 : {B}\n")
    assert one == two


# ---------------------------------------------------------------------------
# Name checks and int weights


def _invalid(name):
    """The name test as a per-character scan: empty, or some character
    is whitespace or reserved."""
    return not name or any(ch.isspace() or ch in RESERVED_CHARS
                           for ch in name)


def _refused(check, names):
    try:
        check(names)
    except ProfileError:
        return True
    return False


def test_check_name_refuses_every_space_and_reserved_character():
    spaces = [chr(code) for code in range(sys.maxunicode + 1)
              if chr(code).isspace()]
    assert len(spaces) > 6             # more than ASCII whitespace
    for ch in spaces + sorted(RESERVED_CHARS):
        for name in (ch, "A%sB" % ch, "AB" + ch):
            assert _refused(_check_name, name)
            assert _refused(_check_names, {"A", name})
    assert _refused(_check_name, "")
    assert _refused(_check_names, {"A", ""})
    assert not _refused(_check_names, {"A", "B_1", "\u00e9"})


@given(st.text())
def test_check_name_matches_the_character_scan(name):
    assert _refused(_check_name, name) == _invalid(name)


@given(st.sets(st.text(max_size=4), max_size=4))
def test_check_names_refuses_a_set_with_any_invalid_name(names):
    assert _refused(_check_names, names) == any(map(_invalid, names))


def test_int_weights_stay_ints_and_equal_their_fractions():
    content = SetBallot(["A"])
    whole, rational = WeightedBallot(content, 2), WeightedBallot(
        content, Fraction(2))
    assert type(whole.weight) is int
    assert type(rational.weight) is Fraction
    assert whole == rational and hash(whole) == hash(rational)
    assert WeightedBallot(content, 0.5).weight == Fraction(1, 2)
    assert format_profile(Profile([whole], 1)) == format_profile(
        Profile([rational], 1))
