"""Cross-engine identities: different counting engines that must return
the same OutcomeSet on every profile, checked as differential
properties, and the lemma on the engines' committees that the search
leans on.  A mismatch is an engine defect."""

from hypothesis import given, settings, strategies as st

from multiwin.ballots import (DEFAULT_BRANCH_CAP, ListBallot, Profile,
                              ProfileError, SetBallot, WeightedBallot)
from multiwin.thresholds import REGISTRY, CoverageError, MethodId
from multiwin.witnesses import run_method

from test_properties import NAMES, list_profiles, rationals, set_profiles

CONSTANT_SATISFACTION = tuple(map(MethodId.parse, (
    "av", "thiele-add:constant", "thiele-opt:constant")))


@settings(max_examples=150, deadline=None)
@given(set_profiles(rationals))
def test_av_equals_constant_thiele(profile):
    """av = thiele-add:constant = thiele-opt:constant, whole OutcomeSets
    and truncated flags at the default branch cap.

    Let s(c) be the total weight of the ballots approving c.  With the
    constant weights w_k = 1, a ballot of weight v with t elected names
    contributes v t to a committee's satisfaction, so committee W scores
    sum_{c in W} s(c).  An S-set W maximizes that sum iff no swap of a
    member for a non-member raises it, that is iff min_{c in W} s(c) >=
    max_{c not in W} s(c).  Those are exactly av's committees: every
    candidate above the S-th highest score, plus every choice of the
    rest among those tied at it.  So thiele-opt:constant = av.  In
    sequential addition a candidate's marginal gain is s(c) whatever is
    elected, so each round adds a remaining candidate of highest s;
    following every tie, the committees reached are the S-sets whose
    members all score at least every non-member, again av's.

    With at most 5 candidates no engine holds more than C(5, 2) = 10
    states or committees, far below the default cap, so none truncates
    and the three flags agree as False.
    """
    av, *thiele = (run_method(method, profile, DEFAULT_BRANCH_CAP)
                   for method in CONSTANT_SATISFACTION)
    for outcome, method in zip(thiele, CONSTANT_SATISFACTION[1:]):
        assert outcome == av, method
    assert not av.truncated


SINGLETON_EQUAL = tuple(map(MethodId.parse, (
    "sntv", "av", "bv", "lv:1", "cvq", "phragmen-u", "thiele-add",
    "thiele-opt", "thiele-elim")))


@st.composite
def singleton_profiles(draw):
    """Set profiles whose every ballot names one candidate."""
    pool = NAMES[:draw(st.integers(min_value=2, max_value=5))]
    groups = draw(st.lists(st.tuples(st.sampled_from(pool), rationals),
                           min_size=1, max_size=4))
    seats = draw(st.integers(min_value=1, max_value=len(pool)))
    return Profile([WeightedBallot(SetBallot([name]), weight)
                    for name, weight in groups], seats, pool)


@settings(max_examples=150, deadline=None)
@given(singleton_profiles())
def test_singleton_ballots_equal_sntv(profile):
    """On singleton ballots sntv = av = bv = lv:1 = cvq = phragmen-u =
    thiele-add = thiele-opt = thiele-elim, whole OutcomeSets and
    truncated flags at the default branch cap.

    Let s(c) be the total weight of the ballots naming c.  A one-name
    ballot fits every cap (sntv and lv:1 take one name, bv S >= 1) and
    gives its whole weight to its name, split credit too (cvq), so the
    five score rules each score c as s(c) and elect the S-sets whose
    members all score at least every non-member, every tie followed:
    call them the top sets.  A ballot has at most one elected name, and
    only once its name is elected, so:
    - thiele-opt scores a committee w_1 sum_{c in W} s(c), which an
      S-set maximizes iff it is a top set (no swap of a member for a
      non-member raises the sum);
    - thiele-add's marginal gain for an unelected c is w_1 s(c), and
      thiele-elim's loss for removing an elected c is w_1 s(c), whatever
      else is elected; adding a highest remaining score, or removing a
      lowest kept one, along every tie reaches exactly the top sets;
    - in seq-Phragmén the voters of an unelected c have carried no load,
      so electing c costs each of them 1/s(c), and the round elects a
      remaining candidate of highest s, every tie followed: the top sets
      again.
    w_1 = 1 > 0 in the default harmonic weights.  Candidates no ballot
    names all score 0, so every engine fills the seats it cannot give
    by support with every choice of them, as the score rules break the
    tie at 0.  With at most 5 candidates no engine holds more than
    C(5, 2) = 10 states or committees, far below the default cap, so
    none truncates and the flags agree as False.
    """
    sntv, *rest = (run_method(method, profile, DEFAULT_BRANCH_CAP)
                   for method in SINGLETON_EQUAL)
    for outcome, method in zip(rest, SINGLETON_EQUAL[1:]):
        assert outcome == sntv, method
    assert not sntv.truncated


SINGLE_NAME_LISTS = tuple(map(MethodId.parse, (
    "stv:1", "stv:0", "phragmen-o", "thiele-o", "borda")))


@settings(max_examples=150, deadline=None)
@given(singleton_profiles())
def test_single_name_lists_equal_sntv(profile):
    """On single-name list ballots stv:1, stv:0, phragmen-o, thiele-o and
    borda each equal sntv on the same singleton set ballots, whole
    OutcomeSets and truncated flags at the default branch cap.

    Let s(c) be the total weight of the ballots naming c, and call the
    S-sets whose members all score at least every non-member the top
    sets: sntv's committees (`test_singleton_ballots_equal_sntv`).  A
    one-name list counts for its name while that name is unelected and
    for no one after, so:
    - borda scores c as w_1 s(c) = s(c) and elects the top sets, every
      tie followed, silent candidates at 0;
    - thiele-o credits c with weight 1/1 from each of its ballots, so
      each round elects a remaining candidate of highest s(c);
    - in phragmen-o the voters of an unelected c have carried no load,
      so electing c costs each of them 1/s(c), and the round elects a
      remaining candidate of highest s.  Once no unelected candidate
      has a score or a supporter, both fill the open seats in every way,
      as the top sets do at 0.
    - stv: a count never moves, as an elected or eliminated name's
      ballots have no next name, so every count stays s(c).  A reacher
      (s(c) >= Q) scores at least every non-reacher, and an elimination
      takes a lowest live count below Q, so every committee is a top set.
      Conversely, for a top set T: no reacher lies outside T unless
      S + 1 candidates reach Q, and then delta = 1 and they all hold
      exactly Q and tie, and electing them in turn seats any S of them.
      While T is not yet seated, a lowest live count belongs to a
      candidate outside T, and the zero-count choices (`_stv_step`) can
      eliminate exactly the zero-count names outside T.
    With at most 5 candidates no engine holds more than 3^5 states or
    committees, far below the default cap, so none truncates and the
    flags agree as False.
    """
    lists = Profile([WeightedBallot(ListBallot(b.content.names()), b.weight)
                     for b in profile.ballots],
                    profile.seats, profile.candidates)
    sntv = run_method(MethodId("sntv"), profile, DEFAULT_BRANCH_CAP)
    for method in SINGLE_NAME_LISTS:
        assert run_method(method, lists, DEFAULT_BRANCH_CAP) == sntv, method
    assert not sntv.truncated


@settings(max_examples=150, deadline=None)
@given(set_profiles(rationals).filter(
    lambda p: all(len(b.content.members) <= p.seats for b in p.ballots)))
def test_short_ballots_make_bv_av(profile):
    """bv = av, whole OutcomeSets and truncated flags at the default
    branch cap, when every ballot names at most S names.

    Both are the score family with no split credit; they differ only in
    the ballot cap, S for bv and none for av (`thresholds.REGISTRY`).  A
    ballot of at most S names passes bv's cap, so bv takes every ballot
    as av does, scores every candidate as av does, and returns the same
    top sets through the same `boundary_committees` call.
    """
    assert run_method(MethodId("bv"), profile, DEFAULT_BRANCH_CAP) == \
        run_method(MethodId("av"), profile, DEFAULT_BRANCH_CAP)


ONE_SEAT_EQUAL = tuple(map(MethodId.parse, (
    "av", "thiele-add", "thiele-opt", "phragmen-u")))


@settings(max_examples=150, deadline=None)
@given(set_profiles(rationals).map(
    lambda p: Profile(p.ballots, 1, p.candidates)))
def test_one_seat_equals_av(profile):
    """At S = 1, av = thiele-add = thiele-opt = phragmen-u with the
    default harmonic weights, whole OutcomeSets and truncated flags at
    the default branch cap.

    Let s(c) be the total weight of the ballots approving c; av elects
    the candidates of highest s, every tie followed.  With one seat no
    ballot has an elected name before the seat is given, so:
    - thiele-opt scores the committee {c} as w_1 s(c), and thiele-add's
      one round gains w_1 s(c) for c, with w_1 = 1 > 0;
    - in seq-Phragmen no voter has carried a load, so electing c costs
      each of its voters 1 / s(c), and the one round elects a candidate
      of highest s.
    When no candidate is approved, each engine gives the seat to every
    candidate in turn, as av ties them all at 0.  With at most 5
    candidates no engine holds more than 5 states or committees, so
    none truncates and the flags agree as False.

    thiele-elim is not in the identity: its harmonic elimination may
    remove the approval winner first.  On 4 : {A B}, 4 : {A C}, 3 : {B},
    3 : {C} av elects A (8 against 7 and 7), but A's harmonic score is
    2 + 2 = 4 against B's and C's 2 + 3 = 5, so A goes first and
    thiele-elim elects B or C.
    """
    av, *rest = (run_method(method, profile, DEFAULT_BRANCH_CAP)
                 for method in ONE_SEAT_EQUAL)
    for outcome, method in zip(rest, ONE_SEAT_EQUAL[1:]):
        assert outcome == av, method
    assert not av.truncated


COMMITTEE_METHODS = tuple(
    MethodId(kind, param) for kind, spec in REGISTRY.items()
    if spec.ballot != "party" and spec.engine is not None
    for param in spec.audited)


@st.composite
def goal_counts(draw):
    """A set or list profile, a goal over its candidates or none, and a
    branch cap of 1 to 3 or the default."""
    profile = draw(st.one_of(set_profiles(rationals),
                             list_profiles(rationals)))
    names = st.sampled_from(sorted(profile.candidates))
    pair = st.tuples(st.frozensets(names), st.integers(1, profile.seats))
    goal = draw(st.none() | st.lists(pair, min_size=1, max_size=3).map(
        tuple))
    cap = draw(st.sampled_from((1, 2, 3, DEFAULT_BRANCH_CAP)))
    return profile, goal, cap


@settings(max_examples=150, deadline=None)
@given(goal_counts())
def test_every_engine_returns_seats_subsets_of_the_candidates(count):
    """Every registry engine, in full and goal counts and at every branch
    cap, returns only S-subsets of the profile's candidates; the
    search's strategy skip (`search._ballot_strategies`) is sound
    because of it.

    - The score family gives the seats to the names above the boundary
      and `need` of those tied at it (`unordered.boundary`), all keys of
      a score table over the candidates; a goal count takes group[:n]
      per group of tied names with the n summing to `need`.
    - The round-based engines run `unordered.branch`, whose steps add
      one candidate to the elected set (a tied clone head, or a name
      `_fill` gives an unsupported seat), or eliminate one, and end a
      state once S names are elected or only S remain.  A goal count
      returns such a final state too, reached by first successors, and
      a clone count expands it with the same number of names per class.
      STV reads a short final as the candidates not eliminated, which
      number exactly S then (`ordered._stv_step`).
    - thiele-opt expands seat splits that sum to S over clone classes.
    A branch cap only drops committees; it never adds one.  A method
    whose ballot cap the profile exceeds refuses it and is skipped.
    """
    profile, goal, cap = count
    for method in COMMITTEE_METHODS:
        if method.spec.ballot != profile.kind:
            continue
        try:
            outcome = run_method(method, profile, cap, goal)
        except (ProfileError, CoverageError) as exc:
            assert "cap" in str(exc), method     # a ballot-cap refusal
            continue
        for committee in outcome.committees:
            assert len(committee) == profile.seats, method
            assert committee <= profile.candidates, method
