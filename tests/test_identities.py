"""Cross-engine identities: different counting engines that must return
the same OutcomeSet on every profile, checked as differential
properties.  A mismatch is an engine defect."""

from hypothesis import given, settings

from multiwin.ballots import DEFAULT_BRANCH_CAP
from multiwin.thresholds import MethodId
from multiwin.witnesses import run_method

from test_properties import rationals, set_profiles

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
