"""Election data model: ballots, profiles, committees, outcome sets.

A profile is a multiset of weighted ballot groups, all of one kind:
party ballots, unordered candidate sets, or ordered candidate lists.
Each ballot class names its `kind` and keeps the set of its names as
`members`, so no other module asks which class a ballot is.
Weights are positive rationals; a "set of voters W" is represented by
flagging ballot groups as part of the designated voter set.

Because several engines branch on ties, results are reported as an
OutcomeSet: every committee reachable under some resolution of every
tie, deduplicated and canonically ordered.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cache
from typing import Callable, ClassVar, Iterable, Optional, Sequence

from .numerics import format_rational, parse_rational

DEFAULT_BRANCH_CAP = 10000

RESERVED_CHARS = set("{}[]#:!")

# One character a name may not hold: str.isspace() or reserved.
_BAD_NAME_CHAR = re.compile(
    r"[\s%s]" % re.escape("".join(sorted(RESERVED_CHARS))))


class ProfileError(ValueError):
    """Raised for structurally invalid profiles or ballots."""


class CoverageError(ValueError):
    """Method/scenario combination outside the computable corpus."""


class ProfileParseError(ProfileError):
    """Raised on malformed profile files; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__("line %d: %s" % (line_no, message))
        self.line_no = line_no


def _check_name(name: str) -> str:
    if not name or _BAD_NAME_CHAR.search(name):
        raise ProfileError("invalid candidate/party name: %r" % name)
    return name


def _check_names(names: set) -> None:
    """_check_name on every name, the joined names searched at once."""
    if "" in names or _BAD_NAME_CHAR.search("".join(names)):
        for name in names:
            _check_name(name)


@dataclass(frozen=True)
class PartyBallot:
    kind: ClassVar[str] = "party"
    party: str
    members: frozenset[str] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "members", frozenset((self.party,)))

    def names(self) -> tuple[str, ...]:
        return (self.party,)


@dataclass(frozen=True)
class SetBallot:
    kind: ClassVar[str] = "set"
    members: frozenset[str]

    def __init__(self, members: Iterable[str]):
        object.__setattr__(self, "members", frozenset(members))
        if not self.members:
            raise ProfileError("unordered ballot must be non-empty")

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self.members))


@dataclass(frozen=True)
class ListBallot:
    kind: ClassVar[str] = "list"
    ranking: tuple[str, ...]
    members: frozenset[str] = field(init=False, compare=False, repr=False)

    def __init__(self, ranking: Sequence[str]):
        ranking = tuple(ranking)
        if not ranking:
            raise ProfileError("ordered ballot must be non-empty")
        members = frozenset(ranking)
        if len(members) != len(ranking):
            raise ProfileError("ordered ballot has duplicate names: %r" % (ranking,))
        object.__setattr__(self, "ranking", ranking)
        object.__setattr__(self, "members", members)

    def names(self) -> tuple[str, ...]:
        return self.ranking


BallotContent = PartyBallot | SetBallot | ListBallot


@dataclass(frozen=True)
class WeightedBallot:
    """A ballot group.  The weight is kept as given when it is an int, and
    made a Fraction otherwise; an int equals, and hashes as, the Fraction
    of the same value, so the ballot does too."""

    content: BallotContent
    weight: Fraction | int
    in_w: bool = False

    def __post_init__(self):
        if type(self.weight) is not int:
            object.__setattr__(self, "weight", Fraction(self.weight))
        if self.weight <= 0:
            raise ProfileError("ballot weight must be positive")


@dataclass(frozen=True)
class Profile:
    ballots: tuple[WeightedBallot, ...]
    candidates: frozenset[str]
    seats: int

    def __init__(self, ballots: Iterable[WeightedBallot], seats: int,
                 candidates: Iterable[str] = ()):
        ballots = tuple(ballots)
        if not ballots:
            raise ProfileError("profile needs at least one ballot group")
        kind = ballots[0].content.kind
        universe = set(candidates)
        for b in ballots:
            if b.content.kind != kind:
                raise ProfileError("profile mixes ballot kinds: %s" % sorted(
                    {b.content.kind for b in ballots}))
            universe.update(b.content.members)
        _check_names(universe)
        if seats < 1:
            raise ProfileError("seats must be positive")
        # One party can take several seats; a candidate takes one.
        if kind != "party" and len(universe) < seats:
            raise ProfileError("candidate universe smaller than seat count")
        object.__setattr__(self, "ballots", ballots)
        object.__setattr__(self, "candidates", frozenset(universe))
        object.__setattr__(self, "seats", seats)

    @property
    def kind(self) -> str:
        return self.ballots[0].content.kind

    @property
    def total_weight(self) -> Fraction:
        return sum((b.weight for b in self.ballots), Fraction(0))

    @property
    def w_weight(self) -> Fraction:
        """Total weight of the designated voter set W."""
        return sum((b.weight for b in self.ballots if b.in_w), Fraction(0))

    def w_ballots(self) -> tuple[WeightedBallot, ...]:
        return tuple(b for b in self.ballots if b.in_w)


@dataclass(frozen=True)
class OutcomeSet:
    """The committees a count reached, and whether the branch cap cut some
    off.  A goal count's set (`decided`) also holds the goal it was counted
    for and its verdict `bad`: True when some reachable committee is bad
    for the goal, False when none is, None when the count cannot tell.
    Its committees and truncated flag are listed when first read."""

    committees: frozenset[frozenset[str]]
    truncated: bool
    goal = None             # set, with bad, on a decided set only
    bad = None

    def __init__(self, committees: Iterable[frozenset[str]], truncated: bool = False):
        committees = frozenset(map(frozenset, committees))
        if not committees:
            raise ProfileError("outcome set must be non-empty")
        object.__setattr__(self, "committees", committees)
        object.__setattr__(self, "truncated", bool(truncated))

    @classmethod
    def decided(cls, goal, bad, listing: Callable[[], OutcomeSet]):
        """A goal count's set; listing() gives its committees and flag."""
        out = cls.__new__(cls)
        out.__dict__.update(goal=goal, bad=bad, _listing=listing)
        return out

    def __getattr__(self, name):
        # Reached only for an unset attribute: on a decided set, its
        # committees and truncated flag until they are first read.
        listing = self.__dict__.get("_listing")
        if listing is None or name not in ("committees", "truncated"):
            raise AttributeError(name)
        listed = listing()
        object.__setattr__(self, "committees", listed.committees)
        object.__setattr__(self, "truncated", listed.truncated)
        return getattr(listed, name)

    def sorted_committees(self) -> list[tuple[str, ...]]:
        return sorted(tuple(sorted(c)) for c in self.committees)

    def __contains__(self, committee) -> bool:
        return frozenset(committee) in self.committees

    def __len__(self) -> int:
        return len(self.committees)


# The named schemes' weights as (prefix, tail).  Harmonic weights, 1/k,
# have no finite form; its entry has w_1 = 0, so no valid scheme reads it.
_NAMED = {"harmonic": ((), 0), "weak": ((1,), 0), "constant": ((), 1)}


@dataclass(frozen=True)
class WeightScheme:
    """Non-increasing ballot weights 1 = w_1 >= w_2 >= ... >= 0: harmonic
    (w_k = 1/k), or a finite prefix then a constant tail, kept in one
    canonical form so that equal weights give one scheme, label and hash.
    Prefix entries equal to the tail are dropped from its end; (1; 0) is
    named "weak", (1; 1) "constant", any other "explicit".  A named
    scheme takes its weights from its name.
    """

    kind: str
    prefix: tuple[Fraction, ...] = ()
    tail: Fraction = Fraction(0)

    def __post_init__(self):
        if self.kind not in ("explicit", *_NAMED):
            raise ValueError("unknown weight scheme %r" % self.kind)
        prefix, tail = _NAMED.get(self.kind, (self.prefix, self.tail))
        prefix, tail = tuple(map(Fraction, prefix)), Fraction(tail)
        if self.kind != "harmonic":
            seq = prefix + (tail,)
            if seq[0] != 1:
                raise ProfileError("weight scheme requires w_1 = 1")
            if any(a < b for a, b in zip(seq, seq[1:])) or tail < 0:
                raise ProfileError("weights must be non-increasing and >= 0")
            while prefix[-1:] == (tail,):
                prefix = prefix[:-1]
            object.__setattr__(self, "kind", next(
                (name for name, weights in _NAMED.items()
                 if weights == (prefix, tail)), "explicit"))
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "tail", tail)

    @staticmethod
    @cache      # one object: engines key their rate tables on it
    def harmonic() -> "WeightScheme":
        return WeightScheme("harmonic")

    @staticmethod
    def weak() -> "WeightScheme":
        return WeightScheme("weak")

    @staticmethod
    def constant() -> "WeightScheme":
        return WeightScheme("constant")

    @staticmethod
    def explicit(prefix: Sequence, tail=Fraction(0)) -> "WeightScheme":
        return WeightScheme("explicit", tuple(prefix), tail)

    def w(self, k: int) -> Fraction:
        """The weight w_k for the k-th approved/elected name, k >= 1."""
        if k < 1:
            raise ValueError("weight index must be >= 1")
        if self.kind == "harmonic":
            return Fraction(1, k)
        return self.prefix[k - 1] if k <= len(self.prefix) else self.tail

    def psi(self, n: int) -> Fraction:
        """Satisfaction psi(n) = sum_{k<=n} w_k."""
        return sum((self.w(k) for k in range(1, n + 1)), Fraction(0))

    def label(self) -> str:
        if self.kind == "explicit":
            parts = ",".join(format_rational(x) for x in self.prefix)
            return "explicit(%s;tail=%s)" % (parts, format_rational(self.tail))
        return self.kind

    @staticmethod
    def parse(text: str) -> "WeightScheme":
        """The scheme a text names ("p/q" weights); empty means harmonic."""
        if text.startswith("explicit(") and text.endswith(")"):
            head, given, tail = text[len("explicit("):-1].partition(";tail=")
            prefix = [parse_rational(x) for x in head.split(",")] if head \
                else []
            return WeightScheme.explicit(
                prefix, parse_rational(tail) if given else 0)
        return WeightScheme(text or "harmonic")


def normalize(profile: Profile) -> Profile:
    """Merge ballot groups with identical content (and W flag), keeping order."""
    merged: dict = {}
    order = []
    for b in profile.ballots:
        key = (b.content, b.in_w)
        if key in merged:
            merged[key] = merged[key] + b.weight
        else:
            merged[key] = b.weight
            order.append(key)
    ballots = [WeightedBallot(content, merged[(content, in_w)], in_w)
               for (content, in_w) in order]
    return Profile(ballots, profile.seats, profile.candidates)


def scale(profile: Profile, factor) -> Profile:
    """Multiply every ballot weight by a positive rational factor."""
    factor = Fraction(factor)
    if factor <= 0:
        raise ProfileError("scale factor must be positive")
    ballots = [replace(b, weight=b.weight * factor) for b in profile.ballots]
    return Profile(ballots, profile.seats, profile.candidates)


def parse_profile(text: str) -> Profile:
    """Parse the profile file format.

    One ballot group per line: `<weight> : <ballot>` where the ballot is
    `party NAME`, `{A B C}` (unordered) or `[A B C]` (ordered, left =
    most preferred).  `#` starts a comment.  Directives: `!seats S`,
    `!candidates A B ...`; a `!W` prefix marks the group as part of the
    designated voter set W.
    """
    seats: Optional[int] = None
    extra: list[str] = []
    ballots: list[WeightedBallot] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("!seats"):
            rest = line[len("!seats"):].strip()
            try:
                seats = int(rest)
            except ValueError:
                raise ProfileParseError(line_no, "bad seat count %r" % rest)
            continue
        if line.startswith("!candidates"):
            extra.extend(line[len("!candidates"):].split())
            continue
        in_w = False
        if line.startswith("!W"):
            in_w = True
            line = line[2:].strip()
        elif line.startswith("!"):
            raise ProfileParseError(line_no, "unknown directive %r" % line)
        if ":" not in line:
            raise ProfileParseError(line_no, "expected '<weight> : <ballot>'")
        weight_text, _, ballot_text = line.partition(":")
        try:
            weight = parse_rational(weight_text)
        except ValueError as exc:
            raise ProfileParseError(line_no, "bad weight: %s" % exc)
        ballot_text = ballot_text.strip()
        try:
            content = _parse_ballot(ballot_text)
            ballots.append(WeightedBallot(content, weight, in_w))
        except ProfileError as exc:
            raise ProfileParseError(line_no, str(exc))
    if seats is None:
        raise ProfileParseError(0, "missing '!seats' directive")
    if not ballots:
        raise ProfileParseError(0, "no ballot groups")
    return Profile(ballots, seats, extra)


def _parse_ballot(text: str) -> BallotContent:
    if text.startswith("party "):
        return PartyBallot(_check_name(text[len("party "):].strip()))
    if text.startswith("{") and text.endswith("}"):
        names = text[1:-1].split()
        if not names:
            raise ProfileError("empty unordered ballot")
        if len(set(names)) != len(names):
            raise ProfileError("duplicate names in ballot")
        return SetBallot(names)
    if text.startswith("[") and text.endswith("]"):
        names = text[1:-1].split()
        if not names:
            raise ProfileError("empty ordered ballot")
        return ListBallot(names)
    raise ProfileError("unrecognized ballot %r" % text)


def parse_profile_file(path) -> Profile:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_profile(handle.read())


_TEXT_FORM = {"party": "party %s", "set": "{%s}", "list": "[%s]"}


def format_profile(profile: Profile) -> str:
    """Render a profile in the same text format parse_profile accepts."""
    lines = ["!seats %d" % profile.seats]
    on_ballots = set()
    for b in profile.ballots:
        on_ballots.update(b.content.names())
    silent = sorted(profile.candidates - on_ballots)
    if silent:
        lines.append("!candidates %s" % " ".join(silent))
    for b in profile.ballots:
        ballot = _TEXT_FORM[b.content.kind] % " ".join(b.content.names())
        prefix = "!W " if b.in_w else ""
        lines.append("%s%s : %s" % (prefix, format_rational(b.weight), ballot))
    return "\n".join(lines) + "\n"
