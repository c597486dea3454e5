"""Branch-and-bound enumeration and exact counting of admissible tuples.

The search runs depth-first over sorted pairwise-coprime prefixes
(m0 <= ... <= mn), resolving the final coordinate in closed form.  A prefix
is carried as (N, P) with P = prod(prefix) and reciprocal sum S = N/P.  Each
bound is linear in 1/m, so it is one integer inequality a*m < b, solved by
ceiling or floor division: the classifications split the last coordinate
at no more than two integer cut points (`_cuts`), and counting reduces to
inclusion-exclusion coprime counts over the intervals between them.  The
same inequalities bound the candidates for every earlier entry.

The search has one walk, the generator `_Search.plan`.  It recurses over
the interior depths, one node per next order v after a prefix (N, P,
primes R), each v with its primes from `coprime_factorizations`, and
stops at the prefixes of n orders.  It yields each of them that has a
candidate next order as a slice (state, lo, hi): the state and the window
[lo, hi) of its next order v, whose coprime values are the leaves.  The
walk is lazy, so it holds one path of states at a time, and every
consumer reads the leaves v of a slice straight from the factorizations,
one node each.  Both modes clip the cut points of the last coordinate
into class windows by a class plan fixed once per search.  Materialize
mode reads them from `_last_windows`, one generator pass over the leaves
of a slice, and `admissible_last_interval` reports the same windows for
one prefix.

Count mode (`_Search.count`) makes one flat pass per slice.  It takes the
slice's invariants once (N - P, n*P, the coprime-count table and the
class plan), solves each leaf's cut points inline from D = (N - P)*v + P
with the divisions of `_cuts`, clips them as `_last_windows` does, and
adds each class interval's count straight to its class, with no window
list between the sieve and the count.  Each count is one
inclusion-exclusion count over the primes of v and those of R outside the
slice's coprime-count table (`_Search.table`), its signed products built
one prime at a time (`_count_positive`).  A slice may spend 8 table
entries per v of its window, up to 2^16.  When the largest last order its
windows reach fits that budget and lies below the product of R, the
table counts the integers up to it coprime to all of R, so the count
takes only v's primes and each term is two lookups.  Otherwise the table
is periodic in R's smallest primes (`coprime_table`, which keeps its last
periodic table, so one is built only when those primes change).
Materialize mode lists the coprime last coordinates of each interval
instead, by a sieve over the primes of the head (the prefix and v, with
v's primes from the leaves' factorizations; `coprime_blocks`).  Its
generator `_Search.blocks` yields each sieve block of a class window
once, as integers: the head, its product Ph and reciprocal-sum numerator
Nh, the verdict the block shares and the block's last orders m.  A
block's verdict is settled once: the three predicates fano, old_ok and
new_ok are each affine in m (after dividing by m > 0), so each is
constant on a block when it agrees at the block's two ends, and
`verdict_fields` is checked there against the label of the window the
last order was solved into.  The `enumerate` command writes its items
straight from the blocks (`iter_row_blocks`); `_Search.rows` flattens
them into one (orders, fields) row per tuple, each derived in O(1),
which `iter_rows` streams and `iter_tuples` and `enumerate_tuples` wrap
into (RamTuple, FanoReport) pairs.

A parallel count lists the plan first and weighs each slice by its number
of leaves, the v in range coprime to the prefix, one inclusion-exclusion
count (`_count`).  The interior nodes of the walk and the weights sum to
nodes_visited before any leaf is counted.  Below POOL_MIN_LEAVES leaves
the slices are counted in-process.  Above it a process pool counts one
task per worker: the plan is cut into runs of at most _BLOCK_CAP
consecutive v of a window, and task r counts every workers-th run from
the r-th.  Each worker walks the deterministic plan itself, once, so a
task is the config and two integers, not a list of states.

Key facts the pruning relies on (all for sorted tuples, exact arithmetic;
S is the reciprocal sum of the n+1 prefix entries, m the last coordinate):

  fano         <=>  m*(1-S) < 1    <=>  m*(P-N) < P      (all m when S >= 1)
  new bound    <=>  m*(S-1) < n    <=>  m*(N-P) < n*P    (all m when S <= 1)
  old bound    <=>  n*m*(S-1) < 1  <=>  n*m*(N-P) < P    (all m when S <= 1)

so a NewOnlyKE tuple (new holds, old fails) forces S > 1, and an OldKE or
NewOnlyKE verdict confines m to a finite interval per prefix.  NotFano and
NoCriterion are infinite classes (for instance every sufficiently large
coprime last coordinate past a Fano prefix is NoCriterion), so requesting
them requires an explicit max_order.

The doubly-exponential sequence c1=2, c_{k+1} = c1*...*ck + 1 = ck^2-ck+1
supplies the classical family (c1,...,cn, c_{n+1}-2, m): its prefix sum is
1 + 1/D with D = (c_{n+1}-1)(c_{n+1}-2), so the new bound holds exactly for
m < n*D.  The family interval is rederived from that inequality rather than
taken as a closed form on faith; a tempting variant with the (n+2)-nd
sequence value in place of the (n+1)-st fails the derivation (already for
n=2 it would admit last coordinates up to 491 where the true bound is 60).
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import islice

from .errors import InputError, NodeBudgetExceeded, WrongLength, check_int
from .exactmath import (
    _BLOCK_CAP,
    _count_positive,
    coprime_blocks,
    coprime_factorizations,
    coprime_table,
    factorize,
)
from .orbifold import (
    CLASSIFICATIONS,
    FanoReport,
    RamTuple,
    check_orders,
    classify,
    make_tuple,
    verdict_fields,
)

# Classes whose members form a finite set without any order cap.
_BOUNDED_CLASSES = frozenset({"OldKE", "NewOnlyKE"})

# Classes of the last coordinate past both cut points (see _cuts).
_TAIL_CLASSES = frozenset({"NoCriterion", "NotFano"})

# Fewest leaves for which a count with parallel_width > 1 starts a pool;
# below it the planned slices are counted in-process.  Starting and
# stopping two workers costs more than half the leaf time up to about
# 12,000 leaves (dimension 4 has 3,512).
POOL_MIN_LEAVES = 16_000

# Largest dimension a search accepts.  The walk recurses once per prefix
# entry, and unit orders fill every slot, so dimension 990 already
# exhausts the interpreter's default recursion limit of 1,000 frames; half
# of it leaves room for the caller's frames.  No search past dimension 6
# finishes today, so the bound rejects no work.
MAX_SEARCH_DIM = 500


# ---------------------------------------------------------------------------
# Sylvester sequence and family


def sylvester_seq(k: int) -> list[int]:
    """First k values of the sequence c1=2, c_{k+1} = c1*...*ck + 1.

    Both recursion forms (running product + 1, and ck^2 - ck + 1) are
    computed and must agree.  Capped at k <= 8: value 8 already has 27
    digits and nothing downstream needs more.
    """
    k = check_int(k, "k", 1, 8)
    seq = [2]
    prod = 2
    for _ in range(k - 1):
        seq.append(prod + 1)
        prod *= seq[-1]
    c = 2
    for i in range(1, k):
        c = c * c - c + 1
        if c != seq[i]:  # pragma: no cover - identity of the two recursions
            raise AssertionError("recursion forms disagree")
    return seq


@dataclass(frozen=True)
class SylvesterFamily:
    """The sequence-based family (c1,...,cn, c_{n+1}-2, m) for dimension n.

    last_interval is the open integer interval (lo_exclusive, hi_exclusive)
    of admissible last coordinates m: every m in it that is coprime to the
    prefix product satisfies the new bound.  forbidden_primes are the prime
    factors of the prefix product, i.e. the coprimality filter for m.
    """

    n: int
    prefix: tuple[int, ...]
    last_interval: tuple[int, int]
    forbidden_primes: tuple[int, ...]


def sylvester_family(n: int) -> SylvesterFamily:
    """Construct the family for dimension n (2 <= n <= 6).

    The admissible interval is derived by exact inequality solving: the
    prefix reciprocal sum is 1 + 1/D with D = (c_{n+1}-1)(c_{n+1}-2), so
    the new bound m*(S-1) < n gives exactly m < n*D.  The lower end is
    c_{n+1}-2 (the largest prefix entry).  n > 6 would need the prime
    factors of c8-2 ~ 1.1e26, past exactmath.FACTOR_CAP = 1e14, the
    largest input `factorize` accepts.
    """
    n = check_int(n, "family dimension", 2, 6)
    seq = sylvester_seq(n + 1)
    c_top = seq[n]
    prefix = tuple(seq[:n]) + (c_top - 2,)
    d = (c_top - 1) * (c_top - 2)
    primes: set[int] = set()
    for entry in prefix:
        primes.update(factorize(entry).primes)
    fam = SylvesterFamily(
        n=n,
        prefix=prefix,
        last_interval=(c_top - 2, n * d),
        forbidden_primes=tuple(sorted(primes)),
    )
    # Construction-time spot check of the defining invariant.
    lo, hi = fam.last_interval
    for m in (lo + 1, hi - 1):
        if all(m % p for p in fam.forbidden_primes):
            t = make_tuple(n, prefix + (m,))
            if not classify(t).new_ok:  # pragma: no cover
                raise AssertionError("family interval violates the new bound")
    return fam


# ---------------------------------------------------------------------------
# The bound kernel
#
# A window is a half-open integer range (lo, hi) with hi None for unbounded
# above; None is the empty window.  A pairwise-coprime prefix is carried as
# (N, P) with S = N/P, and every bound of the search is a linear inequality
# a*v < b in one unknown order v with a, b integers built from n, N and P.


def _window(lo: int, hi):
    return None if hi is not None and lo >= hi else (lo, hi)


def _meet(x, y):
    """Intersection of two windows."""
    if x is None or y is None:
        return None
    his = [hi for hi in (x[1], y[1]) if hi is not None]
    return _window(max(x[0], y[0]), min(his, default=None))


def _solve(a: int, b: int):
    """Window of the integers v >= 1 with a*v < b, by ceiling or floor division."""
    if a > 0:
        return _window(1, -(-b // a))
    if a < 0:
        return (max(1, b // a + 1), None)
    return (1, None) if b > 0 else None


def _cuts(N: int, P: int, n: int):
    """Cut points (a, b, tail) of the last coordinate m >= 1 after a prefix N/P.

    The classes occupy consecutive integer ranges: OldKE [1, a), NewOnlyKE
    [a, b) and `tail` [b, infinity); the fourth class is empty.  With
    D = N - P, a sum above 1 (D > 0) keeps every m Fano, the old bound
    n*m*D < P holds below a = ceil(P/(n*D)), the new bound m*D < n*P below
    b = ceil(n*P/D) >= a, and the tail is NoCriterion.  A sum below 1
    keeps both bounds for every m and Fano below a = b = ceil(P/-D); the
    tail is NotFano.
    """
    D = N - P
    if D > 0:
        return -(-P // (n * D)), -(-n * P // D), "NoCriterion"
    if D < 0:
        cut = -(-P // -D)
        return cut, cut, "NotFano"
    # gcd(N, P) = 1 for pairwise-coprime orders (N = sum P/m_i is P/m_j
    # modulo each m_j), so N = P forces P = 1: every order is 1 and then
    # N counts them.  A prefix of n + 1 >= 2 orders never sums to 1.
    raise AssertionError(f"prefix sum N/P = {N}/{P} is 1")


def _last_windows(N: int, P: int, n: int, leaves, cap, old: bool, new: bool, tails):
    """Yield (v, data, windows) for each leaf (v, data) after a state N/P, in the leaves' order.

    windows holds the requested (label, lo, hi) windows of the last
    coordinate m after the head, the state's prefix and v, whose sum is
    (N*v + P)/(P*v); they come ascending.  Each is the class's range from
    `_cuts` of the head clipped to [v, cap), half-open and nonempty; cap
    None leaves the tail window unbounded (hi None).  old and new request
    OldKE and NewOnlyKE, and tails holds the requested tail classes; data
    rides along untouched.  One pass solves every leaf of a slice, and
    it is the one caller of `_cuts`: materialize mode's leaves and
    `admissible_last_interval` read its windows.  `_Search.count` solves
    and clips the same cut points inline.
    """
    for v, data in leaves:
        a, b, tail = _cuts(N * v + P, P * v, n)
        if cap is not None:
            if a > cap:
                a = cap
            if b > cap:
                b = cap
        windows = []
        if old and v < a:
            windows.append(("OldKE", v, a))
        if a < v:
            a = v
        if new and a < b:
            windows.append(("NewOnlyKE", a, b))
        if tail in tails:
            if b < v:
                b = v
            if cap is None or b < cap:
                windows.append((tail, b, cap))
        yield v, data, windows


@dataclass(frozen=True)
class LastIntervals:
    """Exact integer ranges of the last coordinate for a fixed prefix.

    `by_class` maps each classification to its half-open window (lo, hi),
    hi None meaning unbounded above and None meaning empty.  Every window
    starts no lower than `floor` = max(prefix); coprime filtering is the
    caller's step.
    """

    prefix: tuple[int, ...]
    n: int
    floor: int
    by_class: dict


def admissible_last_interval(prefix, n: int) -> LastIntervals:
    """Solve all three bounds for the last coordinate of a sorted prefix.

    prefix must hold the first n+1 orders, sorted nondecreasing and
    pairwise coprime; candidates for the last coordinate start at
    max(prefix) (sorted enumeration; coprimality later removes equality
    except for repeated unit orders).  The windows are the search's own
    (`_last_windows`), with every class requested and no order cap.
    """
    n = check_int(n, "dimension", 1)
    prefix = check_orders(prefix, 1)
    if len(prefix) != n + 1:
        raise WrongLength(f"dimension {n} needs a prefix of {n + 1} orders, got {len(prefix)}")
    *state, floor = prefix
    prod = math.prod(state)
    by_class = dict.fromkeys(CLASSIFICATIONS)
    [(_, _, windows)] = _last_windows(sum(prod // m for m in state), prod, n, [(floor, None)],
                                      None, True, True, _TAIL_CLASSES)
    for label, lo, hi in windows:
        by_class[label] = (lo, hi)
    return LastIntervals(prefix=prefix, n=n, floor=floor, by_class=by_class)


# ---------------------------------------------------------------------------
# Search configuration and results


@dataclass(frozen=True)
class SearchConfig:
    """Parameters of one enumeration run.

    n, the dimension, lies in 1..MAX_SEARCH_DIM.  classes is the set of
    classifications to emit/count.  Requesting any class outside {OldKE,
    NewOnlyKE}, or admitting unit orders, requires max_order: those
    classes are infinite, and after a unit order the prefix sum is already
    1, which every larger order can extend.
    prefix_filter pins the leading orders (sorted, coprime).  node_cap
    bounds the number of search nodes, not of records (one node can carry
    millions of leaves); hitting it raises NodeBudgetExceeded carrying the
    partial result, and forces serial execution so the partial result is
    deterministic.  Without a cap, parallel_width > 1 lists count mode's
    plan and counts it in-process below POOL_MIN_LEAVES leaves, else over
    up to parallel_width worker processes (no more than the CPUs the
    process may run on), each counting strided runs of the plan;
    materialize mode always runs serially.  classes and prefix_filter are
    stored as tuples, whatever iterable they are given as.
    """

    n: int
    min_order: int = 2
    mode: str = "materialize"
    classes: tuple[str, ...] = ("NewOnlyKE",)
    prefix_filter: tuple[int, ...] | None = None
    max_order: int | None = None
    parallel_width: int = 1
    node_cap: int | None = None

    def __post_init__(self):
        setattr_ = object.__setattr__
        setattr_(self, "n", check_int(self.n, "dimension", 1, MAX_SEARCH_DIM))
        setattr_(self, "min_order", check_int(self.min_order, "min_order", 1, 2))
        if self.mode not in ("materialize", "count"):
            raise InputError(f"mode must be materialize or count, got {self.mode!r}")
        setattr_(self, "classes", tuple(self.classes))
        bad = [c for c in self.classes if c not in CLASSIFICATIONS]
        if bad or not self.classes:
            raise InputError(f"classes must be a nonempty subset of {CLASSIFICATIONS}")
        if not set(self.classes) <= _BOUNDED_CLASSES and self.max_order is None:
            unbounded = sorted(set(self.classes) - _BOUNDED_CLASSES)
            raise InputError(
                f"classes {unbounded} are infinite; set max_order to bound the search"
            )
        if self.min_order == 1 and self.max_order is None:
            raise InputError(
                "unit orders leave the search unbounded; set max_order to bound it"
            )
        if self.max_order is not None:
            setattr_(self, "max_order", check_int(self.max_order, "max_order", self.min_order))
        setattr_(self, "parallel_width", check_int(self.parallel_width, "parallel_width", 1))
        if self.node_cap is not None:
            setattr_(self, "node_cap", check_int(self.node_cap, "node_cap", 1))
        if self.prefix_filter is not None:
            pf = tuple(self.prefix_filter)
            if len(pf) > self.n + 1:
                raise InputError("prefix_filter longer than the searchable prefix")
            setattr_(self, "prefix_filter", check_orders(pf, self.min_order))


@dataclass(frozen=True)
class EnumResult:
    """Outcome of an enumeration: materialized tuples and/or counts.

    counts always holds one entry per requested classification; tuples is
    None in count mode.  In materialize mode counts equal the list sizes.
    nodes_visited counts the prefixes the search created, each once.
    """

    tuples: tuple | None
    counts: dict
    nodes_visited: int
    elapsed_s: float


# ---------------------------------------------------------------------------
# The depth-first search

# A search state: (prefix, N, P, primes) with N/P the reciprocal sum of the
# prefix, P its product and primes the distinct prime factors of P.
_ROOT = ((), 0, 1, ())


class _Search:
    def __init__(self, cfg: SearchConfig):
        self.cfg = cfg
        self.n = cfg.n
        self.cap = None if cfg.max_order is None else cfg.max_order + 1
        self.counts = {c: 0 for c in cfg.classes}
        # The class plan: which of the windows from _cuts are requested.
        self.old = "OldKE" in cfg.classes
        self.new = "NewOnlyKE" in cfg.classes
        self.tails = _TAIL_CLASSES.intersection(cfg.classes)
        if self.tails and self.cap is None:
            raise AssertionError(
                f"unbounded windows for {sorted(self.tails)} escaped config validation"
            )  # pragma: no cover
        self.nodes = 0
        self.started = time.perf_counter()

    def _bump(self):
        self.nodes += 1
        cap = self.cfg.node_cap
        if cap is not None and self.nodes > cap:
            self._stop()

    def _stop(self):
        """Raise NodeBudgetExceeded carrying the partial result."""
        partial = EnumResult(
            tuples=None,
            counts=dict(self.counts),
            nodes_visited=self.nodes,
            elapsed_s=time.perf_counter() - self.started,
        )
        raise NodeBudgetExceeded(
            f"node cap {self.cfg.node_cap} exceeded (progress: {dict(self.counts)})", partial
        )

    def _next_window(self, prefix, N, P):
        """Window (lo, hi) of the next entries v that can still lead to a requested class.

        With k prefix slots open (v's included) and every later entry >= v,
        a Fano tuple needs v*(P-N) < (k+1)*P and a prefix sum above 1 needs
        v*(P-N) < k*P; the old and new bounds must already hold with v as
        the largest order, since the final sum is at least the sum up to v
        and the final largest order is at least v.
        Each class is reachable on one window of v, and only the requested
        classes' windows are solved.  The windows overlap (all but OldKE's
        start at 1; OldKE's lies within NoCriterion's and starts below the
        end of NewOnlyKE's), so their union is one window.  A pinned entry
        narrows it to that entry; None means no candidate.
        """
        n = self.n
        k = n + 1 - len(prefix)
        reach = []
        if "NotFano" in self.tails:
            reach.append((1, None))
        if self.old or "NoCriterion" in self.tails:
            fano = _solve(P - N, (k + 1) * P)
            if "NoCriterion" in self.tails:
                reach.append(fano)
            if self.old:
                reach.append(_meet(fano, _solve(n * (N - P), (1 - n) * P)))
        if self.new:
            reach.append(_meet(_solve(P - N, k * P), _solve(N - P, (n - 1) * P)))
        spans = [span for span in reach if span is not None]
        if not spans:
            return None
        his = [hi for _, hi in spans]
        window = (min(lo for lo, _ in spans), None if None in his else max(his))
        if not prefix:
            start = self.cfg.min_order
        elif prefix[-1] == 1:
            start = 1
        else:
            start = prefix[-1] + 1
        window = _meet(window, (start, self.cap))
        if window is None:
            return None
        if window[1] is None:
            raise AssertionError(
                f"unbounded candidates after {prefix} escaped config validation"
            )  # pragma: no cover
        pinned = self.cfg.prefix_filter or ()
        if len(prefix) < len(pinned):
            return _meet(window, (pinned[len(prefix)], pinned[len(prefix)] + 1))
        return window

    def plan(self, state=_ROOT):
        """Yield (state, lo, hi) for each depth-n prefix below state with candidate leaves.

        The one walk of the search, lazy and in lexicographic order: it
        holds one path of states at a time.  [lo, hi) is the nonempty
        window of the depth-n state's next order v, the leaves, and the
        state carries its primes ascending.  Each interior order v is one
        node, bumped as the walk creates it, with its primes from
        `coprime_factorizations`, which skips the multiples of the state's
        primes; state itself was counted by whoever created it.
        """
        prefix, N, P, primes = state
        window = self._next_window(prefix, N, P)
        if window is None:
            return
        if len(prefix) == self.n:
            lo, hi = window
            yield (prefix, N, P, tuple(sorted(primes))), lo, hi
            return
        for v, v_primes in coprime_factorizations(*window, primes):
            self._bump()
            yield from self.plan((prefix + (v,), N * v + P, P * v, primes + tuple(v_primes)))

    def table(self, N: int, P: int, primes, lo: int, hi: int):
        """(phi, rest) of `coprime_table` for the leaves v in [lo, hi) of a depth-n state N/P.

        The table is sized by the window and by top, the largest last
        order m that a requested window of any leaf reaches.  Every window
        ends below the order cap, when there is one.  With no tail class
        requested and D = (N - P)*(hi - 1) + P > 0, the head's sum stays
        above 1 for every leaf (its D, (N - P)*v + P, is affine in v and P
        at v = 0), so each leaf's windows end by its new cut b(v) =
        ceil(n*P*v / ((N - P)*v + P)), which grows with v: m stays below
        b(hi - 1).  Otherwise a window may end at the cap, and without a
        cap there is no top.  (D = 0 is possible here: v = hi - 1 need
        not be a leaf, and a head with a v sharing a prime with the state
        can sum to 1, as (2, 3, 6) does.)
        """
        top = None if self.cap is None else self.cap - 1
        D = (N - P) * (hi - 1) + P
        if not self.tails and D > 0:
            new_top = -(-self.n * P * (hi - 1) // D) - 1
            if top is None or new_top < top:
                top = new_top
        return coprime_table(primes, top, hi - lo)

    def count(self, slices):
        """Count the tuples in plan slices, in the given order: the one leaf loop.

        A slice is (state, lo, hi): a plan slice, or a run of one cut by
        `_runs`.  Each slice is one flat pass: its invariants (D0 = N - P,
        n*P, the coprime-count table of `table` and the class plan) are
        taken once, and the leaves v in [lo, hi) come straight from
        `coprime_factorizations`, one node each, checked against the node
        cap before the leaf is counted.  A leaf's cut points are those of
        `_cuts` after the head (prefix + v, sum (N*v + P)/(P*v)), with
        D = D0*v + P, clipped to the order cap and to [v, ...) as
        `_last_windows` clips them; each requested class window is one
        inclusion-exclusion count over primes(v) and the state's primes
        outside the table, added to its class in place.  No window list
        or per-leaf tuple is built.
        """
        n, counts, order_cap = self.n, self.counts, self.cap
        old, new = self.old, self.new
        # The tail class past the cut points when the head's sum is above 1
        # (D > 0) and below it, or None when it is not requested.
        above = "NoCriterion" if "NoCriterion" in self.tails else None
        below = "NotFano" if "NotFano" in self.tails else None
        node_cap = self.cfg.node_cap
        for (_, N, P, primes), lo, hi in slices:
            D0 = N - P
            nP = n * P
            phi, rest = self.table(N, P, primes, lo, hi)
            for v, v_primes in coprime_factorizations(lo, hi, primes):
                self.nodes += 1
                if node_cap is not None and self.nodes > node_cap:
                    self._stop()
                D = D0 * v + P
                if D > 0:
                    a = -(-P * v // (n * D))
                    b = -(-nP * v // D)
                    tail = above
                else:
                    a = b = -(-P * v // -D)
                    tail = below
                if order_cap is not None:
                    if a > order_cap:
                        a = order_cap
                    if b > order_cap:
                        b = order_cap
                if rest:
                    v_primes = sorted(rest + tuple(v_primes))
                if old and v < a:
                    counts["OldKE"] += _count_positive(v, a - 1, v_primes, phi)
                if a < v:
                    a = v
                if new and a < b:
                    counts["NewOnlyKE"] += _count_positive(a, b - 1, v_primes, phi)
                if tail is not None:
                    if b < v:
                        b = v
                    if b < order_cap:
                        counts[tail] += _count_positive(b, order_cap - 1, v_primes, phi)

    def blocks(self):
        """Yield (head, Ph, Nh, verdict, ms): every requested tuple, one sieve block at a time.

        The one traversal of materialize mode, in lexicographic order.
        The leaves v of each plan slice come from `coprime_factorizations`
        with their primes, and their windows from one `_last_windows` pass,
        one node each; the last coordinates m of each class
        window are sieved by the primes of the head (prefix + v), at most
        _BLOCK_CAP values of m to a block (`coprime_blocks`).  The tuples
        of a block are head + (m,) for the m in the list ms.  Ph =
        prod(head) and Nh = sum(Ph/x for x in head) are the head's own,
        taken once per head, not the search's (N, P): each m gives P =
        Ph*m and D = Ph + (Nh - Ph)*m.  verdict is (fano, old_ok, new_ok,
        label), the tail of every row's `verdict_fields`, which the block
        shares.

        With m the largest order, D is affine in m and so are the three
        predicates: fano is D > 0, and the bounds n*m*D < (n+1)*P and
        m*D < (n+1)*P, divided by m > 0, are n*D < (n+1)*Ph and D <
        (n+1)*Ph.  So each predicate holds on a run of m or off it, and
        is constant on a block when it agrees at the block's two ends.
        And the label fixes
        the three flags (NotFano has D <= 0, so both bounds hold; old_ok
        implies new_ok).  So verdict_fields is evaluated at the first and
        the last m of each block, before it is yielded; a label there that
        differs from the class window the last order was solved into
        raises AssertionError naming that tuple, under `python -O` too.

        Each D/P is in lowest terms when gcd(Nh, Ph) = 1, as it is for
        pairwise-coprime orders.  The sieve keeps gcd(m, Ph) = 1, so
        modulo a prime of m, D is Ph, and modulo a prime of Ph, D is
        Nh*m: neither is 0.
        """
        n, counts, order_cap = self.n, self.counts, self.cap
        old, new, tails = self.old, self.new, self.tails
        for (prefix, N, P, primes), lo, hi in self.plan():
            leaves = coprime_factorizations(lo, hi, primes)
            for v, v_primes, windows in _last_windows(N, P, n, leaves, order_cap,
                                                      old, new, tails):
                self._bump()
                if not windows:
                    continue
                head = prefix + (v,)
                head_primes = primes + tuple(v_primes)
                Ph = math.prod(head)
                Nh = sum(Ph // x for x in head)
                for label, a, b in windows:
                    for ms in coprime_blocks(a, b - 1, head_primes):
                        for m in (ms[0], ms[-1]) if len(ms) > 1 else ms:
                            Pm = Ph * m
                            fields = verdict_fields(n, m, Nh * m + Ph - Pm, Pm)
                            if fields[-1] != label:
                                raise AssertionError(f"{head + (m,)} solved into {label} "
                                                     f"but classifies as {fields[-1]}")
                        counts[label] += len(ms)
                        yield head, Ph, Nh, fields[3:], ms

    def rows(self):
        """Yield the blocks' tuples one at a time, as (orders, fields) with fields their verdict_fields."""
        for head, Ph, Nh, verdict, ms in self.blocks():
            K = Nh - Ph
            for m in ms:
                yield head + (m,), (m, Ph + K * m, Ph * m, *verdict)

    def materialize(self):
        """Yield the rows wrapped as (RamTuple, FanoReport) pairs."""
        n = self.n
        for orders, fields in self.rows():
            yield RamTuple(n, orders), FanoReport(n, *fields)


def iter_row_blocks(cfg: SearchConfig):
    """Stream materialize mode one sieve block at a time, as (head, Ph, Nh, verdict, ms).

    The form the `enumerate` command writes its items from; see
    `_Search.blocks`.  Memory is bounded by one block, at most _BLOCK_CAP
    last orders.
    """
    return _Search(cfg).blocks()


def iter_rows(cfg: SearchConfig):
    """Stream the integer rows (orders, fields) of materialize mode.

    fields equals `orbifold.fano_fields(n, orders)`: the blocks of
    `iter_row_blocks` flattened, each row's (m, D, P) computed in O(1) and
    its verdict the block's, which the block's two end rows proved for
    every row between (see `_Search.blocks`).  No RamTuple, FanoReport or
    Fraction is built.  Same order, counts, node cap and cross-check as
    iter_tuples, which wraps these rows.
    """
    return _Search(cfg).rows()


def iter_tuples(cfg: SearchConfig):
    """Stream (RamTuple, FanoReport) pairs in lexicographic order.

    Generator form of materialize mode: nothing is accumulated beyond
    per-class counts, so arbitrarily large result sets can be consumed
    one record at a time.
    """
    yield from _Search(cfg).materialize()


def usable_cpus() -> int | None:
    """CPUs this process may run on: its affinity set where the platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count()


def pool_workers(jobs: int, cpus: int | None) -> int:
    """Worker processes for a pool: at most jobs and cpus (None counts as 1)."""
    return max(1, min(jobs, cpus or 1))


def _runs(slices):
    """Cut plan slices into runs: at most _BLOCK_CAP consecutive v of a window, from its start.

    So a run is one sieve block of `coprime_factorizations` over the window.
    """
    for state, lo, hi in slices:
        for start in range(lo, hi, _BLOCK_CAP):
            yield state, start, min(start + _BLOCK_CAP, hi)


def _count_task(cfg, tasks: int, r: int):
    """Worker entry: count the leaves of runs r, r + tasks, r + 2*tasks, ... of the plan.

    The worker walks the plan on a search of its own, whose interior nodes
    the parent has counted, and counts its runs on a second search.
    """
    search = _Search(cfg)
    search.count(islice(_runs(_Search(cfg).plan()), r, None, tasks))
    return search.counts, search.nodes


def _count(search: _Search):
    """Count mode: the leaves of every plan slice, in-process or over a process pool.

    With parallel_width 1 or a node_cap the lazy plan is counted as it is
    walked, so interior and leaf nodes interleave in lexicographic order
    and the partial result at the cap is deterministic.  Otherwise the
    plan is listed, its interior nodes counted once, and weighed by its
    leaves, the v in range coprime to each state's primes, one
    inclusion-exclusion count per slice.  With fewer than POOL_MIN_LEAVES
    leaves in total, or one usable worker, the parent counts the slices
    itself in plan order.  Otherwise the plan is cut into runs (`_runs`)
    and the pool counts one task per worker, task r the runs r,
    r + workers, ... in plan order, each worker walking the plan once
    itself (`_count_task`); their counts and leaf nodes add to the
    parent's.
    """
    cfg = search.cfg
    if cfg.parallel_width == 1 or cfg.node_cap is not None:
        search.count(search.plan())
        return
    slices = list(search.plan())
    total = sum(_count_positive(lo, hi - 1, state[3]) for state, lo, hi in slices)
    width = pool_workers(cfg.parallel_width, usable_cpus())
    if width == 1 or total < POOL_MIN_LEAVES:
        search.count(slices)
        return
    with ProcessPoolExecutor(max_workers=width) as pool:
        for counts, nodes in pool.map(partial(_count_task, cfg, width), range(width)):
            search.nodes += nodes
            for label, value in counts.items():
                search.counts[label] += value


def enumerate_tuples(cfg: SearchConfig) -> EnumResult:
    """Run the configured search; see SearchConfig for the contract.

    Both modes read the slices of one lazy walk, `_Search.plan`.  Counting
    is exact and closed-form in the last coordinate (see _count);
    materialize mode classifies every emitted tuple and cross-checks the
    label against the interval that produced it, and runs serially.
    Output order, counts and nodes_visited are independent of
    parallel_width; a node_cap keeps a count serial, so the partial
    result is deterministic.  Materialize mode holds every pair in memory,
    and node_cap does not bound that: dimension 2 with all classes up to
    max_order 200 gives 7,438,894 pairs from 387,638 nodes, gigabytes of
    records.  iter_tuples and iter_rows stream the same records in bounded
    memory.
    """
    search = _Search(cfg)
    tuples = None
    if cfg.mode == "materialize":
        tuples = tuple(search.materialize())
    else:
        _count(search)
    return EnumResult(
        tuples=tuples,
        counts=search.counts,
        nodes_visited=search.nodes,
        elapsed_s=time.perf_counter() - search.started,
    )
