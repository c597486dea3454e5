"""Branch-and-bound enumeration and exact counting of admissible tuples.

The search runs depth-first over sorted pairwise-coprime prefixes
(m0 <= ... <= mn), resolving the final coordinate in closed form.  A prefix
is carried as (N, P) with P = prod(prefix) and reciprocal sum S = N/P.  Each
bound is linear in 1/m, so it is one integer inequality a*m < b, solved by
ceiling or floor division: the classifications split the last coordinate
at no more than two integer cut points (`_cuts`), and counting reduces to
inclusion-exclusion coprime counts over the intervals between them.  The
same inequalities bound the candidates for every earlier entry.

One child step, `_Search._children`, takes the next order v after a
prefix (N, P, primes R) at every depth: one node per v, each v with its
primes from a segmented sieve.  The walk `_Search.prefixes` recurses over
it.  Count mode stops the walk at the prefixes of n orders and counts
each class interval of the last coordinate, for each child v, by one
inclusion-exclusion walk over the primes of v and those of R outside a
coprime-count table built once per prefix for R's smallest primes;
materialize mode walks to the prefixes of n + 1 orders and lists and
classifies the coprime last coordinates of each interval.

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

from .errors import InputError, NodeBudgetExceeded, SearchSpaceTooLarge
from .exactmath import (
    _count_positive,
    coprime_factorizations,
    coprime_in_range,
    coprime_table,
    factorize,
)
from .orbifold import CLASSIFICATIONS, RamTuple, classify, make_tuple

# Classes whose members form a finite set without any order cap.
_BOUNDED_CLASSES = frozenset({"OldKE", "NewOnlyKE"})

_BRUTE_FORCE_GUARD = 10 ** 8


# ---------------------------------------------------------------------------
# Sylvester sequence and family


def sylvester_seq(k: int) -> list[int]:
    """First k values of the sequence c1=2, c_{k+1} = c1*...*ck + 1.

    Both recursion forms (running product + 1, and ck^2 - ck + 1) are
    computed and must agree.  Capped at k <= 8: value 8 already has 27
    digits and nothing downstream needs more.
    """
    if not 1 <= k <= 8:
        raise InputError(f"k must be in 1..8, got {k}")
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
    factors of c8-2 ~ 1.1e26, past the factorization range this package
    supports.
    """
    if n < 2:
        raise InputError(f"family needs n >= 2, got {n}")
    if n > 6:
        raise InputError(
            f"family capped at n <= 6 (n={n} needs factoring a 27-digit value)"
        )
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
    except for repeated unit orders).
    """
    prefix = tuple(int(m) for m in prefix)
    if n < 1:
        raise InputError(f"dimension must be >= 1, got {n}")
    if not prefix:
        raise InputError("prefix must be nonempty")
    if len(prefix) != n + 1:
        raise InputError(f"dimension {n} needs a prefix of {n + 1} orders, got {len(prefix)}")
    if any(m < 1 for m in prefix):
        raise InputError("orders must be >= 1")
    if any(prefix[i] > prefix[i + 1] for i in range(len(prefix) - 1)):
        raise InputError("prefix must be sorted nondecreasing")
    prod = math.prod(prefix)
    if any(math.gcd(prefix[i], prod // prefix[i]) != 1 for i in range(len(prefix))):
        raise InputError("prefix must be pairwise coprime")
    floor = prefix[-1]
    a, b, tail = _cuts(sum(prod // m for m in prefix), prod, n)
    windows = {
        "OldKE": _window(floor, a),
        "NewOnlyKE": _window(max(a, floor), b),
        tail: (max(b, floor), None),
    }
    by_class = {label: windows.get(label) for label in CLASSIFICATIONS}
    return LastIntervals(prefix=prefix, n=n, floor=floor, by_class=by_class)


# ---------------------------------------------------------------------------
# Search configuration and results


@dataclass(frozen=True)
class SearchConfig:
    """Parameters of one enumeration run.

    classes is the set of classifications to emit/count.  Requesting any
    class outside {OldKE, NewOnlyKE}, or admitting unit orders, requires
    max_order: those classes are infinite, and after a unit order the
    prefix sum is already 1, which every larger order can extend.
    prefix_filter pins the leading orders (sorted, coprime).  node_cap
    bounds the number of search nodes; hitting it raises
    NodeBudgetExceeded carrying the partial result, and forces serial
    execution so the partial result is deterministic.  parallel_width > 1
    splits count mode over worker processes, one per prefix subtree at
    depth min(2, n); materialize mode always runs serially.
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
        if self.n < 1:
            raise InputError(f"dimension must be >= 1, got {self.n}")
        if self.min_order not in (1, 2):
            raise InputError(f"min_order must be 1 or 2, got {self.min_order}")
        if self.mode not in ("materialize", "count"):
            raise InputError(f"mode must be materialize or count, got {self.mode!r}")
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
        if self.max_order is not None and self.max_order < self.min_order:
            raise InputError("max_order below min_order")
        if self.parallel_width < 1:
            raise InputError("parallel_width must be >= 1")
        if self.node_cap is not None and self.node_cap < 1:
            raise InputError("node_cap must be >= 1")
        if self.prefix_filter is not None:
            pf = tuple(int(m) for m in self.prefix_filter)
            if len(pf) > self.n + 1:
                raise InputError("prefix_filter longer than the searchable prefix")
            if any(m < self.min_order for m in pf):
                raise InputError("prefix_filter entry below min_order")
            if any(pf[i] > pf[i + 1] for i in range(len(pf) - 1)):
                raise InputError("prefix_filter must be sorted nondecreasing")
            prod = math.prod(pf) if pf else 1
            if any(math.gcd(m, prod // m) != 1 for m in pf):
                raise InputError("prefix_filter must be pairwise coprime")
            object.__setattr__(self, "prefix_filter", pf)


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
        self.nodes = 0
        self.started = time.perf_counter()

    def _bump(self):
        self.nodes += 1
        cap = self.cfg.node_cap
        if cap is not None and self.nodes > cap:
            partial = EnumResult(
                tuples=None,
                counts=dict(self.counts),
                nodes_visited=self.nodes,
                elapsed_s=time.perf_counter() - self.started,
            )
            raise NodeBudgetExceeded(
                f"node cap {cap} exceeded (progress: {dict(self.counts)})", partial
            )

    def _next_window(self, prefix, N, P):
        """Window (lo, hi) of the next entries v that can still lead to a requested class.

        With k prefix slots open (v's included) and every later entry >= v,
        a Fano tuple needs v*(P-N) < (k+1)*P and a prefix sum above 1 needs
        v*(P-N) < k*P; the old and new bounds must already hold with v as
        the largest order, since the final sum is at least the sum up to v
        and the final largest order is at least v.
        Each class is reachable on one window of v.  The windows overlap
        (all but OldKE's start at 1; OldKE's lies within NoCriterion's and
        starts below the end of NewOnlyKE's), so their union is one window.
        A pinned entry narrows it to that entry; None means no candidate.
        """
        n = self.n
        k = n + 1 - len(prefix)
        fano = _solve(P - N, (k + 1) * P)
        reach = {
            "NotFano": (1, None),
            "NoCriterion": fano,
            "OldKE": _meet(fano, _solve(n * (N - P), (1 - n) * P)),
            "NewOnlyKE": _meet(_solve(P - N, k * P), _solve(N - P, (n - 1) * P)),
        }
        spans = [reach[c] for c in self.cfg.classes if reach[c] is not None]
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

    def _children(self, state):
        """Yield (v, N*v + P, P*v, primes of v) for each next order v after state.

        The one step to the next order at every depth, for count and
        materialize: one node per v, each v with its primes from a
        segmented sieve that skips the multiples of the state's primes.
        """
        prefix, N, P, primes = state
        window = self._next_window(prefix, N, P)
        if window is None:
            return
        for v, v_primes in coprime_factorizations(*window, primes):
            self._bump()
            yield v, N * v + P, P * v, v_primes

    def prefixes(self, depth: int, state=_ROOT):
        """Yield the state of every viable prefix of length depth below state.

        Lexicographic order.  Each prefix created below state is one node;
        state itself was counted by whoever created it.
        """
        if len(state[0]) == depth:
            yield state
            return
        prefix, _, _, primes = state
        for v, N, P, v_primes in self._children(state):
            yield from self.prefixes(depth, (prefix + (v,), N, P, primes + tuple(v_primes)))

    def _windows(self, N, P, floor):
        """Requested (label, lo, hi) windows of the last coordinate, ascending.

        Each is the class's range from `_cuts` clipped to [floor, cap),
        half-open and nonempty.
        """
        a, b, tail = _cuts(N, P, self.n)
        cap = self.cap
        windows = []
        for label, lo, hi in (("OldKE", floor, a), ("NewOnlyKE", a, b), (tail, b, cap)):
            if label not in self.cfg.classes:
                continue
            if hi is None:
                raise AssertionError(
                    f"unbounded window for {label} escaped config validation"
                )  # pragma: no cover
            lo = max(lo, floor)
            if cap is not None and hi > cap:
                hi = cap
            if lo < hi:
                windows.append((label, lo, hi))
        return windows

    def count(self, root=_ROOT):
        """Count every tuple below root, closed-form in the last coordinate.

        Each leaf window is one inclusion-exclusion walk over primes(v) and
        the prefix's primes outside a coprime-count table built per prefix.
        """
        counts = self.counts
        for prefix, N, P, primes in self.prefixes(self.n, root):
            primes = tuple(sorted(primes))
            phi, rest = coprime_table(primes)
            for v, leaf_N, leaf_P, v_primes in self._children((prefix, N, P, primes)):
                leaf_primes = sorted(rest + tuple(v_primes))
                for label, lo, hi in self._windows(leaf_N, leaf_P, v):
                    counts[label] += _count_positive(lo, hi - 1, leaf_primes, phi)

    def materialize(self):
        for prefix, N, P, _ in self.prefixes(self.n + 1):
            for label, lo, hi in self._windows(N, P, prefix[-1]):
                for m in coprime_in_range(lo, hi - 1, P):
                    t = RamTuple(self.n, prefix + (m,))
                    report = classify(t)
                    if report.classification != label:
                        raise AssertionError(f"{t.orders} solved into {label} but "
                                             f"classifies as {report.classification}")
                    self.counts[label] += 1
                    yield t, report


def iter_tuples(cfg: SearchConfig):
    """Stream (RamTuple, FanoReport) pairs in lexicographic order.

    Generator form of materialize mode: nothing is accumulated beyond
    per-class counts, so arbitrarily large result sets can be consumed
    one record at a time.
    """
    yield from _Search(cfg).materialize()


def pool_workers(jobs: int, tasks: int, cpus: int | None) -> int:
    """Worker processes for a pool: at most jobs, cpus (None counts as 1) and tasks."""
    return max(1, min(jobs, cpus or 1, tasks))


def _run_task(task):
    """Worker entry: count the subtree below one planned prefix state."""
    cfg, root = task
    search = _Search(cfg)
    search.count(root)
    return search.counts, search.nodes


def enumerate_tuples(cfg: SearchConfig) -> EnumResult:
    """Run the configured search; see SearchConfig for the contract.

    Counting is exact and closed-form in the last coordinate; materialize
    mode classifies every emitted tuple and cross-checks the label against
    the interval that produced it.  Output order, counts and nodes_visited
    are independent of parallel_width.  Materialize mode runs serially;
    count mode splits over disjoint prefix subtrees at depth min(2, n) when
    parallel_width > 1 (not with a node_cap or a prefix_filter, to keep cap
    semantics and task planning exact).
    """
    search = _Search(cfg)
    tuples = None
    if cfg.mode == "materialize":
        tuples = tuple(search.materialize())
    elif cfg.parallel_width > 1 and cfg.node_cap is None and cfg.prefix_filter is None:
        # Count workers start at depth <= n, where the leaf loop takes over.
        roots = list(search.prefixes(min(2, cfg.n)))
        width = pool_workers(cfg.parallel_width, len(roots), os.cpu_count())
        with ProcessPoolExecutor(max_workers=width) as pool:
            for task_counts, task_nodes in pool.map(_run_task, [(cfg, r) for r in roots]):
                search.nodes += task_nodes
                for label, value in task_counts.items():
                    search.counts[label] += value
    else:
        search.count()
    return EnumResult(
        tuples=tuples,
        counts=search.counts,
        nodes_visited=search.nodes,
        elapsed_s=time.perf_counter() - search.started,
    )


def count_new(n: int) -> int:
    """Exact number of canonical NewOnlyKE tuples in dimension n (n <= 5)."""
    if not 1 <= n <= 5:
        raise InputError(f"count_new supports 1 <= n <= 5, got {n}")
    result = enumerate_tuples(SearchConfig(n=n, mode="count", classes=("NewOnlyKE",)))
    return result.counts["NewOnlyKE"]


def brute_force_oracle(n: int, max_order: int, min_order: int = 2):
    """Exhaustively classify every sorted valid tuple with entries <= max_order.

    Test oracle: no pruning beyond tuple validity (sortedness, coprimality,
    min_order).  Returns a list of (orders, classification) pairs in
    lexicographic order.  Guarded to max_order**(n+2) <= 1e8 raw candidates.
    """
    if n < 1:
        raise InputError(f"dimension must be >= 1, got {n}")
    if max_order < min_order:
        raise InputError("max_order below min_order")
    if max_order ** (n + 2) > _BRUTE_FORCE_GUARD:
        raise SearchSpaceTooLarge(
            f"{max_order}^{n + 2} raw candidates exceed the {_BRUTE_FORCE_GUARD:.0e} guard"
        )
    out = []
    slots = n + 2

    def rec(prefix, prod):
        if len(prefix) == slots:
            t = RamTuple(n, prefix)
            out.append((prefix, classify(t).classification))
            return
        if not prefix:
            lo = min_order
        elif prefix[-1] == 1:
            lo = 1
        else:
            lo = prefix[-1] + 1
        for v in range(lo, max_order + 1):
            if math.gcd(v, prod) == 1:
                rec(prefix + (v,), prod * v)

    rec((), 1)
    return out
