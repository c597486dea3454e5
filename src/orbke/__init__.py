"""orbke: exact-arithmetic Kähler–Einstein existence certificates.

Decides, enumerates and counts ramification tuples (m0,...,m_{n+1}) of
hyperplane-arrangement orbifolds on P^n against two exact existence bounds,
builds the associated odd-sphere link data, evaluates the singular-threshold
criterion 1/c < beta for normal-crossing boundaries and the two Del Pezzo
case analyses, and cross-checks analytic integrability thresholds with a
Monte-Carlo cutoff-scaling oracle.

All criteria arithmetic is exact (fractions.Fraction); floats appear only in
the stochastic oracle, which is a test instrument and never feeds back into
the criteria.
"""

__version__ = "0.1.0"

from .exactmath import Rat, FactoredInt, factorize, count_coprime_in_range
from .orbifold import (
    RamTuple,
    FanoReport,
    LinkData,
    make_tuple,
    classify,
    link_weights,
)
from .enumeration import (
    SylvesterFamily,
    SearchConfig,
    EnumResult,
    sylvester_seq,
    sylvester_family,
    admissible_last_interval,
    enumerate_tuples,
    iter_tuples,
    count_new,
    brute_force_oracle,
)
from .lct import (
    INF,
    SncFanoData,
    KeReport,
    DelPezzo2,
    DelPezzo4,
    delta_pn,
    beta_of_delta,
    snc_threshold,
    monomial_lct,
    ke_criterion,
    snc_ke_check,
    dp2_check,
    dp4_check,
)
from .oracle import (
    OracleConfig,
    ExponentEstimate,
    estimate_monomial_threshold,
    estimate_bp_threshold,
    verify_threshold,
)

__all__ = [
    "__version__",
    "Rat",
    "FactoredInt",
    "factorize",
    "count_coprime_in_range",
    "RamTuple",
    "FanoReport",
    "LinkData",
    "make_tuple",
    "classify",
    "link_weights",
    "SylvesterFamily",
    "SearchConfig",
    "EnumResult",
    "sylvester_seq",
    "sylvester_family",
    "admissible_last_interval",
    "enumerate_tuples",
    "iter_tuples",
    "count_new",
    "brute_force_oracle",
    "INF",
    "SncFanoData",
    "KeReport",
    "DelPezzo2",
    "DelPezzo4",
    "delta_pn",
    "beta_of_delta",
    "snc_threshold",
    "monomial_lct",
    "ke_criterion",
    "snc_ke_check",
    "dp2_check",
    "dp4_check",
    "OracleConfig",
    "ExponentEstimate",
    "estimate_monomial_threshold",
    "estimate_bp_threshold",
    "verify_threshold",
]
