"""The exhaustive scan in reference.py, which other tests compare against."""

from __future__ import annotations

from reference import brute_force_oracle


class TestBruteForceOracle:
    def test_contains_new_example(self):
        out = dict(brute_force_oracle(2, 20))
        assert out[(2, 3, 5, 17)] == "NewOnlyKE"

    def test_no_new_below_order_five(self):
        assert all(label != "NewOnlyKE" for _, label in brute_force_oracle(2, 5))

    def test_dim1_small_scan(self):
        # The only pairwise-coprime sorted triples with entries in [2,5].
        out = dict(brute_force_oracle(1, 5))
        assert out == {(2, 3, 5): "OldKE", (3, 4, 5): "NotFano"}
