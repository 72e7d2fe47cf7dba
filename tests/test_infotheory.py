import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import agreement_matrices, positive_matrices
from infoagree.errors import (
    DistributionError,
    InconsistentMarginalError,
    InconsistentTotalError,
    NonPositiveWeightError,
    WeightOverflowError,
    ZeroProbabilityError,
)
from infoagree.infotheory import (
    CategoricalDistribution,
    RefinedDistribution,
    conditional_entropy,
    entropy_from_counts,
    joint,
    marginal_x,
    marginal_y,
    mutual_information,
    refine,
    shannon_entropy,
)
from infoagree.matrix import AgreementMatrix


def h_ref(probs):
    """Plain-loop reference for H = -sum(p log2 p), skipping zeros."""
    return -math.fsum(p * math.log2(p) for p in probs if p)


def dist(probs):
    return CategoricalDistribution(np.array(probs, dtype=float))


def rdist(probs):
    return RefinedDistribution(np.array(probs, dtype=float))


class TestDistributionTypes:
    def test_validation(self):
        with pytest.raises(DistributionError):
            dist([0.5, 0.6])  # does not sum to 1
        with pytest.raises(DistributionError):
            dist([-0.1, 1.1])
        with pytest.raises(DistributionError):
            dist([])
        with pytest.raises(DistributionError):
            CategoricalDistribution(np.full((2, 2, 1), 0.25))  # 3-d
        with pytest.raises(DistributionError):
            CategoricalDistribution(np.zeros((0, 2)))  # empty 2-d
        with pytest.raises(DistributionError):
            dist([0.5, float("nan")])

    def test_refined_masks_zeros(self):
        d = rdist([0.5, 0.0, 0.5])
        assert d.support.tolist() == [True, False, True]
        assert shannon_entropy(d) == 1.0

    def test_probs_are_frozen(self):
        d = dist([0.5, 0.5])
        with pytest.raises(ValueError):
            d.probs[0] = 0.9

    def test_callers_array_stays_its_own(self):
        a = np.array([0.5, 0.5])
        d = CategoricalDistribution(a)
        a[0] = 0.25  # still writeable
        assert d.probs.tolist() == [0.5, 0.5]
        assert not np.shares_memory(a, d.probs)
        b = np.array([0.25, 0.75])
        r = RefinedDistribution(b[::-1])  # a view is copied too
        b[1] = 0.0
        assert r.probs.tolist() == [0.75, 0.25]

    def test_matrix_distributions_keep_their_fresh_arrays(self):
        n = 300
        m = AgreementMatrix(np.random.default_rng(1).integers(0, 10, size=(n, n)))
        tracemalloc.start()
        try:
            j = joint(m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n * n * 8  # the one n x n float64 array, not a copy of it
        for d in (j, marginal_x(m), marginal_y(m), refine(j)):
            assert d.probs.flags.c_contiguous and not d.probs.flags.writeable
        assert refine(j).probs is j.probs  # both read-only, so shared

    def test_support_size(self):
        assert dist([0.5, 0.0, 0.5]).support_size() == 2
        assert dist([[0.5, 0.0], [0.25, 0.25]]).support_size() == 3


class TestMatrixDistributions:
    def test_marginal_x(self):
        assert marginal_x(AgreementMatrix([[1, 1], [1, 1]])).probs.tolist() == [0.5, 0.5]
        table = AgreementMatrix([[4, 0, 0], [6, 0, 0], [0, 0, 0]])
        assert marginal_x(table).probs.tolist() == [1.0, 0.0, 0.0]
        assert marginal_x(AgreementMatrix([[2, 1], [0, 1]])).probs.tolist() == [0.5, 0.5]

    def test_marginal_y(self):
        assert marginal_y(AgreementMatrix([[1, 1], [1, 1]])).probs.tolist() == [0.5, 0.5]
        table = AgreementMatrix([[4, 0, 0], [6, 0, 0], [0, 0, 0]])
        assert marginal_y(table).probs.tolist() == [0.4, 0.6, 0.0]
        assert marginal_y(AgreementMatrix([[2, 1], [0, 1]])).probs.tolist() == [0.75, 0.25]

    def test_joint(self):
        assert joint(AgreementMatrix([[1, 1], [1, 1]])).probs.tolist() == [[0.25, 0.25]] * 2
        assert joint(AgreementMatrix([[5, 0], [0, 5]])).probs.tolist() == [[0.5, 0.0], [0.0, 0.5]]
        assert joint(AgreementMatrix([[2, 1], [0, 1]])).probs.tolist() == [[0.5, 0.25], [0.0, 0.25]]

    def test_joint_axes_are_y_then_x(self):
        d = joint(AgreementMatrix([[2, 1], [0, 1]]))
        assert d.probs.shape == (2, 2)
        assert d.probs[0, 1] == 0.25  # rater Y's class 0, rater X's class 1
        assert d.probs[1, 0] == 0.0

    @given(agreement_matrices())
    def test_joint_axis_sums_are_the_marginals(self, m):
        p = joint(m).probs
        assert np.abs(p.sum(axis=1) - marginal_y(m).probs).max() <= 1e-14
        assert np.abs(p.sum(axis=0) - marginal_x(m).probs).max() <= 1e-14


class TestRefine:
    def test_masks_zeros_keeps_probabilities(self):
        d = dist([0.5, 0.0, 0.5])
        r = refine(d)
        assert isinstance(r, RefinedDistribution)
        assert (r.support == (d.probs > 0)).all()
        assert r.probs.tolist() == [0.5, 0.0, 0.5]
        assert shannon_entropy(r) == shannon_entropy(dist([0.5, 0.5])) == 1.0

    def test_point_mass(self):
        r = refine(dist([1.0, 0.0, 0.0]))
        assert r.support.tolist() == [True, False, False]
        assert shannon_entropy(r) == 0.0

    def test_identity_on_positive(self):
        d = dist([0.25, 0.75])
        r = refine(d)
        assert r.support.all()
        assert r.probs.tolist() == d.probs.tolist()

    @given(agreement_matrices())
    def test_joint_support_is_the_nonzero_cells(self, m):
        j = joint(m)
        r = refine(j)
        assert r.support.shape == (m.n, m.n)
        assert (r.support == (j.probs > 0)).all()
        assert (r.support == (m.counts > 0)).all()


class TestRowBlocks:
    """Sums over a 2-d distribution take its rows a block at a time."""

    @staticmethod
    def _matrix():
        # 300 columns: blocks of 109 rows, the last one short
        cells = np.random.default_rng(3).integers(0, 4, size=(300, 300))
        cells[7] = 0
        return AgreementMatrix(cells)

    def test_refined_sums_never_build_the_support_mask(self, monkeypatch):
        m = self._matrix()
        j, p_x, p_y = refine(joint(m)), refine(marginal_x(m)), refine(marginal_y(m))

        def spy(self):
            raise AssertionError("the n x n support mask was built")

        monkeypatch.setattr(RefinedDistribution, "support", property(spy))
        h_xy = shannon_entropy(j)
        assert h_xy == pytest.approx(h_ref(j.probs.ravel()), rel=1e-12)
        assert shannon_entropy(p_y) == pytest.approx(h_ref(p_y.probs), rel=1e-12)
        mi = mutual_information(j, p_y, p_x)
        h_x_given_y = conditional_entropy(j, p_y)
        assert h_x_given_y == pytest.approx(h_xy - shannon_entropy(p_y), rel=1e-12)
        assert mi == pytest.approx(shannon_entropy(p_x) - h_x_given_y, rel=1e-10)

    def test_mutual_information_over_several_blocks(self):
        m = self._matrix()
        j = refine(joint(m))
        p_x, p_y = marginal_x(m).probs, marginal_y(m).probs
        p = j.probs
        want = math.fsum(
            p[y, x] * math.log2(p[y, x] / (p_y[y] * p_x[x]))
            for y, x in zip(*np.nonzero(p))
        )
        got = mutual_information(j, refine(marginal_y(m)), refine(marginal_x(m)))
        assert got == pytest.approx(want, rel=1e-12)


class TestShannonEntropy:
    def test_known_values(self):
        assert shannon_entropy(rdist([0.5, 0.5])) == pytest.approx(1.0, abs=1e-15)
        assert shannon_entropy(rdist([0.5, 0.25, 0.25])) == pytest.approx(1.5, abs=1e-15)
        assert shannon_entropy(rdist([1.0])) == 0.0
        assert shannon_entropy(rdist([0.125] * 8)) == pytest.approx(3.0, abs=1e-15)

    def test_rejects_zero_probability(self):
        with pytest.raises(ZeroProbabilityError):
            shannon_entropy(dist([0.5, 0.0, 0.5]))

    @given(agreement_matrices())
    def test_range_and_positivity(self, m):
        d = refine(marginal_y(m))
        h = shannon_entropy(d)
        assert 0.0 <= h <= math.log2(d.support_size()) + 1e-12
        if d.support_size() >= 2:
            assert h > 0.0
        else:
            assert h == 0.0


class TestEntropyFromCounts:
    def test_known_values(self):
        assert entropy_from_counts([1, 1, 2], 4) == pytest.approx(1.5, abs=1e-15)
        for k in (1, 3, 7, 1000):
            assert entropy_from_counts([k], k) == 0.0
        expected = h_ref([0.4, 0.6])
        assert entropy_from_counts([4, 6], 10) == pytest.approx(expected, abs=1e-12)
        assert entropy_from_counts([4, 6], 10) == pytest.approx(0.970951, abs=1e-6)

    def test_total_defaults_to_sum(self):
        assert entropy_from_counts([4, 6]) == entropy_from_counts([4, 6], 10)

    def test_rejects_bad_weights(self):
        with pytest.raises(NonPositiveWeightError):
            entropy_from_counts([1, 0, 2])
        with pytest.raises(NonPositiveWeightError):
            entropy_from_counts([1, -1, 2])
        with pytest.raises(NonPositiveWeightError):
            entropy_from_counts([])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_weights(self, bad):
        with pytest.raises(NonPositiveWeightError, match="finite"):
            entropy_from_counts([1.0, bad])

    def test_rejects_weights_whose_sum_overflows(self):
        with pytest.raises(WeightOverflowError):
            entropy_from_counts([1e308, 1e308])

    def test_rejects_weights_whose_xlog2_sum_overflows(self):
        with pytest.raises(WeightOverflowError):
            entropy_from_counts([1e306, 1e306])  # sum(w * log2(w)) ~ 2.0e309
        assert entropy_from_counts([1e300, 1e300]) == 1.0

    @pytest.mark.parametrize("tiny", [1e-320, 1e-310, 1e-300, 2.0**-1000])
    def test_tiny_weights_keep_their_entropy(self, tiny):
        assert entropy_from_counts([tiny, tiny]) == pytest.approx(1.0, abs=1e-15)
        assert entropy_from_counts([tiny, tiny], 2 * tiny) == pytest.approx(1.0, abs=1e-15)
        expected = h_ref([0.25, 0.75])
        assert entropy_from_counts([tiny, 3 * tiny]) == pytest.approx(expected, abs=1e-15)

    @given(
        st.lists(st.floats(min_value=1e-3, max_value=1.9), min_size=1, max_size=20),
        st.sampled_from([1, 7, 100, 1000]),
    )
    def test_scaling_down_by_a_power_of_two_keeps_the_bits(self, weights, k):
        w = np.array([1.5] + weights)  # the largest weight lies in [1, 2)
        assert entropy_from_counts(np.ldexp(w, -k)) == entropy_from_counts(w)

    @pytest.mark.parametrize(
        "weights, bits",
        [
            ([1, 1, 2], 1.5),
            ([4, 6], 0.9709505944546684),
            ([1.0, 0.25], 0.7219280948873623),
            ([3, 1e-300], 0.0),
            ([1e300, 3e299], 0.7793498372922159),
        ],
    )
    def test_weights_from_one_up_keep_their_bits(self, weights, bits):
        # the scaling applies only when every weight is below 1
        assert entropy_from_counts(weights) == bits

    def test_rejects_inconsistent_total(self):
        with pytest.raises(InconsistentTotalError):
            entropy_from_counts([4, 6], 11)
        with pytest.raises(InconsistentTotalError):
            entropy_from_counts([4, 6], -10)

    @given(
        st.lists(
            st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
            min_size=1,
            max_size=40,
        )
    )
    def test_matches_normalized_entropy(self, weights):
        w = np.array(weights)
        normalized = refine(dist((w / w.sum()).tolist()))
        assert entropy_from_counts(w) == pytest.approx(
            shannon_entropy(normalized), abs=1e-12
        )


class TestConditionalEntropy:
    def test_independent_joint_gives_marginal_entropy(self):
        # p(z, w) = p(z) q(w) with p = (.5, .5), q = (.25, .75)
        j = rdist([[0.125, 0.375], [0.125, 0.375]])
        given_z = rdist([0.5, 0.5])
        assert conditional_entropy(j, given_z) == pytest.approx(
            h_ref([0.25, 0.75]), abs=1e-12
        )

    def test_deterministic_function_gives_zero(self):
        j = rdist([[0.5, 0.0], [0.0, 0.5]])
        assert conditional_entropy(j, rdist([0.5, 0.5])) == 0.0

    def test_correlated_example(self):
        j = rdist([[0.4, 0.1], [0.1, 0.4]])
        expected = h_ref([0.4, 0.1, 0.1, 0.4]) - 1.0  # H(ZW) - H(Z)
        got = conditional_entropy(j, rdist([0.5, 0.5]))
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.721928, abs=1e-6)

    def test_rejects_inconsistent_marginal(self):
        j = rdist([[0.4, 0.1], [0.1, 0.4]])
        with pytest.raises(InconsistentMarginalError):
            conditional_entropy(j, rdist([0.7, 0.3]))
        with pytest.raises(InconsistentMarginalError):
            conditional_entropy(j, rdist([1.0]))  # shape mismatch

    @given(positive_matrices())
    def test_chain_rule(self, m):
        j = refine(joint(m))
        my = refine(marginal_y(m))
        lhs = conditional_entropy(j, my)
        rhs = shannon_entropy(j) - shannon_entropy(my)
        assert lhs == pytest.approx(rhs, abs=1e-9)

    # float hex recorded when every cell was still divided by a column
    # marginal of ones; x / 1.0 == x, so skipping that divide moves no bit.
    # Each matrix is given as H(X|Y) and, transposed, H(Y|X): refined, and
    # unrefined where it has no zero; 300 rows take three row blocks
    _PINNED_CONDITIONALS = {
        "positive_2": ("0x1.d62adf1ea257cp-1", "0x1.d62adf1ea257cp-1"),
        "positive_50": ("0x1.57ce02db08a09p+2", "0x1.57c4b25d10d98p+2"),
        "positive_300": ("0x1.008b996499366p+3", "0x1.008b24e3f1771p+3"),
        "zeros_3": ("0x1.b1607f6ed1c20p-1", "0x1.1a19b9126167dp-1"),
        "zeros_300": ("0x1.9173abda8f0fcp+2", "0x1.912622ea1e626p+2"),
    }

    @staticmethod
    def _pinned_matrices():
        rng = np.random.default_rng(1502)
        out = {
            "positive_2": [[2, 1], [1, 2]],
            "positive_50": rng.integers(1, 1000, size=(50, 50)),
            "positive_300": rng.integers(1, 10, size=(300, 300)),
            "zeros_3": [[4, 0, 1], [0, 0, 0], [2, 3, 0]],
        }
        sparse = rng.integers(1, 10, size=(300, 300)) * (rng.random((300, 300)) < 0.3)
        sparse[7] = 0
        out["zeros_300"] = sparse
        return {name: AgreementMatrix(rows) for name, rows in out.items()}

    @pytest.mark.parametrize("name", sorted(_PINNED_CONDITIONALS))
    def test_bits_are_pinned(self, name):
        m = self._pinned_matrices()[name]
        for matrix, want in zip((m, m.transpose()), self._PINNED_CONDITIONALS[name]):
            j, given_z = joint(matrix), marginal_y(matrix)
            assert conditional_entropy(refine(j), refine(given_z)).hex() == want
            if not matrix.has_zero_cell():
                assert conditional_entropy(j, given_z).hex() == want


class TestMutualInformation:
    def test_product_joint_gives_zero(self):
        j = rdist([[0.125, 0.375], [0.125, 0.375]])
        mi = mutual_information(j, rdist([0.5, 0.5]), rdist([0.25, 0.75]))
        assert mi == pytest.approx(0.0, abs=1e-12)
        assert mi >= 0.0

    def test_perfect_correlation_of_two_classes(self):
        j = rdist([[0.5, 0.0], [0.0, 0.5]])
        u = rdist([0.5, 0.5])
        assert mutual_information(j, u, u) == pytest.approx(1.0, abs=1e-12)

    def test_correlated_example(self):
        j = rdist([[0.4, 0.1], [0.1, 0.4]])
        u = rdist([0.5, 0.5])
        expected = 2.0 - h_ref([0.4, 0.1, 0.1, 0.4])  # H(Z) + H(W) - H(ZW)
        got = mutual_information(j, u, u)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.278072, abs=1e-6)

    def test_rejects_inconsistent_marginal(self):
        j = rdist([[0.4, 0.1], [0.1, 0.4]])
        with pytest.raises(InconsistentMarginalError):
            mutual_information(j, rdist([0.9, 0.1]), rdist([0.5, 0.5]))
        with pytest.raises(InconsistentMarginalError):
            mutual_information(j, rdist([0.5, 0.5]), rdist([0.25, 0.25, 0.5]))  # shape

    def test_symmetry_is_exact(self):
        j = rdist([[0.4, 0.2], [0.1, 0.3]])
        swapped = rdist(j.probs.T)
        first, second = rdist([0.6, 0.4]), rdist([0.5, 0.5])
        forward = mutual_information(j, first, second)
        assert abs(forward - mutual_information(swapped, second, first)) <= 1e-12

    @given(positive_matrices())
    def test_identity_with_entropies(self, m):
        j = refine(joint(m))
        my = refine(marginal_y(m))
        mx = refine(marginal_x(m))
        mi = mutual_information(j, my, mx)
        hx = shannon_entropy(mx)
        hy = shannon_entropy(my)
        hxy = shannon_entropy(j)
        assert mi == pytest.approx(hx + hy - hxy, abs=1e-9)
        assert mi >= 0.0

    @given(agreement_matrices())
    def test_identity_holds_for_refined_joints_with_zeros(self, m):
        j = refine(joint(m))
        my = refine(marginal_y(m))
        mx = refine(marginal_x(m))
        mi = mutual_information(j, my, mx)
        want = shannon_entropy(mx) + shannon_entropy(my) - shannon_entropy(j)
        assert mi == pytest.approx(want, abs=1e-9)


class TestZerosAndShapes:
    def test_unrefined_joint_with_a_zero_raises_zero_probability(self):
        m = AgreementMatrix([[2, 0], [1, 1]])
        with pytest.raises(ZeroProbabilityError):
            mutual_information(joint(m), marginal_y(m), marginal_x(m))
        with pytest.raises(ZeroProbabilityError):
            conditional_entropy(joint(m), marginal_y(m))

    @pytest.mark.parametrize("rows", [[[2, 0], [1, 1]], [[3, 1, 0], [1, 2, 0], [0, 0, 0]]])
    def test_refined_joint_with_unrefined_marginals(self, rows):
        m = AgreementMatrix(rows)
        j = refine(joint(m))
        mx, my = marginal_x(m), marginal_y(m)
        want = shannon_entropy(refine(mx)) + shannon_entropy(refine(my)) - shannon_entropy(j)
        assert mutual_information(j, my, mx) == pytest.approx(want, abs=1e-12)
        want = shannon_entropy(j) - shannon_entropy(refine(my))
        assert conditional_entropy(j, my) == pytest.approx(want, abs=1e-12)

    def test_marginal_zero_under_joint_mass(self):
        # the row's mass is below MARGINAL_TOL, but a sum would divide by the zero
        j = rdist([[0.5, 0.5 - 1e-12], [1e-12, 0.0]])
        with pytest.raises(InconsistentMarginalError):
            conditional_entropy(j, rdist([1.0, 0.0]))
        with pytest.raises(InconsistentMarginalError):
            mutual_information(j, rdist([1.0, 0.0]), rdist([0.5, 0.5]))

    def test_joint_must_be_2d(self):
        u = rdist([0.5, 0.5])
        with pytest.raises(DistributionError):
            mutual_information(u, u, u)
        with pytest.raises(DistributionError):
            conditional_entropy(u, u)


class TestTransposeEntropies:
    @given(positive_matrices())
    def test_strictly_positive_matrices(self, m):
        t = m.transpose()
        assert shannon_entropy(marginal_x(m)) == pytest.approx(
            shannon_entropy(marginal_y(t)), abs=1e-12
        )
        assert shannon_entropy(marginal_y(m)) == pytest.approx(
            shannon_entropy(marginal_x(t)), abs=1e-12
        )
        assert shannon_entropy(joint(m)) == pytest.approx(
            shannon_entropy(joint(t)), abs=1e-12
        )

    @given(agreement_matrices())
    def test_refined_arbitrary_matrices(self, m):
        t = m.transpose()
        assert shannon_entropy(refine(marginal_x(m))) == pytest.approx(
            shannon_entropy(refine(marginal_y(t))), abs=1e-12
        )
        assert shannon_entropy(refine(marginal_y(m))) == pytest.approx(
            shannon_entropy(refine(marginal_x(t))), abs=1e-12
        )
        assert shannon_entropy(refine(joint(m))) == pytest.approx(
            shannon_entropy(refine(joint(t))), abs=1e-12
        )
