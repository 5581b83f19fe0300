"""Dissimilarities, threshold rule, agglomeration, and ARI against oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import squareform

from factorcluster.errors import EstimationError
from factorcluster.factors import fit_loadings
from factorcluster.clustering import (
    adjusted_rand_index,
    cluster,
    residual_cov,
    run_clustering_pipeline,
    scod_matrix,
    select_threshold,
)
from factorcluster.panel import ClusterPartition
from factorcluster.simulation import default_config, generate


def scod_oracle(s):
    """Triple-loop transcription of the dissimilarity definition."""
    p = s.shape[0]
    out = np.zeros((p, p))
    for i in range(p):
        for j in range(p):
            if i == j:
                continue
            best = -np.inf
            for l in range(p):
                if l in (i, j):
                    continue
                denom = math.sqrt((s[i, i] + s[j, j] - 2 * s[i, j]) * s[l, l])
                best = max(best, abs(s[i, l] - s[j, l]) / denom)
            out[i, j] = best
    return out


def scod_row_loop(resid_cov):
    """The earlier row-loop kernel, arithmetic verbatim, as a bitwise reference."""
    s = np.asarray(resid_cov, dtype=np.float64)
    p = s.shape[0]
    d = np.diag(s).copy()
    out = d[:, None] + d[None, :] - 2.0 * s
    np.fill_diagonal(out, np.inf)
    # scale probe columns once: scaled[i, l] = S_il / sqrt(S_ll)
    scaled = s / np.sqrt(d)[None, :]
    buf = np.empty((p - 1, p), dtype=np.float64)
    rows = np.arange(p - 1)
    for i in range(p - 1):
        # row k of r holds |S_il - S_jl| / sqrt(S_ll) for j = i + 1 + k
        m = p - 1 - i
        r = buf[:m]
        np.subtract(scaled[i], scaled[i + 1 :], out=r)
        np.abs(r, out=r)
        r[:, i] = -np.inf
        r[rows[:m], rows[:m] + i + 1] = -np.inf
        out[i, i + 1 :] = r.max(axis=1) / np.sqrt(out[i, i + 1 :])
    out = np.triu(out, 1)
    # mirror the upper triangle into the now all-zero lower one
    return out + out.T


def residual_cov_oracle(u):
    t_len, p = u.shape
    out = np.zeros((p, p))
    for i in range(p):
        for j in range(p):
            out[i, j] = sum(u[t, i] * u[t, j] for t in range(t_len)) / t_len
    return out


def single_linkage_cut_oracle(d, gamma):
    """O(p^3) single-linkage agglomeration, merging while min < gamma."""
    p = d.shape[0]
    groups = [[i] for i in range(p)]
    while len(groups) > 1:
        best = np.inf
        best_pair = None
        for a in range(len(groups)):
            for b in range(a + 1, len(groups)):
                link = min(d[i, j] for i in groups[a] for j in groups[b])
                key = (min(min(groups[a]), min(groups[b])),
                       max(min(groups[a]), min(groups[b])))
                if link < best or (link == best and key < best_pair[0]):
                    best = link
                    best_pair = (key, a, b)
        if not best < gamma:
            break
        _, a, b = best_pair
        merged = sorted(groups[a] + groups[b])
        groups = [g for k, g in enumerate(groups) if k not in (a, b)]
        groups.append(merged)
    return ClusterPartition.from_groups(groups, p)


def connected_components_oracle(d, gamma):
    """BFS components of the graph with edges D_ij < gamma."""
    p = d.shape[0]
    seen = [False] * p
    groups = []
    for start in range(p):
        if seen[start]:
            continue
        queue = [start]
        seen[start] = True
        comp = []
        while queue:
            i = queue.pop()
            comp.append(i)
            for j in range(p):
                if j != i and not seen[j] and d[i, j] < gamma:
                    seen[j] = True
                    queue.append(j)
        groups.append(sorted(comp))
    return ClusterPartition.from_groups(groups, p)


def ari_oracle(la, lb):
    """Pair-counting ARI: classify every index pair by joint agreement."""
    n = len(la)
    a11 = a00 = a10 = a01 = 0
    for i in range(n):
        for j in range(i + 1, n):
            same_a = la[i] == la[j]
            same_b = lb[i] == lb[j]
            if same_a and same_b:
                a11 += 1
            elif same_a:
                a10 += 1
            elif same_b:
                a01 += 1
            else:
                a00 += 1
    pairs = n * (n - 1) // 2
    sum_a = a11 + a10
    sum_b = a11 + a01
    expected = sum_a * sum_b / pairs if pairs else 0.0
    maximum = (sum_a + sum_b) / 2
    if maximum == expected:
        return 1.0
    return (a11 - expected) / (maximum - expected)


def random_spd_cov(rng, p):
    x = rng.normal(size=(p + 3, p))
    return x.T @ x / (p + 3) + 0.1 * np.eye(p)


def test_residual_cov_matches_oracle():
    rng = np.random.default_rng(20)
    for _ in range(20):
        u = rng.normal(size=(int(rng.integers(2, 15)), int(rng.integers(1, 8))))
        assert np.allclose(residual_cov(u), residual_cov_oracle(u), atol=1e-12)


def test_residual_cov_rejects_bad_shapes():
    with pytest.raises(ValueError):
        residual_cov(np.zeros(4))
    with pytest.raises(ValueError):
        residual_cov(np.zeros((1, 4)))


def test_scod_hand_value():
    s = np.array([[1.0, 0.5, 0.2], [0.5, 1.0, 0.2], [0.2, 0.2, 1.0]])
    d = scod_matrix(s)
    # only probe for the (0, 2) pair is l=1:
    # |S_01 - S_21| / sqrt((S_00 + S_22 - 2 S_02) * S_11) = 0.3 / sqrt(1.6)
    assert d[0, 2] == pytest.approx(0.3 / math.sqrt(1.6), rel=1e-14)
    assert np.array_equal(d, d.T)
    assert np.all(np.diag(d) == 0.0)


def test_scod_two_cluster_population_value():
    # two clusters of two series each, unit idiosyncratic variance,
    # cluster covariance [[1, .3], [.3, 1]]: cross-pair value 0.7/sqrt(6.8)
    a = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    sz = np.array([[1.0, 0.3], [0.3, 1.0]])
    s = a @ sz @ a.T + np.eye(4)
    d = scod_matrix(s)
    assert d[0, 2] == pytest.approx(0.7 / math.sqrt(6.8), rel=1e-12)
    # within-cluster pairs have zero population dissimilarity
    assert d[0, 1] == pytest.approx(0.0, abs=1e-14)
    assert d[2, 3] == pytest.approx(0.0, abs=1e-14)


def test_scod_matches_oracle_on_random_instances():
    rng = np.random.default_rng(21)
    for _ in range(60):
        p = int(rng.integers(3, 11))
        s = random_spd_cov(rng, p)
        assert np.allclose(scod_matrix(s), scod_oracle(s), atol=1e-12)


@pytest.mark.parametrize("p", [30, 200])
def test_scod_bitwise_equals_row_loop_on_simulated_residuals(p):
    sim = generate(default_config(p, 6, 300, seed=p))
    s = residual_cov(fit_loadings(sim.returns, sim.factors).residuals)
    assert np.array_equal(scod_matrix(s), scod_row_loop(s))


def test_scod_bitwise_equals_row_loop_with_tied_probes():
    # three clusters of two series: for a cross-cluster pair, both
    # members of each other cluster give the same probe value
    a = np.repeat(np.eye(3), 2, axis=0)
    sz = np.array([[1.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.0]])
    s = a @ sz @ a.T + np.eye(6)
    d = scod_matrix(s)
    assert np.array_equal(d, scod_row_loop(s))
    assert d[0, 2] == pytest.approx(0.7 / math.sqrt(6.8), rel=1e-12)


def test_scod_rejects_small_or_asymmetric():
    with pytest.raises(ValueError, match="at least 3"):
        scod_matrix(np.eye(2))
    s = random_spd_cov(np.random.default_rng(22), 4)
    s[0, 1] += 1.0
    with pytest.raises(ValueError, match="not symmetric"):
        scod_matrix(s)


def test_scod_rejects_nonpositive_variance():
    s = np.eye(3)
    s[1, 1] = 0.0
    with pytest.raises(EstimationError, match="l=1"):
        scod_matrix(s)


def test_scod_rejects_identical_series():
    # series 0 and 1 perfectly correlated with equal variance
    s = np.array([[1.0, 1.0, 0.1], [1.0, 1.0, 0.1], [0.1, 0.1, 1.0]])
    with pytest.raises(EstimationError, match=r"i=0, j=1"):
        scod_matrix(s)


def test_scod_duplicate_series_message_names_the_triple():
    # series 2 and 4 are exact copies; the first bad pair is (2, 4) and
    # the first probe outside it is series 0
    rng = np.random.default_rng(24)
    s = random_spd_cov(rng, 6)
    s[4, :] = s[2, :]
    s[:, 4] = s[:, 2]
    with pytest.raises(EstimationError) as exc:
        scod_matrix(s)
    assert str(exc.value) == (
        "nonpositive denominator for triple (i=2, j=4, l=0): "
        "var(u_2 - u_4) = 0 <= 0; series 2 and 4 look numerically identical"
    )


@pytest.mark.parametrize(
    "fn", [scod_matrix, select_threshold, lambda m: cluster(m, 0.5)],
    ids=["scod_matrix", "select_threshold", "cluster"],
)
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_scod_inputs_reject_non_finite_entries(fn, bad):
    s = random_spd_cov(np.random.default_rng(27), 5)
    s[1, 3] = s[3, 1] = bad
    with pytest.raises(ValueError, match=rf"non-finite entry {bad} at \(i=1, j=3\)"):
        fn(s)


@pytest.mark.parametrize(
    "fn", [scod_matrix, select_threshold, lambda m: cluster(m, 0.5)],
    ids=["scod_matrix", "select_threshold", "cluster"],
)
def test_scod_inputs_symmetry_tolerance(fn):
    s = random_spd_cov(np.random.default_rng(28), 6)
    scale = np.abs(s).max()
    near = s.copy()
    near[1, 4] += 1e-12 * scale
    assert not np.array_equal(near, near.T)
    fn(near)
    far = s.copy()
    far[1, 4] += 1e-9 * scale
    with pytest.raises(ValueError, match="not symmetric"):
        fn(far)


def scod_from_values(p, vals):
    m = np.zeros((p, p))
    iu = np.triu_indices(p, 1)
    m[iu] = vals
    return m + m.T


def test_threshold_hand_example():
    # sorted descending: 0.9, 0.85, 0.8, 0.05, 0.04, 0.01; delta=0.01
    # largest successive ratio is (0.8+0.01)/(0.05+0.01) at m=3
    m = scod_from_values(4, [0.9, 0.85, 0.8, 0.05, 0.04, 0.01])
    sel = select_threshold(m, delta=0.01, c_q=1.0)
    assert sel.q_hat == 3
    assert sel.gamma == pytest.approx(0.8)
    assert np.array_equal(sel.sorted_values, [0.9, 0.85, 0.8, 0.05, 0.04, 0.01])


def test_threshold_cq_caps_search_range():
    # with c_q = 1/3 only m in {1, 2} are searched, so the big drop at
    # m=3 is out of range; m=2 has the larger in-range ratio
    m = scod_from_values(4, [0.9, 0.85, 0.8, 0.05, 0.04, 0.01])
    sel = select_threshold(m, delta=0.01, c_q=1 / 3)
    assert sel.q_hat <= math.ceil(6 / 3)
    assert sel.q_hat == 2
    assert sel.gamma == pytest.approx(0.85)


def test_threshold_oracle_loop():
    rng = np.random.default_rng(23)
    for _ in range(40):
        p = int(rng.integers(3, 9))
        q = p * (p - 1) // 2
        vals = np.round(rng.uniform(0.0, 1.0, size=q), 3)
        delta = float(rng.choice([0.0, 0.01, 0.1]))
        c_q = float(rng.choice([0.5, 0.75, 0.95, 1.0]))
        sel = select_threshold(scod_from_values(p, vals), delta=delta, c_q=c_q)
        svals = np.sort(vals)[::-1]
        d = max(delta, 1e-12)
        m_max = min(math.ceil(c_q * q), q - 1)
        best_m, best_ratio = None, -np.inf
        for m in range(1, m_max + 1):
            ratio = (svals[m - 1] + d) / (svals[m] + d)
            if ratio > best_ratio:
                best_m, best_ratio = m, ratio
        assert sel.q_hat == best_m
        assert sel.gamma == svals[best_m - 1]


def test_threshold_tie_takes_smallest_m():
    # equal ratios at m=1 and m=3: values 4,2,4,2 -> ratios 2, .5... build
    # explicitly: sorted 0.8,0.4,0.4,0.2,0.1,0.05: ratios 2,1,2,2,2
    m = scod_from_values(4, [0.8, 0.4, 0.4, 0.2, 0.1, 0.05])
    sel = select_threshold(m, delta=0.0, c_q=1.0)
    assert sel.q_hat == 1


def test_threshold_exact_tie_takes_smallest_m():
    # with delta = 1 the shifted ratios are exact in binary: 2, 1, 2, 2, 1
    sel = select_threshold(squareform([7.0, 3.0, 3.0, 1.0, 0.0, 0.0]), delta=1.0, c_q=1.0)
    v = sel.sorted_values
    assert np.array_equal((v[:-1] + 1.0) / (v[1:] + 1.0), [2.0, 1.0, 2.0, 2.0, 1.0])
    assert sel.q_hat == 1 and sel.gamma == 7.0


def test_threshold_regularizer_is_delta_itself_above_the_floor():
    # ratios 2, 1, 2 - 6e-13, 2 + 6e-13, 1 with d = delta = 1: m = 4 wins;
    # with d = delta + 1e-12 the ratio at m = 1 would win instead
    sel = select_threshold(squareform([7.0, 3.0, 3.0, 1.0 + 6e-13, 0.0, 0.0]), delta=1.0, c_q=1.0)
    assert sel.q_hat == 4


def test_threshold_search_range_guards_rounding_in_cq_times_q():
    # p = 25: c_q * Q = 0.07 * 300 evaluates to 21.000000000000004, and
    # the range is m <= 21; the largest ratio, at m = 22, is outside it
    assert 0.07 * 300 > 21
    values = np.linspace(10.0, 9.0, 300)
    values[22:] *= 0.1
    sel = select_threshold(squareform(values), delta=0.0, c_q=0.07)
    assert sel.q_hat == 21
    assert select_threshold(squareform(values), delta=0.0, c_q=1.0).q_hat == 22


def test_threshold_parameter_validation():
    m = scod_from_values(3, [0.5, 0.4, 0.3])
    with pytest.raises(ValueError, match="delta"):
        select_threshold(m, delta=-1.0)
    with pytest.raises(ValueError, match="c_q"):
        select_threshold(m, c_q=0.0)
    with pytest.raises(ValueError, match="c_q"):
        select_threshold(m, c_q=1.5)


def test_cluster_matches_both_oracles():
    rng = np.random.default_rng(24)
    for _ in range(60):
        p = int(rng.integers(2, 12))
        d = np.abs(symmetric_noise(rng, p))
        gamma = float(rng.uniform(0.05, 1.0))
        got = cluster(d, gamma)
        assert got == single_linkage_cut_oracle(d, gamma)
        assert got == connected_components_oracle(d, gamma)


def symmetric_noise(rng, p):
    m = rng.uniform(0.0, 1.0, size=(p, p))
    m = (m + m.T) / 2
    np.fill_diagonal(m, 0.0)
    return m


def test_cluster_ties_merge_smallest_indices_first():
    # three pairs tied at 0.1; merge order must be (0,1) then (2,3)
    d = np.full((4, 4), 0.5)
    np.fill_diagonal(d, 0.0)
    d[0, 1] = d[1, 0] = 0.1
    d[2, 3] = d[3, 2] = 0.1
    part = cluster(d, 0.2)
    assert part.groups == ((0, 1), (2, 3))


def test_cluster_strict_threshold_excludes_equal_values():
    d = np.zeros((3, 3))
    d[0, 1] = d[1, 0] = 0.5
    d[0, 2] = d[2, 0] = 0.7
    d[1, 2] = d[2, 1] = 0.7
    part = cluster(d, 0.5)
    assert part.n_clusters == 3
    part = cluster(d, 0.5000001)
    assert part.groups == ((0, 1), (2,))


def test_cluster_rejects_nonpositive_gamma():
    d = symmetric_noise(np.random.default_rng(25), 4)
    with pytest.raises(EstimationError, match="> 0"):
        cluster(d, 0.0)


# property tests: derandomized, so every run draws the same examples
PROPERTY = settings(derandomize=True, max_examples=100, deadline=None)


@st.composite
def cov_and_permutation(draw):
    p = draw(st.integers(3, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    perm = np.array(draw(st.permutations(range(p))))
    return random_spd_cov(np.random.default_rng(seed), p), perm


@PROPERTY
@given(cov_and_permutation())
def test_scod_is_permutation_equivariant(case):
    s, perm = case
    d = scod_matrix(s)
    assert np.array_equal(scod_matrix(s[np.ix_(perm, perm)]), d[np.ix_(perm, perm)])


@PROPERTY
@given(cov_and_permutation())
def test_scod_bitwise_equals_row_loop(case):
    s = case[0]
    assert np.array_equal(scod_matrix(s), scod_row_loop(s))


@PROPERTY
@given(cov_and_permutation(), st.floats(1e-3, 1e3))
def test_scod_is_scale_invariant(case, c):
    s, _ = case
    assert np.allclose(scod_matrix(c * s), scod_matrix(s), rtol=1e-12, atol=0.0)


@PROPERTY
@given(cov_and_permutation())
def test_scod_is_exactly_symmetric_with_zero_diagonal(case):
    d = scod_matrix(case[0])
    assert np.array_equal(d, d.T)
    assert np.all(np.diag(d) == 0.0)


@PROPERTY
@given(cov_and_permutation(), st.booleans(), st.floats(0.15, 1.0))
def test_cluster_groups_same_series_after_permutation(case, ties, gamma):
    s, perm = case
    d = scod_matrix(s)
    if ties:  # coarse values put ties at and around the threshold
        d = np.round(d * 5) / 5
        gamma = float(np.round(gamma * 5) / 5)
    got = cluster(d[np.ix_(perm, perm)], gamma)
    # position k of the permuted problem is series perm[k] of the original
    mapped = ClusterPartition.from_groups(
        [[int(perm[k]) for k in g] for g in got.groups], len(perm)
    )
    assert mapped == cluster(d, gamma)


def test_pipeline_recovers_planted_partition():
    rng = np.random.default_rng(26)
    t_len, sizes = 400, (5, 4, 3)
    p = sum(sizes)
    labels = np.repeat(np.arange(len(sizes)), sizes)
    z = rng.normal(size=(t_len, len(sizes)))
    u = z[:, labels] + 0.5 * rng.normal(size=(t_len, p))
    result = run_clustering_pipeline(u)
    expected = ClusterPartition.from_labels(labels)
    assert result.partition == expected
    assert result.selection.gamma > 0
    assert result.scod.shape == (p, p)


def test_ari_hand_value():
    # {1,2}{3,4} vs {1,3}{2,4}: ARI = -0.5
    assert adjusted_rand_index([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(-0.5)


def test_ari_identical_and_trivial_partitions():
    assert adjusted_rand_index([0, 0, 1, 1], [5, 5, 7, 7]) == 1.0
    assert adjusted_rand_index([0, 1, 2], [2, 0, 1]) == 1.0  # all singletons
    assert adjusted_rand_index([0, 0, 0], [1, 1, 1]) == 1.0  # single cluster


def test_ari_matches_pair_counting_oracle():
    rng = np.random.default_rng(27)
    for _ in range(60):
        n = int(rng.integers(2, 12))
        la = rng.integers(0, 4, size=n).tolist()
        lb = rng.integers(0, 4, size=n).tolist()
        assert adjusted_rand_index(la, lb) == pytest.approx(
            ari_oracle(la, lb), abs=1e-12
        )


def test_ari_accepts_partitions_and_is_symmetric():
    a = ClusterPartition.from_groups([(0, 1), (2, 3, 4)], 5)
    b = ClusterPartition.from_groups([(0, 1, 2), (3, 4)], 5)
    assert adjusted_rand_index(a, b) == pytest.approx(
        adjusted_rand_index(b, a)
    )
    assert adjusted_rand_index(a, b) == pytest.approx(
        adjusted_rand_index(a.labels, b.labels)
    )


def test_ari_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        adjusted_rand_index([0, 1], [0, 1, 2])
