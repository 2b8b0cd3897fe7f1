"""Unit tests for the application kernels: PRNU, composition vectors, registration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.bioinformatics.composition import (
    composition_vector,
    cv_correlation,
    cv_distance,
    cv_distance_block,
    cv_view,
    encode_proteome,
    encode_sequence,
    kmer_counts,
    pack_cv,
    unpack_cv,
)
from repro.apps.bioinformatics.phylogeny import clade_sets, neighbor_joining, robinson_foulds
from repro.apps.forensics.prnu import denoise, extract_prnu, ncc
from repro.apps.microscopy.registration import (
    bhattacharyya_similarity,
    gmm_l2_similarity,
    register_pair,
    rigid_transform,
)
from repro.data.filestore import InMemoryStore
from repro.data.formats import decode_fasta
from repro.data.synthetic import AMINO_ACIDS, make_bioinformatics_dataset, make_template
from repro.util.rng import seeded_rng


# ---------------------------------------------------------------------------
# PRNU
# ---------------------------------------------------------------------------


class TestPrnu:
    def _image_pair(self, same_camera: bool, seed=0, shape=(64, 64), strength=0.08):
        rng = seeded_rng(seed)
        k1 = rng.standard_normal(shape)
        k2 = k1 if same_camera else rng.standard_normal(shape)
        # Smooth scenes (real photographs are dominated by low spatial
        # frequencies); a white-noise scene would drown the PRNU signal.
        xs = np.linspace(0.3, 0.7, shape[1])[None, :]
        ys = np.linspace(0.0, 0.2, shape[0])[:, None]
        scene1 = xs + ys
        scene2 = 0.9 - 0.5 * xs + ys
        img1 = scene1 * (1 + strength * k1) + 0.01 * rng.standard_normal(shape)
        img2 = scene2 * (1 + strength * k2) + 0.01 * rng.standard_normal(shape)
        return img1, img2

    def test_same_camera_correlates(self):
        a, b = self._image_pair(same_camera=True)
        score = ncc(extract_prnu(a), extract_prnu(b))
        assert score > 0.2

    def test_different_cameras_do_not(self):
        a, b = self._image_pair(same_camera=False)
        score = ncc(extract_prnu(a), extract_prnu(b))
        assert abs(score) < 0.1

    def test_residual_zero_mean_unit_norm(self):
        rng = seeded_rng(1)
        residual = extract_prnu(rng.uniform(0, 1, (32, 32)))
        assert abs(residual.mean()) < 1e-10
        assert np.linalg.norm(residual) == pytest.approx(1.0)

    def test_constant_image_gives_zero_residual(self):
        residual = extract_prnu(np.full((16, 16), 0.5))
        assert np.allclose(residual, 0.0)

    def test_ncc_self_correlation_is_one(self):
        rng = seeded_rng(2)
        r = extract_prnu(rng.uniform(0, 1, (16, 16)))
        assert ncc(r, r) == pytest.approx(1.0)

    def test_ncc_antisymmetric_under_negation(self):
        rng = seeded_rng(3)
        r = extract_prnu(rng.uniform(0, 1, (16, 16)))
        assert ncc(r, -r) == pytest.approx(-1.0)

    def test_ncc_symmetric(self):
        rng = seeded_rng(4)
        a = rng.standard_normal((8, 8))
        b = rng.standard_normal((8, 8))
        assert ncc(a, b) == pytest.approx(ncc(b, a))

    def test_ncc_bounded(self):
        rng = seeded_rng(5)
        for _ in range(20):
            a = rng.standard_normal((6, 6))
            b = rng.standard_normal((6, 6))
            assert -1.0 - 1e-12 <= ncc(a, b) <= 1.0 + 1e-12

    def test_ncc_shape_mismatch(self):
        with pytest.raises(ValueError):
            ncc(np.zeros((2, 2)), np.zeros((3, 3)))

    def test_denoise_window_validation(self):
        with pytest.raises(ValueError):
            denoise(np.zeros((4, 4)), window=4)
        with pytest.raises(ValueError):
            denoise(np.zeros(4))

    def test_denoise_smooths(self):
        rng = seeded_rng(6)
        noisy = rng.standard_normal((32, 32))
        assert denoise(noisy).std() < noisy.std()


# ---------------------------------------------------------------------------
# Composition vectors
# ---------------------------------------------------------------------------


class TestComposition:
    def test_encode_sequence_roundtrip_codes(self):
        codes = encode_sequence("ACDY")
        assert codes.tolist() == [0, 1, 2, 19]
        with pytest.raises(ValueError):
            encode_sequence("ACDX1")

    def test_encode_proteome_separators(self):
        codes = encode_proteome(["AC", "DE"])
        assert (codes == -1).sum() == 1
        with pytest.raises(ValueError):
            encode_proteome([])

    def test_kmer_counts_simple(self):
        codes = encode_sequence("AAAA")
        counts = kmer_counts(codes, 2)
        assert counts[0] == 3  # "AA" three times
        assert counts.sum() == 3

    def test_kmers_do_not_span_proteins(self):
        joined = encode_proteome(["AA", "AA"])
        counts = kmer_counts(joined, 2)
        assert counts[0] == 2  # one "AA" per protein, none across the break

    def test_composition_vector_sparse_and_sorted(self):
        rng = seeded_rng(0)
        seq = "".join(rng.choice(list(AMINO_ACIDS), 500))
        idx, vals = composition_vector(encode_sequence(seq), k=3)
        assert len(idx) == len(vals) > 0
        assert (np.diff(idx) > 0).all()
        assert len(idx) < 20**3  # sparse

    def test_k_validation(self):
        with pytest.raises(ValueError):
            composition_vector(encode_sequence("ACDEF"), k=2)
        with pytest.raises(ValueError):
            composition_vector(encode_sequence("AC"), k=3)

    def test_self_correlation_is_one(self):
        rng = seeded_rng(1)
        seq = "".join(rng.choice(list(AMINO_ACIDS), 400))
        cv = composition_vector(encode_sequence(seq), k=3)
        assert cv_correlation(cv, cv) == pytest.approx(1.0)
        assert cv_distance(cv, cv) == pytest.approx(0.0, abs=1e-12)

    def test_distance_symmetric_and_bounded(self):
        rng = seeded_rng(2)
        seqs = ["".join(rng.choice(list(AMINO_ACIDS), 300)) for _ in range(4)]
        cvs = [composition_vector(encode_sequence(s), k=3) for s in seqs]
        for i in range(4):
            for j in range(i + 1, 4):
                d_ij = cv_distance(cvs[i], cvs[j])
                d_ji = cv_distance(cvs[j], cvs[i])
                assert d_ij == pytest.approx(d_ji)
                assert 0.0 <= d_ij <= 1.0

    def test_related_sequences_closer_than_unrelated(self):
        rng = seeded_rng(3)
        base = rng.integers(0, 20, 600).astype(np.int16)
        # 5% mutated copy vs a completely fresh sequence.
        mutated = base.copy()
        sites = rng.random(600) < 0.05
        mutated[sites] = rng.integers(0, 20, int(sites.sum()))
        fresh = rng.integers(0, 20, 600).astype(np.int16)
        cv_base = composition_vector(base, k=3)
        cv_mut = composition_vector(mutated, k=3)
        cv_fresh = composition_vector(fresh, k=3)
        assert cv_distance(cv_base, cv_mut) < cv_distance(cv_base, cv_fresh)

    def test_pack_unpack_roundtrip(self):
        idx = np.array([1, 5, 9], dtype=np.int64)
        vals = np.array([0.5, -1.0, 2.0])
        idx2, vals2 = unpack_cv(pack_cv(idx, vals))
        assert np.array_equal(idx, idx2)
        assert np.array_equal(vals, vals2)
        with pytest.raises(ValueError):
            unpack_cv(np.zeros((3, 4)))

    def test_disjoint_support_zero_correlation(self):
        a = (np.array([1, 2]), np.array([1.0, 1.0]))
        b = (np.array([3, 4]), np.array([1.0, 1.0]))
        assert cv_correlation(a, b) == 0.0


# ---------------------------------------------------------------------------
# Composition vectors pinned to their plain implementations
# ---------------------------------------------------------------------------
#
# The shipped stages are the vectorised forms of the plain algorithms
# below (a per-character encoder, a dense 20^k ``bincount`` with
# ``flatnonzero`` support, and a block kernel over a fresh zero vector).
# Every code, packed CV byte and distance must be identical to them.

_REF_CODE_OF = {aa: idx for idx, aa in enumerate(AMINO_ACIDS)}


def ref_encode_sequence(sequence):
    try:
        return np.fromiter(
            (_REF_CODE_OF[c] for c in sequence), dtype=np.int16, count=len(sequence)
        )
    except KeyError as exc:
        raise ValueError(f"unknown amino acid {exc.args[0]!r}") from None


def ref_encode_proteome(sequences):
    if not sequences:
        raise ValueError("empty proteome")
    parts = []
    for idx, seq in enumerate(sequences):
        if idx:
            parts.append(np.array([-1], dtype=np.int16))
        parts.append(ref_encode_sequence(seq))
    return np.concatenate(parts)


def ref_kmer_counts(codes, k):
    if codes.size < k:
        return np.zeros(20**k, dtype=np.int64)
    view = np.lib.stride_tricks.sliding_window_view(codes, k)
    view = view[(view >= 0).all(axis=1)].astype(np.int64)
    return np.bincount(view @ 20 ** np.arange(k - 1, -1, -1, dtype=np.int64), minlength=20**k)


def ref_composition_vector(codes, k):
    counts_k = ref_kmer_counts(codes, k)
    counts_km1 = ref_kmer_counts(codes, k - 1)
    counts_km2 = ref_kmer_counts(codes, k - 2)
    total_k = counts_k.sum()
    if total_k == 0:
        raise ValueError(f"proteome shorter than k={k}")
    idx = np.flatnonzero(counts_k)
    p = counts_k[idx] / total_k
    prefix = idx // 20
    suffix = idx % (20 ** (k - 1))
    middle = prefix % (20 ** (k - 2))
    p_prefix = counts_km1[prefix] / counts_km1.sum()
    p_suffix = counts_km1[suffix] / counts_km1.sum()
    p_middle = counts_km2[middle] / counts_km2.sum()
    with np.errstate(divide="ignore", invalid="ignore"):
        p0 = p_prefix * p_suffix / p_middle
        values = np.where(p0 > 0, (p - p0) / np.where(p0 > 0, p0, 1.0), 0.0)
    keep = values != 0
    return idx[keep], values[keep]


def ref_cv_distance_block(views_a, views_b):
    out = np.empty(len(views_a), dtype=np.float64)
    size = max([int(idx[-1]) + 1 for idx, _, _ in (*views_a, *views_b) if idx.size] or [1])
    for k, ((idx_a, val_a, norm_a), (idx_b, val_b, norm_b)) in enumerate(zip(views_a, views_b)):
        dense = np.zeros(size, dtype=np.float64)
        dense[idx_b] = val_b
        denom = norm_a * norm_b
        corr = float(np.dot(val_a, dense[idx_a])) / denom if denom else 0.0
        out[k] = (1.0 - corr) / 2.0
    return out


def dataset_proteomes(seed):
    store = InMemoryStore()
    ds = make_bioinformatics_dataset(store, seed=seed)
    return [list(decode_fasta(store.read(f"{key}.faz")).values()) for key in ds.keys]


class TestCompositionMatchesReference:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_dataset_item_is_bit_identical(self, seed):
        for proteome in dataset_proteomes(seed):
            codes = encode_proteome(proteome)
            ref_codes = ref_encode_proteome(proteome)
            assert codes.dtype == ref_codes.dtype == np.int16
            assert np.array_equal(codes, ref_codes)
            for k in (3, 4, 5):
                idx, vals = composition_vector(codes, k)
                ref_idx, ref_vals = ref_composition_vector(ref_codes, k)
                assert idx.dtype == ref_idx.dtype and vals.dtype == ref_vals.dtype
                assert np.array_equal(idx, ref_idx)
                assert np.array_equal(vals, ref_vals)
                assert pack_cv(idx, vals).tobytes() == pack_cv(ref_idx, ref_vals).tobytes()

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_every_distance_is_bit_identical(self, k):
        views = [
            cv_view(pack_cv(*composition_vector(encode_proteome(p), k)))
            for p in dataset_proteomes(0)
        ]
        pairs = [(i, j) for i in range(len(views)) for j in range(i + 1, len(views))]
        views_a = [views[i] for i, _ in pairs]
        views_b = [views[j] for _, j in pairs]
        got = cv_distance_block(views_a, views_b)
        assert got.dtype == np.float64
        assert got.tobytes() == ref_cv_distance_block(views_a, views_b).tobytes()

    def test_protein_shorter_than_k_between_separators(self):
        proteome = ["ACDEFGHIK", "MN", "PQRSTVWYAC", "", "DEF"]
        for k in (3, 4, 5):
            got = composition_vector(encode_proteome(proteome), k)
            ref = ref_composition_vector(ref_encode_proteome(proteome), k)
            assert pack_cv(*got).tobytes() == pack_cv(*ref).tobytes()

    def test_single_protein_proteome(self):
        proteome = ["".join(seeded_rng(4).choice(list(AMINO_ACIDS), 700))]
        assert np.array_equal(encode_proteome(proteome), encode_sequence(proteome[0]))
        for k in (3, 4, 5):
            got = composition_vector(encode_proteome(proteome), k)
            ref = ref_composition_vector(ref_encode_proteome(proteome), k)
            assert pack_cv(*got).tobytes() == pack_cv(*ref).tobytes()

    @pytest.mark.parametrize("proteome", [["AC", "DE", "F"], ["A"], [""]])
    def test_all_proteins_shorter_than_k_raise_the_same_error(self, proteome):
        with pytest.raises(ValueError) as ref_exc:
            ref_composition_vector(ref_encode_proteome(proteome), 3)
        with pytest.raises(ValueError) as exc:
            composition_vector(encode_proteome(proteome), 3)
        assert str(exc.value) == str(ref_exc.value) == "proteome shorter than k=3"

    @pytest.mark.parametrize(
        "proteome",
        [
            ["ACDX"],
            ["ACD", "acd"],
            ["ACD", "EFG", "HIK\u00e9LM"],
            ["AC\u00e9X"],
            ["ACXD\u00e9"],
            ["ACD", "E\x00F"],
            ["ACD", "EF G", "B"],
            ["ACD", "*"],
        ],
    )
    def test_bad_residues_raise_the_same_message(self, proteome):
        with pytest.raises(ValueError) as ref_exc:
            ref_encode_proteome(proteome)
        with pytest.raises(ValueError) as exc:
            encode_proteome(proteome)
        assert str(exc.value) == str(ref_exc.value)
        assert str(exc.value).startswith("unknown amino acid")
        for seq in proteome:
            try:
                ref_encode_sequence(seq)
            except ValueError as ref_err:
                with pytest.raises(ValueError) as err:
                    encode_sequence(seq)
                assert str(err.value) == str(ref_err)
            else:
                assert np.array_equal(encode_sequence(seq), ref_encode_sequence(seq))


# ---------------------------------------------------------------------------
# Neighbour joining
# ---------------------------------------------------------------------------


class TestPhylogeny:
    def _additive_tree_distances(self):
        """The textbook 4-taxon additive example with known topology ((a,b),(c,d))."""
        names = ["a", "b", "c", "d"]
        dist = np.array(
            [
                [0, 3, 7, 8],
                [3, 0, 6, 7],
                [7, 6, 0, 3],
                [8, 7, 3, 0],
            ],
            dtype=float,
        )
        return dist, names

    def test_recovers_additive_topology(self):
        dist, names = self._additive_tree_distances()
        tree = neighbor_joining(dist, names)
        clades = clade_sets(tree)
        assert frozenset({"a", "b"}) in clades or frozenset({"c", "d"}) in clades

    def test_two_taxa(self):
        tree = neighbor_joining(np.array([[0.0, 5.0], [5.0, 0.0]]), ["x", "y"])
        assert tree.edges["x", "y"]["length"] == pytest.approx(5.0)

    def test_tree_properties(self):
        import networkx as nx

        dist, names = self._additive_tree_distances()
        tree = neighbor_joining(dist, names)
        assert nx.is_tree(tree)
        for leaf in names:
            assert tree.degree(leaf) == 1
        for node in tree.nodes:
            if isinstance(node, int):
                assert tree.degree(node) == 3  # unrooted binary internal nodes

    def test_validation(self):
        with pytest.raises(ValueError):
            neighbor_joining(np.zeros((2, 3)), ["a", "b"])
        with pytest.raises(ValueError):
            neighbor_joining(np.array([[0.0, 1.0], [2.0, 0.0]]), ["a", "b"])  # asymmetric
        with pytest.raises(ValueError):
            neighbor_joining(np.array([[1.0, 0.0], [0.0, 0.0]]), ["a", "b"])  # diag
        with pytest.raises(ValueError):
            neighbor_joining(np.zeros((2, 2)), ["a", "a"])  # duplicate names

    def test_rf_zero_for_same_tree(self):
        dist, names = self._additive_tree_distances()
        t1 = neighbor_joining(dist, names)
        t2 = neighbor_joining(dist, names)
        assert robinson_foulds(t1, t2) == 0

    def test_rf_leaf_mismatch_rejected(self):
        dist, names = self._additive_tree_distances()
        t1 = neighbor_joining(dist, names)
        t2 = neighbor_joining(dist[:3, :3], names[:3])
        with pytest.raises(ValueError):
            robinson_foulds(t1, t2)

    @given(n=st.integers(4, 9))
    @settings(max_examples=15, deadline=None)
    def test_nj_on_random_metric_produces_valid_tree(self, n):
        import networkx as nx

        rng = seeded_rng(n)
        pts = rng.uniform(0, 1, (n, 3))
        dist = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
        names = [f"t{i}" for i in range(n)]
        tree = neighbor_joining(dist, names)
        assert nx.is_tree(tree)
        assert {v for v in tree.nodes if isinstance(v, str)} == set(names)
        assert all(d["length"] >= 0 for _, _, d in tree.edges(data=True))


# ---------------------------------------------------------------------------
# Registration
# ---------------------------------------------------------------------------


class TestRegistration:
    def test_rigid_transform_identity(self):
        pts = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.allclose(rigid_transform(pts, 0.0, 0.0, 0.0), pts)

    def test_rigid_transform_quarter_turn(self):
        pts = np.array([[1.0, 0.0]])
        out = rigid_transform(pts, np.pi / 2, 0.0, 0.0)
        assert np.allclose(out, [[0.0, 1.0]], atol=1e-12)

    def test_rigid_transform_shape_check(self):
        with pytest.raises(ValueError):
            rigid_transform(np.zeros(3), 0, 0, 0)

    def test_similarity_peaks_at_alignment(self):
        tmpl = make_template("ring", 32)
        aligned = gmm_l2_similarity(tmpl, tmpl)
        shifted = gmm_l2_similarity(tmpl, tmpl + 0.5)
        assert aligned > shifted

    def test_bhattacharyya_wider_kernel(self):
        """At the same sigma the Bhattacharyya overlap decays slower."""
        x = np.array([[0.0, 0.0]])
        y = np.array([[0.2, 0.0]])
        assert bhattacharyya_similarity(x, y) > gmm_l2_similarity(x, y)

    def test_similarity_validation(self):
        with pytest.raises(ValueError):
            gmm_l2_similarity(np.zeros((2, 2)), np.zeros((2, 2)), sigma=0.0)

    def test_empty_cloud_scores_zero(self):
        assert gmm_l2_similarity(np.zeros((0, 2)), np.zeros((3, 2))) == 0.0

    def test_register_recovers_known_transform(self):
        tmpl = make_template("ring", 40)
        rng = seeded_rng(7)
        theta_true = 0.9
        moved = rigid_transform(tmpl, theta_true, 0.15, -0.1)
        moved += 0.01 * rng.standard_normal(moved.shape)
        result = register_pair(moved, tmpl, restarts=8, seed=1)
        # The recovered rotation must match the applied one (ring+bar has
        # a unique optimum).
        err = abs((result.theta - theta_true + np.pi) % (2 * np.pi) - np.pi)
        assert err < 0.15
        # The absolute score is small (mean over all n*m point pairs);
        # what matters is that it beats misaligned scores.  A rotated
        # ring still overlaps itself strongly (the structure is nearly
        # rotationally symmetric), so the margin over a wrong rotation is
        # modest; the margin over a wrong translation is large.
        wrong_rotation = bhattacharyya_similarity(
            moved, rigid_transform(tmpl, theta_true + np.pi / 2, 0.15, -0.1)
        )
        wrong_translation = bhattacharyya_similarity(
            moved, rigid_transform(tmpl, theta_true, 1.2, 1.2)
        )
        assert result.score > 1.2 * wrong_rotation
        assert result.score > 5 * wrong_translation
        assert result.evaluations > 0

    def test_register_result_transform_applies(self):
        tmpl = make_template("ring", 24)
        result = register_pair(tmpl, tmpl, restarts=2, seed=0)
        moved = result.transform(tmpl)
        assert moved.shape == tmpl.shape

    def test_register_deterministic_under_seed(self):
        tmpl = make_template("ring", 24)
        r1 = register_pair(tmpl, tmpl + 0.05, restarts=2, seed=9)
        r2 = register_pair(tmpl, tmpl + 0.05, restarts=2, seed=9)
        assert r1.score == r2.score and r1.theta == r2.theta

    def test_register_validation(self):
        tmpl = make_template("ring", 16)
        with pytest.raises(ValueError):
            register_pair(tmpl, tmpl, restarts=0)
        with pytest.raises(ValueError):
            register_pair(tmpl, tmpl, method="nope")

    def test_irregular_evaluation_counts(self):
        """Different pairs cost different numbers of evaluations (Fig. 7)."""
        rng = seeded_rng(11)
        tmpl = make_template("ring", 24)
        counts = set()
        for s in range(4):
            noisy = tmpl + 0.05 * rng.standard_normal(tmpl.shape)
            counts.add(register_pair(tmpl, noisy, restarts=3, seed=s).evaluations)
        assert len(counts) > 1
