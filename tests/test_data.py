"""Unit and property tests for file stores, codecs, and synthetic data."""

import hashlib
import threading
import time

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.data.filestore import DirectoryStore, InMemoryStore, ThrottledStore
from repro.data.formats import (
    decode_fasta,
    decode_image,
    decode_particle,
    encode_fasta,
    encode_image,
    encode_particle,
)
from repro.data.synthetic import (
    AMINO_ACIDS,
    make_bioinformatics_dataset,
    make_forensics_dataset,
    make_microscopy_dataset,
    make_template,
)


class TestInMemoryStore:
    def test_roundtrip(self):
        store = InMemoryStore()
        store.write("x", b"data")
        assert store.read("x") == b"data"
        assert store.names() == ["x"]
        assert store.exists("x") and not store.exists("y")

    def test_missing_key(self):
        with pytest.raises(KeyError):
            InMemoryStore().read("nope")

    def test_rejects_non_bytes(self):
        with pytest.raises(TypeError):
            InMemoryStore().write("x", "str")  # type: ignore[arg-type]

    def test_total_bytes(self):
        store = InMemoryStore()
        store.write("a", b"12")
        store.write("b", b"345")
        assert store.total_bytes() == 5


class TestDirectoryStore(object):
    def test_roundtrip(self, tmp_path):
        store = DirectoryStore(tmp_path / "blobs")
        store.write("f.bin", b"\x00\x01")
        assert store.read("f.bin") == b"\x00\x01"
        assert store.names() == ["f.bin"]

    def test_path_traversal_rejected(self, tmp_path):
        store = DirectoryStore(tmp_path)
        with pytest.raises(ValueError):
            store.read("../etc/passwd")

    def test_missing_file(self, tmp_path):
        with pytest.raises(KeyError):
            DirectoryStore(tmp_path).read("gone")


class TestThrottledStore:
    def test_read_is_delayed(self):
        inner = InMemoryStore()
        inner.write("x", b"0" * 1000)
        store = ThrottledStore(inner, bandwidth=100_000.0)  # 10 ms service
        t0 = time.monotonic()
        store.read("x")
        elapsed = time.monotonic() - t0
        assert elapsed >= 0.009
        assert store.bytes_read == 1000
        assert store.read_count == 1

    def test_concurrent_reads_serialise(self):
        inner = InMemoryStore()
        inner.write("x", b"0" * 1000)
        store = ThrottledStore(inner, bandwidth=100_000.0)  # 10 ms each
        t0 = time.monotonic()
        threads = [threading.Thread(target=store.read, args=("x",)) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert time.monotonic() - t0 >= 0.028

    def test_validation(self):
        with pytest.raises(ValueError):
            ThrottledStore(InMemoryStore(), bandwidth=0)

    def test_passthrough_methods(self):
        inner = InMemoryStore()
        store = ThrottledStore(inner, bandwidth=1e9)
        store.write("a", b"1")
        assert store.exists("a")
        assert store.names() == ["a"]


class TestImageCodec:
    @given(
        hnp.arrays(
            dtype=np.uint8,
            shape=st.tuples(st.integers(1, 40), st.integers(1, 40)),
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_exact(self, pixels):
        assert np.array_equal(decode_image(encode_image(pixels)), pixels)

    def test_rejects_wrong_dtype(self):
        with pytest.raises(ValueError):
            encode_image(np.zeros((4, 4), dtype=np.float32))

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError):
            encode_image(np.zeros(4, dtype=np.uint8))

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            decode_image(b"not an image at all")

    def test_rejects_truncated(self):
        blob = encode_image(np.zeros((4, 4), dtype=np.uint8))
        with pytest.raises(Exception):
            decode_image(blob[:8])


class TestFastaCodec:
    @given(
        st.dictionaries(
            keys=st.text(alphabet="abcdefgh_0123456789", min_size=1, max_size=12),
            values=st.text(alphabet=AMINO_ACIDS, min_size=1, max_size=200),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_exact(self, records):
        assert decode_fasta(encode_fasta(records)) == records

    def test_uncompressed_mode(self):
        records = {"p1": "ACDEFG"}
        blob = encode_fasta(records, compress=False)
        assert blob.startswith(b">p1")
        assert decode_fasta(blob, compressed=False) == records

    def test_wrapping_at_60_columns(self):
        blob = encode_fasta({"p": "A" * 150}, compress=False).decode()
        lines = blob.strip().splitlines()
        assert lines[1] == "A" * 60
        assert lines[3] == "A" * 30

    def test_malformed_inputs(self):
        with pytest.raises(ValueError):
            encode_fasta({})
        with pytest.raises(ValueError):
            encode_fasta({"x": ""})
        with pytest.raises(ValueError):
            decode_fasta(b"AAAA", compressed=False)  # data before header


class TestParticleCodec:
    @given(
        hnp.arrays(
            dtype=np.float64,
            shape=st.tuples(st.integers(1, 50), st.just(2)),
            elements=st.floats(-100, 100, allow_nan=False),
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_close(self, points):
        decoded, _ = decode_particle(encode_particle(points))
        assert np.allclose(decoded, points)

    def test_meta_roundtrip(self):
        blob = encode_particle(np.zeros((3, 2)), meta={"theta": 1.5})
        _, meta = decode_particle(blob)
        assert meta == {"theta": 1.5}

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            encode_particle(np.zeros((3, 3)))

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            decode_particle(b"\x00\x01")
        with pytest.raises(ValueError):
            decode_particle(b'{"format": "other"}')


class TestForensicsDataset:
    def test_generation_deterministic(self):
        s1, s2 = InMemoryStore(), InMemoryStore()
        d1 = make_forensics_dataset(s1, n_images=6, n_cameras=2, image_shape=(16, 16), seed=3)
        d2 = make_forensics_dataset(s2, n_images=6, n_cameras=2, image_shape=(16, 16), seed=3)
        assert d1.keys == d2.keys
        assert all(s1.read(n) == s2.read(n) for n in s1.names())

    def test_balanced_cameras(self):
        store = InMemoryStore()
        ds = make_forensics_dataset(store, n_images=8, n_cameras=4, image_shape=(16, 16))
        counts = {}
        for key in ds.keys:
            counts[ds.camera_of[key]] = counts.get(ds.camera_of[key], 0) + 1
        assert set(counts.values()) == {2}

    def test_same_camera_predicate(self):
        store = InMemoryStore()
        ds = make_forensics_dataset(store, n_images=4, n_cameras=2, image_shape=(16, 16))
        assert ds.same_camera(ds.keys[0], ds.keys[2])
        assert not ds.same_camera(ds.keys[0], ds.keys[1])

    def test_files_decode(self):
        store = InMemoryStore()
        ds = make_forensics_dataset(store, n_images=3, n_cameras=1, image_shape=(16, 16))
        img = decode_image(store.read(f"{ds.keys[0]}.rimg"))
        assert img.shape == (16, 16)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_forensics_dataset(InMemoryStore(), n_images=1)


#: sha256 of (tree edges with lengths, true clades, store bytes) of the
#: bioinformatics corpus per ``(seed, n_species)``, see
#: :func:`bio_corpus_digests`.  Any change to the generator's random
#: draws, their order or its file encoding changes a digest.
BIO_CORPUS_DIGESTS = {
    (0, 12): (
        "caa932cd75b00a9997ae72fa21ec754d5e8061469f233782c105e8d7142dbe25",
        "547dde22ba6d091d1a241e85654195e62620342242ebc7b589b250128a7cddff",
        "f399611cf36623f10921c71c3b6ebdfd7dcef138ee1d804f3c94a2abce656790",
    ),
    (0, 112): (
        "5f8f9b38a3ae9d8bf6d8b05cac7d77c403b3faf78b48a5cc1864f644c87bab7c",
        "525ac0a356d427cefa6d45386a9ee72c807d45ded530455c7c40305612395e71",
        "26e2aef4f57aae7ae58cb2e6153298692ccd220d01945eebb7684b936e528c3a",
    ),
    (1, 12): (
        "15655aa2303a77c543faa9d14ba68f32bfb243140e5cd5b0845371d88c072e65",
        "6d8322049af24d232152a5c1a21961f8c5f2844e0f8fb07e6110f2e9e706fff4",
        "5a0f4b29a47b8aaba88f922abe70b01031ed8f230d48620aea506a3553a83ab3",
    ),
    (1, 112): (
        "f4192b671d2d9b4885923cd4ebb3bb771583ebf68d23c63a1ac6233b8aaf6366",
        "37ee7cd8f3b408df368fb0b4ec67335da2f91c619a3ecee99640dcf8c6b3cda6",
        "839efaf987be1eb3d8fc3e1a0f673223e4e887c3d66c8dfd58404fe007213cb6",
    ),
    (7, 12): (
        "6a849f6e5e261ff2b12b7ee34f90bb3513c438e522dc92498b50d59a263e373b",
        "35d2bc6eb54866a1a6ea01d80cecc533fd3d4f7843ede43ad49e54bb7a425839",
        "c1c2b209556e3151831036d3f7307f2a8c381461ca4ff6c69cc382334a2b3e55",
    ),
    (7, 112): (
        "a09916bdd2d8efc18e38fd587d534c2261da3ea32df9af819ea3e23c0cba85f2",
        "b02c805ac55373543501f0882339d9a55ce9fe26f4affe0e1e6a3520b712fa2a",
        "d5bde836cecc6d7840e535cac4c75ff10fce164ca9e38b1b412afb257b49e764",
    ),
}


def bio_corpus_digests(ds, store):
    """Order-free sha256 digests of a bioinformatics corpus.

    Edges are ``(node, node, length.hex())`` with the two node reprs
    sorted; clades are sorted tuples of sorted leaf keys; the store is
    every ``name\\0bytes`` record in name order.
    """
    edges = sorted(
        tuple(sorted((repr(u), repr(v)))) + (float(length).hex(),)
        for u, v, length in ds.tree.edges(data="length")
    )
    clades = sorted(tuple(sorted(c)) for c in ds.true_clades())
    blobs = hashlib.sha256()
    for name in sorted(store.names()):
        blobs.update(name.encode() + b"\0" + store.read(name))
    return (
        hashlib.sha256(repr(edges).encode()).hexdigest(),
        hashlib.sha256(repr(clades).encode()).hexdigest(),
        blobs.hexdigest(),
    )


class TestBioinformaticsDataset:
    @pytest.mark.parametrize("seed, n_species", sorted(BIO_CORPUS_DIGESTS))
    def test_corpus_is_pinned_byte_for_byte(self, seed, n_species):
        store = InMemoryStore()
        ds = make_bioinformatics_dataset(store, n_species=n_species, seed=seed)
        np.testing.assert_equal(
            bio_corpus_digests(ds, store), BIO_CORPUS_DIGESTS[seed, n_species]
        )
        assert nx.is_tree(ds.tree)
    def test_tree_is_binary_tree_over_leaves(self):
        store = InMemoryStore()
        ds = make_bioinformatics_dataset(store, n_species=7, n_proteins=2, protein_length=50)
        assert nx.is_tree(ds.tree)
        leaves = [n for n in ds.tree.nodes if isinstance(n, str)]
        assert sorted(leaves) == ds.keys
        assert all(ds.tree.degree(leaf) == 1 for leaf in leaves)

    def test_proteomes_decode_with_expected_shape(self):
        store = InMemoryStore()
        ds = make_bioinformatics_dataset(store, n_species=4, n_proteins=3, protein_length=40)
        records = decode_fasta(store.read(f"{ds.keys[0]}.faz"))
        assert len(records) == 3
        assert all(len(seq) == 40 for seq in records.values())
        assert all(set(seq) <= set(AMINO_ACIDS) for seq in records.values())

    def test_true_clades_nontrivial(self):
        store = InMemoryStore()
        ds = make_bioinformatics_dataset(store, n_species=8)
        clades = ds.true_clades()
        assert clades
        assert all(1 < len(c) < 7 for c in clades)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_bioinformatics_dataset(InMemoryStore(), n_species=2)


class TestMicroscopyDataset:
    def test_particles_decode(self):
        store = InMemoryStore()
        ds = make_microscopy_dataset(store, n_particles=4, template_points=24)
        pts, meta = decode_particle(store.read(f"{ds.keys[0]}.json"))
        assert pts.shape[1] == 2
        assert "theta" in meta

    def test_transforms_recorded(self):
        store = InMemoryStore()
        ds = make_microscopy_dataset(store, n_particles=4)
        assert set(ds.transforms) == set(ds.keys)
        for theta, tx, ty in ds.transforms.values():
            assert 0 <= theta < 2 * np.pi
            assert abs(tx) <= 0.3 and abs(ty) <= 0.3

    def test_underlabelling_reduces_points(self):
        store = InMemoryStore()
        ds = make_microscopy_dataset(
            store, n_particles=4, template_points=48, keep_fraction=0.5, outlier_fraction=0.0
        )
        pts, _ = decode_particle(store.read(f"{ds.keys[0]}.json"))
        assert len(pts) < len(ds.template)

    def test_template_kinds(self):
        ring = make_template("ring", 30)
        grid = make_template("grid", 25)
        assert ring.shape[1] == 2 and grid.shape[1] == 2
        with pytest.raises(ValueError):
            make_template("spiral")

    def test_validation(self):
        with pytest.raises(ValueError):
            make_microscopy_dataset(InMemoryStore(), n_particles=1)
        with pytest.raises(ValueError):
            make_microscopy_dataset(InMemoryStore(), keep_fraction=0.0)
