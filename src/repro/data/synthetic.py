"""Synthetic data sets with known ground truth for the three applications.

Each generator writes files (in the formats of :mod:`repro.data.formats`)
into a :class:`~repro.data.filestore.FileStore` and returns a dataset
descriptor carrying the ground truth:

- **forensics**: images rendered from random scenes through cameras
  with fixed multiplicative PRNU sensor-noise patterns — ground truth
  is the camera of each image, so common-source identification accuracy
  is checkable;
- **bioinformatics**: proteomes evolved along a random binary tree by
  point mutation — ground truth is the generating tree, so the
  reconstructed phylogeny can be scored against it;
- **microscopy**: particles derived from one template point cloud by
  rotation, translation, localisation jitter, under-labelling and
  outliers — ground truth is the per-particle transform.

Everything is deterministic under the provided seed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Dict, List, Tuple, Union

import numpy as np

from repro.data.filestore import FileStore
from repro.data.formats import encode_fasta, encode_image, encode_particle
from repro.util.rng import seeded_rng

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "ForensicsDataset",
    "BioinformaticsDataset",
    "MicroscopyDataset",
    "make_forensics_dataset",
    "make_bioinformatics_dataset",
    "make_microscopy_dataset",
    "AMINO_ACIDS",
]

AMINO_ACIDS = "ACDEFGHIKLMNPQRSTVWY"


# ---------------------------------------------------------------------------
# Forensics: PRNU camera noise
# ---------------------------------------------------------------------------


@dataclass
class ForensicsDataset:
    """Generated image corpus plus ground truth camera assignment."""

    keys: List[str]
    camera_of: Dict[str, int]
    n_cameras: int
    image_shape: Tuple[int, int]
    prnu_strength: float

    def same_camera(self, a: str, b: str) -> bool:
        """Ground truth: were ``a`` and ``b`` taken by the same camera?"""
        return self.camera_of[a] == self.camera_of[b]


def _smooth_field(rng: np.random.Generator, shape: Tuple[int, int], smoothness: int) -> np.ndarray:
    """A smooth random scene: low-resolution noise upsampled bilinearly."""
    coarse_shape = (max(2, shape[0] // smoothness), max(2, shape[1] // smoothness))
    coarse = rng.uniform(0.2, 0.8, coarse_shape)
    # Bilinear upsample via per-axis linear interpolation.
    rows = np.linspace(0, coarse_shape[0] - 1, shape[0])
    cols = np.linspace(0, coarse_shape[1] - 1, shape[1])
    r0 = np.floor(rows).astype(int)
    c0 = np.floor(cols).astype(int)
    r1 = np.minimum(r0 + 1, coarse_shape[0] - 1)
    c1 = np.minimum(c0 + 1, coarse_shape[1] - 1)
    wr = (rows - r0)[:, None]
    wc = (cols - c0)[None, :]
    top = coarse[np.ix_(r0, c0)] * (1 - wc) + coarse[np.ix_(r0, c1)] * wc
    bottom = coarse[np.ix_(r1, c0)] * (1 - wc) + coarse[np.ix_(r1, c1)] * wc
    return top * (1 - wr) + bottom * wr


def make_forensics_dataset(
    store: FileStore,
    n_images: int = 24,
    n_cameras: int = 4,
    image_shape: Tuple[int, int] = (96, 96),
    prnu_strength: float = 0.06,
    readout_noise: float = 0.02,
    seed: int = 0,
) -> ForensicsDataset:
    """Generate a PRNU image corpus into ``store``.

    Each camera has a fixed zero-mean multiplicative noise pattern
    ``K``; an image of scene ``S`` is quantised ``S * (1 + strength*K) +
    readout noise`` (the standard PRNU sensor model, Fridrich 2013).
    """
    if n_images < 2:
        raise ValueError(f"need at least 2 images, got {n_images}")
    if n_cameras < 1:
        raise ValueError(f"need at least 1 camera, got {n_cameras}")
    rng = seeded_rng(seed)
    patterns = rng.standard_normal((n_cameras,) + image_shape)
    keys: List[str] = []
    camera_of: Dict[str, int] = {}
    for idx in range(n_images):
        cam = idx % n_cameras  # balanced assignment
        scene = _smooth_field(rng, image_shape, smoothness=8)
        observed = scene * (1.0 + prnu_strength * patterns[cam])
        observed += readout_noise * rng.standard_normal(image_shape)
        pixels = np.clip(observed * 255.0, 0, 255).astype(np.uint8)
        key = f"img{idx:04d}"
        store.write(f"{key}.rimg", encode_image(pixels))
        keys.append(key)
        camera_of[key] = cam
    return ForensicsDataset(keys, camera_of, n_cameras, image_shape, prnu_strength)


# ---------------------------------------------------------------------------
# Bioinformatics: proteomes on a random phylogeny
# ---------------------------------------------------------------------------


#: A tree node: a leaf is its species key, an internal node an int.
Node = Union[str, int]


@dataclass
class BioinformaticsDataset:
    """Generated proteomes plus the true generating tree."""

    keys: List[str]
    #: ``(parent, child, length)`` in join order; every internal node's
    #: two children appear back to back.
    edges: List[Tuple[int, Node, float]]
    n_proteins: int
    protein_length: int

    @cached_property
    def tree(self) -> "nx.Graph":
        """The tree as an undirected graph: leaves are the keys, internal
        nodes are ints, and edges carry a ``length`` attribute.

        Built on first access, so generating a corpus never loads
        NetworkX.
        """
        import networkx as nx

        tree = nx.Graph()
        tree.add_nodes_from(self.keys)
        tree.add_weighted_edges_from(self.edges, weight="length")
        return tree

    def true_clades(self) -> List[frozenset]:
        """Leaf bipartitions induced by the internal edges of the tree.

        Used to score reconstructed phylogenies (Robinson-Foulds style):
        each internal edge splits the leaves in two; the smaller side is
        returned as a frozenset.
        """
        import networkx as nx

        leaves = {n for n in self.tree.nodes if isinstance(n, str)}
        clades = []
        for u, v in self.tree.edges:
            work = self.tree.copy()
            work.remove_edge(u, v)
            side = {n for n in nx.node_connected_component(work, u) if isinstance(n, str)}
            if 1 < len(side) < len(leaves) - 1:
                smaller = side if len(side) <= len(leaves) - len(side) else leaves - side
                clades.append(frozenset(smaller))
        return clades


def _random_binary_tree(
    names: List[str], rng: np.random.Generator
) -> List[Tuple[int, Node, float]]:
    """Random coalescent: repeatedly join two random subtrees.

    Returns the ``(parent, child, length)`` edges in join order; the
    last parent is the root.
    """
    edges: List[Tuple[int, Node, float]] = []
    roots: List[Node] = list(names)
    next_internal = 0
    while len(roots) > 1:
        i, j = sorted(rng.choice(len(roots), size=2, replace=False))
        a, b = roots[i], roots[j]
        parent = next_internal
        next_internal += 1
        edges.append((parent, a, float(rng.uniform(0.2, 1.0))))
        edges.append((parent, b, float(rng.uniform(0.2, 1.0))))
        roots = [r for k, r in enumerate(roots) if k not in (i, j)] + [parent]
    return edges


def _mutate(seq: np.ndarray, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Point-mutate integer-coded residues with per-site probability ``rate``."""
    out = seq.copy()
    mask = rng.random(seq.shape) < rate
    n_mut = int(mask.sum())
    if n_mut:
        out[mask] = rng.integers(0, len(AMINO_ACIDS), n_mut)
    return out


def make_bioinformatics_dataset(
    store: FileStore,
    n_species: int = 12,
    n_proteins: int = 8,
    protein_length: int = 300,
    mutation_rate: float = 0.03,
    seed: int = 0,
) -> BioinformaticsDataset:
    """Generate proteomes evolved along a random binary tree into ``store``.

    The root proteome is random; every tree edge applies point mutations
    proportional to its length.  Closely related species therefore share
    k-mer statistics — exactly the signal composition-vector phylogeny
    reconstruction uses.
    """
    if n_species < 3:
        raise ValueError(f"need at least 3 species, got {n_species}")
    rng = seeded_rng(seed)
    keys = [f"species{idx:03d}" for idx in range(n_species)]
    edges = _random_binary_tree(keys, rng)
    children: Dict[Node, List[Tuple[Node, float]]] = {}
    for parent, child, length in edges:
        children.setdefault(parent, []).append((child, length))
    root = edges[-1][0]
    root_proteome = rng.integers(0, len(AMINO_ACIDS), (n_proteins, protein_length))

    # Breadth-first from the root, each node's children in join order:
    # the mutation draws come off ``rng`` in that order.
    proteomes: Dict[Node, np.ndarray] = {root: root_proteome}
    frontier = deque([root])
    while frontier:
        parent = frontier.popleft()
        for child, length in children.get(parent, ()):
            proteomes[child] = _mutate(proteomes[parent], mutation_rate * length, rng)
            frontier.append(child)

    lookup = np.array(list(AMINO_ACIDS))
    for key in keys:
        records = {
            f"{key}_p{p:03d}": "".join(lookup[proteomes[key][p]])
            for p in range(n_proteins)
        }
        store.write(f"{key}.faz", encode_fasta(records, compress=True))
    return BioinformaticsDataset(keys, edges, n_proteins, protein_length)


# ---------------------------------------------------------------------------
# Microscopy: particles from a common template
# ---------------------------------------------------------------------------


@dataclass
class MicroscopyDataset:
    """Generated particle corpus plus per-particle true transforms."""

    keys: List[str]
    template: np.ndarray
    transforms: Dict[str, Tuple[float, float, float]]  # key -> (theta, tx, ty)
    jitter: float


def make_template(kind: str = "ring", n_points: int = 48, seed: int = 0) -> np.ndarray:
    """Build a template point cloud (the 'true' underlying structure)."""
    rng = seeded_rng(seed)
    if kind == "ring":
        angles = np.linspace(0, 2 * np.pi, n_points, endpoint=False)
        outer = np.column_stack([np.cos(angles), np.sin(angles)])
        # An asymmetric inner bar breaks rotational symmetry so that
        # registration has a unique optimum.
        bar = np.column_stack([np.linspace(-0.6, 0.6, n_points // 3), np.zeros(n_points // 3) + 0.15])
        return np.vstack([outer, bar])
    if kind == "grid":
        side = max(2, int(np.sqrt(n_points)))
        xs, ys = np.meshgrid(np.linspace(-1, 1, side), np.linspace(-1, 1, side))
        pts = np.column_stack([xs.ravel(), ys.ravel()])
        return pts + 0.02 * rng.standard_normal(pts.shape)
    raise ValueError(f"unknown template kind {kind!r}")


def make_microscopy_dataset(
    store: FileStore,
    n_particles: int = 16,
    template_kind: str = "ring",
    template_points: int = 48,
    jitter: float = 0.03,
    keep_fraction: float = 0.8,
    outlier_fraction: float = 0.05,
    seed: int = 0,
) -> MicroscopyDataset:
    """Generate localisation-microscopy particles into ``store``.

    Every particle observes the same template structure under a random
    rigid transform, with localisation jitter, under-labelling (random
    point dropout) and uniform outliers — the degradations the
    all-to-all registration of Heydarian et al. is designed to survive.
    """
    if n_particles < 2:
        raise ValueError(f"need at least 2 particles, got {n_particles}")
    if not 0.0 < keep_fraction <= 1.0:
        raise ValueError(f"keep_fraction must be in (0, 1], got {keep_fraction}")
    template = make_template(template_kind, template_points, seed)
    rng = seeded_rng(seed + 1)
    keys: List[str] = []
    transforms: Dict[str, Tuple[float, float, float]] = {}
    for idx in range(n_particles):
        theta = float(rng.uniform(0, 2 * np.pi))
        tx, ty = (float(v) for v in rng.uniform(-0.3, 0.3, 2))
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        pts = template @ rot.T + np.array([tx, ty])
        keep = rng.random(len(pts)) < keep_fraction
        if keep.sum() < 4:  # always keep enough structure to register
            keep[:4] = True
        pts = pts[keep]
        pts = pts + jitter * rng.standard_normal(pts.shape)
        n_out = int(round(outlier_fraction * len(pts)))
        if n_out:
            outliers = rng.uniform(-1.5, 1.5, (n_out, 2))
            pts = np.vstack([pts, outliers])
        key = f"particle{idx:03d}"
        store.write(
            f"{key}.json",
            encode_particle(pts, meta={"theta": theta, "tx": tx, "ty": ty}),
        )
        keys.append(key)
        transforms[key] = (theta, tx, ty)
    return MicroscopyDataset(keys, template, transforms, jitter)
