"""Unit tests for the core package: buffers, result matrix, API contract."""

import numpy as np
import pytest

from repro.core.api import Application
from repro.core.buffers import DeviceBuffer, HostBuffer
from repro.core.result import ResultMatrix


class TestHostBuffer:
    def test_bytes_payload(self):
        assert HostBuffer(b"abc").nbytes == 3

    def test_array_payload(self):
        assert HostBuffer(np.zeros(10, dtype=np.float64)).nbytes == 80

    def test_unsupported_payload(self):
        with pytest.raises(TypeError):
            HostBuffer({"not": "supported"}).nbytes


class TestDeviceBuffer:
    def test_ownership_check(self):
        buf = DeviceBuffer(np.zeros(4), "gpu0")
        buf.check_device("gpu0")
        with pytest.raises(RuntimeError, match="transfer is missing"):
            buf.check_device("gpu1")

    def test_requires_ndarray(self):
        with pytest.raises(TypeError):
            DeviceBuffer([1, 2, 3], "gpu0")  # type: ignore[arg-type]

    def test_nbytes(self):
        assert DeviceBuffer(np.zeros(8, dtype=np.float32), "g").nbytes == 32


class TestResultMatrix:
    def test_set_get_unordered(self):
        rm = ResultMatrix(["a", "b", "c"])
        rm.set("b", "a", 1.5)
        assert rm.get("a", "b") == 1.5
        assert rm.get("b", "a") == 1.5

    def test_counts(self):
        rm = ResultMatrix(["a", "b", "c"])
        assert rm.n_pairs == 3
        assert len(rm) == 0
        rm.set("a", "b", 1.0)
        assert len(rm) == 1
        assert not rm.is_complete()

    def test_duplicate_set_rejected(self):
        rm = ResultMatrix(["a", "b"])
        rm.set("a", "b", 1.0)
        with pytest.raises(ValueError):
            rm.set("b", "a", 2.0)

    def test_diagonal_rejected(self):
        rm = ResultMatrix(["a", "b"])
        with pytest.raises(KeyError):
            rm.set("a", "a", 0.0)

    def test_unknown_key(self):
        rm = ResultMatrix(["a", "b"])
        with pytest.raises(KeyError):
            rm.get("a", "zz")

    def test_missing_pair(self):
        rm = ResultMatrix(["a", "b"])
        with pytest.raises(KeyError):
            rm.get("a", "b")

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError):
            ResultMatrix(["a", "a"])

    def test_items_ordering(self):
        rm = ResultMatrix(["a", "b", "c"])
        rm.set("b", "c", 3.0)
        rm.set("a", "b", 1.0)
        rm.set("a", "c", 2.0)
        assert [v for _, _, v in rm.items()] == [1.0, 2.0, 3.0]

    def test_to_dense_symmetric(self):
        rm = ResultMatrix(["a", "b"])
        rm.set("a", "b", 5.0)
        dense = rm.to_dense()
        assert dense[0, 1] == dense[1, 0] == 5.0
        assert dense[0, 0] == 0.0

    def test_to_condensed_matches_scipy_convention(self):
        rm = ResultMatrix(["a", "b", "c"])
        rm.set("a", "b", 1.0)
        rm.set("a", "c", 2.0)
        rm.set("b", "c", 3.0)
        cond = rm.to_condensed()
        assert list(cond) == [1.0, 2.0, 3.0]
        # Condensed vector must be accepted by scipy's squareform.
        from scipy.spatial.distance import squareform

        dense = squareform(cond)
        assert dense[1, 2] == 3.0

    def test_to_condensed_incomplete_rejected(self):
        rm = ResultMatrix(["a", "b", "c"])
        rm.set("a", "b", 1.0)
        with pytest.raises(ValueError, match="incomplete"):
            rm.to_condensed()


class _Toy(Application[str, float]):
    def file_name(self, key):
        return key

    def parse(self, key, file_contents):
        return np.frombuffer(file_contents, dtype=np.uint8).astype(np.float64)

    def compare(self, key_a, a, key_b, b):
        return np.asarray(float(a.sum() + b.sum()))


class TestApplicationContract:
    def test_default_preprocess_is_identity(self):
        app = _Toy()
        arr = np.arange(4, dtype=np.float64)
        assert app.preprocess("k", arr) is arr

    def test_default_postprocess_passthrough(self):
        app = _Toy()
        raw = np.asarray(7.0)
        assert app.postprocess("a", "b", raw) is raw

    def test_validate_keys(self):
        app = _Toy()
        app.validate_keys(["a", "b"])
        with pytest.raises(ValueError):
            app.validate_keys(["only"])
        with pytest.raises(ValueError):
            app.validate_keys(["a", "a"])

    def test_abstract_methods_enforced(self):
        with pytest.raises(TypeError):
            Application()  # type: ignore[abstract]
