"""Document format round trips and parse diagnostics."""

import tracemalloc

import numpy as np
import pytest

from posmap.docio import (
    cone_input_from_document,
    map_from_document,
    map_to_document,
    matrix_from_doc,
    matrix_to_doc,
    state_from_document,
)
from posmap.errors import ParseError
from posmap.linalg import DESK_SCALE_DIM, rng_stream
from posmap.maps import random_hermiticity_preserving, transposition_map


class TestMatrixDoc:
    def test_round_trip(self):
        rng = rng_stream(90)
        m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        assert np.array_equal(matrix_from_doc(matrix_to_doc(m)), m)

    def test_row_major_layout(self):
        doc = matrix_to_doc(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert doc["data"] == [[1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [4.0, 0.0]]

    def test_rejects_bad_length(self):
        with pytest.raises(ParseError, match="data length"):
            matrix_from_doc({"rows": 2, "cols": 2, "data": [[1.0, 0.0]]})

    def test_rejects_non_numeric(self):
        with pytest.raises(ParseError, match="not numeric"):
            matrix_from_doc({"rows": 1, "cols": 1, "data": [["x", 0.0]]})

    def test_rejects_bare_number_entries(self):
        with pytest.raises(ParseError, match="pair"):
            matrix_from_doc({"rows": 1, "cols": 1, "data": [1.0]})


class TestMapDoc:
    def test_choi_round_trip(self):
        rng = rng_stream(91)
        phi = random_hermiticity_preserving(rng, 3, 2)
        back = map_from_document(map_to_document(phi, "choi"))
        assert phi.norm_distance(back) <= 1e-12

    def test_unit_action_round_trip(self):
        rng = rng_stream(92)
        phi = random_hermiticity_preserving(rng, 2, 3)
        back = map_from_document(map_to_document(phi, "unit-action"))
        assert phi.norm_distance(back) <= 1e-12

    def test_kraus_encoding(self):
        u = np.array([[0, 1], [1, 0]], dtype=complex)
        doc = {
            "kind": "map",
            "m": 2,
            "n": 2,
            "encoding": "kraus",
            "matrices": [matrix_to_doc(u)],
        }
        phi = map_from_document(doc)
        a = np.array([[1, 2], [3, 4]], dtype=complex)
        assert np.allclose(phi(a), u @ a @ u.conj().T)

    def test_rejects_dimension_mismatch(self):
        doc = map_to_document(transposition_map(2), "choi")
        doc["m"] = 3
        with pytest.raises(ParseError):
            map_from_document(doc)

    def test_rejects_unknown_encoding(self):
        doc = map_to_document(transposition_map(2), "choi")
        doc["encoding"] = "pauli"
        with pytest.raises(ParseError, match="encoding"):
            map_from_document(doc)


class TestOtherDocs:
    def test_state_doc(self):
        rho = np.diag([0.25, 0.75]).astype(complex)
        doc = {"kind": "state", "matrix": matrix_to_doc(rho)}
        assert np.array_equal(state_from_document(doc), rho)

    def test_cone_input_with_blocks(self):
        eye = matrix_to_doc(np.eye(2))
        zero = matrix_to_doc(np.zeros((2, 2)))
        doc = {
            "kind": "cone-input",
            "rho_a": matrix_to_doc(np.eye(2) / 2),
            "rho_b": matrix_to_doc(np.eye(2) / 2),
            "blocks": [[eye, zero], [zero, eye]],
        }
        cone_input = cone_input_from_document(doc)
        assert cone_input.blocks.shape == (2, 2, 2, 2)
        assert np.array_equal(cone_input.blocks[0, 0], np.eye(2))

    def test_cone_input_requires_payload(self):
        doc = {
            "kind": "cone-input",
            "rho_a": matrix_to_doc(np.eye(2) / 2),
            "rho_b": matrix_to_doc(np.eye(2) / 2),
        }
        with pytest.raises(ParseError, match="vector, blocks, or a map"):
            cone_input_from_document(doc)


class TestDeskScaleGuard:
    def test_oversized_kraus_document_is_rejected_without_allocating(self):
        doc = {"kind": "map", "m": 300, "n": 300, "encoding": "kraus",
               "matrices": [matrix_to_doc(np.ones((1, 1)))]}
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match="desk-scale"):
                map_from_document(doc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_limit_is_inclusive(self):
        phi = transposition_map(6)
        assert phi.m * phi.n == DESK_SCALE_DIM
        assert map_from_document(map_to_document(phi)).m == 6
        doc = map_to_document(transposition_map(2))
        doc.update(m=37, n=1)
        with pytest.raises(ParseError, match="desk-scale"):
            map_from_document(doc)
