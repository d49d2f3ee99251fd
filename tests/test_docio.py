"""Document format round trips and parse diagnostics."""

import tracemalloc

import numpy as np
import pytest

from posmap.docio import (
    cone_input_from_document,
    load_document,
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


def cone_input(**fields):
    doc = {
        "kind": "cone-input",
        "rho_a": matrix_to_doc(np.eye(2) / 2),
        "rho_b": matrix_to_doc(np.eye(2) / 2),
        "vector": matrix_to_doc(np.eye(4) / 2),
    }
    doc.update(fields)
    return doc


class TestHostileDocuments:
    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_json_constants_are_parse_errors(self, tmp_path, constant):
        path = tmp_path / "doc.json"
        path.write_text(f'{{"metadata": {{"x": {constant}}}}}', encoding="utf-8")
        with pytest.raises(ParseError, match=f"{constant} is not a JSON number"):
            load_document(str(path))

    @pytest.mark.parametrize("literal", ["1e400", "-1e999", "1.8e308"])
    def test_float_literals_beyond_float_range_are_parse_errors(self, tmp_path, literal):
        path = tmp_path / "doc.json"
        path.write_text(f'{{"metadata": {{"x": {literal}}}}}', encoding="utf-8")
        with pytest.raises(ParseError, match="beyond float range"):
            load_document(str(path))

    def test_the_largest_float_literal_is_read(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text('{"x": 1.7976931348623157e308, "y": -1e-400}', encoding="utf-8")
        assert load_document(str(path)) == {"x": 1.7976931348623157e308, "y": -0.0}

    # each value below used to be coerced by int() into a readable document
    @pytest.mark.parametrize("field,value", [("rows", 4.7), ("rows", "4"), ("cols", True),
                                             ("cols", 1.0)])
    def test_matrix_dimensions_must_be_json_integers(self, field, value):
        doc = {"rows": 4, "cols": 1, "data": [[1.0, 0.0]] * 4}
        doc[field] = value
        with pytest.raises(ParseError, match=f"{field} must be a JSON integer"):
            matrix_from_doc(doc)

    @pytest.mark.parametrize("fields", [{"m": "2"}, {"m": 2.0}, {"n": "2"}, {"n": 2.0}])
    def test_map_dimensions_must_be_json_integers(self, fields):
        doc = map_to_document(transposition_map(2))
        doc.update(fields)
        with pytest.raises(ParseError, match="must be a JSON integer"):
            map_from_document(doc)

    def test_bool_is_not_an_integer(self):
        # a 2 x 1 map (a -> Tr a) read with n = true used to classify as 2x1
        doc = {"kind": "map", "m": 2, "n": True, "encoding": "choi",
               "matrices": [matrix_to_doc(np.eye(2))]}
        with pytest.raises(ParseError, match="n must be a JSON integer"):
            map_from_document(doc)

    @pytest.mark.parametrize("entry", [["1", 0.0], [True, 0.0], [0.0, False], [10**400, 0.0]])
    def test_entries_must_be_finite_json_numbers(self, entry):
        with pytest.raises(ParseError, match=f"entry 0 is (not numeric|out of range)"):
            matrix_from_doc({"rows": 1, "cols": 1, "data": [entry]})

    @pytest.mark.parametrize("k", ["2", "x", True, 1.5, 0, -1])
    def test_cone_input_k_is_an_integer_at_least_one(self, k):
        with pytest.raises(ParseError, match="k must be"):
            cone_input_from_document(cone_input(k=k))

    def test_cone_input_k_defaults_to_one(self):
        assert cone_input_from_document(cone_input()).k == 1
        assert cone_input_from_document(cone_input(k=3)).k == 3

    def test_cone_input_product_dimension_is_guarded(self):
        # 6 x 6 = 36 is the limit; 7 x 7 states would build 49-dimensional cones
        six = matrix_to_doc(np.eye(6) / 6)
        doc = cone_input(rho_a=six, rho_b=six, vector=matrix_to_doc(np.eye(36)))
        assert cone_input_from_document(doc).rho_a.shape == (6, 6)
        seven = matrix_to_doc(np.eye(7) / 7)
        doc = cone_input(rho_a=seven, rho_b=seven, vector=matrix_to_doc(np.eye(49)))
        with pytest.raises(ParseError, match="desk-scale"):
            cone_input_from_document(doc)
