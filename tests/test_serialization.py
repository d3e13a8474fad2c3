"""Round-trip and error-path tests for the JSON file formats."""

import itertools
import json

import numpy as np
import pytest

from mpsys import serialization as ser
from mpsys.cascade import cascade
from mpsys.factorization import LinearFactorChain, factor_left
from mpsys.subspaces import orthonormal_basis
from mpsys.subspaces import Subspace
from mpsys.systems import (MultiSystem, PolyGerm, SystemShapeError, pencil_blocks,
                           random_conservative)


@pytest.fixture
def read_basis(monkeypatch):
    """The subspace reader, returning the basis that ``_block_list`` decodes
    before ``Subspace`` checks its orthonormality: read(rows, shape)."""
    monkeypatch.setattr(ser, "Subspace", lambda ambient_dim, basis: basis)

    def read(rows, shape):
        return ser.subspace_from_dict({"schema_version": "1", "kind": "subspace",
                                       "ambient_dim": shape[0], "dim": shape[1],
                                       "basis": rows})
    return read


def test_matrix_round_trip_is_exact(read_basis):
    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    np.testing.assert_array_equal(read_basis(ser.matrix_to_json(m), m.shape), m)


def test_system_round_trip(tmp_path):
    s = random_conservative(2, 4, 2, 2, seed=0)
    path = tmp_path / "sys.json"
    ser.save_json(path, ser.system_to_dict(s))
    loaded = ser.load_system(path)
    for k in range(2):
        np.testing.assert_array_equal(loaded.a[k], s.a[k])
        np.testing.assert_array_equal(loaded.b[k], s.b[k])
        np.testing.assert_array_equal(loaded.c[k], s.c[k])
        np.testing.assert_array_equal(loaded.d[k], s.d[k])


def test_saved_system_is_one_sorted_line_that_round_trips_bit_exactly(tmp_path):
    s = random_conservative(3, 5, 2, 2, seed=4)
    payload = ser.system_to_dict(s)
    path = tmp_path / "sys.json"
    ser.save_json(path, payload)
    text = path.read_text(encoding="utf-8")
    assert text.count("\n") == 1 and text.endswith("}\n")
    assert text == json.dumps(payload, sort_keys=True) + "\n"
    assert ser.load_json(path) == payload
    loaded = ser.load_system(path)
    for name in "abcd":
        for saved, read in zip(getattr(s, name), getattr(loaded, name)):
            assert read.shape == saved.shape
            assert read.tobytes() == saved.tobytes()


def test_stateless_system_round_trip(tmp_path):
    s = random_conservative(2, 0, 2, 2, seed=1)
    path = tmp_path / "sys.json"
    ser.save_json(path, ser.system_to_dict(s))
    assert ser.load_system(path).dim_x == 0
    # empty blocks: no state, or no input
    wide = MultiSystem(a=[np.zeros((2, 2))] * 2, b=[np.zeros((2, 0))] * 2,
                       c=[np.ones((1, 2))] * 2, d=[np.zeros((1, 0))] * 2)
    for system in (s, wide):
        ser.save_json(path, ser.system_to_dict(system))
        loaded = ser.load_system(path)
        assert loaded.n_params == system.n_params
        assert pencil_blocks(loaded).shape == pencil_blocks(system).shape
        assert pencil_blocks(loaded).tobytes() == pencil_blocks(system).tobytes()


def test_germ_round_trip(tmp_path):
    germ = PolyGerm(2, 2, 2, {(1, 0): np.eye(2), (2, 1): 1j * np.eye(2)})
    path = tmp_path / "germ.json"
    ser.save_json(path, ser.germ_to_dict(germ))
    loaded = ser.load_germ(path)
    assert set(loaded.coeffs) == set(germ.coeffs)
    for t in germ.coeffs:
        np.testing.assert_array_equal(loaded.coeffs[t], germ.coeffs[t])


def test_subspace_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    sub = orthonormal_basis(rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3)))
    path = tmp_path / "sub.json"
    ser.save_json(path, ser.subspace_to_dict(sub))
    loaded = ser.load_subspace(path)
    np.testing.assert_array_equal(loaded.basis, sub.basis)


def test_chain_round_trip():
    s = random_conservative(2, 4, 2, 2, seed=3)
    zero_d = MultiSystem(a=s.a, b=s.b, c=s.c, d=[np.zeros_like(d) for d in s.d])
    chain, _ = factor_left(zero_d, 2)
    loaded = ser.chain_from_dict(ser.chain_to_dict(chain))
    assert isinstance(loaded, LinearFactorChain)
    assert loaded.spaces == chain.spaces
    for tup_a, tup_b in zip(loaded.factors, chain.factors):
        for m_a, m_b in zip(tup_a, tup_b):
            np.testing.assert_array_equal(m_a, m_b)


def test_kind_mismatch_rejected():
    germ = PolyGerm(2, 1, 1, {(1, 0): np.array([[1.0]])})
    with pytest.raises(ser.FileFormatError, match="kind"):
        ser.system_from_dict(ser.germ_to_dict(germ))


def test_schema_version_checked():
    payload = ser.system_to_dict(random_conservative(1, 2, 2, 2, seed=4))
    payload["schema_version"] = "0"
    with pytest.raises(ser.FileFormatError, match="schema_version"):
        ser.system_from_dict(payload)


def test_invalid_json_reported(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ser.FileFormatError, match="invalid JSON"):
        ser.load_system(path)


def test_malformed_matrix_entry_rejected():
    payload = ser.system_to_dict(random_conservative(1, 2, 2, 2, seed=5))
    payload["a"][0][0][0] = "oops"
    with pytest.raises(ser.FileFormatError):
        ser.system_from_dict(payload)


def per_entry_to_json(m):
    """Oracle: the matrix writer that converts one entry at a time."""
    m = np.asarray(m, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def per_entry_from_json(rows, shape=None):
    """Oracle: the matrix reader that converts one entry at a time; it
    raises TypeError or ValueError on a malformed entry."""
    m = np.array([[complex(re, im) for re, im in row] for row in rows], dtype=complex)
    if m.ndim == 1:
        m = m.reshape(0, 0)
    if shape is not None:
        m = m.reshape(shape)
    return m


def codec_matrices():
    rng = np.random.default_rng(11)
    special = np.array([[-0.0, 0.0, np.inf, -np.inf],
                        [np.nan, 5e-324, 1.7976931348623157e308, -1e-300]])
    m = np.empty(special.shape, dtype=complex)
    m.real, m.imag = special, special[::-1]
    yield m
    for shape in ((0, 0), (3, 0), (0, 2), (1, 1), (3, 4), (5, 1)):
        yield rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    yield np.array([[1, -2]])  # integers are written as floats
    yield np.array([[True, False]])


def test_matrix_codec_matches_the_per_entry_oracle(read_basis):
    for m in codec_matrices():
        rows = ser.matrix_to_json(m)
        assert json.dumps(rows) == json.dumps(per_entry_to_json(m))
        for text in (json.dumps(rows), json.dumps(rows).replace(".0,", ",")):
            loaded = json.loads(text)
            back, oracle = read_basis(loaded, m.shape), per_entry_from_json(loaded, m.shape)
            assert back.dtype == complex and back.shape == oracle.shape == m.shape
            assert back.tobytes() == oracle.tobytes()
    assert read_basis([[], []], (2, 0)).shape == (2, 0)


def per_block_system_payload(s):
    """Oracle: the system file written block by block, one entry at a time."""
    return {"schema_version": "1", "kind": "system", "n_params": s.n_params,
            "dim_x": s.dim_x, "dim_u": s.dim_u, "dim_y": s.dim_y,
            **{name: [per_entry_to_json(m) for m in getattr(s, name)] for name in "abcd"}}


def test_files_are_byte_identical_to_the_per_entry_writer(monkeypatch):
    alpha2 = random_conservative(2, 8, 3, 3, seed=1)
    s = cascade(alpha2, random_conservative(2, 5, 3, 3, seed=2))
    # the system writer converts the whole pencil at once, so its oracle is
    # built block by block; the other writers convert each matrix
    stateless = random_conservative(3, 0, 2, 2, seed=3)
    wide = MultiSystem(a=[np.zeros((2, 2))], b=[np.zeros((2, 0))],
                       c=[[[1.0, -0.0], [0.5j, 1e-300]]], d=[np.zeros((2, 0))])
    for system in (s, stateless, wide):
        assert (json.dumps(ser.system_to_dict(system), sort_keys=True)
                == json.dumps(per_block_system_payload(system), sort_keys=True))
    payloads = (lambda: ser.germ_to_dict(PolyGerm(2, 2, 1, {(1, 0): [[1.0, -0.0]],
                                                           (1, 2): [[0.5j, 1e-300]]})),
                lambda: ser.subspace_to_dict(orthonormal_basis(alpha2.b[0])),
                lambda: ser.subspace_to_dict(Subspace(3, np.zeros((3, 0)))),
                lambda: ser.chain_to_dict(factor_left(s, 2)[0]))
    texts = [json.dumps(make(), sort_keys=True) for make in payloads]
    monkeypatch.setattr(ser, "matrix_to_json", per_entry_to_json)
    assert texts == [json.dumps(make(), sort_keys=True) for make in payloads]


def test_a_matrix_of_the_wrong_shape_in_a_block_list_is_rejected():
    s = random_conservative(2, 3, 2, 2, seed=7)
    # one matrix transposed (ragged), every matrix transposed (same size),
    # and one matrix with a row short
    one = ser.system_to_dict(s)
    one["b"][1] = ser.matrix_to_json(s.b[1].T)
    every = ser.system_to_dict(s)
    every["b"] = [ser.matrix_to_json(m.T) for m in s.b]
    short = ser.system_to_dict(s)
    short["c"][0][1] = short["c"][0][1][:-1]
    for payload in (one, every, short):
        with pytest.raises(ser.FileFormatError, match="b-list|c-list"):
            ser.system_from_dict(payload)


def test_a_block_list_of_the_wrong_length_is_rejected():
    s = random_conservative(2, 3, 2, 2, seed=7)
    payload = ser.system_to_dict(s)
    payload["c"] = payload["c"][:1]
    with pytest.raises(SystemShapeError, match="c-list has length 1, expected n_params=2"):
        ser.system_from_dict(payload)
    payload = ser.system_to_dict(s)
    payload["a"] = payload["b"] = payload["c"] = payload["d"] = []
    with pytest.raises(SystemShapeError, match="a-list is empty"):
        ser.system_from_dict(payload)
    # every list one matrix short: the lists agree, n_params does not
    payload = ser.system_to_dict(s)
    for name in "abcd":
        payload[name] = payload[name][:1]
    with pytest.raises(ser.FileFormatError, match="n_params"):
        ser.system_from_dict(payload)


def test_a_rows_one_entry_short_and_b_rows_one_entry_long_are_rejected():
    # the rows of [A_k B_k] keep their length, so only the per-list shape
    # check sees that the blocks are cut in the wrong place
    s = random_conservative(2, 3, 2, 2, seed=7)
    payload = ser.system_to_dict(s)
    for k in range(2):
        for i in range(3):
            row_a, row_b = payload["a"][k][i], payload["b"][k][i]
            payload["a"][k][i], payload["b"][k][i] = row_a[:-1], row_a[-1:] + row_b
    with pytest.raises(ser.FileFormatError, match="a-list"):
        ser.system_from_dict(payload)


def test_non_finite_blocks_in_a_file_name_the_block():
    payload = ser.system_to_dict(random_conservative(2, 3, 2, 2, seed=7))
    payload["d"][1][0][1] = [float("nan"), 0.0]
    with pytest.raises(SystemShapeError, match=r"d\[1\] has non-finite entries"):
        ser.system_from_dict(payload)


@pytest.mark.parametrize("rows", [
    [[["1.5", 2.0]]], [[[1.0, "2"]]], [[["1", "2"]]], "ab",  # strings
    [[[None, 0.0]]], [[[1.0, None]]], None,  # null
    [[[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0]]], [[[1.0, 2.0]], []],  # ragged rows
    [[[1.0, 2.0, 3.0]]], [[[1.0]]], [[1.0, 2.0]], [1.0, 2.0], 3.0,  # not pairs
    [[[[1.0, 2.0]]]], [[{"re": 1.0, "im": 2.0}]],
])
def test_malformed_matrix_entries_raise_file_format_errors(rows, read_basis):
    with pytest.raises((TypeError, ValueError)):
        per_entry_from_json(rows)
    for shape in itertools.product(range(3), repeat=2):
        with pytest.raises(ser.FileFormatError, match="malformed (matrix entry in the )?basis"):
            read_basis(rows, shape)


def test_missing_n_params_rejected():
    payload = ser.system_to_dict(random_conservative(1, 2, 2, 2, seed=6))
    del payload["n_params"]
    with pytest.raises(ser.FileFormatError, match="n_params"):
        ser.system_from_dict(payload)


def test_non_object_file_rejected(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]\n")
    with pytest.raises(ser.FileFormatError, match="JSON object"):
        ser.load_system(path)


def test_non_orthonormal_subspace_rejected_on_load():
    from mpsys.subspaces import SubspaceError
    payload = {
        "schema_version": "1", "kind": "subspace",
        "ambient_dim": 2, "dim": 2,
        "basis": ser.matrix_to_json(np.array([[1.0, 1.0], [0.0, 1.0]])),
    }
    with pytest.raises(SubspaceError):
        ser.subspace_from_dict(payload)


def test_a_transposed_matrix_in_a_germ_chain_or_subspace_file_is_rejected():
    # each edit keeps the entry count, so reshaping would load another matrix
    chain = ser.chain_to_dict(factor_left(random_conservative(2, 3, 2, 2, seed=1), 1)[0])
    assert chain["spaces"] == [2, 5]
    chain["factors"][0][1] = ser.matrix_to_json(np.ones((5, 2)))
    germ = ser.germ_to_dict(PolyGerm(2, 3, 2, {(1, 0): np.arange(6.0).reshape(2, 3)}))
    germ["coeffs"][0]["matrix"] = ser.matrix_to_json(np.arange(6.0).reshape(3, 2))
    # an orthonormal basis of C^6 whose transpose, reshaped, is orthonormal too
    subspace = ser.subspace_to_dict(Subspace(6, np.eye(6)[:, :2]))
    subspace["basis"] = ser.matrix_to_json(np.eye(6)[:2])
    for payload, read, name in ((chain, ser.chain_from_dict, "factor 1 list"),
                                (germ, ser.germ_from_dict, "coefficient list"),
                                (subspace, ser.subspace_from_dict, "basis")):
        with pytest.raises(ser.FileFormatError, match=name):
            read(payload)
    # every factor of the chain transposed: not ragged, the whole shape is wrong
    chain["factors"][0][0] = chain["factors"][0][1]
    with pytest.raises(ser.FileFormatError, match="expected 2 x 5 matrices"):
        ser.chain_from_dict(chain)


def test_germ_chain_and_subspace_files_round_trip_with_empty_sides():
    germ = PolyGerm(2, 0, 3, {(1, 0): np.zeros((3, 0))})
    chain = LinearFactorChain(spaces=(2, 0), factors=((np.zeros((2, 0)),),))
    for write, read, value in ((ser.germ_to_dict, ser.germ_from_dict, germ),
                               (ser.germ_to_dict, ser.germ_from_dict, PolyGerm(2, 1, 1, {})),
                               (ser.chain_to_dict, ser.chain_from_dict, chain),
                               (ser.subspace_to_dict, ser.subspace_from_dict,
                                Subspace(3, np.zeros((3, 0))))):
        back = read(json.loads(json.dumps(write(value))))
        assert json.dumps(write(back)) == json.dumps(write(value))
