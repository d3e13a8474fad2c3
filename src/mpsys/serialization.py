"""On-disk JSON formats for systems, germs, subspaces, and factor chains.

Complex entries are serialized as [re, im] pairs of decimal floats, which
round-trip bit-exactly for finite doubles.  Every file carries
schema_version "1" and a ``kind`` discriminator.

A system file holds the block lists a, b, c and d.  It is written from one
conversion of the pencil stack, whose nested rows are sliced into the four
lists, and read with one conversion per block list.  Every reader decodes
through ``_block_list``, which checks whole shapes: no matrix is reshaped.
"""

from __future__ import annotations

import json
from contextlib import contextmanager

import numpy as np

from .factorization import LinearFactorChain
from .subspaces import Subspace
from .systems import MultiSystem, PolyGerm, _from_pencil, _n_params_of, pencil_blocks

SCHEMA_VERSION = "1"


class FileFormatError(ValueError):
    """Raised on malformed or mismatched input files."""


def matrix_to_json(m: np.ndarray) -> list:
    """[re, im] pairs, nested as the array (a matrix, or a point): one ``tolist``."""
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], axis=-1).tolist()


def _header(payload: dict, kind: str) -> None:
    if not isinstance(payload, dict):
        raise FileFormatError(
            f"expected a JSON object, found {type(payload).__name__}"
        )
    if payload.get("schema_version") != SCHEMA_VERSION:
        raise FileFormatError(
            f"unsupported schema_version {payload.get('schema_version')!r}"
        )
    if payload.get("kind") != kind:
        raise FileFormatError(
            f"expected kind {kind!r}, found {payload.get('kind')!r}"
        )


@contextmanager
def _fields():
    """Report a missing or wrong-typed field as a FileFormatError."""
    try:
        yield
    except FileFormatError:
        raise
    except KeyError as exc:
        raise FileFormatError(f"missing field {exc}") from exc
    except (IndexError, TypeError, ValueError) as exc:
        raise FileFormatError(f"malformed field: {exc}") from exc


def system_to_dict(s: MultiSystem) -> dict:
    dx = s.dim_x
    x, rest = slice(None, dx), slice(dx, None)
    g = matrix_to_json(pencil_blocks(s))  # [k][row][column] = [re, im]
    blocks = (("a", x, x), ("b", x, rest), ("c", rest, x), ("d", rest, rest))
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "system",
        "n_params": s.n_params,
        "dim_x": dx,
        "dim_u": s.dim_u,
        "dim_y": s.dim_y,
        **{name: [[row[cols] for row in g_k[rows]] for g_k in g] for name, rows, cols in blocks},
    }


def _block_list(entries, name: str, shape: tuple) -> np.ndarray:
    """The (n, rows, cols) stack of a list of n matrices of ``shape`` given
    as rows of [re, im] number pairs, read as one array; ``name`` names the
    list in errors.  Anything of another shape raises, so no matrix is
    reshaped or broadcast; numpy stops nesting at the first empty list, so
    a stack with an empty side is read up to that list."""
    try:
        pairs = np.array(entries)
    except (TypeError, ValueError) as exc:  # ragged lists
        raise FileFormatError(f"malformed matrix entry in the {name}: {exc}") from exc
    full = pairs.shape[:1] + (*shape, 2)
    written = full[:full.index(0) + 1] if 0 in full else full
    if pairs.dtype.kind not in "biuf" or pairs.shape != written:
        raise FileFormatError(f"malformed {name}: expected {shape[0]} x {shape[1]} "
                              f"matrices of [re, im] number pairs, read shape {pairs.shape}")
    return np.ascontiguousarray(pairs, dtype=float).reshape(full).view(complex)[..., 0]


def system_from_dict(payload: dict) -> MultiSystem:
    _header(payload, "system")
    with _fields():
        dx, du, dy = payload["dim_x"], payload["dim_u"], payload["dim_y"]
        stacks = [_block_list(payload[name], f"{name}-list", shape)
                  for name, shape in (("a", (dx, dx)), ("b", (dx, du)),
                                      ("c", (dy, dx)), ("d", (dy, du)))]
        n_params = payload["n_params"]
    g = np.empty((_n_params_of([len(x) for x in stacks]), dx + dy, dx + du), dtype=complex)
    g[:, :dx, :dx], g[:, :dx, dx:], g[:, dx:, :dx], g[:, dx:, dx:] = stacks
    s = _from_pencil(g, dx)
    if s.n_params != n_params:
        raise FileFormatError("n_params does not match the block lists")
    return s


def germ_to_dict(g: PolyGerm) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "germ",
        "n_params": g.n_params,
        "dim_u": g.dim_u,
        "dim_y": g.dim_y,
        "coeffs": [
            {"index": list(t), "matrix": matrix_to_json(m)}
            for t, m in sorted(g.coeffs.items())
        ],
    }


def germ_from_dict(payload: dict) -> PolyGerm:
    _header(payload, "germ")
    with _fields():
        dy, du = payload["dim_y"], payload["dim_u"]
        entries = payload["coeffs"]
        matrices = _block_list([e["matrix"] for e in entries], "coefficient list", (dy, du))
        coeffs = {tuple(int(x) for x in e["index"]): m for e, m in zip(entries, matrices)}
        n_params = payload["n_params"]
    return PolyGerm(n_params, du, dy, coeffs)


def subspace_to_dict(s: Subspace) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "subspace",
        "ambient_dim": s.ambient_dim,
        "dim": s.dim,
        "basis": matrix_to_json(s.basis),
    }


def subspace_from_dict(payload: dict) -> Subspace:
    _header(payload, "subspace")
    with _fields():
        ambient = payload["ambient_dim"]
        basis = _block_list([payload["basis"]], "basis", (ambient, payload["dim"]))[0]
    return Subspace(ambient, basis)  # orthonormality re-verified on load


def chain_to_dict(chain: LinearFactorChain) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "chain",
        "n_params": chain.n_params,
        "spaces": list(chain.spaces),
        "factors": [[matrix_to_json(m) for m in tup] for tup in chain.factors],
    }


def chain_from_dict(payload: dict) -> LinearFactorChain:
    _header(payload, "chain")
    with _fields():
        spaces = tuple(int(x) for x in payload["spaces"])
        factors = tuple(
            tuple(_block_list(tup, f"factor {j + 1} list", (spaces[j], spaces[j + 1])))
            for j, tup in enumerate(payload["factors"])
        )
    return LinearFactorChain(spaces=spaces, factors=factors)


def save_json(path, payload: dict) -> None:
    """One line of sorted-key JSON and a newline; compact output lets
    ``json`` use its C encoder."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True) + "\n")


def load_json(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: invalid JSON ({exc})") from exc


def load_system(path) -> MultiSystem:
    return system_from_dict(load_json(path))


def load_germ(path) -> PolyGerm:
    return germ_from_dict(load_json(path))


def load_subspace(path) -> Subspace:
    return subspace_from_dict(load_json(path))
