"""Independent reference arithmetic for checking the program's outputs.

Nothing here imports ``mpsys``: systems are read straight from the JSON
files the program writes (or from the block arrays of an in-memory
system), and every formula is the textbook one written out in numpy, so a
defect in the package cannot also hide in its own check.
"""

from __future__ import annotations

import json

import numpy as np

# Acceptance bound on every recomputed residual.
RESIDUAL_BOUND = 1e-9


def read_matrix(rows, shape) -> np.ndarray:
    """A matrix stored as rows of [re, im] pairs."""
    flat = [complex(re, im) for row in rows for re, im in row]
    return np.array(flat, dtype=complex).reshape(shape)


def read_system(path) -> dict:
    """Blocks {"a", "b", "c", "d"} (lists of N matrices) of a system file."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    dx, du, dy = payload["dim_x"], payload["dim_u"], payload["dim_y"]
    shapes = {"a": (dx, dx), "b": (dx, du), "c": (dy, dx), "d": (dy, du)}
    return {key: [read_matrix(m, shape) for m in payload[key]]
            for key, shape in shapes.items()}


def blocks_of(system) -> dict:
    """The same block dictionary for an in-memory system object."""
    return {key: [np.asarray(m) for m in getattr(system, key)] for key in "abcd"}


def pencil(mats, z) -> np.ndarray:
    """sum_k z_k M_k."""
    return sum(zk * m for zk, m in zip(z, mats))


def transfer(blocks: dict, z) -> np.ndarray:
    """theta(z) = zD + zC (I - zA)^(-1) zB."""
    zd = pencil(blocks["d"], z)
    dx = blocks["a"][0].shape[0]
    if dx == 0:
        return zd
    resolvent = np.eye(dx) - pencil(blocks["a"], z)
    return zd + pencil(blocks["c"], z) @ np.linalg.solve(resolvent, pencil(blocks["b"], z))


def tuple_transfer(blocks: dict, mats, r: float) -> np.ndarray:
    """theta(rT) = D_T + C_T (I - A_T)^(-1) B_T with X_T = sum_k X_k (x) r T_k.

    Exact for commuting T_k: each word of the Neumann series collapses to
    its abelianization.
    """
    def tensor(key):
        return sum(np.kron(x, r * t) for x, t in zip(blocks[key], mats))

    d_t = tensor("d")
    if blocks["a"][0].shape[0] == 0:
        return d_t
    a_t = tensor("a")
    return d_t + tensor("c") @ np.linalg.solve(np.eye(a_t.shape[0]) - a_t, tensor("b"))


def chain_product(factors, z) -> np.ndarray:
    """z F^(1) ... z F^(m) for factors given as N-tuples of matrices."""
    out = pencil(factors[0], z)
    for tup in factors[1:]:
        out = out @ pencil(tup, z)
    return out


def germ_value(coeffs: dict, z) -> np.ndarray:
    """sum_t coeff_t z^t."""
    return sum(m * np.prod(np.power(z, t)) for t, m in coeffs.items())


def conservativity_residual(blocks: dict) -> float:
    """Largest deviation from sum_k G_k*G_k = I, sum_k G_k G_k* = I and
    G_j*G_k = G_j G_k* = 0 (j != k), with G_k = [[A_k, B_k], [C_k, D_k]]."""
    gs = [np.block([[a, b], [c, d]])
          for a, b, c, d in zip(blocks["a"], blocks["b"], blocks["c"], blocks["d"])]
    worst = max(np.linalg.norm(sum(g.conj().T @ g for g in gs) - np.eye(gs[0].shape[1]), 2),
                np.linalg.norm(sum(g @ g.conj().T for g in gs) - np.eye(gs[0].shape[0]), 2))
    for j, gj in enumerate(gs):
        for k, gk in enumerate(gs):
            if j != k:
                worst = max(worst, np.linalg.norm(gj.conj().T @ gk, 2),
                            np.linalg.norm(gj @ gk.conj().T, 2))
    return float(worst)


def polydisk_points(rng: np.random.Generator, n_params: int, count: int,
                    radius: float) -> np.ndarray:
    """Random points with |z_k| <= radius."""
    moduli = radius * rng.uniform(0.1, 1.0, size=(count, n_params))
    return moduli * np.exp(2j * np.pi * rng.uniform(size=(count, n_params)))
