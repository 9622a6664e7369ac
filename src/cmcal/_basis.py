"""Shared bitstring / basis-index conventions.

One convention everywhere: qubit ``q`` owns character position ``q`` of a
bitstring, so qubit 0 is the leftmost character and ``int(bits, 2)`` is the
basis index of a register string.  Local matrices over a support tuple
``(q0 < q1 < ...)`` index their rows/columns by the support qubits in
ascending order, i.e. the tensor factor of the lowest qubit is the most
significant bit of the local index.
"""

from __future__ import annotations

import numpy as np


def index_to_bits(index: int, width: int) -> str:
    if not 0 <= index < (1 << width):
        raise ValueError(f"index {index} out of range for {width} bits")
    return format(index, f"0{width}b")


def bits_to_index(bits: str) -> int:
    if not bits or any(c not in "01" for c in bits):
        raise ValueError(f"not a bitstring: {bits!r}")
    return int(bits, 2)


def extract_bits(bits: str, support: tuple[int, ...]) -> str:
    """Project a register string onto a support (ascending qubit order)."""
    return "".join(bits[q] for q in support)


def support_mask(support: tuple[int, ...], n: int) -> int:
    mask = 0
    for q in support:
        mask |= 1 << (n - 1 - q)
    return mask


def extract_index(idx: np.ndarray, support: tuple[int, ...], n: int) -> np.ndarray:
    """Vectorized projection of register indices onto local support indices."""
    p = len(support)
    out = np.zeros_like(idx)
    for pos, q in enumerate(support):
        out |= ((idx >> np.uint64(n - 1 - q)) & np.uint64(1)) << np.uint64(p - 1 - pos)
    return out


def scatter_index(local: int, support: tuple[int, ...], n: int) -> int:
    """Place a local support index into an otherwise-zero register index."""
    p = len(support)
    out = 0
    for pos, q in enumerate(support):
        if (local >> (p - 1 - pos)) & 1:
            out |= 1 << (n - 1 - q)
    return out
