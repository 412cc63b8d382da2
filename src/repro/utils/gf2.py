"""Linear algebra over GF(2), with a bit-packed fast path.

All matrices are ``numpy`` arrays of dtype ``uint8`` whose entries are 0/1.
Rows are vectors; a matrix with shape ``(m, n)`` holds ``m`` vectors of
length ``n``.  These routines back the stabilizer-code analysis in
:mod:`repro.codes` (rank counting, logical-operator extraction, membership
tests for stabilizer groups).

Elimination-heavy entry points (:func:`gf2_gaussian_elimination`,
:func:`gf2_row_reduce`, :func:`gf2_rank`) transparently switch to a
word-packed backend once a matrix is at least :data:`PACKED_MIN_COLS`
columns wide: rows are packed 64 bits per ``np.uint64`` word
(``np.packbits`` little-endian layout), so each row XOR touches ``n/64``
words instead of ``n`` bytes.  Pivot selection and elimination order are
identical to the dense loop, hence so are the outputs — pinned by tests
that compare both backends on random matrices.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

__all__ = [
    "gf2_gaussian_elimination",
    "gf2_rank",
    "gf2_nullspace",
    "gf2_solve",
    "gf2_in_rowspace",
    "gf2_span_contains",
    "gf2_row_reduce",
    "gf2_independent_rows",
    "gf2_pack",
    "gf2_pack_rows",
    "gf2_unpack",
    "gf2_xor_csr",
    "PackedBits",
]

#: Matrices at least this many columns wide use the packed backend.
PACKED_MIN_COLS = 256


def _as_gf2(matrix: np.ndarray) -> np.ndarray:
    arr = np.asarray(matrix, dtype=np.uint8) % 2
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    return arr


def gf2_pack(matrix: np.ndarray) -> np.ndarray:
    """Pack 0/1 rows into little-endian ``uint64`` words (64 bits each)."""
    return _pack_words(_as_gf2(matrix))


def gf2_pack_rows(matrix: np.ndarray) -> np.ndarray:
    """Pack rows into ``uint64`` words, any nonzero entry a set bit.

    Unlike :func:`gf2_pack` there is no mod-2 canonicalisation: an
    entry contributes a set bit iff it is nonzero (``np.packbits``
    boolean semantics).  That is the convention syndrome rows use — a
    detector fired iff its byte is nonzero — so packing commutes with
    defect extraction and the packed words are a faithful dedup key
    for ``decode_batch``.
    """
    a = np.asarray(matrix, dtype=np.uint8)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    return _pack_words(a)


def _pack_words(a: np.ndarray) -> np.ndarray:
    packed_bytes = np.packbits(a, axis=1, bitorder="little")
    pad = (-packed_bytes.shape[1]) % 8
    if pad:
        packed_bytes = np.pad(packed_bytes, ((0, 0), (0, pad)))
    return np.ascontiguousarray(packed_bytes).view(np.uint64)


def gf2_unpack(packed: np.ndarray, num_cols: int) -> np.ndarray:
    """Inverse of :func:`gf2_pack` (truncated back to ``num_cols``)."""
    as_bytes = np.ascontiguousarray(packed).view(np.uint8)
    return np.unpackbits(as_bytes, axis=1, bitorder="little")[:, :num_cols]


@dataclass(frozen=True)
class PackedBits:
    """A ``(num_rows, num_bits)`` bit matrix packed along axis 1.

    ``words`` has shape ``(num_rows, ceil(num_bits / 64))`` and dtype
    ``uint64`` in the :func:`gf2_pack` little-endian layout; bits past
    ``num_bits`` in the last word are zero.  This is the wire format of
    the packed sampler→decoder flow: the frame engine emits detector
    samples as one row per *detector* with one bit per *shot*, and
    ``Decoder.decode_batch`` consumes that object directly — per-shot
    syndrome rows only ever materialise bit-packed (via
    :meth:`transpose`), never as a ``(shots, detectors)`` uint8 array.
    """

    words: np.ndarray
    num_bits: int

    @property
    def num_rows(self) -> int:
        return int(self.words.shape[0])

    @classmethod
    def pack(cls, matrix: np.ndarray) -> "PackedBits":
        """Pack a 0/1 ``(rows, bits)`` array (rows stay rows)."""
        a = _as_gf2(matrix)
        return cls(gf2_pack(a), a.shape[1])

    def unpack(self) -> np.ndarray:
        """Back to a ``(num_rows, num_bits)`` uint8 array."""
        if self.num_rows == 0 or self.num_bits == 0:
            return np.zeros((self.num_rows, self.num_bits), dtype=np.uint8)
        return gf2_unpack(self.words, self.num_bits)

    def transpose(self, block: int = 4096) -> "PackedBits":
        """The packed transpose, built in bounded ``block``-bit slices.

        Word-aligned column blocks are unpacked to ``(rows, block)``
        uint8 and re-packed row-major, so peak intermediate memory is
        ``num_rows × block`` bytes regardless of ``num_bits``.
        """
        block = max(64, (block // 64) * 64)
        out = np.zeros(
            (self.num_bits, (self.num_rows + 63) // 64), dtype=np.uint64
        )
        if self.num_rows == 0:
            return PackedBits(out, self.num_rows)
        for start in range(0, self.num_bits, block):
            stop = min(start + block, self.num_bits)
            bits = gf2_unpack(
                self.words[:, start // 64 : (stop + 63) // 64], stop - start
            )
            out[start:stop] = gf2_pack(bits.T)
        return PackedBits(out, self.num_rows)

    def transposed(self) -> "PackedBits":
        """:meth:`transpose`, memoised on the instance.

        Bitplanes on the sampler→decoder wire are write-once, so the
        block transpose is computed at most once per object no matter
        how many times it is decoded (benchmark reps and throughput
        loops re-decode one plane; only the first call pays for the
        transpose).
        """
        cached: PackedBits | None = self.__dict__.get("_transposed")
        if cached is None:
            cached = self.transpose()
            # Frozen dataclass: route around the frozen __setattr__ for
            # the private memo slot (not a field, so it stays out of
            # __eq__ and __repr__).
            object.__setattr__(self, "_transposed", cached)
        return cached

    def column_parity(self) -> np.ndarray:
        """XOR over rows, per bit column: a ``(num_bits,)`` uint8 vector."""
        if self.num_rows == 0:
            return np.zeros(self.num_bits, dtype=np.uint8)
        folded = np.bitwise_xor.reduce(self.words, axis=0, keepdims=True)
        return gf2_unpack(folded, self.num_bits)[0]


def gf2_xor_csr(
    packed: np.ndarray, indices: np.ndarray, offsets: np.ndarray
) -> np.ndarray:
    """XOR-reduce groups of packed rows: a GF(2) sparse-matrix product.

    ``indices``/``offsets`` describe a CSR matrix ``S`` over GF(2) (row
    ``i`` selects ``indices[offsets[i]:offsets[i+1]]``); the result is
    ``S @ packed`` on bit-packed words, i.e. row ``i`` is the XOR of the
    selected rows of ``packed``.  Every group must be non-empty (point
    empty groups at a dedicated all-zero row; ``np.bitwise_xor.reduceat``
    cannot represent an empty reduction).
    """
    n_groups = len(offsets) - 1
    if n_groups <= 0 or packed.shape[0] == 0:
        return np.zeros((max(n_groups, 0), packed.shape[1]), dtype=packed.dtype)
    return np.bitwise_xor.reduceat(packed[indices], offsets[:-1], axis=0)


def _packed_elimination(
    a: np.ndarray, *, reduce: bool
) -> tuple[np.ndarray, list[int]]:
    """Forward (or full Gauss–Jordan) elimination on packed words.

    Mirrors the dense loop exactly: first row at or below the cursor
    with the pivot bit set is swapped up, then XORed into every row
    below (and above, when ``reduce``) that has the bit set.
    """
    rows, cols = a.shape
    packed = gf2_pack(a)
    pivot_cols: list[int] = []
    r = 0
    one = np.uint64(1)
    for c in range(cols):
        if r >= rows:
            break
        word, bit = divmod(c, 64)
        mask = one << np.uint64(bit)
        column_bits = (packed[r:, word] & mask) != 0
        hit = int(np.argmax(column_bits))
        if not column_bits[hit]:
            continue
        pivot = r + hit
        if pivot != r:
            packed[[r, pivot]] = packed[[pivot, r]]
        below = np.nonzero((packed[r + 1 :, word] & mask) != 0)[0]
        if below.size:
            packed[below + r + 1] ^= packed[r]
        if reduce:
            above = np.nonzero((packed[:r, word] & mask) != 0)[0]
            if above.size:
                packed[above] ^= packed[r]
        pivot_cols.append(c)
        r += 1
    return gf2_unpack(packed, cols), pivot_cols


def gf2_gaussian_elimination(matrix: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Row-echelon form of ``matrix`` over GF(2).

    Returns ``(echelon, pivot_columns)``.  The input is not modified.
    Wide matrices are eliminated on bit-packed words (same output).
    """
    a = _as_gf2(matrix)
    rows, cols = a.shape
    if cols >= PACKED_MIN_COLS:
        return _packed_elimination(a, reduce=False)
    a = a.copy()
    pivot_cols: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        pivot = None
        for i in range(r, rows):
            if a[i, c]:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != r:
            a[[r, pivot]] = a[[pivot, r]]
        below = np.nonzero(a[r + 1 :, c])[0]
        if below.size:
            a[below + r + 1] ^= a[r]
        pivot_cols.append(c)
        r += 1
    return a, pivot_cols


def gf2_row_reduce(matrix: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form (RREF) of ``matrix`` over GF(2)."""
    a = _as_gf2(matrix)
    if a.shape[1] >= PACKED_MIN_COLS:
        return _packed_elimination(a, reduce=True)
    a, pivot_cols = gf2_gaussian_elimination(a)
    for r, c in enumerate(pivot_cols):
        above = np.nonzero(a[:r, c])[0]
        if above.size:
            a[above] ^= a[r]
    return a, pivot_cols


def gf2_rank(matrix: np.ndarray) -> int:
    """Rank of ``matrix`` over GF(2)."""
    if np.asarray(matrix).size == 0:
        return 0
    _, pivots = gf2_gaussian_elimination(matrix)
    return len(pivots)


def gf2_nullspace(matrix: np.ndarray) -> np.ndarray:
    """Basis for the right nullspace ``{v : M v = 0}`` over GF(2).

    Returns a matrix whose rows are basis vectors (possibly zero rows
    omitted; an empty nullspace yields shape ``(0, n)``).
    """
    a = _as_gf2(matrix)
    rows, cols = a.shape
    rref, pivots = gf2_row_reduce(a)
    pivot_set = set(pivots)
    free_cols = [c for c in range(cols) if c not in pivot_set]
    basis = np.zeros((len(free_cols), cols), dtype=np.uint8)
    for i, free in enumerate(free_cols):
        basis[i, free] = 1
        for r, p in enumerate(pivots):
            if rref[r, free]:
                basis[i, p] = 1
    return basis


def gf2_solve(matrix: np.ndarray, target: np.ndarray) -> np.ndarray | None:
    """Solve ``x @ matrix == target`` over GF(2) for a row-combination ``x``.

    ``matrix`` has shape ``(m, n)``; ``target`` has length ``n``.  Returns a
    length-``m`` 0/1 vector selecting rows whose XOR equals ``target``, or
    ``None`` when ``target`` is not in the rowspace.
    """
    a = _as_gf2(matrix)
    t = np.asarray(target, dtype=np.uint8).reshape(-1) % 2
    m, n = a.shape
    if t.shape[0] != n:
        raise ValueError(f"target length {t.shape[0]} != matrix columns {n}")
    # Augment with an identity to track the row combination.
    aug = np.concatenate([a, np.eye(m, dtype=np.uint8)], axis=1)
    work = np.concatenate([t, np.zeros(m, dtype=np.uint8)])
    r = 0
    for c in range(n):
        pivot = None
        for i in range(r, m):
            if aug[i, c]:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != r:
            aug[[r, pivot]] = aug[[pivot, r]]
        for i in range(m):
            if i != r and aug[i, c]:
                aug[i] ^= aug[r]
        if work[c]:
            work ^= aug[r]
        r += 1
    if work[:n].any():
        return None
    return work[n:]


def gf2_in_rowspace(matrix: np.ndarray, vector: np.ndarray) -> bool:
    """Whether ``vector`` lies in the GF(2) rowspace of ``matrix``."""
    a = _as_gf2(matrix)
    if a.size == 0:
        return not np.asarray(vector, dtype=np.uint8).any()
    return gf2_solve(a, vector) is not None


def gf2_span_contains(rows: Iterable[int], vectors: Iterable[int]) -> list[bool]:
    """Whether each vector lies in the GF(2) span of ``rows``.

    Rows and vectors are Python-int bitsets (bit ``i`` is column ``i``).
    One elimination serves every vector: the rows are reduced into a
    basis keyed by leading bit, and a vector is in the span iff reducing
    it by that basis leaves zero.
    """
    basis: dict[int, int] = {}
    for row in rows:
        while row:
            lead = row.bit_length() - 1
            pivot = basis.get(lead)
            if pivot is None:
                basis[lead] = row
                break
            row ^= pivot
    contained = []
    for vector in vectors:
        while vector:
            pivot = basis.get(vector.bit_length() - 1)
            if pivot is None:
                break
            vector ^= pivot
        contained.append(not vector)
    return contained


def gf2_independent_rows(matrix: np.ndarray) -> list[int]:
    """Indices of a maximal linearly-independent subset of rows.

    Greedy from the top: a row is kept iff it is independent of the rows
    kept before it, so the result is stable for callers that put preferred
    generators first.
    """
    a = _as_gf2(matrix)
    kept: list[int] = []
    basis: list[np.ndarray] = []
    for i in range(a.shape[0]):
        candidate = a[i].copy()
        for b in basis:
            lead = int(np.argmax(b))
            if candidate[lead]:
                candidate ^= b
        if candidate.any():
            # Re-reduce into echelon order for subsequent eliminations.
            basis.append(candidate)
            basis.sort(key=lambda row: int(np.argmax(row)))
            kept.append(i)
    return kept
