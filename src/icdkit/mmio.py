"""Matrix Market coordinate-format reader and writer.

The reader reports parse errors with the offending line number, sums
duplicate entries, expands symmetric storage, and can transpose on read
(block-angular collections often store the transpose).
"""

from __future__ import annotations

import numpy as np
import scipy.io
import scipy.sparse as sp

__all__ = ["read_matrix_market", "write_matrix_market"]


class MatrixMarketError(ValueError):
    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.line_no = line_no


def read_matrix_market(path, transpose: bool = False) -> sp.csc_matrix:
    with open(path, "r") as fh:
        lines = fh.readlines()
    if not lines:
        raise MatrixMarketError(path, 1, "empty file")
    header = lines[0].strip().split()
    if (
        len(header) != 5
        or header[0] != "%%MatrixMarket"
        or header[1].lower() != "matrix"
        or header[2].lower() != "coordinate"
    ):
        raise MatrixMarketError(path, 1, f"unsupported header {lines[0].strip()!r}")
    field, symmetry = header[3].lower(), header[4].lower()
    if field not in ("real", "integer"):
        raise MatrixMarketError(path, 1, f"unsupported field {field!r}")
    if symmetry not in ("general", "symmetric"):
        raise MatrixMarketError(path, 1, f"unsupported symmetry {symmetry!r}")

    idx = 1
    while idx < len(lines) and (lines[idx].startswith("%") or not lines[idx].strip()):
        idx += 1
    if idx == len(lines):
        raise MatrixMarketError(path, idx, "missing size line")
    parts = lines[idx].split()
    if len(parts) != 3:
        raise MatrixMarketError(path, idx + 1, f"malformed size line {lines[idx].strip()!r}")
    try:
        M, N, nnz = (int(p) for p in parts)
    except ValueError:
        raise MatrixMarketError(path, idx + 1, "size line must contain three integers")

    rows, cols, vals = [], [], []
    count = 0
    for line_no in range(idx + 1, len(lines)):
        text = lines[line_no].strip()
        if not text or text.startswith("%"):
            continue
        parts = text.split()
        if len(parts) != 3:
            raise MatrixMarketError(path, line_no + 1, f"malformed entry {text!r}")
        try:
            i, j, v = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise MatrixMarketError(path, line_no + 1, f"malformed entry {text!r}")
        if not (1 <= i <= M and 1 <= j <= N):
            raise MatrixMarketError(
                path, line_no + 1, f"index ({i}, {j}) out of range for {M}x{N}"
            )
        rows.append(i - 1)
        cols.append(j - 1)
        vals.append(v)
        if symmetry == "symmetric" and i != j:
            rows.append(j - 1)
            cols.append(i - 1)
            vals.append(v)
        count += 1
    if count != nnz:
        raise MatrixMarketError(path, len(lines), f"expected {nnz} entries, found {count}")
    mat = sp.coo_matrix((vals, (rows, cols)), shape=(M, N)).tocsc()  # duplicates summed
    return mat.T.tocsc() if transpose else mat


def write_matrix_market(path, mat, comment: str | None = None):
    """Write in coordinate real general format, duplicates summed first."""
    coo = sp.coo_matrix(mat, dtype=float)
    coo.sum_duplicates()
    # an open binary file, since scipy appends ".mtx" to a path without it
    with open(path, "wb") as fh:
        scipy.io.mmwrite(fh, coo, comment=comment, field="real", symmetry="general")


def write_vector_market(path, v, comment: str | None = None):
    write_matrix_market(path, np.asarray(v, dtype=float).reshape(-1, 1), comment)


def read_vector_market(path) -> np.ndarray:
    mat = read_matrix_market(path)
    if mat.shape[1] != 1:
        raise ValueError(f"{path}: expected a column vector, got shape {mat.shape}")
    return np.asarray(mat.todense()).ravel()
