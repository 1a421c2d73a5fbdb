"""Matrix Market coordinate-format reader and writer, through scipy.io.

The reader accepts real or integer, general or symmetric coordinate
files. It sums duplicate entries, expands symmetric storage, and can
transpose on read (block-angular collections often store the
transpose). A file it cannot read raises ValueError naming the file and,
for a parse error, scipy's line number; so does an entry line with more
than its three tokens, which scipy would read and silently truncate.
"""

from __future__ import annotations

import bz2
import gzip

import numpy as np
import scipy.io
import scipy.sparse as sp

__all__ = ["read_matrix_market", "write_matrix_market"]


def read_matrix_market(path, transpose: bool = False) -> sp.csc_matrix:
    try:
        _, _, _, fmt, field, symmetry = scipy.io.mminfo(path)
        if (
            fmt != "coordinate"
            or field not in ("real", "integer")
            or symmetry not in ("general", "symmetric")
        ):
            raise ValueError(f"unsupported matrix type: {fmt} {field} {symmetry}")
        mat = sp.csc_matrix(scipy.io.mmread(path), dtype=float)  # duplicates summed
        _check_entry_tokens(path)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    return mat.T.tocsc() if transpose else mat


def _check_entry_tokens(path):
    """Reject entry lines with extra tokens, which mmread reads and drops:
    a coordinate entry of a real or integer file is 'row col value'."""
    name = str(path)
    opener = gzip.open if name.endswith(".gz") else bz2.open if name.endswith(".bz2") else open
    with opener(path, "rt") as fh:
        lines = (line.split() for line in fh if not line.startswith("%"))
        size = next(tokens for tokens in lines if tokens)  # rows cols entries
        found = sum(len(tokens) for tokens in lines)
    expected = 3 * int(size[2])
    if found != expected:
        raise ValueError(
            f"expected {expected} entry tokens (row col value per entry), found {found}"
        )


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
