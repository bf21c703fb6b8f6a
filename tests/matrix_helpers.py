"""Dense views of a SparseMatrix and of a bar cochain, used by the tests
as oracles."""

from cohomolab.bar_cohomology import Cochain, cell_index, n_cells
from cohomolab.exact_linalg import SparseMatrix


def transpose(M: SparseMatrix) -> SparseMatrix:
    return SparseMatrix(M.n_cols, M.n_rows,
                        [(j, i, v) for i, j, v in M.entries()], M.p)


def to_dense(M: SparseMatrix) -> list[list[int]]:
    rows = [[0] * M.n_cols for _ in range(M.n_rows)]
    for i, j, v in M.entries():
        rows[i][j] = v
    return rows


def mul_vector(M: SparseMatrix, x: list[int]) -> list[int]:
    """M x, reduced mod M.p when M is over F_p."""
    if len(x) != M.n_cols:
        raise ValueError("dimension mismatch")
    out = [0] * M.n_rows
    for j, col in M.cols.items():
        for i, v in col.items():
            out[i] += v * x[j]
    return out if M.p is None else [v % M.p for v in out]


def cochain_vector(c: Cochain) -> list[int]:
    """c as a dense vector, cell j at cell_index (coboundary_matrix's
    column order)."""
    vec = [0] * n_cells(c.group, c.degree)
    for key, v in c.data.items():
        vec[cell_index(c.group, key)] = v
    return vec
