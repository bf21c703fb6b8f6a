"""Dense views of a SparseMatrix, used by the tests as oracles."""

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
