"""Dense views of a SparseMatrix and of a bar cochain, and the literal bar
boundary, used by the tests as oracles."""

from typing import Optional

from cohomolab.bar_cohomology import Cochain, cell_index, n_cells
from cohomolab.exact_linalg import SparseMatrix, rank_mod_p
from cohomolab.groups import FiniteGroup


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


def index_cell(G: FiniteGroup, n: int, idx: int) -> tuple:
    """The n-cell at index idx, the inverse of cell_index."""
    m = G.order - 1
    out = []
    for _ in range(n):
        out.append(idx % m + 1)
        idx //= m
    return tuple(reversed(out))


def bar_boundary_matrix(G: FiniteGroup, n: int,
                        p: Optional[int] = None) -> SparseMatrix:
    """Boundary C_n -> C_(n-1) of the normalized bar complex (the literal
    route; kept independent of the resolution engine)."""
    mul = G.mul
    entries = []
    for j in range(n_cells(G, n)):
        key = index_cell(G, n, j)
        acc: dict[tuple, int] = {}

        def put(k: tuple, v: int):
            if 0 not in k:
                acc[k] = acc.get(k, 0) + v

        put(key[1:], 1)
        for i in range(1, n):
            merged = key[:i - 1] + (mul[key[i - 1]][key[i]],) + key[i + 1:]
            put(merged, -1 if i % 2 else 1)
        put(key[:-1], -1 if n % 2 else 1)
        for k, v in acc.items():
            if v:
                entries.append((cell_index(G, k), j, v))
    return SparseMatrix(n_cells(G, n - 1), n_cells(G, n), entries, p)


def bar_homology_dims_mod_p(G: FiniteGroup, p: int,
                            max_degree: int) -> list[int]:
    """dim H_n(G;F_p) for n = 0..max_degree straight from bar boundary
    ranks: the independent cross-check for the resolution route."""
    ranks = [0]
    for n in range(1, max_degree + 2):
        ranks.append(rank_mod_p(bar_boundary_matrix(G, n, p)))
    return [n_cells(G, n) - ranks[n] - ranks[n + 1]
            for n in range(max_degree + 1)]


def cofactor_det(A, p: int) -> int:
    """Determinant mod p by cofactor expansion along the first row (1 for
    the empty matrix), k! terms: the oracle of exact_linalg._mat_det."""
    if len(A) < 2:
        return A[0][0] % p if A else 1
    return sum((-1) ** j * v * cofactor_det([r[:j] + r[j + 1:] for r in A[1:]],
                                            p)
               for j, v in enumerate(A[0])) % p
