"""The greedy free resolution of Z over ZG, the oracle of the integral
route, which lifts the F_p resolution to Z/p^k G instead; and a
product's table without its factors, the oracle of the tensor route.

Degree by degree, the integer kernel of d_(n-1) (kernel_z, complete over
Z) is covered greedily: a kernel vector outside the lattice spanned by
the translates of the generators so far becomes a generator (its reduced
residue, which keeps entries small), and every kernel vector is then
checked to lie in that lattice, so im d_n = ker d_(n-1).  Over Z rank
additivity would not show that the image is saturated.  H_n(G; Z) comes
from the Smith forms of the induced matrices, each row block of a
generator column summed."""

from cohomolab.exact_linalg import (Echelon, SparseMatrix, composes_to_zero,
                                    kernel_z, smith_normal_form)
from cohomolab.groups import FiniteGroup


def cover_table(G: FiniteGroup) -> FiniteGroup:
    """G's table without its recorded factors, which a product's
    resolution then takes by the cover route: the oracle of the tensor
    route."""
    return FiniteGroup(G.mul, G.generators, G.name)


def _translate(G: FiniteGroup, vec: dict, g: int) -> dict:
    o = G.order
    return {(k // o) * o + G.mul[g][k % o]: v for k, v in vec.items()}


def _module_matrix(G: FiniteGroup, M: SparseMatrix) -> SparseMatrix:
    o = G.order
    A = SparseMatrix(M.n_rows, M.n_cols * o)
    A.cols = {j * o + g: _translate(G, col, g)
              for j, col in M.cols.items() for g in range(o)}
    return A


def zg_resolution(G: FiniteGroup, top: int) -> list[SparseMatrix]:
    """Generator columns of d_1 .. d_top of the greedy ZG resolution."""
    o, diffs, rank = G.order, [], 1
    for n in range(1, top + 1):
        if n == 1:  # the augmentation's kernel, spanned by g - e
            kernel = [{g: 1, 0: -1} for g in range(1, o)]
        else:
            A = _module_matrix(G, diffs[-1])
            kernel = kernel_z(A)
        span, gens = Echelon(), []
        for vec in kernel:
            res = span.reduce(vec)
            if res:
                gens.append(res)
                for g in range(o):
                    span.add(_translate(G, res, g))
        if any(span.reduce(vec) for vec in kernel):
            raise ArithmeticError("kernel cover incomplete")
        M = SparseMatrix(rank * o, len(gens))
        M.cols = dict(enumerate(gens))
        if n > 1 and not composes_to_zero(A, M, M.cols):
            raise ArithmeticError("differentials do not compose to zero")
        diffs.append(M)
        rank = len(gens)
    return diffs


def _induced(G: FiniteGroup, M: SparseMatrix) -> SparseMatrix:
    o = G.order
    dense = [[0] * M.n_cols for _ in range(M.n_rows // o)]
    for j, col in M.cols.items():
        for i, v in col.items():
            dense[i // o][j] += v
    return SparseMatrix.from_dense(dense)


def zg_integral_cohomology(G: FiniteGroup, top: int) -> list:
    """H^n(G; Z) for n = 1 .. top as integral_cohomology reports it, (the
    free rank of H_(n-1), the torsion of H_(n-1)), from one ZG resolution;
    H^1 of a finite group is 0."""
    diffs = zg_resolution(G, top)
    reps = [smith_normal_form(_induced(G, M)) for M in diffs]
    return [(0, ())] + [
        (diffs[n - 2].n_cols - reps[n - 2].rank - reps[n - 1].rank,
         reps[n - 1].torsion) for n in range(2, top + 1)]


def spy_steps(monkeypatch, resolution) -> list:
    """Record each step that a resolution starts, as (step, entries it
    reads): a kernel, a rank_mod_p, a lift, the d o d = 0 check (each
    reading a module matrix) or a cover (reading a kernel basis)."""
    steps = []

    def spy(name, call, size):
        def wrapped(*args, **kwargs):
            steps.append((name, size(*args)))
            return call(*args, **kwargs)
        return wrapped

    def matrix(M, *rest):
        return M.nnz()

    for name, attr in (("kernel", "kernel_mod_p"), ("rank", "rank_mod_p"),
                       ("compose", "composes_to_zero")):
        monkeypatch.setattr(resolution, attr,
                            spy(name, getattr(resolution, attr), matrix))
    res = resolution.FreeResolution
    monkeypatch.setattr(res, "_lift", spy(
        "lift", res._lift, lambda self, n, A, M, solve: A.nnz()))
    for attr in ("_minimal_cover", "_greedy_cover"):
        monkeypatch.setattr(res, attr, spy(
            "cover", getattr(res, attr),
            lambda self, kernel, basis=None: sum(map(len, kernel))))
    return steps
