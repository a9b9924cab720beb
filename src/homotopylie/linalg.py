"""Dense linear algebra over an arbitrary scalar field.

Matrices are plain lists of rows.  One Gauss-Jordan elimination, `rref`,
answers every rank, kernel, solve, inverse, complement and determinant
question, and each of them eliminates its matrix once: a solve or an
inverse eliminates [A | B], a complement [cols | I], and a determinant
reads the pivots and row swaps of A's own elimination.  `rref_kernel`
reads a null space off an elimination, so a caller that needs both the
pivots and the kernel of one matrix eliminates it once.  In exact modes
the pivot is the first nonzero entry; in float mode it is the largest
entry above the tolerance.  The elimination divides through `field.div`
and stores every entry it computes through `field.coerce`, so exact
results stay in normal form.
"""

from __future__ import annotations


def zeros(field, m, n):
    return [[field.zero for _ in range(n)] for _ in range(m)]


def identity(field, n):
    M = zeros(field, n, n)
    for i in range(n):
        M[i][i] = field.one
    return M


def transpose(M):
    if not M:
        return []
    return [list(row) for row in zip(*M)]


def mat_mul(field, A, B):
    if not A or not B:
        return []
    m, k, n = len(A), len(B), len(B[0])
    C = zeros(field, m, n)
    for i in range(m):
        Ai = A[i]
        Ci = C[i]
        for t in range(k):
            a = Ai[t]
            if field.is_zero(a):
                continue
            Bt = B[t]
            for j in range(n):
                Ci[j] = Ci[j] + a * Bt[j]
    return C


def mat_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_scale(c, A):
    return [[c * a for a in row] for row in A]


def mat_vec(field, A, v):
    out = []
    for row in A:
        s = field.zero
        for a, x in zip(row, v):
            if not field.is_zero(a):
                s = s + a * x
        out.append(s)
    return out


def is_zero_matrix(field, A):
    return all(field.is_zero(a) for row in A for a in row)


def _pivot_row(field, M, c, start):
    """The row (from `start` on) to pivot on in column c, or None: the
    first nonzero entry in exact modes, the largest entry above the
    tolerance in float mode."""
    if field.exact:
        for i in range(start, len(M)):
            if not field.is_zero(M[i][c]):
                return i
        return None
    mag, best = field.tol, None
    for i in range(start, len(M)):
        a = field.mag(M[i][c])
        if a > mag:
            mag, best = a, i
    return best


def _eliminate(field, A):
    """Gauss-Jordan elimination of A: (R, pivot_columns, d), where d is
    the product of the pivots and of -1 per row swap, so d = det(A) when
    A is square and every column has a pivot."""
    coerce = field.coerce
    R = [[coerce(x) for x in row] for row in A]
    m = len(R)
    n = len(R[0]) if m else 0
    pivots = []
    d = field.one
    r = 0
    for c in range(n):
        if r >= m:
            break
        best = _pivot_row(field, R, c, r)
        if best is None:
            continue
        if best != r:
            R[r], R[best] = R[best], R[r]
            d = -d
        piv = R[r][c]
        d = d * piv
        R[r] = [field.div(x, piv) for x in R[r]]
        for i in range(m):
            if i != r and not field.is_zero(R[i][c]):
                f = R[i][c]
                R[i] = [coerce(x - f * y) for x, y in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
    return R, pivots, d


def rref(field, A):
    """Reduced row echelon form.  Returns (R, pivot_columns)."""
    R, pivots, _ = _eliminate(field, A)
    return R, pivots


def rank(field, A):
    if not A or not A[0]:
        return 0
    return len(rref(field, A)[1])


def cone_cohomology(field, M1, M2, n0):
    """Dimensions (H^0, H^1, H^2) of the cohomology of a three-term
    complex k^n0 --M1--> k^len(M1) --M2--> k^len(M2), from its two ranks."""
    rk1, rk2 = rank(field, M1), rank(field, M2)
    return n0 - rk1, len(M1) - rk1 - rk2, len(M2) - rk2


def kernel_basis(field, A, n=None):
    """Basis of the null space of A (vectors of length n = #columns)."""
    if n is None:
        n = len(A[0]) if A else 0
    R, pivots = rref(field, A)
    return rref_kernel(field, R, pivots, n)


def rref_kernel(field, R, pivots, n):
    """The null space basis read off the reduced row echelon form R of a
    matrix with n columns and these pivot columns: one vector per free
    column."""
    basis = []
    for fc in range(n):
        if fc in pivots:
            continue
        v = [field.zero] * n
        v[fc] = field.one
        for r, pc in enumerate(pivots):
            v[pc] = -R[r][fc]
        basis.append(v)
    return basis


def solve(field, A, b):
    """One solution x of A x = b, or None when inconsistent."""
    X = solve_matrix(field, A, [[bv] for bv in b])
    return None if X is None else [row[0] for row in X]


def solve_matrix(field, A, B):
    """X with A X = B, or None when some column of B is out of reach: one
    elimination of [A | B], free variables set to zero."""
    n = len(A[0]) if A else 0
    k = len(B[0]) if B else 0
    R, pivots = rref(field, [list(a) + list(b) for a, b in zip(A, B)])
    if pivots and pivots[-1] >= n:
        return None
    X = zeros(field, n, k)
    for r, pc in enumerate(pivots):
        X[pc] = R[r][n:]
    return X


def inverse(field, A):
    X = solve_matrix(field, A, identity(field, len(A)))
    if X is None:
        raise ValueError("matrix not invertible")
    return X


def det(field, A):
    _, pivots, d = _eliminate(field, A)
    return field.coerce(d) if len(pivots) == len(A) else field.zero


def column_space_pivots(field, A):
    """Indices of a maximal independent set of columns."""
    return rref(field, A)[1]


def complement_pivots(field, cols, m):
    """Extend the span of `cols` (length-m vectors) to all of k^m by
    standard basis vectors; returns the indices of the chosen e_i: the
    pivots of [cols | I] that lie in I."""
    k = len(cols)
    aug = [[c[i] for c in cols] + e for i, e in enumerate(identity(field, m))]
    return [p - k for p in column_space_pivots(field, aug) if p >= k]
