"""Dense linear algebra over an arbitrary scalar field.

Matrices are plain lists of rows.  In exact modes elimination uses the
first nonzero pivot; in float mode it uses partial pivoting by magnitude.
Eliminations divide through `field.div` and store every entry they
compute through `field.coerce`, so exact results stay in normal form.
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


def rref(field, A):
    """Reduced row echelon form.  Returns (R, pivot_columns)."""
    coerce = field.coerce
    R = [[coerce(x) for x in row] for row in A]
    m = len(R)
    n = len(R[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        if r >= m:
            break
        best = _pivot_row(field, R, c, r)
        if best is None:
            continue
        R[r], R[best] = R[best], R[r]
        piv = R[r][c]
        R[r] = [field.div(x, piv) for x in R[r]]
        for i in range(m):
            if i != r and not field.is_zero(R[i][c]):
                f = R[i][c]
                R[i] = [coerce(x - f * y) for x, y in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
    return R, pivots


def rank(field, A):
    if not A or not A[0]:
        return 0
    return len(rref(field, A)[1])


def kernel_basis(field, A, n=None):
    """Basis of the null space of A (vectors of length n = #columns)."""
    if n is None:
        n = len(A[0]) if A else 0
    if not A or n == 0:
        return [[field.one if i == j else field.zero for i in range(n)] for j in range(n)]
    R, pivots = rref(field, A)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [field.zero] * n
        v[fc] = field.one
        for r, pc in enumerate(pivots):
            v[pc] = -R[r][fc]
        basis.append(v)
    return basis


def solve(field, A, b):
    """One solution x of A x = b, or None when inconsistent."""
    m = len(A)
    n = len(A[0]) if m else 0
    aug = [list(row) + [bv] for row, bv in zip(A, b)]
    R, pivots = rref(field, aug)
    if n in pivots:
        return None
    x = [field.zero] * n
    for r, pc in enumerate(pivots):
        x[pc] = R[r][n]
    return x


def solve_matrix(field, A, B):
    """X with A X = B (column by column), or None."""
    cols = transpose(B)
    xs = []
    for c in cols:
        x = solve(field, A, c)
        if x is None:
            return None
        xs.append(x)
    return transpose(xs) if xs else [[] for _ in range(len(A[0]) if A else 0)]


def inverse(field, A):
    n = len(A)
    aug = [list(row) + list(idrow) for row, idrow in zip(A, identity(field, n))]
    R, pivots = rref(field, aug)
    if pivots != list(range(n)):
        raise ValueError("matrix not invertible")
    return [row[n:] for row in R]


def det(field, A):
    n = len(A)
    if n == 0:
        return field.one
    coerce = field.coerce
    M = [[coerce(x) for x in row] for row in A]
    sign = field.one
    d = field.one
    for c in range(n):
        best = _pivot_row(field, M, c, c)
        if best is None:
            return field.zero
        if best != c:
            M[c], M[best] = M[best], M[c]
            sign = -sign
        piv = M[c][c]
        d = d * piv
        for i in range(c + 1, n):
            if not field.is_zero(M[i][c]):
                f = field.div(M[i][c], piv)
                M[i] = [coerce(x - f * y) for x, y in zip(M[i], M[c])]
    return coerce(sign * d)


def column_space_pivots(field, A):
    """Indices of a maximal independent set of columns."""
    return rref(field, A)[1]


def complement_pivots(field, cols, m):
    """Extend the span of `cols` (length-m vectors) to all of k^m by
    standard basis vectors; returns the indices of the chosen e_i."""
    chosen = []
    cur = list(cols)
    for i in range(m):
        e = [field.zero] * m
        e[i] = field.one
        trial = cur + [e]
        if rank(field, trial) > rank(field, cur):
            cur = trial
            chosen.append(i)
        if len(cur) == m:
            if rank(field, cur) == m:
                break
    return chosen
