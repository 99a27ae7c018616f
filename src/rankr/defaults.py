"""Default numerical tolerances.

The underlying theory is exact; these constants name gaps between its
statements and floating point: determinant and linear-algebra slack, the
wall, rank, transversality and flag-equality cutoffs, eigenvalue
clustering, the eigenbasis condition cap, ping-pong separation and the
direction grid.  Functions read them directly; only the clustering level
jordan_decompose hands kernel.eig_real is an argument.  Not every
tolerance is here: kernel.ID_TOL (the identity test),
isometries._CLUSTER_TOLS (the clustering ladder) and
limitset._LOG_OVERFLOW (the overflow flag) live beside the code that
defines them.
"""

# |det - 1| allowed for matrices treated as elements of SL(n,R).
EPS_DET = 1e-9

# Frobenius-norm tolerance for linear-algebra identities (orthogonality,
# decomposition residuals, projector equations).
EPS_LIN = 1e-10

# Relative tolerance deciding whether a chamber vector sits on a wall.
EPS_WALL = 1e-9

# Relative singular-value cutoff for rank decisions (Bruhat cells).
EPS_RANK = 1e-8

# Minimal sine-product margin for declaring two flags transverse.
EPS_TRANSV = 1e-6

# Flag distance up to which two flags count as equal.
EPS_FLAG = 1e-8

# Relative tolerance for clustering eigenvalues into Jordan blocks.
EPS_CLUSTER = 1e-6

# Condition-number cap for generalized eigenbases.
COND_CAP = 1e8

# Separation slack required between ping-pong neighbourhoods.
DELTA_SEP = 1e-9

# Grid snap used when deduplicating direction samples.
DIR_SNAP = 1e-9
