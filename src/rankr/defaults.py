"""Default numerical tolerances.

The underlying theory is exact; every gap between exact statements and
floating point lives in one of these constants.  Functions read them
directly; only the rank cutoff of kernel.rank_tol and rank_with_band
and the clustering level jordan_decompose hands kernel.eig_real are
arguments.
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
