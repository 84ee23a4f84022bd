"""Single source of truth for tolerances, radii and sample counts.

Every module default and every CLI flag default reads from this table, so
reports stay reproducible and the CLI cannot drift from the library.
"""

# Feasibility of hand-entered reference points (absolute).
FEAS_TOL = 1e-9

# Active-set detection |phi_i| <= TOL_ACT at evaluated points.
TOL_ACT = 1e-7

# Cone membership / normal-vector checks.
TOL_CONE = 1e-9

# Numerical rank: a singular value counts when it exceeds
# max(rows, cols) * RANK_TOL * sigma_max.  One cutoff for every float rank
# and null-space decision (LICQ, CRCQ, multiplier bases, cones, the
# determinant probe), so two checks never disagree on the same matrix.
RANK_TOL = 1e-10

# Constraint-qualification margins (MFCQ t*, strict complementarity).
TOL_CQ = 1e-8

# Positive-definiteness threshold on unit-scaled data; strict inequalities
# of second-order conditions become "> TOL_PD".
TOL_PD = 1e-9

# Graph-sampling radius for neighborhood second-order probes.
ETA = 1e-2

# Sample count for neighborhood second-order probes.
SAMPLES = 500

# CRCQ probe neighborhood radius and sample count.
CRCQ_RADIUS = 1e-2
CRCQ_SAMPLES = 50

# Localization grid radii (canonical / basic parameter) on unit-scaled data.
RHO_V = 0.05
RHO_P = 0.05

# Grid points per axis for the localization table.
GRID_V = 5
GRID_P = 5

# Extra random interior localization nodes.
RANDOM_NODES = 20

# Localization box radius (sup-norm) around the reference decision point.
BOX_RADIUS = 0.2

# Halving attempts when a localization radius admits no single-valued table.
MAX_SHRINK = 6

# Pair-enumeration cap for the stability harness (deterministic subsampling
# beyond this count).
PAIR_CAP = 200_000

# Desk-scale caps.  MAX_CONE_ROWS bounds every 2^k subset walk, all of
# which go through polycone.subsets: active-set guesses of the face sweep,
# cone faces, the (I, J) pairs of the exact uniform test, multiplier
# vertices and CRCQ subfamilies.  MAX_LP_DIM bounds the columns of one LP.
MAX_CONE_ROWS = 12
MAX_LP_DIM = 32

# Default RNG seed.
SEED = 0

# Slack tolerance for the full-stability pair inequality.
TOL_INEQ = 1e-9
