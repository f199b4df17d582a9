"""reclab: exact recurrence laboratory.

Distance-graph colorability certificates, frequency-set arithmetic over
exact rationals and quadratic surds, and finite-horizon experiments on
rotations and indicator subshifts.
"""

from .birkhoff import (
    Certificate,
    PeriodicColoring,
    PeriodicWitness,
    SearchLimits,
    Status,
    Verdict,
    WindowUnsat,
    certificate_from_json,
    certificate_to_json,
    check_r_birkhoff,
    chromatic_number_window,
    greedy_coloring,
    minimal_r_birkhoff_subset,
    stably_r_birkhoff_probe,
    verify_certificate,
)
from .bohr import (
    BohrSpec,
    ContinuedFraction,
    CyclicObstruction,
    ThreeDistanceResult,
    WitnessInterval,
    bohr_enumerate,
    bohr_membership,
    bohr_separation_search,
    continued_fraction,
    cyclic_obstruction,
    lacunary_witness,
    revalidate_witness,
    three_distance,
    three_distance_parts,
)
from .dynamics import (
    BallSpec,
    CylinderSpec,
    MovingQuery,
    NuuReport,
    RotationSystem,
    SubshiftSystem,
    eta_dense_constant,
    find_l_recurrent,
    moving_recurrence_experiment,
    one_cylinder,
    phi_l,
    psi_moving,
    return_times_point,
    return_times_set,
    subshift_from_indicator,
    uniform_rigidity_scan,
    verify_nuu,
)
from .errors import (
    EmptyInput,
    InvalidArity,
    MalformedCertificate,
    NoSuchM,
    RecLabError,
    TooFewElements,
    UncertainAtPrecision,
    WindowInadequate,
)
from .exactreal import (
    Approx,
    Surd,
    TorusPoint,
    as_real,
    golden_rotation,
    parse_real,
    sqrt2_rotation,
    torus_norm1,
)
from .intsets import (
    GapProfile,
    IntSet,
    Window,
    difference_set,
    gen_k_times_nr,
    gen_l_r,
    gen_polynomial,
    is_thick_window,
    l_r_layer,
    lacunarity_ratios,
    syndetic_gap,
)

__version__ = "0.1.0"
