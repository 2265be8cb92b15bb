"""Binary linear sum-rank-metric codes with 2x2 matrix blocks.

Component codes over GF(4) (BCH, Goppa, additive) are paired into
sum-rank-metric codes; decoding reduces to one decode in the first
component and at most three twisted decodes in the second.
"""

from .errors import (
    BudgetError,
    ConfigError,
    ConstructionError,
    EmbedError,
    RangeError,
)
from .gf2m import (
    DEFAULT_MODULI,
    FieldContext,
    GF2,
    GF4,
    build_field,
    gf4_embedding,
    poly_eea,
    poly_eval,
    poly_is_irreducible,
    poly_mul,
)
from .codes import (
    AdditiveCode,
    DefiningSet,
    LinearCode,
    additive_build,
    bch_build,
    bch_dim_lower_bound,
    best_bch_dimension,
    cyclotomic_coset,
    find_irreducible,
    goppa_build,
    min_distance_bruteforce,
)
from .hamdec import (
    BchDecoder,
    GoppaDecoder,
    HammingDecodeResult,
    OracleDecoder,
    make_decoder,
    oracle_decode,
)
from .sumrank import (
    SrWord,
    SumRankCode,
    decodable_gv_rate,
    entropy_q,
    goppa_pair_dimension,
    gv_rate,
    lin_to_matrix,
    mat2_rank,
    matrix_to_lin,
    singleton_bound,
    sr_construct,
    sr_min_distance_bruteforce,
    sr_zero,
    sumrank_weight,
    sumrank_weight_formula,
)
from .srdec import (
    SrDecodeResult,
    error_profiles,
    evaluate_word,
    min_branch_weight,
    sample_error,
    simulate,
    sr_decode,
    sr_oracle_decode,
)

__version__ = "0.1.0"
