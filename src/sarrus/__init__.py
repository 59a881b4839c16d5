"""Exact determinants via generalized diagonal (Sarrus-style) column schemes.

The classic 3x3 diagonal rule extends to any n: lay out a strip of column
indices, take a descending and an ascending diagonal at each designated
start, and sign each diagonal by the parity of the permutation it reads off.
A scheme whose windows hit every permutation exactly once computes the
determinant, exactly, over integers and rationals.

The library ships the hand-built schemes for n = 2..5, an independent oracle
suite (permutation expansion, cofactor expansion, fraction-free elimination),
a generator that searches valid schemes for larger n, the period-4 sign
classification of basic strips, deterministic SVG/ASCII rendering, and an
operation-counting benchmark harness.
"""

from .bench import METHODS, BenchReport, bench, random_matrix, reports_to_jsonl, term_count_statement
from .builtin import (
    builtin_scheme,
    classic_sarrus,
    n_block_heads,
    p_block_heads,
    scheme_4x4,
    scheme_5x5,
)
from .counting import OpCounter
from .errors import (
    ChainMismatch,
    IndexOutOfRange,
    InvalidScheme,
    InvalidWindow,
    NonSquare,
    NotFound,
    ParseError,
    SarrusError,
    SizeLimitExceeded,
    SizeMismatch,
    SizeTooSmall,
    UnsupportedSize,
    VerificationFailed,
)
from .generate import (
    NecklaceClass,
    SearchConfig,
    VerificationReport,
    necklace_classes,
    search_scheme,
    verify_generated,
)
from .io import (
    format_scalar,
    load_scheme,
    matrix_from_csv,
    matrix_from_json,
    parse_matrix,
    permutation_from_json,
    permutation_to_json,
    save_scheme,
    scheme_from_json,
    scheme_to_json,
)
from .matrix import Matrix, Scalar
from .oracle import bareiss_det, cofactor_det, leibniz_det, parity_partition_sums
from .pattern import PatternClass, basic_strip_signs, classify
from .perm import Permutation, Sign, compose, cyclic_shift, parity, relabel_values, reverse
from .render import RenderSpec, render
from .scheme import (
    Scheme,
    SchemeStrip,
    ValidationReport,
    Window,
    WindowRef,
    evaluate,
    evaluate_float,
    expand_block,
    positive_negative_sums,
    stitch_blocks,
    validate,
    windows,
)

__version__ = "0.1.0"
