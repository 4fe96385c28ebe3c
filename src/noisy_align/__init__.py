"""Noise-aware linear alignment between embedding spaces.

Learns a translation matrix Q mapping source vectors to target vectors
(y = Qx) from a lexicon of aligned pairs that may contain noisy entries.
Provides closed-form Orthogonal Procrustes, an SGD least-squares baseline,
and a two-component Gaussian-mixture EM that jointly learns Q and labels
each lexicon pair as aligned or noise.
"""

from . import _blas  # first: it loads numpy with OpenBLAS's idle policy
from .io import (
    EmbeddingSet,
    Lexicon,
    DataError,
    load_embeddings,
    save_embeddings,
    load_lexicon,
    build_identity_lexicon,
    gather_pairs,
    load_stoplist,
    load_frequency_table,
)
from .align import (
    SgdConfig,
    procrustes,
    weighted_procrustes,
    sgd_align,
    random_orthogonal,
    alignment_error,
    save_matrix,
    load_matrix,
)
from .mixture import (
    AlignmentModel,
    Responsibilities,
    EmConfig,
    EmTrace,
    log_likelihood,
    initialize,
    em_fit,
    save_model,
    load_model,
    write_responsibilities_tsv,
)
from .evaluation import (
    NnIndex,
    build_index,
    nearest_neighbor,
    precision_at_1,
    rank_semantic_shift,
)
from .synthetic import SyntheticProblem, make_noisy_problem

# the public names are the ones imported above from the package's modules
__all__ = [name for name, value in globals().items()
           if getattr(value, "__module__", "").startswith(__name__ + ".")]
