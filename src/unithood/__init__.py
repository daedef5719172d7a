"""unithood: decide whether adjacent term candidates form one lexical unit.

The pipeline reads dependency-parsed sentences, extracts noun-phrase
term candidates with a head-driven left-right filter, pairs candidates
that sit next to each other (possibly across a preposition or "and"),
gathers document-count evidence for each pair, and applies mutual
information and independence measures to decide which pairs to merge.
"""

from .evaluation import (
    ContingencyTable,
    EvaluationError,
    SweepPoint,
    compute_metrics,
    score,
    sweep,
)
from .evidence import (
    CountCache,
    EvidenceSet,
    FixtureProvider,
    LocalIndexProvider,
    MissingCountError,
    RemoteClientConfig,
    RemoteCountClient,
    TransportError,
    normalize_phrase,
)
from .extractor import (
    Candidate,
    CandidatePair,
    extract_candidates,
    form_pairs,
    merge_pass,
    sentence_connectors,
)
from .measures import (
    Score,
    Thresholds,
    UndefinedEvidenceError,
    independence,
    independence_ratio,
    unithood,
    weight,
)
from .parse_ingest import (
    ParsedSentence,
    ParseFileError,
    ParseToken,
    read_parse_file,
)
from .pipeline import decide_pairs, load_config

__version__ = "0.1.0"

# The public API is every public name imported above from the package's own modules.
__all__ = [name for name, value in list(globals().items()) if not name.startswith("_")
           and getattr(value, "__module__", "").startswith(__name__ + ".")]
