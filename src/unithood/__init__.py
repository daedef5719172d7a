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
    Metrics,
    PairEvidence,
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
    gather_evidence,
    normalize_phrase,
)
from .extractor import (
    Candidate,
    CandidatePair,
    build_pair,
    extract_candidates,
    find_head_nouns,
    form_pairs,
    merge_pass,
    sentence_connectors,
)
from .measures import (
    Thresholds,
    UndefinedEvidenceError,
    UnithoodScores,
    decision_rule,
    independence,
    independence_ratio,
    mutual_information,
    unithood,
    weight,
)
from .parse_ingest import (
    ParsedSentence,
    ParseFileError,
    ParseToken,
    read_parse_file,
    write_parse_file,
)
from .pipeline import (
    DecisionRecord,
    PipelineConfig,
    decide_pairs,
    load_config,
)

__version__ = "0.1.0"

__all__ = [
    "Candidate",
    "CandidatePair",
    "ContingencyTable",
    "CountCache",
    "DecisionRecord",
    "EvaluationError",
    "EvidenceSet",
    "FixtureProvider",
    "LocalIndexProvider",
    "Metrics",
    "MissingCountError",
    "PairEvidence",
    "ParsedSentence",
    "ParseFileError",
    "ParseToken",
    "PipelineConfig",
    "RemoteClientConfig",
    "RemoteCountClient",
    "SweepPoint",
    "Thresholds",
    "TransportError",
    "UndefinedEvidenceError",
    "UnithoodScores",
    "build_pair",
    "compute_metrics",
    "decide_pairs",
    "decision_rule",
    "extract_candidates",
    "find_head_nouns",
    "form_pairs",
    "gather_evidence",
    "independence",
    "independence_ratio",
    "load_config",
    "merge_pass",
    "mutual_information",
    "normalize_phrase",
    "read_parse_file",
    "score",
    "sentence_connectors",
    "sweep",
    "unithood",
    "weight",
    "write_parse_file",
]
