"""Streaming keyword spotting for transducer models.

A frame-synchronous dynamic program scores one keyword directly on the
transducer's output lattice (token track plus blank track), with optional
duration-conditioned frame skipping for token-and-duration transducers.
Ships with ASR-decoding baselines, a brute-force alignment oracle, a binary
lattice snapshot format, synthetic benchmark suites, and evaluation metrics.
"""

from .baselines import AsrConfig, Hypothesis, beam_search, greedy_search, keyword_hit
from .brute_force import (
    AlignmentPath,
    brute_force_score,
    count_alignment_paths,
    enumerate_alignment_paths,
)
from .decoder import (
    DecodeConfig,
    DetectionEvent,
    ScoreStream,
    StreamingDecoder,
    decode_keywords,
    decode_kws,
    detect_events,
    dump_delta_matrix,
    parse_scorestream_record,
    peak_events,
    scorestream_record,
)
from .emissions import (
    BLANK_ID,
    NEG_INF,
    EmissionOracle,
    GreedyStepOutput,
    KeywordSpec,
)
from .errors import (
    BadMagicError,
    CapabilityError,
    DimensionMismatchError,
    KwsError,
    LatticeFormatError,
    LatticeValueError,
    ManifestError,
    ModeError,
    ProtocolError,
    SidecarError,
    SizeLimitError,
    TruncatedLatticeError,
    UnsupportedVersionError,
    ValidationError,
)
from .lattice import FileLatticeOracle, LatticeData, load_lattice, read_lattice, save_lattice, snapshot
from .metrics import (
    RecallAtFar,
    SpeedCounters,
    SpeedupReport,
    macro_recall,
    recall_at_far,
    speedup,
)
from .runner import bench, decode_suite, format_report_table, oracle_check, random_proper_lattice
from .suite import (
    DEFAULT_KEYWORD_NAMES,
    SuiteGenSpec,
    SuiteManifest,
    Utterance,
    gen_suite,
    load_manifest,
)
from .synthetic import SyntheticJoinerConfig, SyntheticOracle

__version__ = "0.1.0"

__all__ = [
    "AlignmentPath",
    "AsrConfig",
    "BLANK_ID",
    "BadMagicError",
    "CapabilityError",
    "DEFAULT_KEYWORD_NAMES",
    "DecodeConfig",
    "DetectionEvent",
    "DimensionMismatchError",
    "EmissionOracle",
    "FileLatticeOracle",
    "GreedyStepOutput",
    "Hypothesis",
    "KeywordSpec",
    "KwsError",
    "LatticeData",
    "LatticeFormatError",
    "LatticeValueError",
    "ManifestError",
    "ModeError",
    "NEG_INF",
    "ProtocolError",
    "RecallAtFar",
    "ScoreStream",
    "SidecarError",
    "SizeLimitError",
    "SpeedCounters",
    "SpeedupReport",
    "StreamingDecoder",
    "SuiteGenSpec",
    "SuiteManifest",
    "SyntheticJoinerConfig",
    "SyntheticOracle",
    "TruncatedLatticeError",
    "UnsupportedVersionError",
    "Utterance",
    "ValidationError",
    "bench",
    "beam_search",
    "brute_force_score",
    "count_alignment_paths",
    "decode_keywords",
    "decode_kws",
    "decode_suite",
    "detect_events",
    "dump_delta_matrix",
    "enumerate_alignment_paths",
    "format_report_table",
    "gen_suite",
    "greedy_search",
    "keyword_hit",
    "load_lattice",
    "load_manifest",
    "macro_recall",
    "oracle_check",
    "parse_scorestream_record",
    "peak_events",
    "random_proper_lattice",
    "read_lattice",
    "recall_at_far",
    "save_lattice",
    "scorestream_record",
    "snapshot",
    "speedup",
]
