"""Exception taxonomy shared across the package.

Every error a caller is expected to branch on derives from KwsError.
ValidationError covers bad arguments and malformed configs; the lattice
loader raises LatticeFormatError subclasses so tests can pin down which
check fired.
"""


class KwsError(Exception):
    """Base class for all package errors."""


class ValidationError(KwsError, ValueError):
    """Bad argument values, malformed configs, out-of-range parameters."""


class ModeError(KwsError):
    """Operation requested in a mode the oracle or config does not support."""


class CapabilityError(KwsError):
    """Oracle cannot answer this class of query (e.g. non-generative oracle)."""


class DimensionMismatchError(ValidationError):
    """Query shape disagrees with the oracle's stored dimensions."""


class ManifestError(ValidationError):
    """Unreadable or malformed suite manifest; names the file, utterance and field."""


class ProtocolError(KwsError):
    """Streaming contract violated (frames delivered out of order, reuse after finish)."""


class SizeLimitError(KwsError):
    """Brute-force enumeration requested beyond the hard size guard."""


class LatticeFormatError(KwsError):
    """Base class for lattice file parse/validation failures."""


class BadMagicError(LatticeFormatError):
    """File does not start with the KWL1 magic."""


class UnsupportedVersionError(LatticeFormatError):
    """Recognized magic but a version this reader does not implement."""


class TruncatedLatticeError(LatticeFormatError):
    """Body byte count does not match the header's dimensions."""


class LatticeValueError(LatticeFormatError):
    """Stored values violate a format invariant (positive log-probs, NaN, duration > D_max)."""


class SidecarError(LatticeFormatError):
    """Missing or malformed JSON sidecar next to a lattice file, or one whose
    keyword disagrees with the keyword the lattice is queried for."""
