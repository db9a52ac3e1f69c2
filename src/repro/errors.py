"""Exception hierarchy for the :mod:`repro` library.

All errors raised by the library derive from :class:`ReproError` so callers
can catch everything from this package with a single ``except`` clause while
still being able to discriminate between the cryptographic, protocol and
simulation layers.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


class MathError(ReproError):
    """Errors from the modular/elliptic-curve arithmetic layer."""


class NonResidueError(MathError):
    """A modular square root was requested for a quadratic non-residue."""


class NotInvertibleError(MathError):
    """A modular inverse was requested for a non-invertible element."""


class CurveError(MathError):
    """A point or parameter is inconsistent with its elliptic curve."""


class PointDecodingError(CurveError):
    """An octet string could not be decoded into a valid curve point."""


class CryptoError(ReproError):
    """Errors from the symmetric/hash primitive layer."""


class SignatureError(CryptoError):
    """An ECDSA signature failed to verify or could not be produced."""


class BackendError(CryptoError):
    """A crypto backend is unknown or could not be activated.

    Subclasses :class:`CryptoError` because backend selection is part of
    the primitive layer's contract; raised with actionable messages
    naming the offending backend and the registered alternatives.
    """


class CertificateError(ReproError):
    """An ECQV certificate is malformed, expired or fails validation."""


class ProtocolError(ReproError):
    """A key-derivation protocol run violated its state machine."""


class AuthenticationError(ProtocolError):
    """A peer failed authentication during session establishment."""


class NetworkError(ReproError):
    """Errors from the CAN-FD / ISO-TP network simulation layer."""


class FrameError(NetworkError):
    """A CAN/CAN-FD frame is malformed or exceeds protocol limits."""


class SegmentationError(NetworkError):
    """ISO-TP segmentation or reassembly failed."""


class SimulationError(ReproError):
    """Errors from the discrete-event simulator."""


class ConfigError(SimulationError):
    """A simulation/fleet configuration carries nonsense values.

    Subclasses :class:`SimulationError` so callers catching simulation
    errors keep working; raised with actionable messages naming the bad
    field and the accepted range.
    """


class StatsError(SimulationError):
    """A statistics aggregate received or produced nonsense values.

    Raised when non-finite samples (NaN/inf) reach a latency summary or
    a streaming accumulator: rendered into digest material they would
    poison the reproducibility contract as ``nan``/``inf`` strings, so
    they are rejected eagerly with the offending value named.  Also
    raised by ``from_dict`` on a malformed stats payload (a missing
    required key or a non-finite float), naming the dotted path.
    """


class ScenarioError(SimulationError):
    """A fleet scenario spec is invalid or inconsistent with its config.

    Covers both spec-level nonsense (negative rates, overlapping burst
    waves, empty names) and compile-time mismatches (profiles claiming
    more vehicles than the fleet has, injections that need topology
    features the :class:`~repro.fleet.FleetConfig` did not enable).
    """


class PolicyError(SimulationError):
    """A fleet policy rule or bundle is invalid or misbehaved.

    Covers spec-level nonsense (unknown rule kinds, out-of-range
    parameters, duplicate registry entries), load-time payload errors
    and runtime violations (a rule returning a decision that targets a
    dead or out-of-range shard).  Subclasses :class:`SimulationError`
    so callers catching simulation errors keep working.
    """


class HardwareModelError(ReproError):
    """A device model is missing a cost entry or got invalid parameters."""


class AnalysisError(ReproError):
    """Errors from the security/overhead analysis layer."""


class ObsError(ReproError):
    """Errors from the observability layer (spans, metrics, exporters)."""
