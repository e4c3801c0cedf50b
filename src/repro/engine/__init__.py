"""repro.engine — incremental detection with result caching.

See :mod:`repro.engine.engine` for the sharding/orchestration model,
:mod:`repro.engine.fingerprint` for the content-addressing scheme,
:mod:`repro.engine.cache` for the two-tier result cache (storage only;
the engine counts its hits and misses), and
:mod:`repro.resilience` for the crash-isolation firewall every shard and
cache probe runs behind.
"""

from repro.engine.cache import CachedShard, ResultCache
from repro.engine.engine import (
    TRADITIONAL_CHECKERS,
    DetectionEngine,
    EngineConfig,
    ShardInfo,
)
from repro.engine.fingerprint import (
    ENGINE_VERSION,
    ProgramDigests,
    channel_fingerprint,
    function_digest,
    traditional_fingerprint,
)
from repro.engine.invalidate import (
    InvalidationDelta,
    diff_fingerprints,
    shard_fingerprints,
    shard_key,
)

__all__ = [
    "CachedShard",
    "DetectionEngine",
    "ENGINE_VERSION",
    "EngineConfig",
    "InvalidationDelta",
    "ProgramDigests",
    "ResultCache",
    "ShardInfo",
    "TRADITIONAL_CHECKERS",
    "channel_fingerprint",
    "diff_fingerprints",
    "function_digest",
    "shard_fingerprints",
    "shard_key",
    "traditional_fingerprint",
]
