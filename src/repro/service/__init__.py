"""repro.service — the long-lived, multi-tenant analysis daemon.

The one-shot pipeline re-parses, re-builds SSA and re-solves from
scratch on every invocation; this package keeps projects *resident* and
serves detect/fix/stats requests over a line-delimited JSON protocol,
re-analyzing only what an edit invalidated. One daemon holds N tenants
(registered projects) behind a pool of analysis workers that drains the
tenants' queues round-robin, with one queue bound that sheds overload:

* :mod:`repro.service.project` — per-file AST cache + function-digest
  diffing (re-parse only changed files);
* :mod:`repro.service.tenants` — the tenant registry: N resident
  projects keyed by tenant id (``default`` = the daemon's own project);
* :mod:`repro.service.daemon` — the :class:`AnalysisService` core, the
  request methods, and the stdio/TCP transports;
* :mod:`repro.service.scheduler` — the worker pool behind per-tenant
  FIFOs drained round-robin, per-request deadlines, and the
  ``--max-queue`` bound (structured ``OVERLOADED`` with ``retry_after``);
* :mod:`repro.service.protocol` — the wire protocol;
* :mod:`repro.service.client` — the TCP client (``repro client``);
* :mod:`repro.service.watch` — polling watcher + the ``repro watch``
  loop (re-run on change, print deltas).

Incremental invalidation itself lives with the engine
(:mod:`repro.engine.invalidate`): the service diffs scope fingerprints,
the engine's content-addressed cache guarantees a reused fingerprint
would reproduce the cached result byte-for-byte — which is also why the
cache is safely *shared across tenants*.
"""

from repro.service.client import (
    ServiceClient,
    ServiceConnectionError,
    ServiceRequestError,
)
from repro.service.daemon import (
    AnalysisService,
    RequestContext,
    ServiceServer,
    exit_code_for,
    serve_stdio,
    serve_tcp,
)
from repro.service.project import ProjectState, RefreshDelta, project_source_paths
from repro.service.protocol import (
    DEFAULT_TENANT,
    METHODS,
    OVERLOADED,
    PROTOCOL_VERSION,
    Request,
    ServiceError,
    decode_request,
    encode_line,
)
from repro.service.scheduler import SHED_EXEMPT, FairScheduler
from repro.service.tenants import TenantRegistry, TenantState
from repro.service.watch import Watcher, run_watch

__all__ = [
    "AnalysisService",
    "DEFAULT_TENANT",
    "FairScheduler",
    "METHODS",
    "OVERLOADED",
    "PROTOCOL_VERSION",
    "ProjectState",
    "RefreshDelta",
    "Request",
    "RequestContext",
    "SHED_EXEMPT",
    "ServiceClient",
    "ServiceConnectionError",
    "ServiceError",
    "ServiceRequestError",
    "ServiceServer",
    "TenantRegistry",
    "TenantState",
    "Watcher",
    "decode_request",
    "encode_line",
    "exit_code_for",
    "project_source_paths",
    "run_watch",
    "serve_stdio",
    "serve_tcp",
]
