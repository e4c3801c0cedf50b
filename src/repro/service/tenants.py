"""The tenant registry: N resident projects behind one daemon.

Each tenant owns one :class:`~repro.service.project.ProjectState` (plus
the per-tenant request bookkeeping: detect fingerprints for the
incremental delta, the last detect result for ``health``, and
served/shed counters). The ``default`` tenant is the project the daemon
was started with, so requests that never mention a tenant behave
exactly as before.

Isolation is by construction, not by locking: the scheduler serializes
requests *within* a tenant (one in flight at a time), so a tenant's
``ProjectState``/fingerprints/health are single-writer; the registry's
own map is lock-protected because ``register`` races with dispatch.

What tenants deliberately *share* is the result cache: scope
fingerprints are content-addressed (file bytes → function digests →
scope fingerprint, no paths), so identical code submitted by different
tenants keys the same :class:`~repro.engine.cache.ResultCache` entries
— tenant B warm-hits on code tenant A already analyzed. That sharing is
safe precisely because a fingerprint commits to everything the analysis
reads; see DESIGN §15.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs import NULL, Collector
from repro.service.project import ProjectState
from repro.service.protocol import DEFAULT_TENANT, INVALID_PARAMS, ServiceError


@dataclass
class TenantState:
    """One registered tenant: its resident project + request bookkeeping."""

    tenant_id: str
    state: ProjectState
    #: scope fingerprints from this tenant's last detect, for the
    #: incremental delta (was daemon-global before multi-tenancy)
    fingerprints: Dict[str, str] = field(default_factory=dict)
    #: last successful detect payload, backing ``health``
    last: Optional[dict] = None
    served: int = 0
    shed: int = 0

    def to_json(self) -> dict:
        return {
            "tenant": self.tenant_id,
            "path": self.state.path,
            "generation": self.state.generation,
            "files": len(self.state.files),
            "served": self.served,
            "shed": self.shed,
        }


class TenantRegistry:
    """Tenant id → :class:`TenantState`, with the default tenant resident
    from construction."""

    def __init__(self, path: str, collector: Optional[Collector] = None):
        self.collector = collector or NULL
        self._lock = threading.Lock()
        self._tenants: Dict[str, TenantState] = {}
        default = TenantState(
            tenant_id=DEFAULT_TENANT,
            state=ProjectState(path, collector=self.collector),
        )
        self._tenants[DEFAULT_TENANT] = default

    @property
    def default(self) -> TenantState:
        return self._tenants[DEFAULT_TENANT]

    def maybe(self, tenant_id: str) -> Optional[TenantState]:
        with self._lock:
            return self._tenants.get(tenant_id)

    def register(self, tenant_id: str, path: str) -> TenantState:
        """Register (and load) a project under ``tenant_id``.

        Re-registering the same path is a no-op returning the resident
        tenant; a different path replaces the resident project. The
        default tenant cannot be re-pointed — it *is* the daemon's
        project.
        """
        resolved = os.path.abspath(path)
        with self._lock:
            existing = self._tenants.get(tenant_id)
        if tenant_id == DEFAULT_TENANT and (
            existing is None or existing.state.path != resolved
        ):
            raise ServiceError(
                INVALID_PARAMS,
                "tenant 'default' is the daemon's own project and cannot "
                "be re-registered to a different path",
            )
        if existing is not None and existing.state.path == resolved:
            return existing
        # load outside the lock: parsing a project can be slow, and a
        # failed load must leave the registry untouched
        state = ProjectState(resolved, collector=self.collector)
        try:
            state.load()
        except Exception as exc:
            raise ServiceError(
                INVALID_PARAMS,
                f"cannot load project for tenant {tenant_id!r} from "
                f"{path!r}: {type(exc).__name__}: {exc}",
            ) from exc
        tenant = TenantState(tenant_id=tenant_id, state=state)
        with self._lock:
            self._tenants[tenant_id] = tenant
        return tenant

    def ids(self) -> List[str]:
        with self._lock:
            return sorted(self._tenants)

    def items(self) -> List[TenantState]:
        with self._lock:
            return [self._tenants[key] for key in sorted(self._tenants)]

    def __len__(self) -> int:
        with self._lock:
            return len(self._tenants)

    def __contains__(self, tenant_id: str) -> bool:
        with self._lock:
            return tenant_id in self._tenants
