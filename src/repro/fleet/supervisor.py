"""The fleet supervisor: N `repro serve` daemons, health-checked, restarted.

Two daemon backends behind one handle interface:

* ``thread`` — an in-process :class:`~repro.service.daemon.AnalysisService`
  behind a real TCP :class:`~repro.service.daemon.ServiceServer` on an
  ephemeral port, served from a thread. Fast to spawn (no interpreter
  fork), used by tests and benchmarks; still exercises the full wire
  protocol and scheduler.
* ``process`` — ``python -m repro serve <seed> --port 0`` as a child
  process, the bound port parsed from the daemon's banner line (the same
  line the CI smoke job parses). Used by the CLI and the fleet-smoke CI
  job; a killed child is detected by its dead socket and restarted.

Restarts are immediate: a failed spawn is retried at once, up to
``SPAWN_RETRIES`` times, with no sleep in between. Every spawn (first or
restart) passes the ``fleet-supervisor`` fault site, so chaos plans can
starve a daemon of restarts or kill the whole sweep at a deterministic
point; restarts are counted, and a daemon that exhausts its spawn
retries is surfaced as a supervisor incident.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.resilience.faultinject import maybe_fault
from repro.service.client import ServiceClient, ServiceConnectionError

#: banner printed by ``repro serve --port`` — the port source of truth
_BANNER = "repro-serve listening on "

#: immediate re-spawns after a daemon's first failed spawn, per (re)start
SPAWN_RETRIES = 2

#: seconds a client keeps retrying the TCP connect to a fresh daemon
CONNECT_TIMEOUT = 10.0


class SupervisorError(RuntimeError):
    """The supervisor could not (re)establish its daemon fleet."""


@dataclass
class DaemonHandle:
    """One managed daemon: its address plus backend-specific state."""

    name: str
    mode: str  # 'thread' | 'process'
    host: str = "127.0.0.1"
    port: int = 0
    restarts: int = 0
    # thread backend
    service: object = None
    server: object = None
    thread: Optional[threading.Thread] = None
    # process backend
    proc: Optional[subprocess.Popen] = None

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def alive(self) -> bool:
        if self.mode == "process":
            return self.proc is not None and self.proc.poll() is None
        return self.thread is not None and self.thread.is_alive()


class FleetSupervisor:
    """Spawns, health-checks, restarts, and tears down N daemons."""

    def __init__(
        self,
        count: int,
        seed_path: str,
        mode: str = "thread",
        workers: int = 1,
    ):
        if count <= 0:
            raise ValueError("daemon count must be positive")
        if mode not in ("thread", "process"):
            raise ValueError(f"unknown fleet mode {mode!r}")
        self.count = count
        self.seed_path = seed_path
        self.mode = mode
        self.workers = workers
        #: per-request socket timeout for driver clients; the driver sets
        #: this to its straggler budget so a stalled unit surfaces as a
        #: ServiceConnectionError and triggers restart + re-dispatch
        self.request_timeout: Optional[float] = None
        self.daemons: Dict[str, DaemonHandle] = {}
        self.incidents: List[str] = []
        #: tenants known registered, per daemon (cleared on restart)
        self.registered: Dict[str, set] = {}
        self._clients: Dict[str, ServiceClient] = {}
        self._lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "FleetSupervisor":
        """Spawn all daemons concurrently (a process daemon pays a full
        interpreter start; paying it N times serially would make fleet
        startup linear in width). Any daemon that exhausts its spawn
        retries fails the whole start — survivors are torn down."""
        names = [f"d{i}" for i in range(self.count)]
        failures: Dict[str, BaseException] = {}

        def spawn(name: str) -> None:
            try:
                self.daemons[name] = self._spawn_with_retries(name)
            except (SupervisorError, Exception) as exc:  # noqa: BLE001
                failures[name] = exc

        threads = [
            threading.Thread(target=spawn, args=(name,), name=f"spawn-{name}")
            for name in names
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if failures:
            self.stop()
            name = sorted(failures)[0]
            exc = failures[name]
            if isinstance(exc, SupervisorError):
                raise exc
            raise SupervisorError(f"cannot start daemon {name}: {exc}") from exc
        # deterministic iteration order for the driver's worker naming
        self.daemons = {name: self.daemons[name] for name in names}
        return self

    def stop(self) -> None:
        for name, daemon in self.daemons.items():
            self._teardown(daemon)
            client = self._clients.pop(name, None)
            if client is not None:
                client.close()

    def __enter__(self) -> "FleetSupervisor":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- health / restart ----------------------------------------------------

    def checkpoint(self, label: str) -> None:
        """A deterministic supervisor liveness point (after each unit's
        manifest record lands). Chaos plans kill the sweep here."""
        maybe_fault("fleet-supervisor", f"checkpoint:{label}")

    def client(self, name: str) -> ServiceClient:
        """A connected client for ``name`` (cached; one driver thread per
        daemon, so per-daemon caching needs no further locking)."""
        client = self._clients.get(name)
        if client is None:
            daemon = self.daemons[name]
            client = ServiceClient(
                daemon.host,
                daemon.port,
                timeout=self.request_timeout if self.request_timeout else 30.0,
                connect_timeout=CONNECT_TIMEOUT,
            )
            self._clients[name] = client
        return client

    def restart(self, name: str, reason: str = "") -> None:
        """Replace a dead (or misbehaving) daemon with a fresh one."""
        daemon = self.daemons[name]
        self._teardown(daemon)
        client = self._clients.pop(name, None)
        if client is not None:
            client.close()
        self.registered.pop(name, None)
        restarts = daemon.restarts + 1
        fresh = self._spawn_with_retries(name, reason=reason)
        fresh.restarts = restarts
        self.daemons[name] = fresh

    def restarts(self) -> int:
        return sum(d.restarts for d in self.daemons.values())

    def mark_registered(self, name: str, tenant: str) -> None:
        self.registered.setdefault(name, set()).add(tenant)

    def is_registered(self, name: str, tenant: str) -> bool:
        return tenant in self.registered.get(name, set())

    # -- spawning ------------------------------------------------------------

    def _spawn_with_retries(self, name: str, reason: str = "") -> DaemonHandle:
        attempt = 0
        while True:
            try:
                maybe_fault("fleet-supervisor", f"{name}:spawn")
                daemon = self._spawn(name)
                # liveness probe: the daemon answers before it counts
                probe = ServiceClient(
                    daemon.host, daemon.port, connect_timeout=CONNECT_TIMEOUT
                )
                try:
                    probe.result("ping")
                finally:
                    probe.close()
                return daemon
            except (ServiceConnectionError, OSError, RuntimeError) as exc:
                if attempt >= SPAWN_RETRIES:
                    self.incidents.append(
                        f"daemon {name} failed to start after "
                        f"{attempt + 1} attempt(s): {exc}"
                    )
                    raise SupervisorError(
                        f"cannot (re)start daemon {name}: {exc}"
                    ) from exc
                attempt += 1

    def _spawn(self, name: str) -> DaemonHandle:
        if self.mode == "process":
            return self._spawn_process(name)
        return self._spawn_thread(name)

    def _spawn_thread(self, name: str) -> DaemonHandle:
        from repro.service.daemon import AnalysisService, serve_tcp

        service = AnalysisService(self.seed_path, workers=self.workers).start()
        server = serve_tcp(service)
        host, port = server.address
        thread = threading.Thread(
            target=server.serve_until_shutdown, name=f"fleet-{name}", daemon=True
        )
        thread.start()
        return DaemonHandle(
            name=name,
            mode="thread",
            host=host,
            port=port,
            service=service,
            server=server,
            thread=thread,
        )

    def _spawn_process(self, name: str) -> DaemonHandle:
        argv = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            self.seed_path,
            "--port",
            "0",
            "--workers",
            str(self.workers),
        ]
        env = dict(os.environ)
        # chaos plans target the *driver* process; a child daemon
        # inheriting them would double-inject every fleet fault
        env.pop("REPRO_FAULTS", None)
        proc = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=env,
        )
        assert proc.stdout is not None
        banner = proc.stdout.readline()
        if not banner.startswith(_BANNER):
            proc.kill()
            raise RuntimeError(
                f"daemon {name} printed no listen banner (got {banner!r})"
            )
        host, _, port = banner[len(_BANNER):].strip().rpartition(":")
        return DaemonHandle(
            name=name, mode="process", host=host, port=int(port), proc=proc
        )

    # -- teardown ------------------------------------------------------------

    def _teardown(self, daemon: DaemonHandle) -> None:
        if daemon.mode == "process":
            if daemon.proc is not None and daemon.proc.poll() is None:
                daemon.proc.terminate()
                try:
                    daemon.proc.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    daemon.proc.kill()
                    daemon.proc.wait(timeout=5)
            return
        if daemon.server is not None:
            try:
                daemon.server.begin_shutdown()
            except Exception:
                pass
            try:
                daemon.server.shutdown()
            except Exception:
                pass
        if daemon.thread is not None:
            daemon.thread.join(timeout=5)

    def kill(self, name: str) -> None:
        """Hard-kill a daemon (no graceful shutdown) — the chaos path."""
        daemon = self.daemons[name]
        if daemon.mode == "process":
            if daemon.proc is not None and daemon.proc.poll() is None:
                daemon.proc.kill()
                daemon.proc.wait(timeout=5)
        else:
            self._teardown(daemon)


__all__ = ["DaemonHandle", "FleetSupervisor", "SupervisorError"]
