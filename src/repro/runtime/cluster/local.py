"""A local cluster of worker subprocesses, for tests and single-machine runs.

:class:`LocalCluster` spawns ``N`` ``repro-worker`` processes (as
``python -m repro.runtime.cluster.worker``, so it works from a source tree
without installing the console script) pointed at a driver address.  Each
worker's stderr goes to its own log file -- the CI equivalence job uploads
those on failure -- and :meth:`kill` exists so failure-detection tests can
take a worker down abruptly.  A log directory the cluster made itself is
removed on :meth:`LocalCluster.close` when every worker exited cleanly.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
from typing import IO

import repro


def _worker_environment() -> dict[str, str]:
    """The subprocess environment: inherit, but make ``repro`` importable."""
    environment = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    existing = environment.get("PYTHONPATH")
    if existing:
        if package_root not in existing.split(os.pathsep):
            environment["PYTHONPATH"] = package_root + os.pathsep + existing
    else:
        environment["PYTHONPATH"] = package_root
    return environment


class LocalCluster:
    """``num_workers`` worker subprocesses attached to one driver address.

    Logs land in ``log_dir`` (default: the ``DIABLO_WORKER_LOG_DIR``
    environment variable, else a fresh temporary directory) as
    ``worker-<index>.log``.  :meth:`close` removes a temporary directory it
    made when every worker exited with code 0, and keeps it (logs and all)
    when one failed or was killed; a named directory is never removed.
    """

    def __init__(self, num_workers: int, driver_address: str, log_dir: str | None = None):
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        self.driver_address = driver_address
        if log_dir is None:
            log_dir = os.environ.get("DIABLO_WORKER_LOG_DIR")
        #: Whether ``log_dir`` is this cluster's own, to remove on a clean close.
        self._owns_log_dir = not log_dir
        if not log_dir:
            log_dir = tempfile.mkdtemp(prefix="diablo-workers-")
        os.makedirs(log_dir, exist_ok=True)
        self.log_dir = log_dir
        #: Whether every worker closed so far exited with code 0.
        self._clean_exits = True
        self.processes: list[subprocess.Popen | None] = []
        self._logs: list[IO[bytes]] = []
        environment = _worker_environment()
        try:
            for index in range(num_workers):
                log = open(os.path.join(log_dir, f"worker-{index}.log"), "wb")
                self._logs.append(log)
                self.processes.append(
                    subprocess.Popen(
                        [sys.executable, "-m", "repro.runtime.cluster.worker", driver_address],
                        stdout=log,
                        stderr=subprocess.STDOUT,
                        env=environment,
                    )
                )
        except BaseException:
            self.close()
            raise

    def kill(self, index: int) -> None:
        """Kill one worker abruptly (SIGKILL) -- for failure-detection tests."""
        process = self.processes[index]
        if process is not None and process.poll() is None:
            process.send_signal(signal.SIGKILL)
            process.wait()

    def poll(self) -> list[int | None]:
        """Exit codes by worker index (None while still running)."""
        return [None if p is None else p.poll() for p in self.processes]

    def close(self, timeout: float = 10.0) -> None:
        """Stop every worker; escalates terminate -> kill.  Idempotent.

        Workers normally exit by themselves once the driver socket closes,
        so by the time this runs most processes are already gone.
        """
        for index, process in enumerate(self.processes):
            if process is None:
                continue
            self.processes[index] = None
            if process.poll() is None:
                try:
                    # Grace period first: the driver closing its control
                    # socket already makes workers exit on their own.
                    process.wait(timeout=timeout)
                except subprocess.TimeoutExpired:
                    process.terminate()
                    try:
                        process.wait(timeout=5.0)
                    except subprocess.TimeoutExpired:
                        process.kill()
                        process.wait()
            self._clean_exits &= process.returncode == 0
        for log in self._logs:
            try:
                log.close()
            except OSError:  # pragma: no cover - best-effort log flush
                pass
        self._logs = []
        if self._owns_log_dir and self._clean_exits:
            self._owns_log_dir = False
            shutil.rmtree(self.log_dir, ignore_errors=True)

    def __enter__(self) -> "LocalCluster":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        alive = sum(1 for p in self.processes if p is not None and p.poll() is None)
        return f"LocalCluster({alive} alive, driver={self.driver_address}, logs={self.log_dir})"
