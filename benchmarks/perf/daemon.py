"""The daemon under test as a subprocess, with robust teardown.

``python -m repro server --port 0`` runs in its own process so the load
generator and the server do not share a GIL.  The banner on stdout is the
only way to learn the bound port; CPU time and RSS are read from
``/proc/<pid>``.
"""

from __future__ import annotations

import os
import re
import select
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from repro.server.client import ServerClient

__all__ = ["DaemonProcess", "READY_TIMEOUT_S", "stop_process"]

READY_TIMEOUT_S = 30.0
_SRC = Path(__file__).resolve().parents[2] / "src"
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
_PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")


def stop_process(process: "subprocess.Popen[Any]") -> None:
    """SIGTERM, wait, then SIGKILL: leaves no child behind on any exit path."""
    if process.poll() is None:
        process.terminate()
        try:
            process.wait(timeout=5.0)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    if process.stdout is not None:
        process.stdout.close()


class DaemonProcess:
    """One ``repro server`` subprocess; use as a context manager."""

    def __init__(self, artifact: Path, *, mmap: bool, watch_interval: float) -> None:
        self.artifact = artifact
        self._args = [
            sys.executable, "-m", "repro", "server",
            "--artifact", str(artifact), "--port", "0",
            "--watch-interval", f"{watch_interval:g}",
        ]  # fmt: skip
        if mmap:
            self._args.append("--mmap")
        self._process: subprocess.Popen[str] | None = None
        self._stderr_path = artifact.with_name(artifact.name + ".daemon.stderr")
        self.port = 0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> "DaemonProcess":
        """Boot and block until ``/healthz`` answers (or abort clearly)."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (str(_SRC), env.get("PYTHONPATH", "")) if part
        )
        deadline = time.monotonic() + READY_TIMEOUT_S
        with open(self._stderr_path, "wb") as stderr:
            self._process = subprocess.Popen(
                self._args, stdout=subprocess.PIPE, stderr=stderr, env=env, text=True
            )
        try:
            assert self._process.stdout is not None
            ready, _, _ = select.select([self._process.stdout], [], [], READY_TIMEOUT_S)
            banner = self._process.stdout.readline() if ready else ""
            found = re.search(r"listening on http://[^:]+:(\d+)", banner)
            if found is None:
                raise RuntimeError(
                    f"daemon printed no listen banner within {READY_TIMEOUT_S:g}s "
                    f"(exit code {self._process.poll()}): {self._stderr_tail()}"
                )
            self.port = int(found.group(1))
            with self.client() as probe:
                try:
                    probe.wait_until_ready(timeout=max(0.1, deadline - time.monotonic()))
                except TimeoutError as exc:
                    raise RuntimeError(
                        f"daemon /healthz not ready within {READY_TIMEOUT_S:g}s: "
                        f"{exc}; {self._stderr_tail()}"
                    ) from exc
        except BaseException:
            self.stop()
            raise
        return self

    def stop(self) -> None:
        """SIGTERM, wait, then SIGKILL; idempotent and safe on every exit path."""
        process, self._process = self._process, None
        if process is not None:
            stop_process(process)

    def __enter__(self) -> "DaemonProcess":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    def _stderr_tail(self) -> str:
        try:
            return self._stderr_path.read_text(errors="replace")[-500:].strip()
        except OSError:
            return ""

    # ------------------------------------------------------------------ #
    # Access and /proc accounting
    # ------------------------------------------------------------------ #

    def client(self) -> ServerClient:
        return ServerClient("127.0.0.1", self.port)

    @property
    def pid(self) -> int:
        assert self._process is not None
        return self._process.pid

    def cpu_seconds(self) -> float:
        """utime + stime of the daemon process so far."""
        stat = Path(f"/proc/{self.pid}/stat").read_text()
        fields = stat.rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def rss_mb(self) -> float:
        resident_pages = int(Path(f"/proc/{self.pid}/statm").read_text().split()[1])
        return resident_pages * _PAGE_BYTES / 1e6
