"""Start and stop the real ``python -m repro serve`` CLI (one worker)."""

from __future__ import annotations

import json
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from client import get, request
from common import child_env, rss_mb

_PORT = re.compile(rb"on http://127\.0\.0\.1:(\d+)\s*$")


class ServeProcess:
    """One ``serve --model PATH --port 0`` daemon at its default config."""

    def __init__(self, model: Path, log: Path, extra: tuple[str, ...] = ()) -> None:
        self.model = model
        self.log = log
        self.extra = extra
        self.proc: subprocess.Popen | None = None
        self.port = 0

    def start(self, probe: bytes, timeout: float = 60.0) -> float:
        """Spawn the CLI; returns seconds until ``probe`` first answers 200."""
        started = time.perf_counter()
        with open(self.log, "ab") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--model", str(self.model),
                 "--port", "0", *self.extra],
                stdout=subprocess.PIPE,
                stderr=log,
                env=child_env(),
            )
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            match = _PORT.search(line)
            if match:
                self.port = int(match.group(1))
                break
        else:
            raise RuntimeError(f"serve exited before binding; see {self.log}")
        # Nothing else reaches stdout before shutdown, so the pipe can
        # stay unread without filling.
        while True:
            try:
                status, _ = request(self.port, probe)
            except ConnectionError:
                status = 0
            if status == 200:
                return time.perf_counter() - started
            if time.perf_counter() - started > timeout:
                raise RuntimeError(f"no 200 from serve within {timeout}s")
            time.sleep(0.005)

    def stats(self) -> dict[str, Any]:
        status, body = request(self.port, get("/stats"))
        if status != 200:
            raise RuntimeError(f"/stats answered {status}")
        return json.loads(body)

    def rss_mb(self) -> float:
        assert self.proc is not None
        return rss_mb(self.proc.pid)

    def stop(self) -> None:
        proc = self.proc
        if proc is None:
            return
        self.proc = None
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        assert proc.stdout is not None
        proc.stdout.close()

    def __enter__(self) -> "ServeProcess":
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()
