"""The stdlib-only dashboard HTTP server.

``python -m repro.runner serve <artifact-dir|campaign>`` starts a
:class:`DashboardServer` (a ``ThreadingHTTPServer``) over one campaign
directory.  The server is read-only and dependency-free: every response
is computed from the journal and the artifact store by
:class:`~repro.dashboard.state.CampaignView`, and the single HTML page
(:mod:`~repro.dashboard.page`) polls the JSON API.

The API (all ``GET``, all ``application/json``) is :data:`ENDPOINTS`;
the docs endpoint table and the docs-consistency tests are generated
from it, so the two cannot drift apart.
"""

from __future__ import annotations

import json
import sys
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, Union
from urllib.parse import parse_qs, urlparse

from ..runner.store import ArtifactError, campaign_dir
from .page import render_live_html
from .state import CampaignView

__all__ = ["ENDPOINTS", "DashboardServer", "serve_campaign"]

#: The JSON API: path -> one-line description (the source of truth for
#: the docs endpoint tables).
ENDPOINTS: Dict[str, str] = {
    "/api/campaign": "campaign identity, progress counters, ETA and status counts",
    "/api/cells": "every cell with status, source, worker, axes and headline metrics",
    "/api/metrics": "one metric across all cells (``?name=<metric>``), for sparklines",
    "/api/violations": "all invariant violations, tagged with their cell label",
    "/api/events": "raw journal events (``?since=<seq>`` for incremental polls)",
}


class _Handler(BaseHTTPRequestHandler):
    """Routes ``GET`` to the view's payload builders; errors are JSON."""

    server: "DashboardServer"

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        parsed = urlparse(self.path)
        query = parse_qs(parsed.query)
        view = self.server.view
        try:
            if parsed.path in ("/", "/index.html"):
                self._send(200, render_live_html(), "text/html; charset=utf-8")
            elif parsed.path == "/api/campaign":
                self._send_json(200, view.campaign_payload())
            elif parsed.path == "/api/cells":
                self._send_json(200, view.cells_payload())
            elif parsed.path == "/api/metrics":
                name = query.get("name", [""])[0]
                if not name:
                    self._send_json(
                        400, {"error": "missing ?name=<metric> parameter"}
                    )
                    return
                try:
                    self._send_json(200, view.metrics_payload(name))
                except KeyError as exc:
                    self._send_json(400, {"error": str(exc.args[0])})
            elif parsed.path == "/api/violations":
                self._send_json(200, view.violations_payload())
            elif parsed.path == "/api/events":
                raw = query.get("since", ["0"])[0]
                try:
                    since = int(raw)
                except ValueError:
                    self._send_json(
                        400, {"error": f"?since must be an integer, got {raw!r}"}
                    )
                    return
                self._send_json(200, view.events_payload(since))
            else:
                self._send_json(
                    404,
                    {
                        "error": f"no such endpoint: {parsed.path}",
                        "endpoints": sorted(ENDPOINTS),
                    },
                )
        except BrokenPipeError:
            pass  # client went away mid-response

    def _send_json(self, status: int, payload: dict) -> None:
        self._send(status, json.dumps(payload), "application/json")

    def _send(self, status: int, body: str, content_type: str) -> None:
        data = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.send_header("Cache-Control", "no-store")
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, format: str, *args: object) -> None:
        pass  # the progress line is the runner's; keep the server quiet


class DashboardServer(ThreadingHTTPServer):
    """ThreadingHTTPServer bound to one :class:`CampaignView`."""

    daemon_threads = True

    def __init__(self, root: Union[str, Path], host: str = "127.0.0.1", port: int = 8035):
        self.view = CampaignView(root)
        super().__init__((host, port), _Handler)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}/"


def serve_campaign(target: str, host: str, port: int) -> None:
    """The ``serve`` subcommand: serve ``target`` — an artifact
    directory, or a campaign name under ``REPRO_ARTIFACT_DIR`` — until
    interrupted.  A target that does not exist yet is served as a
    directory-to-be, so ``serve`` can start before ``run``."""
    try:
        root = campaign_dir(target)
    except ArtifactError:
        root = Path(target)
        print(
            f"note: {root} does not exist yet — serving anyway and "
            "waiting for a campaign to write artifacts there",
            file=sys.stderr,
        )
    server = DashboardServer(root, host=host, port=port)
    print(f"dashboard: watching {root}")
    print(f"dashboard: serving on {server.url}  (Ctrl-C to stop)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
