import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from unithood import read_parse_file

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def sample_sentence():
    with open(FIXTURES / "sample_parse.tsv", encoding="utf-8") as handle:
        sentences = read_parse_file(handle)
    assert len(sentences) == 1
    return sentences[0]


class CountServer(ThreadingHTTPServer):
    """An HTTP server on a loopback port, for the remote count client.

    Each GET's path is appended to ``paths`` and answered by ``reply(path)``:
    a (status, headers, body) triple, where a Content-Length header overrides
    the body's length, or None to send nothing until ``stop``.
    """

    daemon_threads = False  # server_close joins every handler, so no socket outlives it

    def __init__(self):
        super().__init__(("127.0.0.1", 0), _CountHandler)
        self.paths: list[str] = []
        self.reply = lambda path: (200, {}, b"")
        self.stopped = threading.Event()
        self._thread = threading.Thread(target=self.serve_forever, args=(0.02,))
        self._thread.start()

    @property
    def url(self) -> str:
        return "http://127.0.0.1:%d" % self.server_port

    def stop(self) -> None:
        """Release stalled handlers, stop serving and close every socket; idempotent."""
        self.stopped.set()
        self.shutdown()
        self._thread.join(10)
        assert not self._thread.is_alive()
        self.server_close()


class _CountHandler(BaseHTTPRequestHandler):
    def do_GET(self):
        self.server.paths.append(self.path)
        answer = self.server.reply(self.path)
        if answer is None:
            self.server.stopped.wait(10)
            return
        status, headers, body = answer
        self.send_response(status)
        for name, value in {"Content-Length": str(len(body)), **headers}.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format, *args):
        pass  # keep test output clean


@pytest.fixture
def count_server():
    server = CountServer()
    yield server
    server.stop()
