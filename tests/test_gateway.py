from __future__ import annotations

import hashlib
import http.client
import json
import select
import socket
import ssl
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, HTTPServer, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import urlsplit

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from cdmgen import gateway
from cdmgen.errors import AuthFailure, GenerationIncomplete, NoStructuredPayload, ProviderUnavailable, Timeout
from cdmgen.gateway import (
    CompletionResult,
    HttpProvider,
    MockProvider,
    PromptBundle,
    ProviderConfig,
    chat_prompt,
    evidence_json,
    extract_structured,
    follow_up,
    prompt_hash,
    prompt_head,
    synthesize_description,
)
from cdmgen.knowledge_base import Chunk

BUNDLE = PromptBundle(system_text="system words", user_text="user words")


# ---------------------------------------------------------------------------
# mock provider


def test_mock_returns_scripted_text():
    mock = MockProvider({prompt_hash(BUNDLE): "scripted reply"})
    result = mock.complete(BUNDLE)
    assert result == CompletionResult(text="scripted reply", finish_reason="stop")


def test_mock_scripted_truncation():
    mock = MockProvider({prompt_hash(BUNDLE): {"text": "partial", "finish_reason": "length"}})
    assert mock.complete(BUNDLE).finish_reason == "length"


def test_mock_is_deterministic():
    mock = MockProvider({prompt_hash(BUNDLE): "same"})
    assert mock.complete(BUNDLE) == mock.complete(BUNDLE)


def test_mock_missing_entry_fails_loudly():
    with pytest.raises(ProviderUnavailable):
        MockProvider({}).complete(BUNDLE)


def test_mock_script_file_roundtrip(tmp_path):
    script = {prompt_hash(BUNDLE): {"text": "from file", "finish_reason": "stop"}}
    path = tmp_path / "script.json"
    path.write_text(json.dumps(script), encoding="utf-8")
    assert MockProvider.from_file(path).complete(BUNDLE).text == "from file"


def test_prompt_hash_distinguishes_system_and_user():
    a = PromptBundle(system_text="ab", user_text="c")
    b = PromptBundle(system_text="a", user_text="bc")
    assert prompt_hash(a) != prompt_hash(b)
    assert prompt_hash(a) == prompt_hash(PromptBundle(system_text="ab", user_text="c"))


def test_prompt_is_hashed_once_as_sha256_of_system_nul_user(monkeypatch):
    bundle = PromptBundle(system_text="système", user_text="user words")
    expected = hashlib.sha256("système".encode() + b"\x00" + b"user words").hexdigest()
    passes = []
    real_sha256 = hashlib.sha256

    def counting_sha256(*args):
        passes.append(args)
        return real_sha256(*args)

    monkeypatch.setattr(gateway.hashlib, "sha256", counting_sha256)
    assert prompt_hash(bundle) == expected
    assert MockProvider({expected: "reply"}).complete(bundle).text == "reply"
    assert prompt_hash(bundle) == expected
    assert len(passes) == 1


def _sha256_of(system_text: str, user_text: str) -> str:
    return hashlib.sha256(system_text.encode() + b"\x00" + user_text.encode()).hexdigest()


@settings(max_examples=200, deadline=None)
@example(kind="populate", contract="", sections=[], bodies=[], report=None)
@given(
    kind=st.sampled_from(["populate", "baseline", "coverage", "synthesize"]),
    contract=st.none() | st.text(),
    sections=st.lists(st.text(), max_size=3),
    bodies=st.lists(st.text(min_size=1), max_size=3),
    report=st.none() | st.lists(st.text(), max_size=2),
)
def test_a_digest_continued_from_the_head_is_sha256_of_system_nul_user(kind, contract, sections, bodies, report):
    head = prompt_head(kind, contract)
    references = [Chunk(f"c{i}", "T", "", body, 1) for i, body in enumerate(bodies)]
    bundle = chat_prompt(head, sections, references)
    assert bundle.user_text.startswith(head.user_text)
    repair = follow_up(bundle, "repair_followup.txt", report)
    for prompt in (bundle, repair):
        assert prompt.head is head
        assert prompt_hash(prompt) == _sha256_of(prompt.system_text, prompt.user_text)
        assert prompt == PromptBundle(prompt.system_text, prompt.user_text)
    # Hashing a bundle leaves the head's own state as it was made.
    assert head.state.hexdigest() == _sha256_of(head.system_text, head.user_text)


# ---------------------------------------------------------------------------
# HTTP provider against a local server


class _Handler(BaseHTTPRequestHandler):
    captured: list = []
    behavior = "ok"
    fail_times = 0
    raw_body = b""
    retry_after = None

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        sent = self.rfile.read(length)
        _Handler.captured.append(
            {"payload": json.loads(sent), "body": sent, "auth": self.headers.get("Authorization")}
        )
        if _Handler.behavior == "slow":
            time.sleep(0.5)
        if _Handler.behavior == "unauthorized":
            self.send_response(401)
            self.end_headers()
            return
        if _Handler.behavior == "flaky" and _Handler.fail_times > 0:
            _Handler.fail_times -= 1
            self.send_response(502)
            self.end_headers()
            self.wfile.write(b"bad gateway")
            return
        if _Handler.behavior == "throttled" and _Handler.fail_times > 0:
            _Handler.fail_times -= 1
            self.send_response(429)
            if _Handler.retry_after is not None:
                self.send_header("Retry-After", _Handler.retry_after)
            self.end_headers()
            self.wfile.write(b"slow down")
            return
        if _Handler.behavior == "raw":
            self.send_response(200)
            self.send_header("Content-Length", str(len(_Handler.raw_body)))
            self.end_headers()
            self.wfile.write(_Handler.raw_body)
            return
        body = {
            "choices": [{"message": {"content": '{"echo": true}'}, "finish_reason": "stop"}],
            "usage": {"prompt_tokens": 5, "completion_tokens": 3},
        }
        raw = json.dumps(body).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

    def log_message(self, *args):
        pass


@pytest.fixture()
def local_server():
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _Handler.captured = []
    _Handler.behavior = "ok"
    _Handler.fail_times = 0
    _Handler.raw_body = b""
    _Handler.retry_after = None
    yield f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
    server.shutdown()
    server.server_close()


def test_http_provider_transmits_prompt_bit_exactly(local_server, monkeypatch):
    monkeypatch.setenv("TEST_TOKEN", "secret-token")
    cfg = ProviderConfig(
        endpoint=local_server, model="test-model", credential_env="TEST_TOKEN"
    )
    bundle = PromptBundle(system_text="sys åtext", user_text="user\ntext")
    result = HttpProvider(cfg).complete(bundle)
    assert result.text == '{"echo": true}'
    assert result.finish_reason == "stop"
    sent = _Handler.captured[-1]
    assert sent["auth"] == "Bearer secret-token"
    assert sent["payload"]["model"] == "test-model"
    assert sent["payload"]["messages"][0] == {"role": "system", "content": "sys åtext"}
    assert sent["payload"]["messages"][1] == {"role": "user", "content": "user\ntext"}
    assert sent["payload"]["max_tokens"] == 2048
    assert sent["payload"]["temperature"] == 0.0


def test_http_provider_posts_non_ascii_text_as_utf8(local_server):
    bundle = PromptBundle(system_text="prix en €", user_text="café, 5 € net")
    HttpProvider(ProviderConfig(endpoint=local_server, model="m")).complete(bundle)
    body = _Handler.captured[-1]["body"]
    # Each character travels as its UTF-8 bytes, not as a \uXXXX escape.
    assert "prix en €".encode() in body and "café, 5 € net".encode() in body
    assert b"\\u" not in body
    messages = json.loads(body.decode("utf-8"))["messages"]
    assert [m["content"] for m in messages] == [bundle.system_text, bundle.user_text]


def test_http_provider_recovers_from_transient_5xx(local_server):
    _Handler.behavior = "flaky"
    _Handler.fail_times = 2
    cfg = ProviderConfig(endpoint=local_server, model="m", retries=3)
    provider = HttpProvider(cfg)
    provider._sleep = lambda _: None
    assert provider.complete(BUNDLE).text == '{"echo": true}'


@pytest.mark.parametrize(
    "share, expected",
    [(0.0, [0.25, 0.5, 1.0, 2.0, 4.0, 4.0]), (1.0, [0.5, 1.0, 2.0, 4.0, 8.0, 8.0])],
)
def test_http_provider_backoff_spans_the_upper_half_of_its_capped_delay(local_server, share, expected):
    _Handler.behavior = "flaky"
    _Handler.fail_times = 6
    provider = HttpProvider(ProviderConfig(endpoint=local_server, model="m", retries=6))
    sleeps = []
    provider._sleep = sleeps.append
    provider._random = lambda: share
    assert provider.complete(BUNDLE).text == '{"echo": true}'
    assert sleeps == expected


@pytest.mark.parametrize(
    "retry_after, expected_sleep",
    [
        (None, 0.3125),
        ("3", 3.0),
        ("0", 0.0),
        ("120", 8.0),
        ("-1", 0.3125),
        ("Wed, 21 Oct 2015 07:28:00 GMT", 0.3125),
    ],
    ids=["no_header", "seconds", "zero", "capped", "negative", "http_date"],
)
def test_http_provider_retries_429_after_retry_after(local_server, retry_after, expected_sleep):
    _Handler.behavior = "throttled"
    _Handler.fail_times = 1
    _Handler.retry_after = retry_after
    cfg = ProviderConfig(endpoint=local_server, model="m", retries=2)
    provider = HttpProvider(cfg)
    sleeps = []
    provider._sleep = sleeps.append
    # The backoff without a usable Retry-After is 0.5 s: a half of it, plus
    # this share of the other half.
    provider._random = lambda: 0.25
    assert provider.complete(BUNDLE).text == '{"echo": true}'
    assert len(_Handler.captured) == 2
    assert sleeps == [expected_sleep]


def test_http_provider_429_past_retries_is_provider_unavailable(local_server):
    _Handler.behavior = "throttled"
    _Handler.fail_times = 5
    _Handler.retry_after = "1"
    cfg = ProviderConfig(endpoint=local_server, model="m", retries=2)
    provider = HttpProvider(cfg)
    sleeps = []
    provider._sleep = sleeps.append
    with pytest.raises(ProviderUnavailable, match="429"):
        provider.complete(BUNDLE)
    assert len(_Handler.captured) == 3
    assert sleeps == [1.0, 1.0]


def test_http_provider_auth_failure_no_retry(local_server):
    _Handler.behavior = "unauthorized"
    cfg = ProviderConfig(endpoint=local_server, model="m", retries=3)
    with pytest.raises(AuthFailure):
        HttpProvider(cfg).complete(BUNDLE)
    assert len(_Handler.captured) == 1


def test_http_provider_missing_credential(local_server):
    cfg = ProviderConfig(endpoint=local_server, model="m", credential_env="NO_SUCH_VAR")
    with pytest.raises(AuthFailure):
        HttpProvider(cfg).complete(BUNDLE)


def test_http_provider_timeout(local_server):
    _Handler.behavior = "slow"
    cfg = ProviderConfig(endpoint=local_server, model="m", timeout=0.1, retries=0)
    with pytest.raises(Timeout):
        HttpProvider(cfg).complete(BUNDLE)


def test_http_provider_non_json_body_is_provider_unavailable(local_server):
    _Handler.behavior = "raw"
    _Handler.raw_body = b"<html>upstream proxy error</html>"
    cfg = ProviderConfig(endpoint=local_server, model="m", retries=3)
    with pytest.raises(ProviderUnavailable, match="non-JSON"):
        HttpProvider(cfg).complete(BUNDLE)


def test_http_provider_too_deeply_nested_body_is_provider_unavailable(local_server):
    _Handler.behavior = "raw"
    _Handler.raw_body = b'{"choices":' * 100_000 + b"1" + b"}" * 100_000
    cfg = ProviderConfig(endpoint=local_server, model="m", retries=3)
    with pytest.raises(ProviderUnavailable, match="non-JSON"):
        HttpProvider(cfg).complete(BUNDLE)
    assert len(_Handler.captured) == 1


@pytest.mark.parametrize(
    "reply, usage, text",
    [
        ({"content": "{}"}, None, "{}"),
        ({"content": "{}"}, [1], "{}"),
        ({"content": None}, {"prompt_tokens": 2}, ""),
        ({"content": 5}, None, ""),
        ({"content": '{"a": "\ud800"}'}, None, ""),
        # Sent as the escaped pair "\\ud83d\\ude00", which reads as one character.
        ({"content": '{"a": "\U0001f600"}'}, None, '{"a": "\U0001f600"}'),
    ],
    ids=["usage_null", "usage_list", "content_null", "content_number", "content_lone_surrogate", "content_pair"],
)
def test_http_provider_reads_a_null_or_odd_content_or_usage_as_empty(local_server, reply, usage, text):
    _Handler.behavior = "raw"
    _Handler.raw_body = json.dumps({"choices": [{"message": reply}], "usage": usage}).encode()
    result = HttpProvider(ProviderConfig(endpoint=local_server, model="m")).complete(BUNDLE)
    assert result.text == text
    assert result.usage == (usage if isinstance(usage, dict) else {})


@pytest.mark.parametrize(
    "finish, expected",
    [("stop", "stop"), ("length", "length"), ("content_filter", "stop"), (None, "stop")],
)
def test_http_provider_reads_a_finish_reason_other_than_length_as_stop(local_server, finish, expected):
    _Handler.behavior = "raw"
    choice = {"message": {"content": "{}"}, "finish_reason": finish}
    _Handler.raw_body = json.dumps({"choices": [choice]}).encode()
    result = HttpProvider(ProviderConfig(endpoint=local_server, model="m")).complete(BUNDLE)
    assert result.finish_reason == expected


def test_http_provider_reply_without_choices_is_provider_unavailable(local_server):
    _Handler.behavior = "raw"
    _Handler.raw_body = json.dumps({"id": "reply-1", "usage": {}}).encode()
    cfg = ProviderConfig(endpoint=local_server, model="m", retries=3)
    with pytest.raises(ProviderUnavailable, match="malformed provider response"):
        HttpProvider(cfg).complete(BUNDLE)
    assert len(_Handler.captured) == 1


class _StatusHandler(BaseHTTPRequestHandler):
    """Answers every request with ``status`` and a short body, and counts them."""

    status = 404
    requests = 0

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        _StatusHandler.requests += 1
        body = b"not here"
        self.send_response(_StatusHandler.status)
        self.send_header("Location", "http://127.0.0.1:9/elsewhere")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.mark.parametrize("status", [302, 404])
def test_http_provider_does_not_retry_or_follow_another_status(monkeypatch, status):
    monkeypatch.setattr(_StatusHandler, "status", status)
    monkeypatch.setattr(_StatusHandler, "requests", 0)
    server = HTTPServer(("127.0.0.1", 0), _StatusHandler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    cfg = ProviderConfig(endpoint=f"http://127.0.0.1:{server.server_port}/v1", model="m", retries=3)
    provider = HttpProvider(cfg)
    try:
        with pytest.raises(ProviderUnavailable, match=f"^provider error {status}: not here$"):
            provider.complete(BUNDLE)
    finally:
        provider.close()
        server.shutdown()
        server.server_close()
    assert _StatusHandler.requests == 1


def test_unreachable_endpoint_zero_retries():
    cfg = ProviderConfig(
        endpoint="http://127.0.0.1:9/v1/chat/completions", model="m", retries=0, timeout=1.0
    )
    with pytest.raises(ProviderUnavailable):
        HttpProvider(cfg).complete(BUNDLE)


class _KeepAliveHandler(BaseHTTPRequestHandler):
    """Keep-alive chat endpoint that holds each request at a barrier until
    ``barrier.parties`` requests are in flight, and records client ports."""

    protocol_version = "HTTP/1.1"
    barrier: threading.Barrier
    ports: set = set()

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        _KeepAliveHandler.ports.add(self.client_address[1])
        _KeepAliveHandler.barrier.wait()
        raw = json.dumps({"choices": [{"message": {"content": "{}"}, "finish_reason": "stop"}]}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

    def log_message(self, *args):
        pass


def test_http_provider_reuses_a_connection_per_call_in_flight():
    inflight = 16
    _KeepAliveHandler.barrier = threading.Barrier(inflight, timeout=30)
    _KeepAliveHandler.ports = set()
    server = ThreadingHTTPServer(("127.0.0.1", 0), _KeepAliveHandler)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    cfg = ProviderConfig(
        endpoint=f"http://127.0.0.1:{server.server_port}/v1/chat/completions", model="m", retries=0
    )
    provider = HttpProvider(cfg)
    try:
        with ThreadPoolExecutor(inflight) as calls:
            for _ in range(3):
                replies = list(calls.map(lambda _: provider.complete(BUNDLE).text, range(inflight)))
                assert replies == ["{}"] * inflight
    finally:
        provider.close()
        server.shutdown()
        server.server_close()
    # Every round had 16 calls in flight at once; later rounds reuse the
    # first round's connections instead of opening new ones.
    assert len(_KeepAliveHandler.ports) <= inflight


class _ClosingServer(HTTPServer):
    """Keep-alive chat endpoint that answers one request per connection,
    without a ``Connection: close`` header, then closes the connection."""

    def __init__(self):
        super().__init__(("127.0.0.1", 0), _ClosingHandler)
        self.ports: list = []
        self.closed = threading.Event()

    def shutdown_request(self, request):
        super().shutdown_request(request)
        self.closed.set()


class _ClosingHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        self.server.ports.append(self.client_address[1])
        raw = json.dumps({"choices": [{"message": {"content": "{}"}}]}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)
        self.close_connection = True

    def log_message(self, *args):
        pass


def test_http_provider_reopens_an_idle_connection_the_server_closed():
    server = _ClosingServer()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    cfg = ProviderConfig(endpoint=f"http://127.0.0.1:{server.server_port}/v1", model="m", retries=0)
    provider = HttpProvider(cfg)
    sleeps = []
    provider._sleep = sleeps.append
    try:
        assert provider.complete(BUNDLE).text == "{}"
        assert server.closed.wait(10)
        assert provider.complete(BUNDLE).text == "{}"
    finally:
        provider.close()
        server.shutdown()
        server.server_close()
    # The second call went out once, on a new connection, and spent no retry.
    assert len(server.ports) == len(set(server.ports)) == 2
    assert sleeps == []


class _ForwardingProxy(BaseHTTPRequestHandler):
    """HTTP proxy: records each request line's target and its
    ``Proxy-Authorization``, forwards a POST to its absolute URL and relays
    a CONNECT tunnel's bytes both ways."""

    seen: list = []

    def do_POST(self):
        _ForwardingProxy.seen.append((self.path, self.headers.get("Proxy-Authorization")))
        body = self.rfile.read(int(self.headers["Content-Length"]))
        upstream = urlsplit(self.path)
        connection = http.client.HTTPConnection(upstream.hostname, upstream.port, timeout=10)
        try:
            connection.request("POST", upstream.path, body, {"Content-Type": "application/json"})
            reply = connection.getresponse()
            raw = reply.read()
        finally:
            connection.close()
        self.send_response(reply.status)
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

    def do_CONNECT(self):
        _ForwardingProxy.seen.append((self.path, self.headers.get("Proxy-Authorization")))
        host, port = self.path.rsplit(":", 1)
        with socket.create_connection((host, int(port)), timeout=10) as upstream:
            self.send_response(200)
            self.end_headers()
            peer = {self.connection: upstream, upstream: self.connection}
            while True:
                readable, _, _ = select.select(list(peer), [], [], 10)
                chunks = [(sock, sock.recv(65536)) for sock in readable]
                if not readable or not all(chunk for _, chunk in chunks):
                    return
                for sock, chunk in chunks:
                    peer[sock].sendall(chunk)

    def log_message(self, *args):
        pass


@pytest.fixture()
def forwarding_proxy(monkeypatch):
    """A running forwarding proxy's URL, with every proxy variable cleared."""
    proxy = ThreadingHTTPServer(("127.0.0.1", 0), _ForwardingProxy)
    proxy.daemon_threads = True
    thread = threading.Thread(target=proxy.serve_forever, daemon=True)
    thread.start()
    _ForwardingProxy.seen = []
    for name in ("http_proxy", "HTTP_PROXY", "https_proxy", "HTTPS_PROXY", "no_proxy", "NO_PROXY"):
        monkeypatch.delenv(name, raising=False)
    yield f"127.0.0.1:{proxy.server_port}"
    proxy.shutdown()
    proxy.server_close()


@pytest.mark.parametrize(
    "user, no_proxy, authorization",
    [("", "", None), ("us%40r:pw@", "", "Basic dXNAcjpwdw=="), ("", "127.0.0.1", None)],
    ids=["proxied", "proxied_with_credentials", "bypassed"],
)
def test_http_provider_sends_through_the_environment_proxy(
    local_server, forwarding_proxy, monkeypatch, user, no_proxy, authorization
):
    monkeypatch.setenv("HTTP_PROXY", f"http://{user}{forwarding_proxy}")
    if no_proxy:
        monkeypatch.setenv("NO_PROXY", no_proxy)
    provider = HttpProvider(ProviderConfig(endpoint=local_server, model="m", retries=0))
    try:
        assert provider.complete(BUNDLE).text == '{"echo": true}'
    finally:
        provider.close()
    assert _ForwardingProxy.seen == ([] if no_proxy else [(local_server, authorization)])
    assert len(_Handler.captured) == 1


@pytest.mark.parametrize(
    "proxy",
    ["https://{}", "http://proxy.example:notaport", "http://proxy.example:99999", "http://[::1"],
    ids=["https", "port_not_a_number", "port_out_of_range", "unclosed_ipv6_bracket"],
)
def test_http_provider_refuses_a_proxy_that_is_not_http(forwarding_proxy, monkeypatch, proxy):
    monkeypatch.setenv("HTTPS_PROXY", proxy.format(forwarding_proxy))
    with pytest.raises(ProviderUnavailable, match="not an http:// URL with a host"):
        HttpProvider(ProviderConfig(endpoint="https://127.0.0.1:1/v1", model="m"))


# localhost.pem is a self-signed certificate for localhost and 127.0.0.1, made with
#   openssl req -x509 -newkey ec -pkeyopt ec_paramgen_curve:prime256v1 -nodes \
#     -keyout localhost.key -out localhost.pem -days 36500 -subj /CN=localhost \
#     -addext subjectAltName=DNS:localhost,IP:127.0.0.1 \
#     -addext basicConstraints=critical,CA:FALSE -addext keyUsage=critical,digitalSignature \
#     -addext extendedKeyUsage=serverAuth
TLS_DIR = Path(__file__).resolve().parent / "fixtures" / "tls"


@pytest.mark.parametrize(
    "trusted, proxied", [(False, False), (True, False), (True, True)], ids=["untrusted", "trusted", "tunnelled"]
)
def test_http_provider_checks_the_server_certificate(local_server, forwarding_proxy, monkeypatch, trusted, proxied):
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(TLS_DIR / "localhost.pem", TLS_DIR / "localhost.key")
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    server.socket = context.wrap_socket(server.socket, server_side=True)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    monkeypatch.delenv("SSL_CERT_DIR", raising=False)
    if trusted:
        monkeypatch.setenv("SSL_CERT_FILE", str(TLS_DIR / "localhost.pem"))
    else:
        monkeypatch.delenv("SSL_CERT_FILE", raising=False)
    if proxied:
        monkeypatch.setenv("HTTPS_PROXY", f"http://{forwarding_proxy}")
    cfg = ProviderConfig(endpoint=f"https://127.0.0.1:{server.server_port}/v1", model="m", retries=0)
    provider = HttpProvider(cfg)
    try:
        if trusted:
            assert provider.complete(BUNDLE).text == '{"echo": true}'
        else:
            with pytest.raises(ProviderUnavailable, match="CERTIFICATE_VERIFY_FAILED"):
                provider.complete(BUNDLE)
    finally:
        provider.close()
        server.shutdown()
        server.server_close()
    assert _ForwardingProxy.seen == ([(f"127.0.0.1:{server.server_port}", None)] if proxied else [])


class _RedirectingProxy(_ForwardingProxy):
    """_ForwardingProxy that records each CONNECT request line and its
    ``Host`` header, then tunnels to ``upstream`` whatever host the line
    names, so a tunnel to an IPv6 endpoint needs no IPv6 interface."""

    lines: list = []
    upstream = ("127.0.0.1", 0)

    def do_CONNECT(self):
        _RedirectingProxy.lines.append((self.requestline, self.headers["Host"]))
        self.path = "%s:%d" % _RedirectingProxy.upstream
        super().do_CONNECT()


class _HostHandler(_Handler):
    """_Handler that records each request's ``Host`` header."""

    hosts: list = []

    def do_POST(self):
        _HostHandler.hosts.append(self.headers["Host"])
        super().do_POST()


# loopback.pem is made as localhost.pem is, for localhost, 127.0.0.1 and ::1:
#     -subj /CN=localhost -addext subjectAltName=DNS:localhost,IP:127.0.0.1,IP:::1
@pytest.mark.parametrize("host", ["localhost", "127.0.0.1", "[::1]"], ids=["name", "ipv4", "ipv6"])
def test_http_provider_tunnels_to_the_host_as_the_endpoint_writes_it(monkeypatch, host):
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(TLS_DIR / "loopback.pem", TLS_DIR / "loopback.key")
    server = HTTPServer(("127.0.0.1", 0), _HostHandler)
    server.socket = context.wrap_socket(server.socket, server_side=True)
    proxy = ThreadingHTTPServer(("127.0.0.1", 0), _RedirectingProxy)
    proxy.daemon_threads = True
    monkeypatch.setattr(_Handler, "behavior", "ok")
    monkeypatch.setattr(_HostHandler, "hosts", [])
    monkeypatch.setattr(_RedirectingProxy, "lines", [])
    monkeypatch.setattr(_RedirectingProxy, "upstream", server.server_address)
    for name in ("http_proxy", "HTTP_PROXY", "https_proxy", "no_proxy", "NO_PROXY", "SSL_CERT_DIR"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("HTTPS_PROXY", f"http://127.0.0.1:{proxy.server_port}")
    monkeypatch.setenv("SSL_CERT_FILE", str(TLS_DIR / "loopback.pem"))
    for running in (server, proxy):
        threading.Thread(target=running.serve_forever, daemon=True).start()
    provider = HttpProvider(ProviderConfig(endpoint=f"https://{host}:8443/v1", model="m", retries=0))
    try:
        assert provider.complete(BUNDLE).text == '{"echo": true}'
    finally:
        provider.close()
        for running in (server, proxy):
            running.shutdown()
            running.server_close()
    # http.client sends CONNECT as HTTP/1.0 before Python 3.12, as HTTP/1.1 from then on.
    version = "HTTP/1.0" if sys.version_info < (3, 12) else "HTTP/1.1"
    assert _RedirectingProxy.lines == [(f"CONNECT {host}:8443 {version}", f"{host}:8443")]
    assert _HostHandler.hosts == [f"{host}:8443"]


def test_complete_accepts_config_or_provider():
    mock = MockProvider({prompt_hash(BUNDLE): "via provider"})
    assert mock.complete(BUNDLE).text == "via provider"


def test_provider_config_validation():
    with pytest.raises(ValueError):
        ProviderConfig(endpoint="http://x", model="m", retries=-1)
    with pytest.raises(ValueError):
        ProviderConfig(endpoint="http://x", model="m", timeout=0)
    assert ProviderConfig(endpoint="HTTPS://host:8443/v1", model="m").endpoint == "HTTPS://host:8443/v1"


@pytest.mark.parametrize(
    "endpoint",
    ["notaurl", " ", "", "ftp://host/x", "http://", "http:///path", "http://[::1", "http://host:port/x", 5, None],
)
def test_provider_config_rejects_an_endpoint_that_is_not_an_http_url_with_a_host(endpoint):
    with pytest.raises(ValueError):
        ProviderConfig(endpoint=endpoint, model="m")


# ---------------------------------------------------------------------------
# structured extraction


def test_extract_from_code_fence():
    assert extract_structured('```json\n{"a": 1}\n```') == {"a": 1}


def test_extract_from_prose():
    text = 'Here is the result: {"a": {"b": "x"}} hope this helps'
    assert extract_structured(text) == oracles.scan_structured(text) == {"a": {"b": "x"}}


def test_extract_no_payload():
    with pytest.raises(NoStructuredPayload):
        extract_structured("no braces here")
    with pytest.raises(NoStructuredPayload):
        extract_structured("broken { \"a\": } object")
    with pytest.raises(NoStructuredPayload):
        extract_structured("")


@pytest.mark.parametrize(
    "text",
    [
        '{"a": "\\ud800"}',
        '```json\n{"a": ["\\uDFFF"]}\n```',
        'Here: {"\\udbff": 1} and {"b": 2}',
        '{"a": "\udc00"}',
    ],
    ids=["escaped", "fenced", "key", "raw"],
)
def test_extract_refuses_an_object_holding_a_lone_surrogate(text):
    with pytest.raises(NoStructuredPayload, match="lone surrogate"):
        extract_structured(text)


# Deeper than the JSON parser's recursion limit on any Python version.
DEEP_OBJECT = '{"a":' * 100_000 + "1" + "}" * 100_000


@pytest.mark.parametrize(
    "text",
    [DEEP_OBJECT, f"```json\n{DEEP_OBJECT}\n```", f'Here: {DEEP_OBJECT} and {{"b": 2}}'],
    ids=["raw", "fenced", "followed"],
)
def test_extract_refuses_json_nested_deeper_than_the_parser_reads(text):
    with pytest.raises(NoStructuredPayload, match="nested too deeply"):
        extract_structured(text)


def test_extract_reads_an_escaped_surrogate_pair_as_one_character():
    assert extract_structured('{"a": "\\ud83d\\ude00 \\u00e9"}') == {"a": "\U0001f600 é"}


def test_extract_ignores_braces_inside_strings():
    text = 'note: "{" is a brace. {"key": "va{lue}"} done'
    assert extract_structured(text) == {"key": "va{lue}"}


FIXTURE_VALUES = [
    {"a": 1},
    {"a": {"b": "x"}, "c": [1, 2, {"d": False}]},
    {"text": 'quoted "brace {" inside'},
    {"empty": {}, "list": []},
]


@pytest.mark.parametrize(
    "number",
    ["NaN", "Infinity", "-Infinity", "1e400", "-1e400", "9" * 5000],
    ids=["nan", "infinity", "minus_infinity", "1e400", "minus_1e400", "5000_digits"],
)
def test_extract_skips_a_candidate_holding_a_number_no_file_can_hold(number):
    for text in ('{"a": %s}' % number, '```json\n{"a": %s}\n```' % number):
        with pytest.raises(NoStructuredPayload):
            extract_structured(text)
    # The next candidate is read, as after any candidate that does not decode.
    assert extract_structured('{"a": %s, "b": {"c": 1e3}}' % number) == {"c": 1000.0}
    assert extract_structured('```\n{"a": %s}\n```\n{"a": -0.5}' % number) == {"a": -0.5}


@settings(max_examples=60, deadline=None)
@given(
    value=st.sampled_from(FIXTURE_VALUES),
    prefix=st.sampled_from(["", "Sure! ", "Result:\n", "```json\n", "Text { broken\n\n"]),
    suffix=st.sampled_from(["", " hope this helps", "\n```", "\n\nDone."]),
)
def test_extract_roundtrip_under_wrapping(value, prefix, suffix):
    text = prefix + json.dumps(value) + suffix
    assert extract_structured(text) == value


EXTRACTION_PIECES = [
    "{", "}", '"', "\\", '\\"', "```", "```json\n", "\n", " ", ":", ",", "[", "]",
    "NaN", "-Infinity", "x", '"k"', '"k": ', "1", "true", "null", "{}", '{"a": 1}',
    '{"a": NaN}', '{"b": [1, {"c": "}"}]}', '"{"', '["x"]',
]


@settings(max_examples=2000, deadline=None)
@given(pieces=st.lists(st.sampled_from(EXTRACTION_PIECES), max_size=24))
def test_extract_matches_the_scanning_oracle(pieces):
    text = "".join(pieces)
    expected = oracles.scan_structured(text)
    if expected is None:
        with pytest.raises(NoStructuredPayload):
            extract_structured(text)
    else:
        # Compared as text, so NaN matches NaN.
        assert json.dumps(extract_structured(text)) == json.dumps(expected)


# ---------------------------------------------------------------------------
# synthesis


def test_synthesize_with_mock():
    example = {"trade": {"tradeDate": "2024-03-11"}}
    references = ["Reference sheet one."]
    # Reconstruct the exact prompt the function will send, then script it.
    from cdmgen import prompts

    sections = [
        prompts.load("synthesize_instructions.txt"),
        "Reference term sheet 1:\nReference sheet one.",
        "Structured contract data:\n" + evidence_json(example),
    ]
    bundle = PromptBundle(
        system_text=prompts.load("synthesize_system.txt"), user_text="\n\n".join(sections)
    )
    mock = MockProvider({prompt_hash(bundle): "A contract description."})
    assert synthesize_description(mock, example, references) == "A contract description."


@pytest.mark.parametrize("reply", ["", " \n"])
def test_synthesize_rejects_an_empty_reply(reply):
    class Blank:
        def complete(self, prompt):
            return CompletionResult(text=reply, finish_reason="stop")

    with pytest.raises(GenerationIncomplete):
        synthesize_description(Blank(), {"trade": {}}, [])


def test_synthesize_rejects_a_reply_cut_off_at_the_length_limit():
    class CutOff:
        def complete(self, prompt):
            return CompletionResult(text="The parties agree to exchange", finish_reason="length")

    with pytest.raises(GenerationIncomplete, match="cut off"):
        synthesize_description(CutOff(), {"trade": {}}, [])


def test_synthesize_rejects_empty_example():
    with pytest.raises(ValueError):
        synthesize_description(MockProvider({}), {}, [])
