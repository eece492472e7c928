"""Uniform access to chat-completion providers.

Two completion providers are included: an HTTP client speaking the
OpenAI-compatible chat wire shape (covering both hosted and locally served
models) and a fully deterministic mock that replays scripted responses
keyed by a stable hash of the prompt, so every downstream module is
testable offline.

JSON that a prompt carries as evidence (reference chunks, the document a
coverage check reads, a mismatch report, the example a description is
written from) is encoded one way, by :func:`evidence_json`: minified, as
whitespace carries nothing a model reads. The structure to populate keeps
its indented layout, as it is the shape the reply must copy.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Sequence
from urllib.parse import unquote, urlsplit, urlunsplit

from . import prompts
from .errors import (
    AuthFailure,
    GenerationIncomplete,
    MalformedDocument,
    NoStructuredPayload,
    ProviderUnavailable,
    Timeout,
)
from .treeops import conforms, lone_surrogate, read_json_object

logger = logging.getLogger(__name__)

# Sent with every chat request; the prompt hash covers only the text.
MAX_OUTPUT_TOKENS = 2048
TEMPERATURE = 0.0


@dataclass(frozen=True)
class PromptHead:
    """What every prompt of one kind and contract opens with: the system
    text and the start of the user text, with a sha256 state over both.

    Made once per contract by the caller, which passes it to every task's
    :func:`chat_prompt`. Nothing updates ``state`` after it is made: a
    bundle hashes its tail on a copy, so worker threads may share a head.
    """

    system_text: str
    user_text: str
    state: Any = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        state = hashlib.sha256(self.system_text.encode("utf-8"))
        state.update(b"\x00")
        state.update(self.user_text.encode("utf-8"))
        object.__setattr__(self, "state", state)


@dataclass(frozen=True)
class PromptBundle:
    system_text: str
    user_text: str
    # The head this prompt opens with, when built from one: its system text
    # is the head's, its user text begins with the head's.
    head: Optional[PromptHead] = field(default=None, repr=False, compare=False)

    @property
    def digest(self) -> str:
        """sha256 over system text, a NUL byte and user text, computed once
        per bundle: the populator and the mock provider both ask for it.

        It continues from a copy of the state of the bundle's
        :class:`PromptHead` over the rest of the user text alone; SHA-256 is
        a stream, so the hash is that of the whole text. A bundle built
        without a head hashes as one whose head is its system text alone.

        Kept in the instance dict by hand, as ``functools.cached_property``
        would, but without its class-wide lock, so worker threads hash
        their own prompts at once; a race only computes the same value twice.
        """
        cached = self.__dict__.get("_digest")
        if cached is None:
            head = self.head or PromptHead(self.system_text, "")
            digest = head.state.copy()
            digest.update(self.user_text[len(head.user_text) :].encode("utf-8"))
            cached = self.__dict__["_digest"] = digest.hexdigest()
        return cached


@dataclass(frozen=True)
class ProviderConfig:
    """Where and how to call the provider: ``model`` is sent with every
    request, and ``credential_env`` names the environment variable holding
    the bearer token (none is sent when it is empty)."""

    endpoint: str
    model: str = "default"
    credential_env: str = ""
    timeout: float = 30.0
    retries: int = 2

    def __post_init__(self):
        url = urlsplit(self.endpoint) if isinstance(self.endpoint, str) else None
        if url is None or url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"endpoint {self.endpoint!r} is not an http or https URL with a host")
        url.port  # raises ValueError for a port that is not a number from 0 to 65535
        for name in ("model", "credential_env"):
            if not isinstance(getattr(self, name), str):
                raise ValueError(f"{name} must be a string")
        if not conforms("integer", self.retries):
            raise ValueError("retries must be an integer")
        if not conforms("number", self.timeout):
            raise ValueError("timeout must be a number")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        # A socket refuses a NaN, infinite or huge timeout; it takes TIMEOUT_MAX.
        if not 0 < self.timeout <= threading.TIMEOUT_MAX:
            raise ValueError(f"timeout must be positive and at most {threading.TIMEOUT_MAX:.0f} seconds")


@dataclass(frozen=True)
class CompletionResult:
    text: str
    finish_reason: str  # "stop" | "length" | "error"
    usage: Mapping[str, int] = field(default_factory=dict)


def evidence_json(value) -> str:
    """``value`` as a prompt carries it for the model to read: JSON without
    whitespace between tokens, non-ASCII text as itself."""
    return json.dumps(value, ensure_ascii=False, separators=(",", ":"))


def prompt_hash(prompt: PromptBundle) -> str:
    """Stable identity of a prompt: sha256 over system and user text."""
    return prompt.digest


def prompt_head(kind: str, contract_text: Optional[str] = None) -> PromptHead:
    """The head of a ``kind`` request: ``{kind}_system.txt`` as the system
    text; ``{kind}_instructions.txt`` and the contract description, when
    given, as the start of the user text, joined by a blank line."""
    parts = [prompts.load(f"{kind}_instructions.txt")]
    if contract_text is not None:
        parts.append(f"Contract description:\n{contract_text}")
    return PromptHead(prompts.load(f"{kind}_system.txt"), "\n\n".join(parts))


def chat_prompt(head: PromptHead, sections: Sequence[str] = (), references=()) -> PromptBundle:
    """The one request layout: the ``head``, then the caller's ``sections``
    and the bodies of the retrieved chunks in ``references`` under one
    heading when any, joined by blank lines."""
    parts = [head.user_text, *sections]
    if references:
        bodies = "\n\n".join(chunk.body for chunk in references)
        parts.append(f"Reference examples from similar contracts:\n{bodies}")
    return PromptBundle(head.system_text, "\n\n".join(parts), head)


def follow_up(prompt: PromptBundle, resource: str, report=None) -> PromptBundle:
    """A re-ask: ``prompt`` with the ``resource`` text after a blank line,
    then the ``report``, when there is one, from the next line, encoded by
    :func:`evidence_json`. Built from the original request, so identical
    failures give identical prompts."""
    user_text = prompt.user_text + "\n\n" + prompts.load(resource)
    if report is not None:
        user_text += "\n" + evidence_json(report)
    return PromptBundle(prompt.system_text, user_text, prompt.head)


class MockProvider:
    """Replays scripted responses keyed by prompt hash.

    Script entries map a prompt hash to either a plain string (finish reason
    ``stop``) or ``{"text": ..., "finish_reason": ...}``. An unscripted
    prompt raises :class:`ProviderUnavailable` carrying the missing hash, so
    incomplete scripts fail loudly instead of fabricating output.
    """

    # Replies come from memory, so a call never waits on anything: a
    # populator.CallPool runs it on the caller's thread.
    calls_wait = False

    def __init__(self, script: Mapping[str, object]):
        self.script = dict(script)

    @classmethod
    def from_file(cls, path) -> "MockProvider":
        """Read a script file; an entry that is neither a string nor an
        object with a string ``text``, or whose ``usage`` is not an object,
        raises :class:`MalformedDocument`."""
        script = read_json_object(path)
        for key, entry in script.items():
            if not isinstance(entry, str) and not (
                isinstance(entry, dict) and isinstance(entry.get("text"), str)
            ):
                raise MalformedDocument(
                    str(path), f"entry {key} is neither a string nor an object with a string 'text'"
                )
            if isinstance(entry, dict) and not isinstance(entry.get("usage", {}), dict):
                raise MalformedDocument(str(path), f"entry {key} has a 'usage' that is not an object")
        return cls(script)

    def complete(self, prompt: PromptBundle) -> CompletionResult:
        key = prompt_hash(prompt)
        entry = self.script.get(key)
        if entry is None:
            raise ProviderUnavailable(f"mock script has no entry for prompt hash {key}")
        if isinstance(entry, str):
            return CompletionResult(text=entry, finish_reason="stop")
        return CompletionResult(
            text=str(entry.get("text", "")),
            finish_reason=str(entry.get("finish_reason", "stop")),
            usage=dict(entry.get("usage", {})),
        )


class HttpProvider:
    """OpenAI-compatible chat-completion client with retry and backoff.

    Transient failures (connection errors, timeouts, 429 and 5xx replies)
    retry up to ``cfg.retries`` times after the reply's ``Retry-After``
    seconds when it sends them, else with exponential backoff that sleeps
    half its delay plus a random share of the other half, so clients that
    failed together do not retry together; either is capped at 8 s.
    Authentication failures never retry, nor does a 200 reply that is not
    JSON or carries no message (both raise :class:`ProviderUnavailable`).
    Every call posts to ``cfg.endpoint``, as the caller resolved it.

    The transport is the standard library's ``http.client``, imported when a
    provider is built, so runs without an HTTP provider never load it. Each
    call in flight holds one keep-alive connection and idle ones wait on a
    stack, so there are never more connections than calls were in flight at
    once. An idle connection the server has closed is reopened before it is
    used, without spending a retry. ``HTTP_PROXY``, ``HTTPS_PROXY`` and
    ``NO_PROXY`` are read once, here: an ``http`` request goes to the proxy
    in absolute form, an ``https`` one through a CONNECT tunnel. TLS
    certificates are checked against the default trust store, which
    ``SSL_CERT_FILE`` and ``SSL_CERT_DIR`` replace when set.
    """

    _sleep = staticmethod(time.sleep)
    _random = staticmethod(random.random)

    def __init__(self, cfg: ProviderConfig):
        import base64
        import ssl
        import urllib.request

        self.cfg = cfg
        url = urlsplit(cfg.endpoint)
        self._address = (url.hostname, url.port)
        self._target = urlunsplit(("", "", url.path or "/", url.query, ""))
        self._context = ssl.create_default_context() if url.scheme == "https" else None
        self._tunnel = None
        self._proxy_headers: dict[str, str] = {}
        proxies = urllib.request.getproxies_environment()
        proxy = proxies.get(url.scheme)
        if proxy and not urllib.request.proxy_bypass_environment(url.hostname, proxies):
            try:
                proxy_url = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
                proxy_port = proxy_url.port or 80
            except ValueError:  # an unclosed IPv6 bracket, or a port that is not 0 to 65535
                proxy_url = None
            if proxy_url is None or proxy_url.scheme != "http" or not proxy_url.hostname:
                raise ProviderUnavailable(f"proxy {proxy!r} is not an http:// URL with a host")
            if proxy_url.username is not None:
                user_pass = f"{unquote(proxy_url.username)}:{unquote(proxy_url.password or '')}"
                token = base64.b64encode(user_pass.encode("utf-8")).decode("ascii")
                self._proxy_headers["Proxy-Authorization"] = f"Basic {token}"
            if self._context is None:
                # http.client takes the Host header from the absolute URL.
                self._target = urlunsplit(("http", url.netloc, url.path or "/", url.query, ""))
            else:
                self._tunnel = (url.hostname, url.port or 443)
            self._address = (proxy_url.hostname, proxy_port)
        self._idle: list = []
        self._idle_lock = threading.Lock()

    def _new_connection(self):
        import http.client

        if self._context is None:
            return http.client.HTTPConnection(*self._address, timeout=self.cfg.timeout)
        connection = http.client.HTTPSConnection(
            *self._address, timeout=self.cfg.timeout, context=self._context
        )
        if self._tunnel:
            host, port = self._tunnel
            authority = f"[{host}]:{port}" if ":" in host else f"{host}:{port}"
            connection.set_tunnel(host, port, headers={**self._proxy_headers, "Host": authority})
            if ":" in host:
                connection._tunnel = lambda: _bracketed_tunnel(connection)
        return connection

    def close(self) -> None:
        """Close the idle connections; a later call opens new ones."""
        with self._idle_lock:
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()

    def _headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json", "User-Agent": "cdmgen"}
        if self.cfg.credential_env:
            token = os.environ.get(self.cfg.credential_env)
            if not token:
                raise AuthFailure(f"credential variable {self.cfg.credential_env} is not set")
            headers["Authorization"] = f"Bearer {token}"
        if self._tunnel is None:
            headers.update(self._proxy_headers)
        return headers

    def _post(self, body: bytes, headers: dict[str, str]):
        """Send one request on an idle connection, or on a new one when none
        is idle, and read the whole reply. A connection that fails is
        closed and not kept."""
        with self._idle_lock:
            connection = self._idle.pop() if self._idle else None
        if connection is None:
            connection = self._new_connection()
        elif connection.sock is not None and _readable(connection.sock):
            # An idle connection with something to read was closed by the
            # server; once closed, the request below opens it again.
            connection.close()
        try:
            connection.request("POST", self._target, body, headers)
            response = connection.getresponse()
            data = response.read()
        except BaseException:
            connection.close()
            raise
        with self._idle_lock:
            self._idle.append(connection)
        return response, data

    def complete(self, prompt: PromptBundle) -> CompletionResult:
        import http.client

        payload = {
            "model": self.cfg.model,
            "messages": [
                {"role": "system", "content": prompt.system_text},
                {"role": "user", "content": prompt.user_text},
            ],
            "max_tokens": MAX_OUTPUT_TOKENS,
            "temperature": TEMPERATURE,
        }
        body = json.dumps(payload, ensure_ascii=False, allow_nan=False).encode("utf-8")
        headers = self._headers()
        last_error: Exception | None = None
        retry_after = ""
        for attempt in range(self.cfg.retries + 1):
            if attempt:
                # Retry-After also allows an HTTP date, which backs off as usual.
                if retry_after.isdecimal():
                    self._sleep(min(float(retry_after), 8.0))
                else:
                    backoff = min(0.5 * 2 ** (attempt - 1), 8.0)
                    self._sleep(backoff / 2 + self._random() * backoff / 2)
            retry_after = ""
            try:
                response, data = self._post(body, headers)
            except TimeoutError:
                last_error = Timeout(f"provider call timed out after {self.cfg.timeout}s")
                logger.warning("provider timeout attempt=%d", attempt + 1)
                continue
            except (OSError, http.client.HTTPException) as exc:
                last_error = ProviderUnavailable(f"provider unreachable: {exc!r}")
                logger.warning("provider unreachable attempt=%d", attempt + 1)
                continue
            status = response.status
            if status in (401, 403):
                raise AuthFailure(f"provider rejected credentials ({status})")
            if status == 429 or status >= 500:
                text = data.decode("utf-8", "replace")
                last_error = ProviderUnavailable(f"provider error {status}: {text[:200]}")
                retry_after = response.getheader("Retry-After", "").strip()
                continue
            if status != 200:
                text = data.decode("utf-8", "replace")
                raise ProviderUnavailable(f"provider error {status}: {text[:200]}")
            try:
                reply = json.loads(data)
            except (ValueError, RecursionError) as exc:
                raise ProviderUnavailable(f"provider sent a non-JSON body: {exc}") from exc
            return self._parse(reply)
        raise last_error

    @staticmethod
    def _parse(body: dict) -> CompletionResult:
        try:
            choice = body["choices"][0]
            text = choice["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise ProviderUnavailable(f"malformed provider response: {exc}") from exc
        finish = choice.get("finish_reason") or "stop"
        if finish not in ("stop", "length"):
            finish = "stop"
        # A null or non-text content, one holding a lone surrogate, or a
        # usage that is not an object, reads as empty.
        if not isinstance(text, str) or lone_surrogate(text):
            text = ""
        usage = body.get("usage")
        return CompletionResult(
            text=text,
            finish_reason=finish,
            usage=dict(usage) if isinstance(usage, dict) else {},
        )


def _bracketed_tunnel(connection) -> None:
    """Open a tunnel as ``http.client`` does, but with an IPv6 host
    bracketed in CONNECT, which only Python 3.13 and later do themselves;
    the TLS check and the request's ``Host`` header are made afterwards from
    the bare host."""
    host = connection._tunnel_host
    connection._tunnel_host = f"[{host}]"
    try:
        type(connection)._tunnel(connection)
    finally:
        connection._tunnel_host = host


def _readable(sock) -> bool:
    """Whether ``sock`` has bytes or an end of stream waiting, without blocking."""
    import select

    if hasattr(select, "poll"):
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])


# ---------------------------------------------------------------------------
# structured output extraction


def _finite(literal: str) -> float:
    value = float(literal)
    if not math.isfinite(value):
        raise ValueError(f"{literal} is not a number a JSON file can hold")
    return value


# json's C scanner would read NaN, Infinity, -Infinity and 1e400 as
# non-finite floats; its hooks never run on integers or strings.
_DECODER = json.JSONDecoder(parse_float=_finite, parse_constant=_finite)


def extract_structured(text: str) -> dict:
    """First JSON object found in model output.

    Fenced code blocks are tried first and must decode whole; then the raw
    text is decoded from each ``{`` in turn, ignoring what follows the
    object. A candidate holding a number no JSON file can hold (``NaN``,
    ``Infinity``, ``-Infinity``, one too large for a float) or an integer
    too long for Python to read does not decode. Raises
    :class:`NoStructuredPayload` when nothing decodes, when a candidate is
    nested deeper than the parser's recursion limit, or when the object
    found holds a lone surrogate, which no file can hold.
    """
    try:
        payload = _first_object(text) if text else None
        # A surrogate comes from a \u escape, or from a provider's own text.
        surrogate = payload is not None and ("\\u" in text or not text.isascii()) and lone_surrogate(payload)
    except RecursionError:
        raise NoStructuredPayload("the JSON in model output is nested too deeply to read") from None
    if payload is None:
        raise NoStructuredPayload("no balanced JSON object found in model output")
    if surrogate:
        raise NoStructuredPayload(f"the JSON object in model output holds the lone surrogate {surrogate}")
    return payload


def _first_object(text: str) -> Optional[dict]:
    for block in _fenced_blocks(text):
        try:
            parsed = _DECODER.decode(block)
        except ValueError:
            continue
        if isinstance(parsed, dict):
            return parsed
    start = text.find("{")
    while start != -1:
        try:
            return _DECODER.raw_decode(text, start)[0]
        except ValueError:
            start = text.find("{", start + 1)
    return None


def _fenced_blocks(text: str):
    pieces = text.split("```")
    # Fence contents are the odd-numbered pieces; strip a leading language tag.
    for i in range(1, len(pieces), 2):
        block = pieces[i]
        first_newline = block.find("\n")
        if first_newline != -1 and block[:first_newline].strip().isalpha():
            block = block[first_newline + 1 :]
        yield block.strip()


# ---------------------------------------------------------------------------
# synthetic contract descriptions


def synthesize_description(provider, cdm_example: dict, reference_texts: Sequence[str]) -> str:
    """Generate a natural-language contract description from a CDM instance.

    The prompt embeds the structured example, encoded by
    :func:`evidence_json`, plus any reference term sheets as style guides.
    ``provider`` is any object with ``complete(prompt)``. A reply cut off
    at the length limit, or an empty or blank one, raises
    :class:`GenerationIncomplete`.
    """
    if not cdm_example:
        raise ValueError("cdm_example must be a non-empty structured value")
    sections = [f"Reference term sheet {i}:\n{sheet}" for i, sheet in enumerate(reference_texts, start=1)]
    sections.append("Structured contract data:\n" + evidence_json(cdm_example))
    completion = provider.complete(chat_prompt(prompt_head("synthesize"), sections))
    if completion.finish_reason == "length":
        raise GenerationIncomplete("the model's reply was cut off before the description ended")
    if not completion.text.strip():
        raise GenerationIncomplete("the model's reply holds no description")
    return completion.text
