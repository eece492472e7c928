"""Uniform access to chat-completion providers.

Two completion providers are included: an HTTP client speaking the
OpenAI-compatible chat wire shape (covering both hosted and locally served
models) and a fully deterministic mock that replays scripted responses
keyed by a stable hash of the prompt, so every downstream module is
testable offline.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Optional, Sequence
from urllib.parse import urlsplit

from . import prompts
from .errors import (
    AuthFailure,
    GenerationIncomplete,
    MalformedDocument,
    NoStructuredPayload,
    ProviderUnavailable,
    Timeout,
)
from .treeops import conforms, read_json_object

if TYPE_CHECKING:
    import requests

logger = logging.getLogger(__name__)

# Sent with every chat request; the prompt hash covers only the text.
MAX_OUTPUT_TOKENS = 2048
TEMPERATURE = 0.0


@dataclass(frozen=True)
class PromptBundle:
    system_text: str
    user_text: str

    @property
    def digest(self) -> str:
        """sha256 over system text, a NUL byte and user text, computed once
        per bundle: the populator and the mock provider both ask for it.

        Kept in the instance dict by hand, as ``functools.cached_property``
        would, but without its class-wide lock, so worker threads hash
        their own prompts at once; a race only computes the same value twice.
        """
        cached = self.__dict__.get("_digest")
        if cached is None:
            digest = hashlib.sha256()
            digest.update(self.system_text.encode("utf-8"))
            digest.update(b"\x00")
            digest.update(self.user_text.encode("utf-8"))
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
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")


@dataclass(frozen=True)
class CompletionResult:
    text: str
    finish_reason: str  # "stop" | "length" | "error"
    usage: Mapping[str, int] = field(default_factory=dict)


def prompt_hash(prompt: PromptBundle) -> str:
    """Stable identity of a prompt: sha256 over system and user text."""
    return prompt.digest


def chat_prompt(
    kind: str, contract_text: Optional[str] = None, sections: Sequence[str] = (), references=()
) -> PromptBundle:
    """The one request layout: ``{kind}_system.txt`` as the system text; as
    the user text, ``{kind}_instructions.txt``, the contract description when
    given, the caller's ``sections`` and the bodies of the retrieved chunks
    in ``references`` under one heading when any, joined by blank lines."""
    parts = [prompts.load(f"{kind}_instructions.txt")]
    if contract_text is not None:
        parts.append(f"Contract description:\n{contract_text}")
    parts += sections
    if references:
        bodies = "\n\n".join(chunk.body for chunk in references)
        parts.append(f"Reference examples from similar contracts:\n{bodies}")
    return PromptBundle(prompts.load(f"{kind}_system.txt"), "\n\n".join(parts))


def follow_up(prompt: PromptBundle, resource: str, report=None) -> PromptBundle:
    """A re-ask: ``prompt`` with the ``resource`` text after a blank line,
    then the JSON ``report``, when there is one, from the next line. Built
    from the original request, so identical failures give identical prompts."""
    user_text = prompt.user_text + "\n\n" + prompts.load(resource)
    if report is not None:
        user_text += "\n" + json.dumps(report, indent=2, ensure_ascii=False)
    return PromptBundle(prompt.system_text, user_text)


class MockProvider:
    """Replays scripted responses keyed by prompt hash.

    Script entries map a prompt hash to either a plain string (finish reason
    ``stop``) or ``{"text": ..., "finish_reason": ...}``. An unscripted
    prompt raises :class:`ProviderUnavailable` carrying the missing hash, so
    incomplete scripts fail loudly instead of fabricating output.
    """

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
    retry up to ``cfg.retries`` times with exponential backoff, or after
    the reply's ``Retry-After`` seconds when it sends them, either capped at
    8 s. Authentication failures never retry, nor does a 200 reply that is
    not JSON or carries no message (both raise :class:`ProviderUnavailable`).
    Every call posts to ``cfg.endpoint``, as the caller resolved it.
    ``requests`` is imported here, not with the module, so runs without an
    HTTP provider never load it.

    A session built here keeps up to ``max_inflight`` connections per host
    (at least the 10 ``requests`` keeps), so that many concurrent calls
    reuse theirs; an injected ``session`` is used as it is.
    """

    _sleep = staticmethod(time.sleep)

    def __init__(
        self, cfg: ProviderConfig, session: Optional[requests.Session] = None, max_inflight: int = 1
    ):
        import requests

        self.cfg = cfg
        if session is None:
            session = requests.Session()
            adapter = requests.adapters.HTTPAdapter(pool_maxsize=max(10, max_inflight))
            session.mount("http://", adapter)
            session.mount("https://", adapter)
        self.session = session

    def _headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        if self.cfg.credential_env:
            token = os.environ.get(self.cfg.credential_env)
            if not token:
                raise AuthFailure(f"credential variable {self.cfg.credential_env} is not set")
            headers["Authorization"] = f"Bearer {token}"
        return headers

    def complete(self, prompt: PromptBundle) -> CompletionResult:
        import requests

        payload = {
            "model": self.cfg.model,
            "messages": [
                {"role": "system", "content": prompt.system_text},
                {"role": "user", "content": prompt.user_text},
            ],
            "max_tokens": MAX_OUTPUT_TOKENS,
            "temperature": TEMPERATURE,
        }
        headers = self._headers()
        last_error: Exception | None = None
        retry_after = ""
        for attempt in range(self.cfg.retries + 1):
            if attempt:
                # Retry-After also allows an HTTP date, which backs off as usual.
                delay = float(retry_after) if retry_after.isdecimal() else 0.5 * 2 ** (attempt - 1)
                self._sleep(min(delay, 8.0))
            retry_after = ""
            try:
                response = self.session.post(
                    self.cfg.endpoint, json=payload, headers=headers, timeout=self.cfg.timeout
                )
            except requests.Timeout:
                last_error = Timeout(f"provider call timed out after {self.cfg.timeout}s")
                logger.warning("provider timeout attempt=%d", attempt + 1)
                continue
            except requests.RequestException as exc:
                last_error = ProviderUnavailable(f"provider unreachable: {exc}")
                logger.warning("provider unreachable attempt=%d", attempt + 1)
                continue
            if response.status_code in (401, 403):
                raise AuthFailure(f"provider rejected credentials ({response.status_code})")
            if response.status_code == 429 or response.status_code >= 500:
                last_error = ProviderUnavailable(
                    f"provider error {response.status_code}: {response.text[:200]}"
                )
                retry_after = response.headers.get("Retry-After", "").strip()
                continue
            if response.status_code != 200:
                raise ProviderUnavailable(
                    f"provider error {response.status_code}: {response.text[:200]}"
                )
            try:
                body = response.json()
            except ValueError as exc:
                raise ProviderUnavailable(f"provider sent a non-JSON body: {exc}") from exc
            return self._parse(body)
        raise last_error if last_error else ProviderUnavailable("provider call failed")

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
        # A null or non-text content, or a usage that is not an object, reads as empty.
        usage = body.get("usage")
        return CompletionResult(
            text=text if isinstance(text, str) else "",
            finish_reason=finish,
            usage=dict(usage) if isinstance(usage, dict) else {},
        )


# ---------------------------------------------------------------------------
# structured output extraction


_DECODER = json.JSONDecoder()


def extract_structured(text: str) -> dict:
    """First JSON object found in model output.

    Fenced code blocks are tried first and must decode whole; then the raw
    text is decoded from each ``{`` in turn, ignoring what follows the
    object. Raises :class:`NoStructuredPayload` when nothing decodes.
    """
    if text:
        for block in _fenced_blocks(text):
            try:
                parsed = json.loads(block)
            except json.JSONDecodeError:
                continue
            if isinstance(parsed, dict):
                return parsed
        start = text.find("{")
        while start != -1:
            try:
                return _DECODER.raw_decode(text, start)[0]
            except json.JSONDecodeError:
                start = text.find("{", start + 1)
    raise NoStructuredPayload("no balanced JSON object found in model output")


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

    The prompt embeds the structured example plus any reference term sheets
    as style guides. ``provider`` is any object with ``complete(prompt)``.
    An empty or blank reply raises :class:`GenerationIncomplete`.
    """
    if not cdm_example:
        raise ValueError("cdm_example must be a non-empty structured value")
    sections = [f"Reference term sheet {i}:\n{sheet}" for i, sheet in enumerate(reference_texts, start=1)]
    sections.append(
        "Structured contract data:\n" + json.dumps(cdm_example, indent=2, ensure_ascii=False)
    )
    text = provider.complete(chat_prompt("synthesize", sections=sections)).text
    if not text.strip():
        raise GenerationIncomplete("the model's reply holds no description")
    return text
