"""Exception types shared across the cdmgen pipeline.

Every domain failure raised by this package derives from ``CdmgenError`` so
callers (and the CLI exit-code mapping) can catch one base class. Transport
and parsing errors carry enough context to locate the offending file, path,
or prompt.
"""

from __future__ import annotations


class CdmgenError(Exception):
    """Base class for all domain errors raised by cdmgen."""


# ---------------------------------------------------------------------------
# schema loading / lookup


class MissingRoot(CdmgenError):
    """The declared root schema file is absent from the schema directory."""


class UnresolvedRef(CdmgenError):
    """A schema reference names a document that does not exist.

    ``referencing_path`` names where the dangling reference is written: a
    document id, then ``#`` and the property or member that holds it, if any.
    """

    def __init__(self, ref_text: str, referencing_path: str):
        self.ref_text = ref_text
        self.referencing_path = referencing_path
        super().__init__(f"unresolved schema reference {ref_text!r} (referenced from {referencing_path})")


class MalformedDocument(CdmgenError):
    """A JSON input file failed to parse, at byte ``offset``, or parsed but
    is not the object expected (``offset`` is None)."""

    def __init__(self, file: str, detail: str, offset: int | None = None):
        self.file = file
        self.offset = offset
        where = "" if offset is None else f" parse failure at byte offset {offset}:"
        super().__init__(f"{file}:{where} {detail}")


class CycleDetected(CdmgenError):
    """Reference resolution exceeded the configured depth guard."""


# ---------------------------------------------------------------------------
# examples / knowledge base


class EmptyExampleDir(CdmgenError):
    """An example directory contains no example files, or none with a leaf."""


# ---------------------------------------------------------------------------
# providers


class ProviderOutage(CdmgenError):
    """The provider cannot serve this run, so the run stops at once.

    A population run it stops sets ``provenance`` to the records of the
    tasks that finished first, None when no task reached the provider
    (:meth:`populator.PendingPopulation.collect`).
    """

    provenance: dict | None = None


class ProviderUnavailable(ProviderOutage):
    """The completion provider could not be reached, kept failing or
    rate-limiting past its retries, or sent a reply that is not the
    expected JSON."""


class AuthFailure(ProviderOutage):
    """The provider rejected or could not resolve the configured credential."""


class Timeout(ProviderOutage):
    """A provider call exceeded its configured timeout after all retries."""


class NoStructuredPayload(CdmgenError):
    """No balanced, parseable JSON object could be extracted from model text."""


class GenerationIncomplete(CdmgenError):
    """Generation ended without a complete result: direct generation was
    truncated before the document closed, or a synthesized description is
    empty."""


class PopulationIncomplete(CdmgenError):
    """Some population tasks never validated; the document was still
    written, with those tasks' placeholders cleaned away."""


# ---------------------------------------------------------------------------
# evaluation


class EmptyDocument(CdmgenError):
    """The document under evaluation contains no keys."""


class ListParseFailure(CdmgenError):
    """The coverage reply is missing one of the three required lists."""


class DegenerateDenominator(CdmgenError):
    """Coverage score is undefined because all three counts are zero."""


class EmptyGroup(CdmgenError):
    """An aggregation group contains no reports."""


# ---------------------------------------------------------------------------
# output


class OutputUnwritable(CdmgenError):
    """An output file, or a directory to hold it, could not be made or
    written."""
