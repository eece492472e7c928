"""Smoke tests against a real model endpoint. Excluded from normal runs.

Set ``CDMGEN_LIVE_ENDPOINT`` (and optionally ``CDMGEN_LIVE_MODEL`` plus a
credential in ``CDMGEN_LIVE_TOKEN``) to exercise them, e.g. against a local
OpenAI-compatible server.
"""

from __future__ import annotations

import json
import os

import pytest

from cdmgen.gateway import HttpProvider, ProviderConfig, synthesize_description
from cdmgen.populator import PopulationConfig, clean, populate
from cdmgen.template_builder import build_template, flatten_examples

LIVE_ENDPOINT = os.environ.get("CDMGEN_LIVE_ENDPOINT")

pytestmark = pytest.mark.skipif(
    not LIVE_ENDPOINT, reason="CDMGEN_LIVE_ENDPOINT not configured"
)


@pytest.fixture()
def live_provider():
    cfg = ProviderConfig(
        endpoint=LIVE_ENDPOINT,
        model=os.environ.get("CDMGEN_LIVE_MODEL", "default"),
        credential_env="CDMGEN_LIVE_TOKEN" if os.environ.get("CDMGEN_LIVE_TOKEN") else "",
        timeout=120.0,
    )
    return HttpProvider(cfg)


def test_synthesize_mentions_a_distinctive_leaf_value(live_provider, examples_root):
    example = json.loads(
        (examples_root / "interest_rate_swap" / "irs-001.json").read_text(encoding="utf-8")
    )
    text = synthesize_description(live_provider, example, [])
    assert text.strip()
    assert "IRS-2024-0001" in text or "10,000,000" in text or "10000000" in text


def test_populate_live_round(live_provider, cdm_index, examples_root, contracts_dir):
    keys = flatten_examples(examples_root / "foreign_exchange")
    template = build_template(cdm_index, keys, "ForeignExchange")
    contract_text = (contracts_dir / "foreign_exchange.txt").read_text(encoding="utf-8")
    doc = populate(
        template, contract_text, None, live_provider, PopulationConfig(max_inflight=1)
    )
    assert clean(doc)
