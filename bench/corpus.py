"""Seeded input corpora for the benchmark workloads.

Every generator here writes plain files (schema documents, example
instances, contract texts) into a work directory and returns a
:class:`Batch` that points at them; the pipeline under test receives only
those files. The same seed always yields byte-identical files.

Two corpora exist:

* :func:`fixture_batch` copies the repository's six fixture contract types
  (schema plus one example each) and writes seeded, distinct contract texts
  for several replicas of each type.
* :func:`cdm_scale_batch` generates a CDM-sized schema corpus of about two
  thousand interlinked documents. Its shape is fixed by :class:`ScaleSpec`
  and only names, orderings, targets and values vary with the seed, so the
  template of every contract type has the same number of leaves and tasks on
  every seed. That keeps count metrics equal across seeds and timing metrics
  comparable.
"""

from __future__ import annotations

import json
import posixpath
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path

WORDS = (
    "account", "accrual", "amount", "asset", "barrier", "basis", "benchmark",
    "buyer", "calculation", "calendar", "cash", "clearing", "collateral",
    "coupon", "credit", "currency", "curve", "delivery", "dividend", "equity",
    "exchange", "exercise", "expiry", "fixing", "floating", "forward",
    "frequency", "funding", "index", "interest", "issuer", "leg", "margin",
    "maturity", "notional", "obligation", "option", "party", "payer",
    "payment", "period", "premium", "price", "principal", "quantity", "rate",
    "receiver", "reference", "reset", "schedule", "seller", "settlement",
    "spread", "strike", "tenor", "termination", "threshold", "trigger",
    "underlier", "valuation", "venue", "volatility", "yield",
)

FIXTURE_TYPES = {
    "interest_rate_swap": "InterestRateSwap",
    "equity_swap": "EquitySwap",
    "equity_option": "EquityOption",
    "commodity_option": "CommodityOption",
    "foreign_exchange": "ForeignExchange",
    "credit_default_swap": "CreditDefaultSwap",
}

# Plain scalar kinds, cycled from a seeded offset. All have depth 1, so the
# choice changes names and values but never the template's shape.
PLAIN_KINDS = (
    "string", "number", "date", "enum", "boolean", "integer", "enum-ref",
    "described-date", "string-alias",
)


@dataclass
class Contract:
    name: str
    contract_type: str
    contract_path: Path
    examples_dir: Path


@dataclass
class Batch:
    """Files of one workload: a schema corpus and the contracts to convert."""

    schema_dir: Path
    root_file: str
    contracts: list[Contract]
    examples_dirs: dict[str, Path] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# contract text


def _humanize(name: str) -> str:
    out = []
    for char in name:
        if char.isupper() and out:
            out.append(" ")
        out.append(char.lower())
    return "".join(out)


def _sentence(path: str, value) -> str:
    segments = [s for s in path.split(".") if s]
    subject = " of the ".join(_humanize(s) for s in reversed(segments[-2:]))
    if isinstance(value, bool):
        value = "applicable" if value else "not applicable"
    return f"The {subject} is {value}."


def _contract_text(title: str, facts: list[tuple[str, object]], rng: random.Random, target: int) -> str:
    """Prose of about ``target`` characters stating seeded facts in turn."""
    parties = [f"{rng.choice(WORDS).title()} {rng.choice(('Bank', 'Capital', 'Markets'))}" for _ in range(2)]
    lines = [f"{title} Term Sheet", "", f"{parties[0]} and {parties[1]} enter into a {title.lower()}."]
    length = sum(len(line) + 1 for line in lines)
    order = list(range(len(facts)))
    rng.shuffle(order)
    for i in order:
        sentence = _sentence(*facts[i])
        if length + len(sentence) > target:
            break
        lines.append(sentence)
        length += len(sentence) + 1
    return "\n".join(lines) + "\n"


def _perturb(value, rng: random.Random):
    if isinstance(value, bool):
        return rng.random() < 0.5
    if isinstance(value, int):
        return value * rng.randint(1, 9)
    if isinstance(value, float):
        return round(value * rng.uniform(0.5, 2.0), 4)
    if isinstance(value, str) and len(value) == 10 and value[4] == "-" and value[7] == "-":
        return _date(rng)
    return value


def _date(rng: random.Random) -> str:
    return f"{rng.randint(2020, 2034)}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}"


def _leaves(value, prefix: str = ""):
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _leaves(child, f"{prefix}.{key}" if prefix else key)
    elif isinstance(value, list):
        for child in value:
            yield from _leaves(child, prefix)
    else:
        yield prefix, value


# ---------------------------------------------------------------------------
# fixture replicas


def fixture_batch(fixtures: Path, out: Path, rng: random.Random, replicas: int) -> Batch:
    """The six fixture contract types, ``replicas`` seeded texts each."""
    schema_dir = out / "schema"
    shutil.copytree(fixtures / "cdm_schema", schema_dir)
    contracts: list[Contract] = []
    examples_dirs: dict[str, Path] = {}
    for key, contract_type in FIXTURE_TYPES.items():
        examples_dir = out / "examples" / key
        shutil.copytree(fixtures / "cdm_examples" / key, examples_dir)
        examples_dirs[contract_type] = examples_dir
        facts = [
            fact
            for file in sorted(examples_dir.glob("*.json"))
            for fact in _leaves(json.loads(file.read_text(encoding="utf-8")))
        ]
        for r in range(replicas):
            varied = [(path, _perturb(value, rng)) for path, value in facts]
            path = out / "contracts" / f"{key}-{r:03d}.txt"
            _write(path, _contract_text(_humanize(contract_type).title(), varied, rng, 520))
            contracts.append(Contract(f"{key}-{r:03d}", contract_type, path, examples_dir))
    return Batch(schema_dir, "contract.schema.json", contracts, examples_dirs)


# ---------------------------------------------------------------------------
# CDM-scale corpus


@dataclass(frozen=True)
class ScaleSpec:
    """Shape of a generated corpus.

    ``refs[l]`` and ``arrays[l]`` give, for a document on level ``l + 1``,
    how many of its properties point at the next level and how many of
    those are arrays. ``scalars[l]`` counts its plain scalar properties, of
    which examples leave out ``drop`` per object. Terminal documents (the
    last level) carry ``terminal_scalars`` plain scalars plus one array of
    scalars. ``pool[l]`` is the number of documents on level ``l + 2`` that
    references choose from; ``total_docs`` is reached with unreferenced
    documents, as real schema corpora define many types no contract uses.
    """

    types: int
    examples_per_type: int
    contracts_per_type: int
    refs: tuple[int, ...]
    arrays: tuple[int, ...]
    scalars: tuple[int, ...]
    terminal_scalars: int
    drop: int
    pool: tuple[int, ...]
    total_docs: int
    text_chars: int


CDM_SCALE = ScaleSpec(
    types=4,
    examples_per_type=3,
    contracts_per_type=3,
    refs=(8, 5, 5),
    arrays=(1, 1, 1),
    scalars=(5, 4, 4),
    terminal_scalars=6,
    drop=1,
    pool=(40, 150, 380),
    total_docs=2000,
    text_chars=1200,
)

SMOKE_SCALE = ScaleSpec(
    types=2,
    examples_per_type=2,
    contracts_per_type=2,
    refs=(3, 2, 2),
    arrays=(1, 1, 1),
    scalars=(3, 3, 3),
    terminal_scalars=4,
    drop=1,
    pool=(6, 12, 24),
    total_docs=120,
    text_chars=600,
)


@dataclass
class _Prop:
    name: str
    kind: str  # a PLAIN_KINDS entry, "scalar-array", "ref" or "array-ref"
    target: str = ""  # document id for ref kinds; enum/alias doc for scalars
    enum: tuple[str, ...] = ()
    via: str = ""  # alias document the schema reference goes through


@dataclass
class _Doc:
    id: str
    description: str
    props: list[_Prop]
    body: dict = field(default_factory=dict)


class _CorpusBuilder:
    def __init__(self, spec: ScaleSpec, rng: random.Random):
        self.spec = spec
        self.rng = rng
        self.docs: dict[str, _Doc] = {}
        self.counter = 0

    # -- names ----------------------------------------------------------

    def _word(self) -> str:
        return self.rng.choice(WORDS)

    def _prop_names(self, n: int) -> list[str]:
        names: list[str] = []
        while len(names) < n:
            name = self._word() + self._word().title()
            if name not in names:
                names.append(name)
        return names

    def _doc_id(self, folder: str) -> str:
        self.counter += 1
        return f"{folder}/{self._word()}-{self._word()}-{self.counter:04d}.schema.json"

    def _describe(self) -> str:
        return f"Terms of the {self._word()} {self._word()} for the {self._word()}."

    # -- documents ------------------------------------------------------

    def scalar_doc(self, folder: str, body: dict) -> str:
        doc_id = self._doc_id(folder)
        self.docs[doc_id] = _Doc(doc_id, "", [], body)
        return doc_id

    def plain_props(self, names: list[str]) -> list[_Prop]:
        offset = self.rng.randrange(len(PLAIN_KINDS))
        props = []
        for i, name in enumerate(names):
            kind = PLAIN_KINDS[(offset + i) % len(PLAIN_KINDS)]
            enum: tuple[str, ...] = ()
            target = ""
            if kind in ("enum", "enum-ref"):
                enum = tuple(self._word().upper() for _ in range(4))
            if kind == "enum-ref":
                target = self.scalar_doc("enums", {"type": "string", "enum": list(enum)})
            elif kind == "string-alias":
                scalar = self.scalar_doc("scalars", {"type": "string", "description": self._describe()})
                target = self.scalar_doc("aliases", {"$ref": scalar})
            props.append(_Prop(name, kind, target, enum))
        return props

    def object_doc(self, folder: str, props: list[_Prop]) -> str:
        doc_id = self._doc_id(folder)
        self.docs[doc_id] = _Doc(doc_id, self._describe(), props)
        return doc_id

    def terminal_doc(self, folder: str) -> str:
        *names, listed = self._prop_names(self.spec.terminal_scalars + 1)
        props = self.plain_props(names)
        props.append(_Prop(listed, "scalar-array"))
        return self.object_doc(folder, props)

    def level_doc(self, level: int, pools: list[list[str]]) -> str:
        """A level document whose references point into ``pools[level]``."""
        spec = self.spec
        names = self._prop_names(spec.refs[level] + spec.scalars[level])
        kinds = ["array-ref"] * spec.arrays[level] + ["ref"] * (spec.refs[level] - spec.arrays[level])
        props = []
        for name, kind in zip(names, kinds):
            target = self.rng.choice(pools[level])
            # One reference in four goes through an alias document.
            via = self.scalar_doc("aliases", {"$ref": target}) if self.rng.random() < 0.25 else ""
            props.append(_Prop(name, kind, target, via=via))
        props += self.plain_props(names[spec.refs[level]:])
        self.rng.shuffle(props)
        return self.object_doc(f"l{level + 1}", props)


def _relative(from_doc: str, target: str) -> str:
    return posixpath.relpath(target, posixpath.dirname(from_doc) or ".")


def _schema_of(doc: _Doc, builder: _CorpusBuilder) -> dict:
    """JSON schema body for a generated document.

    One terminal document in three is written as an ``allOf`` over two
    halves of its properties, one in three as a ``oneOf``.
    """
    if doc.body:
        body = dict(doc.body)
        if "$ref" in body:
            body["$ref"] = _relative(doc.id, body["$ref"])
        return body
    rng = builder.rng
    props = {}
    for prop in doc.props:
        props[prop.name] = _prop_schema(doc.id, prop, builder)
    body: dict = {"description": doc.description}
    style = rng.randrange(3) if doc.id.startswith("terminal/") else 0
    names = list(props)
    if style == 0 or len(names) < 2:
        body["properties"] = props
    else:
        half = len(names) // 2
        first = {n: props[n] for n in names[:half]}
        second = {n: props[n] for n in names[half:]}
        keyword = "allOf" if style == 1 else "oneOf"
        body[keyword] = [{"properties": first}, {"properties": second}]
    return body


def _prop_schema(doc_id: str, prop: _Prop, builder: _CorpusBuilder) -> dict:
    describe = builder._describe
    if prop.kind in ("ref", "array-ref"):
        ref = {"$ref": _relative(doc_id, prop.via or prop.target)}
        if prop.kind == "ref":
            return ref
        return {"type": "array", "items": ref, "description": describe()}
    if prop.kind == "scalar-array":
        return {"type": "array", "items": {"type": "string"}, "description": describe()}
    if prop.kind in ("enum-ref", "string-alias"):
        return {"$ref": _relative(doc_id, prop.target)}
    if prop.kind == "enum":
        return {"type": "string", "enum": list(prop.enum), "description": describe()}
    if prop.kind == "date":
        return {"type": "string", "format": "date", "description": describe()}
    if prop.kind == "described-date":
        return {"type": "string", "description": f"The {builder._word()} date of the trade."}
    return {"type": prop.kind, "description": describe()}


def _sample(prop: _Prop, rng: random.Random):
    kind = prop.kind
    if kind in ("enum", "enum-ref"):
        return rng.choice(prop.enum)
    if kind in ("date", "described-date"):
        return _date(rng)
    if kind == "number":
        return round(rng.uniform(1e3, 1e7), 2)
    if kind == "integer":
        return rng.randint(1, 360)
    if kind == "boolean":
        return rng.random() < 0.5
    if kind == "scalar-array":
        return [f"{rng.choice(WORDS).upper()}-{rng.randint(100, 999)}" for _ in range(2)]
    return f"{rng.choice(WORDS).title()}-{rng.randint(1000, 9999)}"


def _instance(builder: _CorpusBuilder, doc_id: str, drops: dict, path: str) -> dict:
    """One example object at ``path``, without the properties ``drops`` names.

    ``drops`` maps an instance path to the plain properties left out there;
    it is shared by the examples of one type so that they cover the same key
    paths. Root-level arrays get two elements and deeper ones one, which
    keeps an example close to its template's size.
    """
    doc = builder.docs[doc_id]
    rng = builder.rng
    plain = [p.name for p in doc.props if p.kind in PLAIN_KINDS]
    if path not in drops:
        drops[path] = set(rng.sample(plain, min(builder.spec.drop, len(plain) - 1)))
    dropped = drops[path]
    out: dict = {}
    for prop in doc.props:
        if prop.name in dropped:
            continue
        child_path = f"{path}.{prop.name}" if path else prop.name
        if prop.kind == "ref":
            out[prop.name] = _instance(builder, prop.target, drops, child_path)
        elif prop.kind == "array-ref":
            count = 2 if not path else 1
            out[prop.name] = [
                _instance(builder, prop.target, drops, child_path) for _ in range(count)
            ]
        else:
            out[prop.name] = _sample(prop, rng)
    return out


def cdm_scale_batch(out: Path, rng: random.Random, spec: ScaleSpec = CDM_SCALE) -> Batch:
    """A generated schema corpus plus examples and contracts per type."""
    builder = _CorpusBuilder(spec, rng)
    levels = len(spec.refs)
    pools: list[list[str]] = [[] for _ in range(levels)]
    # Build bottom-up so every reference has its target pool ready.
    pools[levels - 1] = [builder.terminal_doc("terminal") for _ in range(spec.pool[levels - 1])]
    for level in range(levels - 2, -1, -1):
        pools[level] = [builder.level_doc(level + 1, pools) for _ in range(spec.pool[level])]

    type_names: list[str] = []
    while len(type_names) < spec.types:
        name = builder._word().title() + builder._word().title()
        if name not in type_names:
            type_names.append(name)
    branches = [builder.level_doc(0, pools) for _ in type_names]
    branch_props = builder._prop_names(spec.types)

    common = [
        _Prop("contractType", "enum", "", tuple(type_names)),
        _Prop("tradeDate", "date"),
        _Prop("party", "array-ref", builder.terminal_doc("terminal")),
        _Prop("tradeIdentifier", "ref", builder.terminal_doc("terminal")),
    ]

    while len(builder.docs) < spec.total_docs - 1:
        builder.terminal_doc("unused")

    schema_dir = out / "schema"
    root_id = "contract.schema.json"
    for doc in builder.docs.values():
        _write(schema_dir / doc.id, json.dumps(_schema_of(doc, builder), indent=2) + "\n")
    root = {
        "description": "A single OTC derivative contract record.",
        "properties": {p.name: _prop_schema(root_id, p, builder) for p in common},
        "oneOf": [
            {"properties": {name: {"$ref": _relative(root_id, branch)}}}
            for name, branch in zip(branch_props, branches)
        ],
    }
    _write(schema_dir / root_id, json.dumps(root, indent=2) + "\n")

    contracts: list[Contract] = []
    examples_dirs: dict[str, Path] = {}
    for t, contract_type in enumerate(type_names):
        # The root as this type's examples see it: common fields + its branch.
        builder.docs["root"] = _Doc("root", "", common + [_Prop(branch_props[t], "ref", branches[t])])
        drops: dict = {"": set()}
        examples_dir = out / "examples" / contract_type
        examples_dirs[contract_type] = examples_dir
        first = None
        for e in range(spec.examples_per_type):
            instance = _instance(builder, "root", drops, "")
            instance["contractType"] = contract_type
            first = first or instance
            _write(examples_dir / f"example-{e:02d}.json", json.dumps(instance, indent=2) + "\n")
        facts = list(_leaves(first))
        for c in range(spec.contracts_per_type):
            varied = [(path, _perturb(value, rng)) for path, value in facts]
            name = f"{contract_type}-{c:02d}"
            path = out / "contracts" / f"{name}.txt"
            _write(path, _contract_text(_humanize(contract_type).title(), varied, rng, spec.text_chars))
            contracts.append(Contract(name, contract_type, path, examples_dir))
    del builder.docs["root"]
    return Batch(schema_dir, root_id, contracts, examples_dirs)


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
