"""cdmgen: template-driven conversion of contract text into CDM JSON.

The pipeline: load a schema corpus, derive a minimal template from example
instances, populate it task by task with an LLM (optionally retrieval
augmented), validate and clean the result, and score it for key existence,
type conformance, and semantic coverage.
"""

from .errors import CdmgenError
from .evaluator import (
    CoverageLists,
    CoverageWeights,
    EvaluationReport,
    aggregate,
    coverage_lists,
    coverage_score,
    evaluate_document,
)
from .gateway import (
    CompletionResult,
    HttpProvider,
    MockProvider,
    PromptBundle,
    ProviderConfig,
    extract_structured,
    prompt_hash,
    synthesize_description,
)
from .knowledge_base import Chunk, KnowledgeBase, ingest_examples, retrieve
from .populator import (
    PopulatedDocument,
    PopulationConfig,
    PopulationTask,
    baseline_generate,
    build_prompt,
    clean,
    compute_depths,
    populate,
    select_tasks,
    validate_shape,
)
from .schema_index import (
    PropertyDef,
    SchemaDocument,
    SchemaIndex,
    load_schema_dir,
)
from .template_builder import (
    Template,
    build_template,
    flatten_examples,
)

__version__ = "0.1.0"

__all__ = [
    "CdmgenError",
    "Chunk",
    "CompletionResult",
    "CoverageLists",
    "CoverageWeights",
    "EvaluationReport",
    "HttpProvider",
    "KnowledgeBase",
    "MockProvider",
    "PopulatedDocument",
    "PopulationConfig",
    "PopulationTask",
    "PromptBundle",
    "PropertyDef",
    "ProviderConfig",
    "SchemaDocument",
    "SchemaIndex",
    "Template",
    "aggregate",
    "baseline_generate",
    "build_prompt",
    "build_template",
    "clean",
    "compute_depths",
    "coverage_lists",
    "coverage_score",
    "evaluate_document",
    "extract_structured",
    "flatten_examples",
    "ingest_examples",
    "load_schema_dir",
    "populate",
    "prompt_hash",
    "retrieve",
    "select_tasks",
    "synthesize_description",
    "validate_shape",
]
