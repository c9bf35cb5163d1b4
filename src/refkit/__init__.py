"""Toolkit for multiple-choice reference resolution data pipelines.

Turns parsed screens and candidate entity lists into the textual prompts a
resolver model consumes, generates labeled synthetic datasets from slot
templates, and scores raw resolver output under order-free set matching.
"""

from .cluster_encoder import (
    Cluster,
    ClusterEncoding,
    dbscan_cluster,
    encode_clusters,
    rect_distance,
)
from .entity_textualizer import (
    FieldSpec,
    RuleConflictError,
    RuleError,
    RuleRegistry,
    TextualizationRule,
    default_registry,
    load_rules,
    textualize_entity,
)
from .eval_harness import (
    AccuracyReport,
    ConstantResolver,
    EvaluationError,
    OracleResolver,
    Prediction,
    RemoteResolver,
    Resolver,
    ResolverError,
    evaluate_dataset,
    parse_prediction,
    score,
)
from .layout_encoder import (
    EncoderConfig,
    OnscreenParse,
    encode_screen,
)
from .prompt_builder import (
    INSTRUCTION,
    Prompt,
    build_conversational_prompt,
    build_onscreen_prompt,
    prompt_for_datapoint,
    shuffle_entities,
)
from .screen_model import (
    BBox,
    DataPoint,
    DatasetError,
    Entity,
    Placement,
    Point,
    Screen,
    ScreenObject,
    bbox_center,
    load_dataset,
    parse_dataset,
    save_dataset,
)
from .synth_datagen import (
    LanguageTemplate,
    SlotList,
    TemplateError,
    expand_template,
    generate_datapoints,
    load_templates,
)
