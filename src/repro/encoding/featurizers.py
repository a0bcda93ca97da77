"""Per-LQO encoding specifications mirroring Table 1 of the paper.

Each :class:`EncodingSpec` records which encoding components a learned query
optimizer uses (query-level adjacency matrix, numerical/text attribute
handling, plan-level join/scan/table identifiers), how encodings are
aggregated, which ML model family consumes them and how the method is tested.
The specs are data: only Table 1 (the ``table1`` entry of
:data:`repro.experiments.figures.FIGURES`) reads them.
They describe the published methods, RTOS, Lero and LOGER included, not the
feature pipelines of the implementations in :mod:`repro.lqo`, which all encode
plans with the one tree convolution of :mod:`repro.ml.tree_models`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import EncodingError


@dataclass(frozen=True)
class EncodingSpec:
    """Structured description of one LQO's encoding pipeline (Table 1 row)."""

    name: str
    # --- query encoding ---------------------------------------------------
    uses_adjacency_matrix: bool
    numerical_attributes: str  # "cardinality", "filters", or "-"
    text_attributes: str  # "word2vec", "cardinality", or "-"
    encoding_aggregation: str  # "stacking", "FC + pooling", ...
    # --- plan encoding -----------------------------------------------------
    uses_join_type: bool
    uses_scan_type: bool
    uses_table_identifier: bool
    uses_extra_training_data: bool
    # --- training specifics --------------------------------------------------
    ml_model: str  # "Regression" or "LTR"
    plan_processing: str  # "Tree-CNN" or "Tree-LSTM"
    model_output: str  # "Plan", "Hint set", "Hint"
    testing: str  # "Static", "CV", "Time Series"
    dbms_integration: bool

    @property
    def uses_query_encoding(self) -> bool:
        """Whether the method encodes the query at all (Bao and Lero do not)."""
        return self.uses_adjacency_matrix or self.numerical_attributes != "-"

    def table1_row(self) -> dict[str, str]:
        """Render this spec as one row of Table 1 (checkmarks as in the paper)."""
        def check(flag: bool) -> str:
            return "yes" if flag else "-"

        return {
            "LQO": self.name,
            "Adjacency Matrix": check(self.uses_adjacency_matrix),
            "Numerical Attributes": self.numerical_attributes,
            "Text Attributes": self.text_attributes,
            "Encoding Aggregation": self.encoding_aggregation,
            "Join Type": check(self.uses_join_type),
            "Scan Type": check(self.uses_scan_type),
            "Table Identifier": check(self.uses_table_identifier),
            "Data+": check(self.uses_extra_training_data),
            "ML Model": self.ml_model,
            "Plan Processing": self.plan_processing,
            "Model Output": self.model_output,
            "Testing": self.testing,
            "DBMS Integration": check(self.dbms_integration),
        }


#: Table 1 of the paper, method by method.
ENCODING_SPECS: dict[str, EncodingSpec] = {
    "neo": EncodingSpec(
        name="Neo",
        uses_adjacency_matrix=True,
        numerical_attributes="cardinality",
        text_attributes="word2vec",
        encoding_aggregation="stacking",
        uses_join_type=True,
        uses_scan_type=True,
        uses_table_identifier=True,
        uses_extra_training_data=False,
        ml_model="Regression",
        plan_processing="Tree-CNN",
        model_output="Plan",
        testing="Static",
        dbms_integration=False,
    ),
    "rtos": EncodingSpec(
        name="RTOS",
        uses_adjacency_matrix=True,
        numerical_attributes="filters",
        text_attributes="cardinality",
        encoding_aggregation="FC + pooling",
        uses_join_type=False,
        uses_scan_type=False,
        uses_table_identifier=True,
        uses_extra_training_data=False,
        ml_model="Regression",
        plan_processing="Tree-LSTM",
        model_output="Plan",
        testing="CV",
        dbms_integration=False,
    ),
    "bao": EncodingSpec(
        name="Bao",
        uses_adjacency_matrix=False,
        numerical_attributes="-",
        text_attributes="-",
        encoding_aggregation="-",
        uses_join_type=True,
        uses_scan_type=True,
        uses_table_identifier=False,
        uses_extra_training_data=True,
        ml_model="Regression",
        plan_processing="Tree-CNN",
        model_output="Hint set",
        testing="Time Series",
        dbms_integration=True,
    ),
    "balsa": EncodingSpec(
        name="Balsa",
        uses_adjacency_matrix=True,
        numerical_attributes="cardinality",
        text_attributes="cardinality",
        encoding_aggregation="stacking",
        uses_join_type=True,
        uses_scan_type=True,
        uses_table_identifier=True,
        uses_extra_training_data=False,
        ml_model="Regression",
        plan_processing="Tree-CNN",
        model_output="Plan",
        testing="Static",
        dbms_integration=False,
    ),
    "lero": EncodingSpec(
        name="Lero",
        uses_adjacency_matrix=False,
        numerical_attributes="-",
        text_attributes="-",
        encoding_aggregation="-",
        uses_join_type=True,
        uses_scan_type=True,
        uses_table_identifier=True,
        uses_extra_training_data=True,
        ml_model="LTR",
        plan_processing="Tree-CNN",
        model_output="Plan",
        testing="Static",
        dbms_integration=True,
    ),
    "leon": EncodingSpec(
        name="LEON",
        uses_adjacency_matrix=True,
        numerical_attributes="cardinality",
        text_attributes="cardinality",
        encoding_aggregation="stacking",
        uses_join_type=True,
        uses_scan_type=True,
        uses_table_identifier=True,
        uses_extra_training_data=False,
        ml_model="LTR",
        plan_processing="Tree-CNN",
        model_output="Plan",
        testing="Static",
        dbms_integration=False,
    ),
    "loger": EncodingSpec(
        name="LOGER",
        uses_adjacency_matrix=True,
        numerical_attributes="filters",
        text_attributes="cardinality",
        encoding_aggregation="FC + pooling + GT",
        uses_join_type=True,
        uses_scan_type=False,
        uses_table_identifier=True,
        uses_extra_training_data=False,
        ml_model="Regression",
        plan_processing="Tree-LSTM",
        model_output="Hint",
        testing="Static",
        dbms_integration=False,
    ),
    "hybridqo": EncodingSpec(
        name="HybridQO",
        uses_adjacency_matrix=True,
        numerical_attributes="cardinality",
        text_attributes="cardinality",
        encoding_aggregation="stacking + FC",
        uses_join_type=True,
        uses_scan_type=True,
        uses_table_identifier=True,
        uses_extra_training_data=True,
        ml_model="Regression",
        plan_processing="Tree-LSTM",
        model_output="Plan",
        testing="Static",
        dbms_integration=False,
    ),
}


def featurizer_for(method: str) -> EncodingSpec:
    """Look up the encoding specification of a method (case-insensitive)."""
    key = method.lower()
    if key not in ENCODING_SPECS:
        raise EncodingError(
            f"no encoding specification for method {method!r}; "
            f"known methods: {sorted(ENCODING_SPECS)}"
        )
    return ENCODING_SPECS[key]


def table1_rows() -> list[dict[str, str]]:
    """All Table 1 rows in the paper's order."""
    order = ["neo", "rtos", "bao", "balsa", "lero", "leon", "loger", "hybridqo"]
    return [ENCODING_SPECS[m].table1_row() for m in order]
