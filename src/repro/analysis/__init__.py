"""Analysis layer: bound evaluators, scaling fits, progress metrics and tables."""

from .asymptotics import ExponentFit, fit_decades
from .bounds import (
    brr_broadcast_upper_bound,
    claim1_min_diameter,
    constant_degree_upper_bound,
    haeupler_upper_bound,
    is_protocol_upper_bound,
    k_dissemination_lower_bound,
    lemma1_tree_gossip_bound,
    lemma2_path_degree_bound,
    log2ceil,
    tag_broadcast_upper_bound,
    tag_upper_bound,
    tag_with_brr_upper_bound,
    tag_with_is_upper_bound,
    theorem2_bound_rounds,
    uniform_ag_upper_bound,
)
from .message_complexity import (
    MessageComplexity,
    message_complexity,
    minimum_helpful_receptions,
    minimum_rounds_from_messages,
    packet_size_bits,
)
from .progress import ProgressRecorder, RoundSnapshot, rounds_to_fraction_complete
from .stopping_time import LinearFit, PowerLawFit, fit_linear, fit_power_law
from .tables import format_table, rows_to_csv, table1_rows, table2_rows

__all__ = [
    "ExponentFit",
    "fit_decades",
    "brr_broadcast_upper_bound",
    "claim1_min_diameter",
    "constant_degree_upper_bound",
    "haeupler_upper_bound",
    "is_protocol_upper_bound",
    "k_dissemination_lower_bound",
    "lemma1_tree_gossip_bound",
    "lemma2_path_degree_bound",
    "log2ceil",
    "tag_broadcast_upper_bound",
    "tag_upper_bound",
    "tag_with_brr_upper_bound",
    "tag_with_is_upper_bound",
    "theorem2_bound_rounds",
    "uniform_ag_upper_bound",
    "MessageComplexity",
    "message_complexity",
    "minimum_helpful_receptions",
    "minimum_rounds_from_messages",
    "packet_size_bits",
    "ProgressRecorder",
    "RoundSnapshot",
    "rounds_to_fraction_complete",
    "LinearFit",
    "PowerLawFit",
    "fit_linear",
    "fit_power_law",
    "format_table",
    "rows_to_csv",
    "table1_rows",
    "table2_rows",
]
