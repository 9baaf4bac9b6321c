"""Monochromatic tiling extraction in 2-coloured random graphs.

Split into four layers: graph substrate (graphs, patterns, sampling,
embeddings), the constructive tiling engine (richness, clusters,
extraction), brute-force oracles (oracles, aux_hypergraph), and the batch
harness (adversaries, sweep, fixtures, cli).
"""

from .graphs import Colour, ColouredGraph, Graph, colour_all, pattern_by_name
from .patterns import PatternStats, independence_number, m2_density
from .sampling import sample_gnp, threshold_probability
from .embeddings import EmbeddedCopy, find_mono_copy
from .richness import richness_probe
from .tilings import Tiling, validate_tiling
from .clusters import (
    ClusterCertificate,
    FailureReport,
    ProcessState,
    cluster_process,
    required_tiling_size,
    verify_cluster,
)
from .extraction import (
    ClusterFamily,
    ExtractionReport,
    extract_tiling,
    extraction_target,
    maximal_cluster_family,
)
from .oracles import (
    RtResult,
    clique_supersat_count,
    exact_rt,
    good_copy_count,
    richness_decide,
)
from .aux_hypergraph import AuxHypergraph, aux_degree_check, build_aux_hypergraph
from .adversaries import AdversarySpec, colour_with
from .sweep import SweepPlan, run_sweep

__all__ = [name for name in dir() if not name.startswith("_")]
