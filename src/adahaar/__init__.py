"""Adaptive Haar-type tight framelets on hierarchical partitions of [0,1]^d.

The pipeline for a directed graph: symmetrize it into an undirected pair,
coarse-grain each into a chain, embed the chains as nested interval
partitions, tensor them into a partition of the unit square, and represent
vertex signals in the framelet system built on that partition.
"""

from .embedding import (IntervalEmbedding, VertexBlockMap, chain_to_intervals,
                        digraph_embedding, function_to_signal, prune_redundant,
                        restrict_system, signal_to_function, vertex_span_bounds)
from .errors import (AdahaarError, BadClustering, BadPair, BadWeights,
                     ClustererStalled, DegenerateSpan, DepthMismatch,
                     GapOrOverlap, IndexMismatch, NotNested, ParseError,
                     PartitionMismatch, UnknownVertex, ValidationError,
                     ZeroDegreeCluster)
from .framelets import (CoefficientVector, FrameletSystem, PwcFunction,
                        analyze, build_system, inner_product,
                        refinement_matrix, synthesize)
from .graphs import (Chain, Clustering, Graph, build_chain, coarse_grain,
                     default_cluster, is_weakly_connected, pad_chain,
                     symmetrize)
from .hierarchy import (Block, HierarchicalPartition, Interval,
                        PartitionReport, TensorPartition, as_fraction,
                        make_dyadic_partition, refine_interval_level,
                        tensor_partitions, validate_partition)

__version__ = "0.1.0"
