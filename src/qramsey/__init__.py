"""Coloring searches and host constructions for spaces over GF(q).

Exact finite field arithmetic, canonical vector/affine subspace algebra,
Hales-Jewett line searches, arrow-relation decision procedures, and the
block/equalizer host construction with monochromatic-copy extraction.
"""

from .budget import Budget, BudgetExceededError
from .field import FIELD_ORDER_CAP, Field, make_field
from .space import (AFFINE, POINT_CAP, VECTOR, BasisSet, LinearMap,
                    SizeCapError, Subspace, apply, complement, compose,
                    coordinate_map, count_subspaces, direct_sum,
                    enumerate_subspaces, extend_to_basis, full_space,
                    gaussian_binomial, identity_map, image_space,
                    is_independent, linear_extension, span, zero_space)
from .coloring_search import find_proper_coloring
from .hales_jewett import (Line, all_words, enumerate_lines,
                           find_monochromatic_line, hj_number,
                           line_free_coloring, word_generators, word_index)
from .arrow import (ArrowInstance, ArrowResult, ArrowStructure, ColoringTable,
                    ConfigFamily, VerifyResult, arrow_holds, arrow_structure,
                    family_isomorphic, find_monochromatic_subspace,
                    induced_host_verify, min_arrow_N, structure_generators)
from .construction import (BaseHost, ConstructionCheckError,
                           ExtractionFailure, HostSpec, LineEmbedding,
                           MonochromaticCopy, ProductHost, auto_word_length,
                           build_base_host, build_product_host, color_pattern,
                           equalizer_subspace, extract_monochromatic_copy,
                           host_from_json, host_to_json, line_embedding)

__version__ = "0.1.0"
