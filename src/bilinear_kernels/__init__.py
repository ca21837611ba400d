"""Minimum-multiplication algorithms for structured matrix-vector products,
with an instrumented arithmetic layer that proves each kernel's exact
bilinear multiplication count and a tensor laboratory that certifies the
counts against structure-tensor rank bounds."""

from .counting import (CountContext, DivisionByZero, Kind, TrackedScalar,
                       TrackedVector, as_vector, constant, constants, to_scalars,
                       variable, variables)
from .groups import (GroupAlgebraElement, GroupTable, blocked_simultaneous, cu_matmul,
                     cyclic_group, d4_simultaneous, dihedral8, group_algebra_mul,
                     tpp_check, wedderburn_d4, wedderburn_d4_inverse, x8_simultaneous)
from .extraction import RankCertificate, certify_rank, extract_decomposition
from .kernels import (KernelReport, SingularMatrix, circulant_inverse,
                      circulant_matvec, commutator_2x2,
                      f_circulant_inverse, f_circulant_matvec, formula_count,
                      gauss_complex_mul, hankel_matvec, kernel_report,
                      multilevel_matvec, skew_symmetric_matvec, structured_matvec,
                      symmetric_matvec, toeplitz_matmul,
                      toeplitz_matvec, tph_matvec, triangular_toeplitz_matvec)
from .rng import Lcg
from .spectral import RootTable, dft, idft, principal_root, root_table, scaled_dft, scaled_idft
from .structures import (LevelSpec, SchemaError, SparsityPattern, StructureKind,
                         StructuredMatrix, basis, densify, naive_count, naive_matvec,
                         param_count, parse_matrix, parse_vector, serialize_matrix,
                         serialize_vector, structure_dim, structured)
from .tensorlab import (DecompositionTerm, OttavianiReport, Tensor3,
                        TensorDecomposition, VerificationReport,
                        build_structure_tensor, commutator_beta_tensor,
                        complex_mul_decomposition, complex_mul_tensor, contract,
                        decomposition_tensor, flattening_ranks, matmul_tensor,
                        ottaviani_test, parse_decomposition, serialize_decomposition,
                        so3_tensor, stability_measure, structure_tensor,
                        verify_decomposition)

__version__ = "0.1.0"
