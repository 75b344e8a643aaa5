"""Desk-scale laboratory for coset codes on multiple-access channels."""

from .channel import Dmc, deterministic_dmc, sample_channel
from .codec import (AllCosetsEmptyError, CosetSpec, EmptyCosetError,
                    EncodeTarget, build_T_subset, min_div_decode, min_div_encode)
from .empirical import (EmpiricalType, empirical, enumerate_types, is_cond_typical,
                        is_typical, seq_cond_entropy, seq_entropy, seq_mutual_multi,
                        type_class_size)
from .ensembles import (BinLabel, CollisionEstimate, EnsembleSpec, HashParams,
                        collision_prob, crp_bound, estimate_hash_params,
                        multi_crp_bound, multi_params, product_params, sample,
                        saturation_bound)
from .gf import (FieldSpec, LinearLabel, apply_label, enumerate_coset,
                 stack_labels)
from .prob import CondPmf, Pmf, cond_entropy, entropy
from .regions import (JointLaw, RateSplit, eps_feasible, in_region_private,
                      in_region_sw, in_region_ts, joint_private, joint_sw, joint_ts,
                      mutual_information, rate_split)
from .scenarios import (CodeInstance, InfeasibleRateError, SimulationResult,
                        TrialResult, build_private_code, build_superposition_code,
                        reduce_common_to_private, search_code, simulate_error)
from .slack import (cond_entropy_slack, cond_typical_size_slack, entropy_slack,
                    feasibility_slack, joint_typicality_radius, type_count_penalty,
                    typical_size_slack)

__version__ = "0.1.0"
