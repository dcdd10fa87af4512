"""treeflow: integer maximum multiflows with tree-distance weights in
inner-Eulerian directed networks, with machine-checkable optimality
certificates."""

__version__ = "0.1.0"

from .errors import InputError, ContractViolation, TreeflowError
from .graphs import Arc, Cut, Digraph, Network, TerminalPath, cut_capacity, divergence, is_eulerian_at
from .flows import decompose, lex_max_flow, max_flow, min_cut_source_side
from .realization import (
    PiSet,
    RealizationTree,
    choose_balanced_edge,
    classify_terminal,
    mu,
    normalize,
    pi_set,
    split_linear_terminal,
    tree_distance,
    validate_instance,
)
from .multiflow import Multiflow
from .certify import Certificate, check_feasible, dual_value, mu_value, verify_certificate, verify_result
from .solver import SolveOutput, SolveStats, free_imf, solve
from .documents import parse_instance, parse_result, serialize_instance, serialize_result
from .generator import generate_instance, generate_network

__all__ = [
    "Arc", "Certificate", "ContractViolation", "Cut", "Digraph", "InputError",
    "Multiflow", "Network", "PiSet", "RealizationTree", "SolveOutput",
    "SolveStats", "TerminalPath", "TreeflowError", "check_feasible",
    "choose_balanced_edge", "classify_terminal", "cut_capacity",
    "decompose", "divergence", "dual_value", "free_imf", "generate_instance",
    "generate_network", "is_eulerian_at", "lex_max_flow", "max_flow",
    "min_cut_source_side", "mu", "mu_value", "normalize", "parse_instance",
    "parse_result", "pi_set", "serialize_instance", "serialize_result", "solve",
    "split_linear_terminal", "tree_distance", "validate_instance", "verify_certificate",
    "verify_result",
]
