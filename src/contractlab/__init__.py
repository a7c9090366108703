"""Desk-scale laboratory for combinatorial-action principal-agent contracts."""

__version__ = "0.1.0"

from .core import (
    ActionSet,
    ContractInstance,
    QueryLedger,
    SetFunctionOracle,
    best_response,
    demand,
    supply,
    value,
)
from .reals import RealContext
from .solver import enumerate_breakpoints, fptas, optimal_contract

__all__ = [
    "ActionSet",
    "ContractInstance",
    "QueryLedger",
    "RealContext",
    "SetFunctionOracle",
    "best_response",
    "demand",
    "enumerate_breakpoints",
    "fptas",
    "optimal_contract",
    "supply",
    "value",
]
