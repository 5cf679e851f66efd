"""The integrated CAT environment (LIFT + AnaFAULT, Fig. 1)."""

from .flow import CATFlow, CATResult

__all__ = ["CATFlow", "CATResult"]
