"""Shared error types, mapped to CLI exit codes by the frontend."""


class FrobwError(Exception):
    """Base class for all workbench errors."""


class ParseError(FrobwError):
    """Malformed polynomial text or fan JSON (exit code 2)."""


class ValidationError(FrobwError):
    """Input fails a mathematical precondition: non-Fano, non-simplicial,
    not F-split where required, and similar (exit code 3)."""


class InstanceTooLarge(ValidationError):
    """A size or work cap was exceeded; the message names the offending
    dimension (exit code 3)."""


class InternalCheckError(FrobwError):
    """A self-check failed: a basis or block count that disagrees with its
    formula, a threshold scan past its cap, or a toric alpha above 1/2.
    Always indicates a bug; the message carries the falsifying datum (exit
    code 4)."""
