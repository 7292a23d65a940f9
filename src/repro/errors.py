"""Exception hierarchy shared by every layer of the RES stack.

Every subsystem raises a subclass of :class:`ReproError` so callers can
distinguish "the tool is broken" (plain Python exceptions) from "the
analyzed program / coredump is in a state the tool understands and
rejects" (a :class:`ReproError`).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class CompileError(ReproError):
    """A MiniC source program failed to lex, parse, or type check."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"line {line}:{column}: {message}"
        super().__init__(message)


class IRError(ReproError):
    """An IR module is structurally invalid (verification failure)."""


class VMError(ReproError):
    """The virtual machine was misused (not a guest trap).

    Guest-program failures (assertion failures, out-of-bounds accesses,
    deadlocks, ...) are *not* errors from the VM's point of view: they
    produce a :class:`repro.vm.coredump.Coredump`.  ``VMError`` means the
    host-side embedding is wrong, e.g. running a module with no ``main``.
    """


class SynthesisError(ReproError):
    """Reverse (or forward) execution synthesis could not proceed."""


class ReplayError(ReproError):
    """A synthesized suffix failed to replay deterministically."""
