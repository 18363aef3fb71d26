"""Exception hierarchy shared across the Veil reproduction.

The simulator models hardware faults as Python exceptions.  Two kinds of
failure matter architecturally:

* :class:`NestedPageFault` -- raised by the RMP / page-table checks when a
  (VMPL, CPL) context touches memory it is not allowed to.  In SEV-SNP a
  guest-side RMP violation is not recoverable by the guest; the paper's
  observable defence is that "the CVM halts with continuous #NPFs".  The
  machine model converts an unhandled #NPF into :class:`CvmHalted`.

* :class:`CvmHalted` -- the terminal state of a halted confidential VM.
  Security tests assert this is raised when an attack is attempted.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this package."""


class SimulationError(ReproError):
    """The simulation itself was driven incorrectly (a harness bug)."""


class VeilFault(ReproError):
    """Common base for architectural fault outcomes.

    Groups the failures that correspond to the paper's threat model:
    hardware-enforced faults (:class:`HardwareFault` and subclasses) and
    the fail-stop terminal state (:class:`CvmHalted`).  Catching
    ``VeilFault`` broadly outside a test harness hides a defence firing,
    which is why veil-lint's ``exception-hygiene`` rule treats it as a
    broad exception class.
    """


class HardwareFault(VeilFault):
    """Base class for faults raised by the simulated SEV-SNP hardware."""


class NestedPageFault(HardwareFault):
    """#NPF: an access violated RMP or validated-page rules.

    Carries enough context for tests to assert on *why* the fault fired.
    """

    def __init__(self, message: str, *, gpa: int | None = None,
                 vmpl: int | None = None, access: str | None = None):
        super().__init__(message)
        self.gpa = gpa
        self.vmpl = vmpl
        self.access = access


class GeneralProtectionFault(HardwareFault):
    """#GP: a privileged operation was attempted from an unprivileged CPL."""


class InvalidInstruction(HardwareFault):
    """An instruction was executed in a context where it is architecturally
    undefined (e.g. ``RMPADJUST`` targeting a more-privileged VMPL)."""


class CvmHalted(VeilFault):
    """The confidential VM has halted (typically due to repeated #NPFs).

    This is the paper's documented fail-stop defence outcome.
    """

    def __init__(self, message: str, *, cause: Exception | None = None):
        super().__init__(message)
        self.cause = cause


class AttestationError(ReproError):
    """A measurement or signature did not verify during attestation."""


class SecurityViolation(ReproError):
    """A software-level security check rejected a request (e.g. VeilMon's
    pointer sanitization, module signature check, enclave invariants)."""


class EnclaveError(ReproError):
    """Enclave lifecycle or runtime failure (non-security)."""


class SdkError(ReproError):
    """Enclave SDK failure, e.g. an unsupported syscall kills the enclave."""


class KernelError(ReproError):
    """Guest kernel error that maps to an errno-style failure."""

    def __init__(self, errno: int, message: str = ""):
        super().__init__(message or f"errno {errno}")
        self.errno = errno


class CodecError(ReproError, ValueError):
    """Bytes that are not a wire frame: bad UTF-8, bad JSON, or nesting
    deeper than :data:`repro.codec.MAX_DEPTH` (see :mod:`repro.codec`)."""
