"""Untrusted host software: hypervisor, PSP attestation, virtio console."""

from .attestation import (AttestationReport, RemoteUser, SecureProcessor,
                          platform_signing_key)
from .devices import VirtioConsole
from .hypervisor import GhcbPolicy, HostAccessBlocked, Hypervisor

__all__ = [
    "AttestationReport", "RemoteUser", "SecureProcessor",
    "platform_signing_key", "VirtioConsole",
    "GhcbPolicy", "HostAccessBlocked", "Hypervisor",
]
