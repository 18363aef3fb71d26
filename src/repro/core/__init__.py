"""Veil core: the paper's primary contribution.

Veil's four dual-factor privilege domains (section 5.1) are named by
the hardware's VMPL constants, ``repro.hw.VMPL_MON`` to
``repro.hw.VMPL_UNT``; their table sits beside
:data:`repro.hw.DOMAIN_NAMES`.

* :mod:`~repro.core.veilmon` -- the VMPL-0 security monitor;
* :mod:`~repro.core.idcb` / :mod:`~repro.core.switch` -- inter-domain
  communication and hypervisor-relayed switching;
* :mod:`~repro.core.delegation` -- PVALIDATE / VCPU-boot delegation;
* :mod:`~repro.core.services` -- VeilS-KCI, VeilS-ENC, VeilS-LOG;
* :mod:`~repro.core.integration` -- the modified-kernel hooks + veil.ko;
* :mod:`~repro.core.boot` -- full-system boot (Veil and native baselines).
"""

from .boot import (NativeSystem, VeilConfig, VeilSystem, boot_native_system,
                   boot_veil_system, build_boot_image, module_signing_key)
from .delegation import install_delegation
from .idcb import Idcb
from .integration import (EnclaveSetup, VEIL_IOC_CREATE, VEIL_IOC_DESTROY,
                          VEIL_IOC_SCHEDULE, VeilKernelIntegration)
from .services import (EnclaveRecord, ProtectedModule, ProtectedService,
                       SwapRecord, VeilLogSink, VeilSEnc, VeilSKci,
                       VeilSLog)
from .switch import MonitorGateway
from .veilmon import VeilMon

__all__ = [
    "NativeSystem", "VeilConfig", "VeilSystem", "boot_native_system",
    "boot_veil_system", "build_boot_image", "module_signing_key",
    "install_delegation", "Idcb", "EnclaveSetup", "VEIL_IOC_CREATE",
    "VEIL_IOC_DESTROY", "VEIL_IOC_SCHEDULE", "VeilKernelIntegration",
    "EnclaveRecord", "ProtectedModule", "ProtectedService", "SwapRecord",
    "VeilLogSink", "VeilSEnc", "VeilSKci", "VeilSLog", "MonitorGateway",
    "VeilMon",
]
