"""The syscall sanitizer against an independent interval model.

:class:`~repro.enclave.sanitizer.SyscallSanitizer` decides which enclave
bytes leave for the untrusted OS, which staging bytes come back, and
which calls kill the enclave (section 7; the paper's "basic protection
against IAGO attacks").  This test draws redirected calls from
:data:`~repro.enclave.specs.SYSCALL_SPECS` -- in and out buffers,
iovecs and paths; lengths of 0, negative and not an ``int``; pointers
inside the enclave, in shared memory and straddling either edge of
each; missing length arguments; short, negative and non-integer
results; returned regions around the enclave -- and runs the real
``marshal`` and ``finish`` on a runtime stand-in whose memory is flat
and records every copy.  The stand-in borrows the runtime's own
``staging_alloc`` and ``address_in_enclave``.

The reference, :func:`model`, is written from the spec table alone, as
intervals ``(pointer, length)``:

* a call the SDK does not know, or marks unsupported, kills the
  enclave; so does a buffer whose length argument is missing, not
  exactly an ``int``, or negative;
* otherwise each in-buffer (``BUF_IN``, each ``IOVEC_IN`` entry) leaves
  the enclave whole, in argument order, through its own staging slot,
  and no other enclave byte leaves;
* an ``int`` result is a byte count: the out-buffers (``BUF_OUT``, each
  ``IOVEC_OUT`` entry) take the first ``result`` staging bytes, in
  order, and nothing past them comes back; a result that is not an
  ``int`` fills them whole;
* a returned pointer names ``[result, result + length)``, ``length``
  being the spec's ``returns_len_from`` argument when that is an
  ``int`` of at least 1 and 1 otherwise; a region overlapping the
  enclave is an IAGO attack.

Derandomized, so every run checks the same calls.
"""

from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.enclave.runtime import EnclaveRuntime
from repro.enclave.sanitizer import SANITIZE_BASE_CYCLES, SyscallSanitizer
from repro.enclave.specs import SYSCALL_SPECS, ArgKind
from repro.errors import SdkError, SecurityViolation
from repro.hw.memory import PAGE_SIZE
from repro.kernel.layout import ENCLAVE_BASE

ENCLAVE_PAGES = 4
ENCLAVE_END = ENCLAVE_BASE + ENCLAVE_PAGES * PAGE_SIZE
SHARED_BASE = 0x7F00_0000
SHARED_PAGES = 2
SHARED_END = SHARED_BASE + SHARED_PAGES * PAGE_SIZE

#: Names the SDK has no spec for: the enclave is killed on use.
UNKNOWN = ("frobnicate", "")

BUFFER_KINDS = (ArgKind.BUF_IN, ArgKind.BUF_OUT)
IOVEC_KINDS = (ArgKind.IOVEC_IN, ArgKind.IOVEC_OUT)


def _byte(addr: int) -> int:
    """Initial memory contents: a pattern that differs between
    neighbouring addresses and between the two windows."""
    return (addr * 131 + (addr >> 12)) & 0xFF


class FlatRuntime:
    """The runtime surface the sanitizer uses, over flat memory.

    Every copy out of (``stage_out``) and into (``stage_in``) the
    enclave's side is recorded as ``(source, destination, length)``.
    """

    staging_alloc = EnclaveRuntime.staging_alloc
    address_in_enclave = EnclaveRuntime.address_in_enclave

    def __init__(self):
        self.setup = SimpleNamespace(
            base_vaddr=ENCLAVE_BASE,
            binary=SimpleNamespace(total_pages=ENCLAVE_PAGES),
            shared_vaddr=SHARED_BASE, shared_pages=[0] * SHARED_PAGES)
        self._staging_cursor = 0
        self.memory: dict[int, int] = {}
        self.outs: list = []
        self.ins: list = []
        self.charges: list = []

    def load(self, addr: int, length: int) -> bytes:
        return bytes(self.memory.get(a, _byte(a))
                     for a in range(addr, addr + length))

    def store(self, addr: int, data: bytes) -> None:
        for offset, value in enumerate(data):
            self.memory[addr + offset] = value

    def stage_out(self, enclave_vaddr: int, staging_vaddr: int,
                  length: int) -> None:
        self.outs.append((enclave_vaddr, staging_vaddr, length))
        self.store(staging_vaddr, self.load(enclave_vaddr, length))

    def stage_in(self, staging_vaddr: int, enclave_vaddr: int,
                 length: int) -> None:
        self.ins.append((staging_vaddr, enclave_vaddr, length))
        self.store(enclave_vaddr, self.load(staging_vaddr, length))

    def charge(self, cycles: int, category: str = "sdk") -> None:
        self.charges.append((category, cycles))

    def charge_copy(self, nbytes: int) -> None:
        self.charges.append(("copy", nbytes))


def _overlaps(ptr: int, length: int, start: int, end: int) -> bool:
    return ptr < end and start < ptr + length


def _valid_length(value) -> bool:
    return type(value) is int and value >= 0


def model(name: str, args: tuple):
    """The reference verdict on marshalling ``name(*args)``.

    ``("kill", None)``, or ``("ok", buffers)`` with ``buffers`` the
    in- and out-buffers as ``(kind, pointer, length)`` in the order the
    call lists them (iovec entries in their own order).
    """
    spec = SYSCALL_SPECS.get(name)
    if spec is None or not spec.supported:
        return "kill", None
    buffers = []
    for index, arg in enumerate(spec.args[:len(args)]):
        value = args[index]
        if arg.kind in BUFFER_KINDS:
            if arg.len_from is None:
                length = arg.const_len
            elif arg.len_from < len(args):
                length = args[arg.len_from]
            else:
                return "kill", None
            if not _valid_length(length):
                return "kill", None
            buffers.append((arg.kind, value, length))
        elif arg.kind in IOVEC_KINDS:
            direction = (ArgKind.BUF_IN if arg.kind == ArgKind.IOVEC_IN
                         else ArgKind.BUF_OUT)
            for pointer, length in value:
                if not _valid_length(length):
                    return "kill", None
                buffers.append((direction, pointer, length))
    return "ok", buffers


def model_copy_back(buffers: list, result) -> list:
    """``(pointer, bytes taken)`` per out-buffer, in order."""
    taken = []
    remaining = result if type(result) is int else None
    for kind, pointer, length in buffers:
        if kind != ArgKind.BUF_OUT:
            continue
        take = length
        if remaining is not None:
            take = max(0, min(length, remaining))
            remaining -= take
        taken.append((pointer, take))
    return taken


def model_iago(name: str, args: tuple, result) -> bool:
    """Whether ``result`` is a returned region overlapping the enclave."""
    spec = SYSCALL_SPECS[name]
    if not spec.returns_pointer or type(result) is not int:
        return False
    length = 1
    index = spec.returns_len_from
    if index is not None and index < len(args) \
            and type(args[index]) is int and args[index] >= 1:
        length = args[index]
    return _overlaps(result, length, ENCLAVE_BASE, ENCLAVE_END)


# ---- strategies -----------------------------------------------------------

#: Calls whose spec moves memory (a buffer, an iovec, a path) or
#: returns a pointer; drawn as often as every other name together.
MOVERS = sorted(name for name, spec in SYSCALL_SPECS.items()
                if spec.returns_pointer or any(
                    arg.kind != ArgKind.SCALAR for arg in spec.args))
#: Calls with an out-buffer or an out-iovec: the copy-back path.
COPY_BACK = sorted(name for name, spec in SYSCALL_SPECS.items()
                   if any(arg.kind in (ArgKind.BUF_OUT, ArgKind.IOVEC_OUT)
                          for arg in spec.args))
#: Calls whose result is a pointer: the IAGO check.
POINTERS = sorted(name for name, spec in SYSCALL_SPECS.items()
                  if spec.returns_pointer)

#: Buffer lengths: mostly valid, else 0, negative or not an ``int``.
VALID_LENGTHS = st.integers(1, 40)
LENGTHS = st.one_of(
    VALID_LENGTHS, VALID_LENGTHS, st.just(0), st.integers(-4097, -1),
    st.sampled_from([True, 2.0, "8", None]))


def pointers(length):
    """A pointer for a buffer of ``length`` bytes: inside the enclave or
    shared memory, straddling either edge of either, or right outside."""
    span = length if type(length) is int and length > 1 else 2
    edges = st.sampled_from([ENCLAVE_BASE, ENCLAVE_END, SHARED_BASE,
                             SHARED_END])
    return st.one_of(
        st.integers(ENCLAVE_BASE, ENCLAVE_END - 1),
        st.integers(SHARED_BASE, SHARED_END - 1),
        st.builds(lambda edge, back: edge - back, edges,
                  st.integers(0, span)),
        st.integers(0x1000, 0x10_0000))


def returned(name: str, args: tuple, buffers: list):
    """A result: a byte count (short of the out-buffers' total, or
    past it), an error, a non-integer, or (for a call that returns a
    pointer) a region around the enclave's edges."""
    spec = SYSCALL_SPECS[name]
    total = sum(length for kind, _p, length in buffers
                if kind == ArgKind.BUF_OUT)
    counts = st.one_of(st.integers(1, max(1, total - 1)),
                       st.integers(1, max(1, total - 1)),
                       st.integers(-22, total + 8),
                       st.sampled_from([0, total, None, {}]))
    if not spec.returns_pointer:
        return counts
    index = spec.returns_len_from
    length = args[index] if index is not None and index < len(args) \
        else 1
    span = length if type(length) is int and length > 0 else 1
    edges = st.builds(lambda edge, back: edge - back,
                      st.sampled_from([ENCLAVE_BASE, ENCLAVE_END]),
                      st.sampled_from([0, 1, span - 1, span, span + 1,
                                       PAGE_SIZE]))
    # Starts below the enclave and runs into it.
    straddles = st.builds(lambda back: ENCLAVE_BASE - back,
                          st.integers(1, max(1, span - 1)))
    return st.one_of(st.sampled_from([-12, None]), edges, straddles,
                     straddles, st.integers(ENCLAVE_BASE, ENCLAVE_END - 1))


#: Any name: the memory movers often, then any spec, then unknown ones.
ANY_NAME = st.one_of(st.sampled_from(MOVERS), st.sampled_from(MOVERS),
                     st.sampled_from(sorted(SYSCALL_SPECS)),
                     st.sampled_from(UNKNOWN))


@st.composite
def calls(draw, names=ANY_NAME, lengths=LENGTHS, whole=False):
    """``(name, args)`` for one redirected call; with ``whole``, every
    argument the spec lists is passed."""
    name = draw(names)
    spec = SYSCALL_SPECS.get(name)
    if spec is None:
        return name, (draw(st.integers(0, 9)),)
    len_sources = {arg.len_from for arg in spec.args
                   if arg.len_from is not None}
    values: list = [None] * len(spec.args)
    for index, arg in enumerate(spec.args):
        if arg.kind == ArgKind.PATH:
            values[index] = draw(st.text(max_size=12))
        elif index in len_sources:
            values[index] = draw(lengths)
        elif index == spec.returns_len_from:
            values[index] = draw(st.one_of(
                st.integers(-2, 3 * PAGE_SIZE), st.just(PAGE_SIZE),
                st.sampled_from([True, 1.5])))
        elif arg.kind == ArgKind.SCALAR:
            values[index] = draw(st.integers(-1, 9))
    for index, arg in enumerate(spec.args):
        if arg.kind in BUFFER_KINDS:
            length = (values[arg.len_from] if arg.len_from is not None
                      else arg.const_len)
            values[index] = draw(pointers(length))
        elif arg.kind in IOVEC_KINDS:
            entries = []
            for _ in range(draw(st.sampled_from([0, 1, 2, 2, 3, 3]))):
                length = draw(st.one_of(VALID_LENGTHS, lengths))
                entries.append((draw(pointers(length)), length))
            values[index] = entries
    if whole:
        return name, tuple(values)
    # Now and then the caller passes fewer arguments than the spec
    # lists (a missing length among them).
    count = draw(st.one_of(st.just(len(values)), st.just(len(values)),
                           st.integers(0, len(values))))
    return name, tuple(values[:count])


# ---- the check ------------------------------------------------------------

def _check(name: str, args: tuple, data) -> None:
    runtime = FlatRuntime()
    sanitizer = SyscallSanitizer(runtime)
    verdict, buffers = model(name, args)
    try:
        marshalled = sanitizer.marshal(name, args)
    except SdkError:
        assert verdict == "kill", f"{name}{args!r} was refused"
        # A call killed part-way may have staged the in-buffers listed
        # before the bad one, and nothing else.
        spec = SYSCALL_SPECS.get(name)
        if spec is not None and spec.supported:
            leaving = _leaving(spec, args)
            assert runtime.outs == [
                out for out in runtime.outs if (out[0], out[2]) in leaving]
        else:
            assert runtime.outs == []
        assert runtime.ins == []
        return
    assert verdict == "ok", f"{name}{args!r} should kill the enclave"
    assert runtime.charges[0] == ("sanitizer", SANITIZE_BASE_CYCLES)
    spec = SYSCALL_SPECS[name]
    paths = [args[i] for i, arg in enumerate(spec.args[:len(args)])
             if arg.kind == ArgKind.PATH]
    assert runtime.charges[1:] == [("copy", len(p) + 1) for p in paths]

    # Staging slots: one per buffer, inside shared memory, disjoint.
    slots = _slots(spec, args, marshalled.proxy_args)
    assert len(slots) == len(buffers)
    seen = []
    for (kind, pointer, length), slot in zip(buffers, slots):
        assert SHARED_BASE <= slot and slot + length <= SHARED_END
        assert all(not _overlaps(slot, length, a, a + n) for a, n in seen)
        seen.append((slot, length))
    for index, arg in enumerate(spec.args[:len(args)]):
        if arg.kind in (ArgKind.SCALAR, ArgKind.PATH):
            assert marshalled.proxy_args[index] == args[index]

    # Out of the enclave: each in-buffer whole, in order, and only them.
    expected_outs = [(pointer, slot, length)
                     for (kind, pointer, length), slot in zip(buffers, slots)
                     if kind == ArgKind.BUF_IN and length]
    assert runtime.outs == expected_outs
    assert marshalled.bytes_out == sum(
        length for kind, _p, length in buffers if kind == ArgKind.BUF_IN)
    assert marshalled.bytes_in == sum(
        length for kind, _p, length in buffers if kind == ArgKind.BUF_OUT)

    # The untrusted OS fills the out slots and answers.
    for (kind, _pointer, length), slot in zip(buffers, slots):
        if kind == ArgKind.BUF_OUT:
            runtime.store(slot, bytes((slot + i) * 7 & 0xFF
                                      for i in range(length + 8)))
    result = data.draw(returned(name, args, buffers), label="result")
    out_slots = [slot for (kind, _p, _n), slot in zip(buffers, slots)
                 if kind == ArgKind.BUF_OUT]
    expected_ins = [(slot, pointer, take) for slot, (pointer, take)
                    in zip(out_slots, model_copy_back(buffers, result))
                    if take]
    iago = model_iago(name, args, result)
    try:
        sanitizer.finish(name, marshalled, result)
    except SecurityViolation:
        assert iago, f"{name} result {result!r} was refused"
        assert sanitizer.iago_rejections == 1
    else:
        assert not iago, f"{name} result {result!r} overlaps the enclave"
    assert runtime.ins == expected_ins
    assert runtime.outs == expected_outs


def _leaving(spec, args: tuple) -> set:
    """``(pointer, length)`` of every in-buffer the call lists."""
    out = set()
    for index, arg in enumerate(spec.args[:len(args)]):
        if arg.kind == ArgKind.BUF_IN:
            length = (args[arg.len_from] if arg.len_from is not None
                      and arg.len_from < len(args) else arg.const_len)
            out.add((args[index], length))
        elif arg.kind == ArgKind.IOVEC_IN:
            out.update(args[index])
    return out


def _slots(spec, args: tuple, proxy_args: list) -> list:
    """The staging pointer the OS sees for each buffer, in order."""
    slots = []
    for index, arg in enumerate(spec.args[:len(args)]):
        if arg.kind in BUFFER_KINDS:
            slots.append(proxy_args[index])
        elif arg.kind in IOVEC_KINDS:
            staged = proxy_args[index]
            assert [n for _s, n in staged] == [n for _p, n in args[index]]
            slots.extend(slot for slot, _n in staged)
    return slots


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(call=calls(), data=st.data())
def test_sanitizer_matches_the_interval_model(call, data):
    name, args = call
    _check(name, args, data)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(call=calls(st.sampled_from(COPY_BACK), VALID_LENGTHS, whole=True),
       data=st.data())
def test_copy_back_takes_at_most_the_count(call, data):
    """Out-buffers and out-iovecs with valid lengths, and results short
    of their total, past it, negative or not a count."""
    name, args = call
    _check(name, args, data)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(call=calls(st.sampled_from(POINTERS), whole=True), data=st.data())
def test_returned_regions_overlapping_the_enclave_are_iago(call, data):
    """Returned pointers inside the enclave, at and across its edges."""
    name, args = call
    _check(name, args, data)


def test_the_draws_reach_every_verdict():
    """The draws above kill, stage both ways and meet IAGO results."""
    seen = set()

    @settings(max_examples=400, derandomize=True, deadline=None,
              database=None)
    @given(call=calls(), data=st.data())
    def census(call, data):
        name, args = call
        verdict, buffers = model(name, args)
        seen.add(verdict)
        if verdict == "ok":
            result = data.draw(returned(name, args, buffers))
            kinds = {kind for kind, _p, length in buffers if length}
            seen.update(kinds)
            if model_iago(name, args, result):
                seen.add("iago")
            outs = [length for kind, _p, length in buffers
                    if kind == ArgKind.BUF_OUT]
            takes = [take for _p, take in model_copy_back(buffers, result)]
            if any(take < length for take, length in zip(takes, outs)):
                seen.add("short")

    census()
    assert seen >= {"kill", "ok", ArgKind.BUF_IN, ArgKind.BUF_OUT, "iago",
                    "short"}
