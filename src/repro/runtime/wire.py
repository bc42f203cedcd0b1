"""Wire codec and shared-memory ring buffers for worker transports.

The ``resident`` backend ships per-round data between the driver and its
long-lived slot workers over pipes and, for cross-slot traffic,
``multiprocessing.shared_memory`` rings.  This module is its wire layer:

:func:`encode_obj` / :func:`decode_obj`
    the marshal-first codec: per-round traffic is dominated by large flat
    structures of builtin scalars — message field tuples, per-send word
    counts — for which :mod:`marshal` encodes and decodes several times
    faster than pickle.  Anything marshal cannot take (program-defined
    payload objects, shipped exceptions) falls back to a *buffer-lifting*
    pass first: registered wire types (the flat CSR layouts of
    :mod:`repro.mpc.layout`), ``array.array`` and ``bytearray`` values are
    rewritten into marshal-safe sentinel tuples whose buffers ride as raw
    bytes — one buffer copy, no per-element encoding — and only a frame the
    lift cannot make marshallable falls all the way back to pickle.  A
    one-byte prefix (``M``/``A``/``P``) routes decoding.  Driver and
    workers are always the same interpreter (spawned from this binary), so
    marshal's version-lock is moot.

    The lift is mandatory for correctness, not just speed: marshal
    silently *buffers* ``bytearray`` and ``array.array`` values — they
    encode fine and decode as ``bytes``, corrupting the type — so any
    frame carrying them must take the lifted path.  Naked buffers never
    appear in frames today (layout state is class-wrapped, which marshal
    loudly rejects), and :func:`register_wire_type` keeps it that way.
:func:`pack_inbox` / :func:`unpack_inbox`
    flatten drained :class:`~repro.mpc.message.Message` objects to field
    tuples for the wire and rebuild them on the far side — a frozen
    dataclass pickles as class reference plus attribute dict per instance;
    plain tuples are a fraction of the bytes and the encode time.
:class:`ShmRing`
    a single-producer single-consumer ring buffer over a shared-memory
    block, carrying length-prefixed, checksummed frames.  Cross-slot
    resident traffic rides these instead of pickled pipe frames; the
    request/reply barrier of the worker pipes provides the happens-before
    edge (a reader only ingests after every writer's round replied), so
    the cursors need no atomics — just monotone 64-bit counters.
"""

from __future__ import annotations

import marshal
import pickle
import struct
from array import array
from typing import TYPE_CHECKING, Any, Callable, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from multiprocessing.shared_memory import SharedMemory

    from repro.mpc.message import Message

__all__ = [
    "encode_obj",
    "decode_obj",
    "register_wire_type",
    "pack_inbox",
    "unpack_inbox",
    "ShmRing",
    "ShmRoundBarrier",
    "TornFrameError",
    "FRAME_HEADER",
]

_PICKLE = pickle.HIGHEST_PROTOCOL

# ------------------------------------------------------------- buffer lifting
#: first element of every lifted sentinel tuple.  An application tuple that
#: happens to start with the marker is escaped (tag ``"esc"``), so the lift
#: is unambiguous on arbitrary input.
_WIRE_MARK = "__wire__"

#: exact type -> (tag, to_wire) for registered layout classes.
_WIRE_TYPES: "dict[type, tuple[str, Callable[[Any], Any]]]" = {}
#: tag -> from_wire for decoding lifted frames.
_WIRE_TAGS: "dict[str, Callable[[Any], Any]]" = {}


def register_wire_type(
    cls: type, tag: str, to_wire: "Callable[[Any], Any]", from_wire: "Callable[[Any], Any]"
) -> None:
    """Register a class for buffer-lifted frames.

    ``to_wire(obj)`` must return a structure of builtins/buffers (it is
    lifted recursively, so nested ``array``/``bytearray`` values are fine);
    ``from_wire(payload)`` rebuilds the instance.  Registration is exact
    type, latest wins (idempotent re-imports re-register identically).
    """
    if tag in ("arr", "bya", "esc"):
        raise ValueError(f"wire tag {tag!r} is reserved")
    _WIRE_TYPES[cls] = (tag, to_wire)
    _WIRE_TAGS[tag] = from_wire


def _lift(obj: Any) -> "tuple[Any, bool]":
    """Rewrite buffers and registered types into marshal-safe sentinels.

    Returns ``(converted, changed)``; untouched subtrees are returned
    as-is, so a frame with no buffers costs one traversal and no copies.
    """
    kind = type(obj)
    if kind is bytearray:
        return (_WIRE_MARK, "bya", bytes(obj)), True
    if kind is array:
        return (_WIRE_MARK, "arr", obj.typecode, obj.tobytes()), True
    registered = _WIRE_TYPES.get(kind)
    if registered is not None:
        tag, to_wire = registered
        payload, _ = _lift(to_wire(obj))
        return (_WIRE_MARK, tag, payload), True
    if kind is tuple:
        items = [_lift(item) for item in obj]
        if obj and obj[0] == _WIRE_MARK:
            return (_WIRE_MARK, "esc", tuple(item for item, _ in items)), True
        if any(changed for _, changed in items):
            return tuple(item for item, _ in items), True
        return obj, False
    if kind is list:
        items = [_lift(item) for item in obj]
        if any(changed for _, changed in items):
            return [item for item, _ in items], True
        return obj, False
    if kind is dict:
        items = [(_lift(key), _lift(value)) for key, value in obj.items()]
        if any(kc or vc for (_, kc), (_, vc) in items):
            return {key: value for (key, _), (value, _) in items}, True
        return obj, False
    # sets hold only hashable (hence buffer-free) members; scalars are inert.
    return obj, False


def _lower(obj: Any) -> Any:
    """Inverse of :func:`_lift` (applied to a decoded lifted frame)."""
    kind = type(obj)
    if kind is tuple:
        if obj and obj[0] == _WIRE_MARK:
            tag = obj[1]
            if tag == "bya":
                return bytearray(obj[2])
            if tag == "arr":
                buf = array(obj[2])
                buf.frombytes(obj[3])
                return buf
            if tag == "esc":
                return tuple(_lower(item) for item in obj[2])
            from_wire = _WIRE_TAGS.get(tag)
            if from_wire is None:
                # A worker can decode a lifted frame before the module that
                # registered the type was imported on its side.
                import repro.mpc.layout  # noqa: F401 - import registers

                from_wire = _WIRE_TAGS[tag]
            return from_wire(_lower(obj[2]))
        return tuple(_lower(item) for item in obj)
    if kind is list:
        return [_lower(item) for item in obj]
    if kind is dict:
        return {key: _lower(value) for key, value in obj.items()}
    return obj


def encode_obj(obj: Any) -> bytes:
    """Encode ``obj``: marshal, then buffer-lifted marshal, then pickle."""
    try:
        return b"M" + marshal.dumps(obj)
    except ValueError:
        pass
    lifted, changed = _lift(obj)
    if changed:
        try:
            return b"A" + marshal.dumps(lifted)
        except ValueError:
            pass
    return b"P" + pickle.dumps(obj, protocol=_PICKLE)


def decode_obj(blob: bytes) -> Any:
    prefix = blob[:1]
    if prefix == b"M":
        return marshal.loads(blob[1:])
    if prefix == b"A":
        return _lower(marshal.loads(blob[1:]))
    return pickle.loads(blob[1:])


def pack_inbox(inbox: "Iterable[Message]") -> "list[tuple[str, str, str, Any, int]]":
    """Flatten drained messages to ``(sender, receiver, tag, payload, words)``.

    The receiving worker rebuilds real :class:`Message` objects (programs
    read ``msg.tag`` / ``msg.payload`` / ``msg.sender``), words included —
    no re-sizing.
    """
    return [m.as_fields() for m in inbox]


def unpack_inbox(packed: "Iterable[tuple[str, str, str, Any, int]]") -> "list[Message]":
    from repro.mpc.message import Message

    return [Message.from_fields(fields) for fields in packed]


# ------------------------------------------------------------------ shm ring
#: bytes per frame header: u32 body length + u32 checksum.
FRAME_HEADER = 8
#: bytes reserved at the start of the block for the two u64 cursors.
_CURSORS = 16


def _frame_check(length: int) -> int:
    """Cheap header checksum: catches torn/misaligned headers loudly."""
    return (length * 0x9E3779B1 ^ 0x5A5A5A5A) & 0xFFFFFFFF


class TornFrameError(RuntimeError):
    """A ring frame header failed validation — the ring is corrupt.

    With the pipe barrier providing happens-before, a torn frame can only
    mean a protocol bug (reader ran concurrently with its writer, or the
    cursors were clobbered); failing loudly beats delivering garbage into
    a bit-identical simulation.
    """


class ShmRing:
    """SPSC frame ring over a shared buffer (shared memory or local bytes).

    Layout: ``[tail u64][head u64][data x capacity]``.  ``tail`` (total
    bytes written) is owned by the single writer, ``head`` (total bytes
    read) by the single reader; both are monotone, so ``tail - head`` is
    the backlog and ``capacity - (tail - head)`` the free space.  Frame
    bytes straddle the wrap (written and read as two modular slices), so
    the fit test is exactly ``need <= free`` — in particular a drained
    ring accepts *any* frame up to its capacity, regardless of where the
    cursors happen to sit.

    :meth:`write` returns ``False`` instead of blocking when a frame does
    not fit — the caller falls back to the pipe path (counted as a
    ``pipe_fallback``), because a bounded ring must never deadlock the
    round barrier.
    """

    __slots__ = ("shm", "capacity", "_view", "_data")

    def __init__(self, buf: Any, shm: "SharedMemory | None" = None) -> None:
        view = memoryview(buf)
        if len(view) <= _CURSORS + FRAME_HEADER:
            raise ValueError("ring buffer too small for cursors plus one frame")
        self.shm = shm
        self.capacity = len(view) - _CURSORS
        self._view = view
        self._data = view[_CURSORS:]

    # -------------------------------------------------------------- lifecycle
    @classmethod
    def create(cls, capacity: int) -> "ShmRing":
        """Driver side: allocate a fresh shared-memory block for the ring."""
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(create=True, size=_CURSORS + capacity)
        shm.buf[:_CURSORS] = b"\x00" * _CURSORS
        return cls(shm.buf, shm)

    @classmethod
    def attach(cls, name: str) -> "ShmRing":
        """Worker side: map an existing ring by shared-memory name.

        On this interpreter every ``SharedMemory.__init__`` registers the
        segment with the resource tracker, attaches included — which is
        fine here: resident workers are spawned children sharing the
        driver's tracker process, so the attach-time register is an
        idempotent re-add of the same name and the driver's ``unlink``
        retires it exactly once.  (Unregistering on attach instead would
        strip the *driver's* registration from the shared tracker and make
        the later unlink double-unregister, noisily.)
        """
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(name=name)
        return cls(shm.buf, shm)

    @property
    def name(self) -> str | None:
        """Shared-memory block name (``None`` for local test buffers)."""
        return self.shm.name if self.shm is not None else None

    def close(self) -> None:
        """Release the local mapping (both sides); idempotent."""
        if self._view is None:
            return
        self._data.release()
        self._view.release()
        self._view = None
        self._data = None
        if self.shm is not None:
            self.shm.close()

    def unlink(self) -> None:
        """Destroy the backing block — creator (driver) side only."""
        if self.shm is not None:
            try:
                self.shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    # ---------------------------------------------------------------- cursors
    def _load(self, offset: int) -> int:
        return int.from_bytes(self._view[offset : offset + 8], "little")

    def _store(self, offset: int, value: int) -> None:
        self._view[offset : offset + 8] = value.to_bytes(8, "little")

    @property
    def backlog(self) -> int:
        """Bytes written but not yet read (diagnostics/testing aid)."""
        return self._load(0) - self._load(8)

    # ------------------------------------------------------------------ frames
    def _copy_in(self, pos: int, chunk: bytes) -> None:
        """Store ``chunk`` at data offset ``pos``, straddling the wrap."""
        data = self._data
        first = min(len(chunk), self.capacity - pos)
        data[pos : pos + first] = chunk[:first]
        if first < len(chunk):
            data[: len(chunk) - first] = chunk[first:]

    def _copy_out(self, pos: int, length: int) -> bytes:
        """Load ``length`` bytes from data offset ``pos``, straddling the wrap."""
        data = self._data
        first = min(length, self.capacity - pos)
        if first >= length:
            return bytes(data[pos : pos + length])
        return bytes(data[pos : pos + first]) + bytes(data[: length - first])

    def write(self, body: bytes) -> bool:
        """Append one frame; ``False`` (not blocking) when it does not fit."""
        cap = self.capacity
        need = FRAME_HEADER + len(body)
        if need > cap:
            return False
        tail = self._load(0)
        head = self._load(8)
        if cap - (tail - head) < need:
            return False
        pos = tail % cap
        self._copy_in(pos, struct.pack("<II", len(body), _frame_check(len(body))))
        self._copy_in((pos + FRAME_HEADER) % cap, body)
        self._store(0, tail + need)
        return True

    def read_all(self) -> list[bytes]:
        """Consume every complete frame currently in the ring, in write order."""
        cap = self.capacity
        tail = self._load(0)
        head = self._load(8)
        out: list[bytes] = []
        while head < tail:
            pos = head % cap
            length, check = struct.unpack("<II", self._copy_out(pos, FRAME_HEADER))
            if (
                check != _frame_check(length)
                or length > cap - FRAME_HEADER
                or head + FRAME_HEADER + length > tail
            ):
                raise TornFrameError(
                    f"torn ring frame at offset {pos} (length={length}, backlog={tail - head})"
                )
            out.append(self._copy_out((pos + FRAME_HEADER) % cap, length))
            head += FRAME_HEADER + length
        self._store(8, head)
        return out


# ------------------------------------------------------------- round barrier
class ShmRoundBarrier:
    """Per-slot round cursors for worker-driven fused round blocks.

    One u64 cell per worker slot over a shared-memory block.  A slot that
    finished committing fused round ``r`` of its session announces the
    monotone round count ``c`` by storing ``c * 2 + stop`` into its own
    cell; before starting the next round it waits until every *peer* cell
    has reached ``c`` — a spin-wait over plain little-endian loads, no
    locks, no atomics.  Single-writer cells plus monotone counts make this
    sound under the same store-ordering assumption :class:`ShmRing` makes
    (a writer's ring-cursor store lands before its barrier announce, so a
    reader that passed the barrier sees every due frame).

    The low bit is a *stop* flag: a slot that must end the block early
    (ring overflow forced a pipe fallback) announces its final count with
    the bit set and breaks out of its loop.  Peer slots only honour a
    stop announced *at the count they are waiting for* — a faster slot's
    later stop belongs to a later round boundary and is picked up when
    the waiter reaches it — so every participant exits the block having
    committed exactly the same number of rounds.

    Counts are monotone across the blocks of a session (the driver ships
    each block's base count), so a cell left stopped by one block reads
    as *behind* every threshold of the next and can never satisfy — or
    falsely stop — a later wait.  When shared memory is unavailable the
    session simply does not fuse: every round takes the driver-mediated
    pipe barrier instead.
    """

    __slots__ = ("shm", "slots", "_view")

    def __init__(self, buf: Any, slots: int, shm: "SharedMemory | None" = None) -> None:
        view = memoryview(buf)
        if len(view) < slots * 8:
            raise ValueError("barrier buffer too small for the slot count")
        self.shm = shm
        self.slots = slots
        self._view = view

    @classmethod
    def create(cls, slots: int) -> "ShmRoundBarrier":
        """Driver side: allocate (and zero) a fresh barrier block."""
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(create=True, size=slots * 8)
        shm.buf[: slots * 8] = b"\x00" * (slots * 8)
        return cls(shm.buf, slots, shm)

    @classmethod
    def attach(cls, name: str, slots: int) -> "ShmRoundBarrier":
        """Worker side: map an existing barrier by shared-memory name."""
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(name=name)
        return cls(shm.buf, slots, shm)

    @property
    def name(self) -> str | None:
        """Shared-memory block name (``None`` for local test buffers)."""
        return self.shm.name if self.shm is not None else None

    def close(self) -> None:
        """Release the local mapping (both sides); idempotent."""
        if self._view is None:
            return
        self._view.release()
        self._view = None
        if self.shm is not None:
            self.shm.close()

    def unlink(self) -> None:
        """Destroy the backing block — creator (driver) side only."""
        if self.shm is not None:
            try:
                self.shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def _cell(self, slot: int) -> int:
        return int.from_bytes(self._view[slot * 8 : slot * 8 + 8], "little")

    def announce(self, slot: int, count: int, *, stop: bool = False) -> None:
        """Publish that ``slot`` committed its round numbered ``count``."""
        self._view[slot * 8 : slot * 8 + 8] = (count * 2 + (1 if stop else 0)).to_bytes(8, "little")

    def wait(
        self,
        count: int,
        peers: "Iterable[int]",
        *,
        poll: "Callable[[], None] | None" = None,
        timeout: float = 60.0,
    ) -> bool:
        """Spin until every peer cell reaches ``count``; ``True`` = stop seen.

        ``peers`` are the participating slot indices to await (skip your
        own — announce first).  ``poll`` runs on every spin iteration so a
        waiting worker keeps draining its inbound rings (frees ring space
        for slower peers; never required for progress — ring writes fail
        over to the pipe instead of blocking).  A peer that cannot arrive
        within ``timeout`` raises: with the block request already accepted
        on every participating pipe, a missing announce means a dead or
        wedged worker, and failing loudly lets the driver abort the block.
        """
        import time

        want = count * 2
        stopped = want + 1
        waiting = list(peers)
        stop_seen = False
        deadline = time.monotonic() + timeout
        spins = 0
        while waiting:
            still = []
            for slot in waiting:
                cell = self._cell(slot)
                if cell >= want:
                    if cell == stopped:
                        stop_seen = True
                    continue
                still.append(slot)
            waiting = still
            if not waiting:
                break
            if poll is not None:
                poll()
            spins += 1
            if spins > 200:
                if time.monotonic() > deadline:
                    raise TimeoutError(
                        f"fused-round barrier: peers {waiting} never reached count {count}"
                    )
                time.sleep(0.0002)
        return stop_seen
