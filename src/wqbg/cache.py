"""Binary cache for enumerated groups.

Layout (all little-endian):

    magic   "WQBG"
    version u32 (currently 3)
    label   u16 length + utf-8 bytes
    rank    u32
    n_pos   u32
    count   u32 (group order)
    flags   u8  (bit 0: saved with its quantum Bruhat graph; every other
                 bit is clear)
    GRP section: element images, int16, count x n_pos, preceded by its
        byte count as a u64
    crc32   u32 over everything before it, which ends the GRP section

The file holds no graph: a file saved with one is loaded as the group's own
graph, ``build_qbg(group)``, built from the checked rows and their Cayley
table.  Versions 1 and 2 also stored the graph's CSR arrays; their files are
refused.

Loading validates magic, version, flags and checksum, and then, before any
group is built, that the label parses (at most ``cartan.MAX_FACTORS``
factors, refused before they are expanded), that the header's count is |W|
of the label in closed form, a product that stops once it passes the count,
and that that many rows fit in the file.  Then it checks that the rows
are exactly the group (see ``_checked_index``), that nothing but the
checksum follows them, and, with bit 0 set, that the group has a graph.
Each row moved by a simple reflection must equal in every column the row
the Cayley table ``rmul`` finds for it, so a row that agrees with an element
only on the simple-root columns, all that the index reads, is refused.  A
file that cannot be opened, read or written is a CacheError too.  A group
that already holds a table keeps it, and with it its graph, and a file whose
rows are in another order is refused, because the group's graph and every
index handed out refer to those rows; otherwise the loaded table becomes the
shared group's.  The rows round-trip bit-identically.
"""

from __future__ import annotations

import contextlib
import struct
import zlib
from typing import Optional

import numpy as np

from .cartan import TypeLabelError, parse_type_label
from .coxeter import CoxeterGroup, ElementTable, get_group, order_of_type
from .qbg import QuantumBruhatGraph, build_qbg, check_graph_defined

MAGIC = b"WQBG"
VERSION = 3


class CacheError(RuntimeError):
    pass


@contextlib.contextmanager
def os_errors():
    """Raise an OSError on a cache file or directory as a CacheError."""
    try:
        yield
    except OSError as exc:
        raise CacheError(str(exc)) from exc


def _pack_array(a: np.ndarray) -> bytes:
    return struct.pack("<Q", a.nbytes) + a.tobytes()


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise CacheError("truncated cache file")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return struct.unpack("<B", self.take(1))[0]

    def u16(self) -> int:
        return struct.unpack("<H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]


def save_cache(path, group: CoxeterGroup, graph: Optional[QuantumBruhatGraph] = None) -> None:
    """Write the rows of `group`; flag bit 0 records only whether `graph` was
    given, and ``load_cache`` then hands back ``build_qbg(group)``."""
    table = group.enumerate()
    mat = table.mat.astype(np.int16)
    label_b = group.label.encode()
    body = bytearray()
    body += MAGIC
    body += struct.pack("<I", VERSION)
    body += struct.pack("<H", len(label_b)) + label_b
    body += struct.pack("<III", group.rank, group.n_pos, len(table))
    body += struct.pack("<B", 1 if graph is not None else 0)
    body += _pack_array(mat)
    body += struct.pack("<I", zlib.crc32(bytes(body)))
    with os_errors(), open(path, "wb") as f:
        f.write(bytes(body))


def load_cache(path) -> tuple[CoxeterGroup, ElementTable, Optional[QuantumBruhatGraph]]:
    with os_errors(), open(path, "rb") as f:
        data = f.read()
    if len(data) < 12:
        raise CacheError("truncated cache file")
    stored_crc = struct.unpack("<I", data[-4:])[0]
    if zlib.crc32(data[:-4]) != stored_crc:
        raise CacheError("checksum mismatch")
    r = _Reader(data[:-4])
    if r.take(4) != MAGIC:
        raise CacheError("bad magic")
    version = r.u32()
    if version != VERSION:
        raise CacheError(f"unsupported cache version {version}")
    raw_label = r.take(r.u16())
    try:
        label = raw_label.decode()
    except UnicodeDecodeError as exc:
        raise CacheError(f"cached type label {raw_label!r} is not utf-8") from exc
    rank = r.u32()
    n_pos = r.u32()
    count = r.u32()
    flags = r.u8()
    if flags & ~1:
        raise CacheError(f"unknown cache flags {flags:#04x}")
    # from the header and the label alone, before any group is built; the
    # product stops once it passes the count
    try:
        factors = parse_type_label(label)
    except TypeLabelError as exc:
        raise CacheError(f"cached type label: {exc}") from exc
    order = order_of_type(factors, limit=count)
    if order > count:
        raise CacheError(f"cache holds {count} rows, |W({label})| > {count}")
    if order != count:
        raise CacheError(f"cache holds {count} rows, |W({label})| = {order}")
    if 8 + 2 * count * n_pos > len(r.data) - r.pos:
        raise CacheError("truncated cache file")
    group = get_group(label)
    if group.rank != rank or group.n_pos != n_pos:
        raise CacheError("cache shape disagrees with the type label")
    nbytes = r.u64()
    raw = r.take(nbytes)
    if nbytes != 2 * count * n_pos:
        raise CacheError(f"GRP section holds {nbytes} bytes, not {count} x {n_pos} int16")
    mat = np.frombuffer(raw, dtype=np.int16).reshape(count, n_pos).copy()
    checked = _checked_index(group, mat)
    held = group._enum
    if held is not None and not np.array_equal(held.mat, mat):
        # the group's graph and every index handed out refer to its rows
        raise CacheError("cached rows are not in the order of the table already in use")
    if r.pos != len(r.data):
        raise CacheError("cache file has bytes after its last section")
    if flags & 1:
        try:
            check_graph_defined(group)
        except ValueError as exc:
            raise CacheError(f"cache saved with its graph: {exc}") from exc
    # install only once the whole file has been read and checked
    table = held if held is not None else group._cache_enum(checked)
    return group, table, build_qbg(group) if flags & 1 else None


def _checked_index(group: CoxeterGroup, mat: np.ndarray) -> ElementTable:
    """The element table of ``mat``; CacheError unless its rows are exactly W.

    A checksum only shows that the file is the one that was written.  The rows
    are ``|W|`` many (``load_cache`` compares the header's count with the
    label's closed form), start with the identity, and are closed under right
    multiplication by the simple reflections: the table's Cayley table
    ``rmul`` looks up each w s_i, and every entry must be a row that equals
    the moved row in every column.  A set closed under the generators that
    holds e holds all of W, and with ``|W|`` rows it is W, each element once.
    The checked Cayley table stays on the table.  A row forged off its key
    can make two rows look up one head, which leaves an entry of ``rmul()``
    unfilled, so entries are range-checked before they index.
    """
    if not np.array_equal(mat[0], group.identity.images):
        raise CacheError("first cached row is not the identity")
    table = ElementTable(group, mat)
    try:
        rmul = table.rmul()
    except KeyError:
        rmul = None
    closed = rmul is not None and ((rmul >= 0) & (rmul < len(mat))).all() and all(
        np.array_equal(mat[rmul[:, i]], mat[:, np.abs(g) - 1] * np.sign(g).astype(mat.dtype))
        for i, g in enumerate(group.gen_images)
    )
    if not closed:
        raise CacheError("cached rows are not closed under the generators")
    return table
