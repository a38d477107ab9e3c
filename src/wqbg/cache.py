"""Binary cache for enumerated groups and their quantum Bruhat graphs.

Layout (all little-endian):

    magic   "WQBG"
    version u32 (currently 2)
    label   u16 length + utf-8 bytes
    rank    u32
    n_pos   u32
    count   u32 (group order)
    flags   u8  (bit 0: a QBG section follows; every other bit is clear)
    GRP section: element images, int16, count x n_pos
    QBG section (optional): n u64, then out_ptr i64[n+1], out_dst i64[E],
        out_kind i8[E], out_root i32[E], weight_enc i64[n_pos]
    crc32   u32 over everything before it, which ends the last section

Each array is preceded by its byte count as a u64.  Version 1 also stored
the reverse CSR, which the graph now derives from the forward one; a
version-1 file is refused.

Loading validates magic, version, flags and checksum, and then, before any
group is built, that the label parses (at most ``cartan.MAX_FACTORS``
factors, refused before they are expanded), that the header's count is |W|
of the label in closed form, a product that stops once it passes the count,
and that that many rows fit in the file.  Then it checks that the rows
are exactly the group (see ``_checked_index``) and that the graph section is
a well-formed CSR graph on them with the coroot weight encoding, and that
nothing but the checksum follows the last section read.  Each row
moved by a simple reflection must equal in every column the row the Cayley
table ``rmul`` finds for it, so a row that agrees with an element only on the
simple-root columns, all that the index reads, is refused.  A file that
cannot be opened, read or written is a CacheError too.  A group
that already holds a table keeps it, and a file whose rows are in another
order is refused, because the group's graph and every index handed out
refer to those rows; otherwise the loaded table becomes the shared group's.
Likewise a group that already holds its graph hands that graph back, and a
file whose graph arrays differ from it is refused.  A file's edges are not
checked against the group, so a loaded graph never becomes the group's.
Arrays round-trip bit-identically.
"""

from __future__ import annotations

import contextlib
import struct
import zlib
from typing import Optional

import numpy as np

from .cartan import TypeLabelError, parse_type_label
from .coxeter import CoxeterGroup, ElementTable, get_group, order_of_type
from .qbg import _ARRAYS, QuantumBruhatGraph, check_graph_defined, weight_encoding

MAGIC = b"WQBG"
VERSION = 2
# the stored dtype of each graph array, in the order of _ARRAYS
_DTYPES = (np.int64, np.int64, np.int8, np.int32, np.int64)


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

    def array(self, dtype, count: Optional[int] = None) -> np.ndarray:
        nbytes = self.u64()
        raw = self.take(nbytes)
        a = np.frombuffer(raw, dtype=dtype).copy()
        if count is not None and len(a) != count:
            raise CacheError("section length mismatch")
        return a


def save_cache(path, group: CoxeterGroup, graph: Optional[QuantumBruhatGraph] = None) -> None:
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
    if graph is not None:
        body += struct.pack("<Q", graph.n)
        for name, dt in zip(_ARRAYS, _DTYPES):
            body += _pack_array(np.ascontiguousarray(getattr(graph, name), dtype=dt))
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
    label = r.take(r.u16()).decode()
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
    mat = r.array(np.int16, count * n_pos).reshape(count, n_pos)
    checked = _checked_index(group, mat)
    held = group._enum
    if held is not None and not np.array_equal(held.mat, mat):
        # the group's graph and every index handed out refer to its rows
        raise CacheError("cached rows are not in the order of the table already in use")
    graph = None
    if flags & 1:
        n = r.u64()
        arrays = [r.array(dt) for dt in _DTYPES]
        if n != count:
            raise CacheError(f"cached graph has {n} vertices for {count} rows")
        try:
            check_graph_defined(group)
        except ValueError as exc:
            raise CacheError(f"cached graph section: {exc}") from exc
        _check_csr(*arrays[:4], n, n_pos)
        if not np.array_equal(arrays[4], weight_encoding(group)):
            raise CacheError("cached weight encoding is not the coroot encoding")
        graph = QuantumBruhatGraph(group, int(n), *arrays)
        held_graph = group._qbg
        if held_graph is not None:
            # the file's edges are not verified, so the group keeps its graph
            # and the file must agree with it array for array
            if any(not np.array_equal(getattr(graph, name), getattr(held_graph, name))
                   for name in _ARRAYS):
                raise CacheError("cached graph differs from the graph already in use")
            graph = held_graph
    if r.pos != len(r.data):
        raise CacheError("cache file has bytes after its last section")
    # install only once the whole file has been read and checked
    table = held if held is not None else group._cache_enum(checked)
    return group, table, graph


def _check_csr(ptr, ends, kind, root, n: int, n_pos: int) -> None:
    """CacheError unless the arrays are a CSR adjacency on n vertices."""
    edges = len(ends)
    if len(kind) != edges or len(root) != edges:
        raise CacheError("cached edge arrays differ in length")
    if len(ptr) != n + 1 or ptr[0] != 0 or ptr[-1] != edges or (np.diff(ptr) < 0).any():
        raise CacheError("cached edge pointers are not a CSR index")
    if edges and (ends.min() < 0 or ends.max() >= n):
        raise CacheError("cached edge endpoint out of range")
    if not np.isin(kind, (0, 1)).all():
        raise CacheError("cached edge kind is not 0 or 1")
    if edges and (root.min() < 0 or root.max() >= n_pos):
        raise CacheError("cached edge root out of range")


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
