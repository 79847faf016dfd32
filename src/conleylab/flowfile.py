"""The flow file reader, `_read`, the one parser of a flow body:
`load_file` hands it a file, and `load_body` (behind
`CombinatorialFlow.from_json`) the text json.dumps writes of a body.

The text is read through one window of _SPAN-sized chunks, one top-level
member at a time, and so is an inline complex: each read(_SPAN) call grows
the window at its end and frees what the reader has passed. The members
that grow with the complex (its `cells` and `boundary`, and the flow's
`successors`, `fixed` and `k`) are decoded a span of about _SPAN
characters at a time into the complex's tables or the flow's lists, so
neither the whole text nor a whole parsed body is held, and every cell id
is kept as one string: the complex, `successors`, `fixed` and `k` take
each id from one table. The complex is built, fully validated, when its
object closes; each member is checked as it is read, so of two faults the
one met first is reported. A text the spans do not read (a cut inside an
id, an entry of another shape, a structural fault) is read whole by
json.loads and checked in the same order, so the reader reads exactly what
json.loads reads. A text that does not read or parse is refused with the
file's or json.loads' own message, a field of the wrong shape as FlowError
naming the field, both with code unreadable-input. Only the commands that
read a file import this module.
"""

import io
import json
import os
import re
from contextlib import contextmanager
from itertools import chain
from json.decoder import WHITESPACE, scanstring

from .complexes import CellComplex, ComplexError, ConleyError
from .flow import CombinatorialFlow, FlowError


@contextmanager
def _malformed():
    """Report malformed structure met in the block (a missing key, a list
    where a mapping belongs, an unhashable cell id) as unreadable input; a
    ConleyError passes as it is."""
    try:
        yield
    except ConleyError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise FlowError("unreadable-input", "malformed flow data: %s: %s"
                        % (type(exc).__name__, exc))


def _ids(value):
    """Whether a field value is a list of cell ids (strings)."""
    return type(value) is list and not set(map(type, value)) - {str}


def _is_successors(value):
    return (type(value) is dict
            and not set(map(type, value.values())) - {list}
            and not set(map(type, chain.from_iterable(value.values())))
            - {str})


# field -> (test of its value's shape, why a value fails it); a missing
# `successors` or `complex` fails its test too
_SHAPES = {
    "successors": (_is_successors, "successors is not a mapping from cell "
                   "ids to lists of cell ids"),
    "fixed": (_ids, "fixed is not a list of cell ids"),
    "k": (lambda v: v is None or _ids(v), "k is not a list of cell ids"),
    "ring": (lambda v: v in ("z", "z2"), "ring is not z or z2"),
    "name": (lambda v: v is None or type(v) is str, "name is not a string"),
    # an object is read as the complex, and a name is refused by name
    "complex": (lambda v: type(v) in (dict, str), "complex is not an object"),
}


def _check_field(key, value):
    """Refuse a flow file field of the wrong shape, naming the field, and a
    complex given by name."""
    ok, why = _SHAPES[key]
    if not ok(value):
        raise FlowError("unreadable-input", "malformed flow data: " + why)
    if key == "complex" and type(value) is str:
        raise FlowError("unreadable-input",
                        "flow references complex %r by name" % value)


# A file is read through one window of _SPAN-sized chunks. The members
# that grow with the complex (`cells`, `boundary`, `successors`, `fixed`
# and `k`) are decoded a span of about _SPAN characters at a time. A span
# ends just past the last character of an entry (the `]` of a pair or a
# list, the `"` of an id) that a comma and the next entry follow, with
# JSON whitespace only between them, as json.loads reads it; or at the
# first close before that, in a member that is well formed its own
# closing bracket or brace. Each kind of member is (opener, cut search,
# close search); each pattern starts with one literal character, which
# the regex engine finds by a fast scan.
_SPAN = 1 << 16
_PAIRS = ("[", re.compile(r'\][ \t\n\r]*,[ \t\n\r]*\[').search,
          re.compile(r'\][ \t\n\r]*\]').search)
_IDS = ("[", re.compile(r'"[ \t\n\r]*,[ \t\n\r]*"').search,
        re.compile(r'"[ \t\n\r]*\]').search)
_LISTS = ("{", re.compile(r'\][ \t\n\r]*,[ \t\n\r]*"').search,
          re.compile(r"\}").search)


class _Window:
    """A text file read through one window of _SPAN-sized chunks. `text`
    holds the file from where the cursor `i` stood at the last read: each
    read drops the text before the cursor, so what the reader has passed
    is freed."""

    def __init__(self, fh):
        self.fh = fh
        self.text = ""
        self.i = 0
        self.done = False

    def grow(self):
        """Read on: as many _SPAN chunks as the window holds from the
        cursor on, at least one, so a value n chunks long is held after
        about log2(n) reads. The window then starts at the cursor, so a
        caller reads `text` and `i` afresh. False, with the window as it
        was, once the file has ended."""
        if self.done:
            return False
        chunks = [self.text[self.i:]]
        for _ in range(max(1, len(chunks[0]) // _SPAN)):
            chunk = self.fh.read(_SPAN)
            if not chunk:
                self.done = True
                break
            chunks.append(chunk)
        if len(chunks) == 1:
            return False
        self.text, self.i = "".join(chunks), 0
        return True

    def skip(self):
        """Move the cursor past JSON whitespace. The character there, or
        "" at the end of the file."""
        while True:
            self.i = WHITESPACE.match(self.text, self.i).end()
            if self.i < len(self.text) or not self.grow():
                return self.text[self.i:self.i + 1]

    def decode(self, scan):
        """The value scan(text, i) decodes at the cursor, which moves past
        it. The window grows until the value decodes or the file ends. A
        number that ends within two characters of the window's end may go
        on past it (`1e` of `1e5`), so it is decoded again once the window
        has grown."""
        while True:
            try:
                value, end = scan(self.text, self.i)
            except (StopIteration, ValueError):
                if self.grow():
                    continue
                raise
            if (type(value) in (int, float) and end + 3 > len(self.text)
                    and self.grow()):
                continue
            self.i = end
            return value


def _key(text, i):
    # the string that opens at text[i]
    return scanstring(text, i + 1)


def _members(w, member):
    """Walk the JSON object that opens at the window's cursor, calling
    member(key, opener) with the cursor at the start of each value and
    `opener` its first character; member decodes the value and moves the
    cursor past it. Leaves the cursor past the object. A structural fault
    raises StopIteration, as the decoder's own scanner does where no value
    starts, and a bad key raises JSONDecodeError."""
    if w.skip() != "{":
        raise StopIteration(w.i)
    w.i += 1
    ch = w.skip()
    if ch == "}":
        w.i += 1
        return
    while ch == '"':
        key = w.decode(_key)
        if w.skip() != ":":
            break
        w.i += 1
        member(key, w.skip())
        ch = w.skip()
        w.i += 1
        if ch == "}":
            return
        if ch != ",":
            break
        ch = w.skip()
    raise StopIteration(w.i)


def _spans(w, scan, kind, take):
    """Decode the array or object of `kind` (_PAIRS, _IDS or _LISTS) that
    opens at the window's cursor a span at a time, each span as an array
    or object of its own, and hand each decoded span to take(part), which
    raises on an entry of a shape the caller does not read. The cursor
    ends past the value.

    The last span ends at the value's own close, so no span runs on into
    the members after it. A cut or a close that falls inside a string or a
    nested value leaves the span unterminated, so it does not decode, and
    the decoder's error passes on."""
    opener, cut_at, close_at = kind
    closer = "]" if opener == "[" else "}"
    w.i += 1
    if w.skip() == closer:
        w.i += 1
        return
    while True:
        text, a = w.text, w.i
        cut = cut_at(text, a + _SPAN)
        b = cut.start() + 1 if cut else len(text)
        close = close_at(text, a, b)
        if close:
            cut, b = None, close.end()
        elif not cut and w.grow():
            continue
        part, end = scan("%s%s%s" % (opener, text[a:b],
                                     closer if cut else ""), 0)
        take(part)
        del part
        # the span's own close closed it: the value goes on
        if cut and end == b - a + 2:
            w.i = cut.end() - 1
            continue
        w.i = a - 1 + end
        return


def _read_cells(w, scan, ids):
    """The {cell: dim} table of the `cells` array at the window's cursor,
    decoded a span at a time, every id taken from `ids`. An item that is
    not an [id, dim] pair with a string id raises ValueError. A repeated
    id keeps its first place and its last dimension, as dict() of the
    pairs does."""
    table = {}
    intern = ids.setdefault

    def take(pairs):
        for p in pairs:
            if type(p) is not list or len(p) != 2 or type(p[0]) is not str:
                raise ValueError("a cell is not an [id, dim] pair")
            table[intern(p[0], p[0])] = p[1]

    _spans(w, scan, _PAIRS, take)
    return table


def _read_ids(w, scan, ids, key):
    """The ids of the `fixed` or `k` array (`key`) at the window's cursor,
    decoded a span at a time, each taken from `ids`. A span that holds an
    item other than a string is refused as the field is."""
    out = []
    intern = ids.setdefault

    def take(part):
        _check_field(key, part)
        out.extend(map(intern, part, part))

    _spans(w, scan, _IDS, take)
    return out


def _read_boundary(w, scan, ids):
    """The {cell: {face: coeff}} table of the `boundary` object at the
    window's cursor, decoded a span at a time, every id taken from `ids`.
    An entry that is not a list of [face, coeff] pairs with string faces
    raises ValueError or TypeError; a pair of another shape that unpacks
    to two items is left to `_read_complex`."""
    table = {}
    intern = ids.setdefault

    def take(part):
        if set(map(type, part.values())) - {list}:
            raise ValueError("a boundary is not a list of pairs")
        for c, pairs in part.items():
            faces = table[intern(c, c)] = {}
            for f, n in pairs:
                faces[intern(f, f)] = n

    _spans(w, scan, _LISTS, take)
    if set(map(type, ids)) - {str}:
        raise ValueError("a face is not a string")
    return table


def _read_successors(w, scan, ids):
    """The `successors` mapping at the window's cursor, decoded a span at a
    time, every id taken from `ids`. A span that is not a mapping from cell
    ids to lists of cell ids raises ValueError."""
    table = {}
    intern = ids.setdefault

    def take(part):
        if not _is_successors(part):
            raise ValueError("successors is not a mapping of id lists")
        for c, outs in part.items():
            table[intern(c, c)] = list(map(intern, outs, outs))

    _spans(w, scan, _LISTS, take)
    return table


def _read_complex(w, scan, ids):
    """The complex of the object that opens at the window's cursor, the
    cursor moved past it. Its `cells` array and `boundary` object are
    decoded a span at a time into the complex's tables, every cell id
    taken from `ids`, one string per id; any other member is decoded
    whole. The complex is built when the object closes.

    A boundary pair of another shape that unpacks to two items (a
    two-letter string, a two-key object) reads as a face and a coefficient
    that is no integer, which the complex refuses. The spans cannot tell it
    from a list pair with such a coefficient, so a complex refused while it
    holds one raises ValueError, and the text is read whole, where
    `boundary_table` names the pair's shape. A valid complex pays for no
    test per pair."""
    body = {}
    tables = {}

    def member(key, opener):
        if key == "cells" and opener == "[":
            tables[key] = _read_cells(w, scan, ids)
        elif key == "boundary" and opener == "{":
            tables[key] = _read_boundary(w, scan, ids)
        else:
            body[key] = w.decode(scan)

    _members(w, member)
    try:
        with _malformed():
            return CellComplex.from_json(body, **tables)
    except ComplexError:
        coeffs = chain.from_iterable(map(dict.values, tables.get(
            "boundary", {}).values()))
        if set(map(type, coeffs)) - {int}:
            raise ValueError("a coefficient is not an integer") from None
        raise


def _read_body(w, scan):
    # (complex, other fields) of the body at the window's cursor
    ids = {}
    data = {}

    def member(key, opener):
        if key == "successors" and opener == "{":
            value = _read_successors(w, scan, ids)
        elif key in ("fixed", "k") and opener == "[":
            value = _read_ids(w, scan, ids, key)
        elif key == "complex" and opener == "{":
            value = _read_complex(w, scan, ids)
        else:
            value = w.decode(scan)
            if key in _SHAPES:
                _check_field(key, value)
        data[key] = value

    _members(w, member)
    if w.skip():
        # data after the object
        raise StopIteration(w.i)
    for key in ("successors", "complex"):
        if key not in data:
            _check_field(key, None)
    return data.pop("complex"), data


def _read(fh, unreadable):
    """(complex, other fields) of the flow body in the text file `fh`, the
    one parser of a flow body. It reads the text through one window of
    _SPAN-sized chunks, one top-level member at a time, each checked as it
    is read; the complex, `successors`, `fixed` and `k` share one string
    per cell id. A fault it names stands once the rest of the text reads
    without a fault in reading it, so a byte that does not decode is
    reported first, as when the text is read whole. Where it fails
    otherwise (a cut inside a string id, an entry of another shape, a
    structural fault, values nested past its calls' depth), `_read_whole`
    reads the text."""
    try:
        return _read_body(_Window(fh), json.JSONDecoder().scan_once)
    except ConleyError:
        if _reads_to_end(fh):
            raise
    except (StopIteration, RecursionError, OSError, TypeError, ValueError):
        pass
    return _read_whole(fh, unreadable)


def _read_whole(fh, unreadable):
    """(complex, other fields) of the body json.loads reads from the whole
    text of `fh`, each member checked in the body's order, the complex
    built where it stands. A text that does not read or parse raises
    unreadable(message), with the file's or json.loads' own message; one
    whose top level is not an object raises FlowError."""
    try:
        fh.seek(0)
        data = json.loads(fh.read())
    except (OSError, ValueError, RecursionError) as exc:
        raise unreadable(exc)
    if type(data) is not dict:
        raise FlowError("unreadable-input", "malformed flow data: the "
                        "file is not a JSON object")
    with _malformed():
        for key, value in data.items():
            if key in _SHAPES:
                _check_field(key, value)
            if key == "complex":
                cx = CellComplex.from_json(value)
        for key in ("successors", "complex"):
            if key not in data:
                _check_field(key, None)
    del data["complex"]
    return cx, data


def _reads_to_end(fh):
    # whether the rest of the text reads without a fault
    try:
        while fh.read(_SPAN):
            pass
    except (OSError, ValueError):
        return False
    return True


def _assemble(cx, data, name):
    # the flow of a body's checked fields on its built complex
    with _malformed():
        meta = {}
        if "recipe" in data:
            meta["recipe"] = data["recipe"]
        flow = CombinatorialFlow(cx, data["successors"], name=name, meta=meta)
        declared = set(data.get("fixed", []))
    if declared and declared != set(flow.fixed):
        raise FlowError("unreadable-input", "fixed set disagrees with successors")
    return flow


def load_body(data):
    """The flow of a JSON body, read from the text json.dumps writes of it
    as a file holding that text would be; the body is not changed. A body
    json.dumps cannot write is refused as unreadable input."""
    def unreadable(exc):
        return FlowError("unreadable-input",
                         "cannot read flow body: %s" % exc)

    try:
        text = json.dumps(data)
    except (TypeError, ValueError, RecursionError) as exc:
        raise unreadable(exc)
    cx, data = _read(io.StringIO(text), unreadable)
    return _assemble(cx, data, data.get("name"))


def load_file(path, name=None, error=FlowError):
    """Read a flow file into an entry shaped like `catalog.build`'s:
    {name, resolution, flow, k, expected, ring}. The entry and its flow are
    called `name`, else the file's "name", else the file stem. Its
    resolution is None: a file is read as it stands and never rebuilt,
    whatever recipe it names. A file that cannot be read or parsed raises
    `error` with code unreadable-input, naming the file."""
    def unreadable(exc):
        return error("unreadable-input",
                     "cannot read flow file %s: %s" % (path, exc))

    try:
        fh = open(path)
        if not fh.seekable():
            # a pipe cannot be read again from its start: it is read whole
            with fh:
                fh = io.StringIO(fh.read())
    except (OSError, ValueError) as exc:
        raise unreadable(exc)
    with fh:
        cx, data = _read(fh, unreadable)
    name = (name or data.get("name")
            or os.path.splitext(os.path.basename(path))[0])
    flow = _assemble(cx, data, name)
    k = data.get("k")
    return {"name": name, "resolution": None, "flow": flow,
            "k": sorted(k) if k else None, "expected": {},
            "ring": data.get("ring", "z")}
