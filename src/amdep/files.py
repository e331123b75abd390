"""The package's data files: the schema of each JSON file kind, the one
reader, which checks a file against its schema once, the one writer, and
run manifests. A value that departs from its schema raises MalformedInput
naming the file, the item and the field path, as in
``trees.json: item 'g': tree.nodes.a.type is str, not an object``, so the
readers in graph, algebra, training and cli only construct.

A schema is ``str`` or ``dict`` for a string or any object; ``{"key": schema,
"key?": schema}`` for an object with those keys, ``?`` marking optional ones
(other keys are ignored); ``{str: schema}`` for an object whose values each
follow schema; ``[schema]`` for a list; a ``Number``; or a function of the
value that returns the schema it must follow.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager, suppress
from pathlib import Path

from .errors import AmdepError, MalformedInput, MissingInput, UnwritableOutput


def open_input(path):
    """open(path) for reading text; a file that cannot be opened raises
    MissingInput naming the path."""
    try:
        return open(path, encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise MissingInput(f"{path}: {getattr(exc, 'strerror', None) or exc}") from exc


@contextmanager
def open_output(path):
    """open(path, "w") for writing text, made atomic: the text goes to a
    temporary file in path's directory, which replaces path when the block
    ends and is removed when it raises, so path holds either its old bytes
    or all the new ones, never a prefix. A file that cannot be written
    raises UnwritableOutput naming path."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        with suppress(OSError):  # never made; else exc is the error to report
            os.remove(tmp)
        if isinstance(exc, OSError):
            raise UnwritableOutput(f"{path}: {exc.strerror or exc}") from exc
        raise


def make_output_dir(path: Path):
    """path.mkdir(parents=True, exist_ok=True); a directory that cannot be
    made raises UnwritableOutput naming path."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UnwritableOutput(f"{path}: {exc.strerror or exc}") from exc


def escapes_surrogate(text):
    """Whether JSON text may decode to a lone UTF-16 surrogate, which UTF-8
    cannot encode, so no output could hold it. Only an escape from \\ud800
    to \\udfff gives one, and each begins \\ud or \\uD; a pair of them is
    one character beyond U+FFFF."""
    return "\\ud" in text or "\\uD" in text


def _load(path, error):
    """The JSON value of a file, and whether its text escapes a surrogate."""
    with open_input(path) as fh:
        try:
            text = fh.read()
            return json.loads(text), escapes_surrogate(text)
        except (ValueError, RecursionError) as exc:  # undecodable bytes too
            raise error(f"{path}: invalid JSON: {exc}") from exc


def read_json(path, schema):
    """The JSON value of a file, checked against schema; a file that is not
    JSON, departs from schema or holds a lone surrogate raises MalformedInput
    naming it."""
    data, escapes = _load(path, MalformedInput)
    check(data, schema, path, surrogates=escapes)
    return data


def read_items(path, schema, build, error=MalformedInput):
    """(id, build(item)) for each item of a file that lists objects that
    each follow schema, which requires a string "id". An item that departs
    from it, holds a lone surrogate or that build rejects raises error
    naming the file and the item, by its id or else by #index."""
    out = []
    items, escapes = _load(path, error)
    check(items, [dict], path, error)
    for i, item in enumerate(items):
        tid = item.get("id")
        where = f"{path}: item {tid!r}" if isinstance(tid, str) else f"{path}: item #{i}"
        check(item, schema, where, error, escapes)
        try:
            out.append((tid, build(item)))
        except (ValueError, AmdepError, RecursionError) as exc:  # RecursionError: a deep type
            raise error(f"{where}: {exc}") from exc
    return out


def write_json(obj, path):
    """Write obj, made of the plain JSON types and tuples, to path as
    json.dump(obj, fh, ensure_ascii=False, indent=1, sort_keys=True) does,
    then a newline. json indents through its pure-Python encoder, one
    generator step per piece of text; _render makes one call per container
    instead, and the text reaches the file in chunks of about _CHUNK
    pieces, never whole, through open_output."""
    with open_output(path) as fh:
        dump_json(obj, fh)


def dump_json(obj, fh):
    """Write obj to the open text file fh as write_json writes it to a path."""
    out = []
    _render(obj, "\n", out, fh.write)
    out.append("\n")
    fh.write("".join(out))


_CHUNK = 4096
_encode = json.encoder.encode_basestring  # ensure_ascii=False keeps non-ASCII text


def _float(o):
    if o != o:
        return "NaN"
    if o == math.inf:
        return "Infinity"
    if o == -math.inf:
        return "-Infinity"
    return float.__repr__(o)


# the text of a scalar by its type, as json writes it
_TEXT = {str: _encode, int: int.__repr__, float: _float, type(None): lambda _o: "null",
         bool: lambda o: "true" if o else "false"}


def _scalar(o):
    text = _TEXT.get(type(o))
    if text is None:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
    return text(o)


def _render(o, nl, out, write):
    """Append the text of o to out, writing out whenever it holds _CHUNK
    pieces; nl is a newline and the indent of the line o starts on."""
    is_dict = isinstance(o, dict)
    if not is_dict and not isinstance(o, (list, tuple)):
        out.append(_scalar(o))
        return
    if not o:
        out.append("{}" if is_dict else "[]")
        return
    inner = nl + " "
    sep = ("{" if is_dict else "[") + inner
    for v in sorted(o.items()) if is_dict else o:
        if is_dict:
            k, v = v
            sep += (_encode(k) if type(k) is str else _encode(_scalar(k))) + ": "
        if isinstance(v, (dict, list, tuple)):
            out.append(sep)
            _render(v, inner, out, write)
        else:
            out.append(sep + _scalar(v))
        sep = "," + inner
        if len(out) >= _CHUNK:
            write("".join(out))
            out.clear()
    out.append(nl + ("}" if is_dict else "]"))


def sha256(path):
    import hashlib  # loads OpenSSL: only commands that write a manifest need it

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def write_manifest(path, command, config, inputs, outputs, counts):
    """Deterministic run manifest. Wall time is deliberately logged instead
    of stored so reruns with equal seeds and inputs are bit-identical."""
    from . import __version__

    manifest = {
        "version": __version__,
        "command": command,
        "config": config,
        "inputs": {Path(p).name: sha256(p) for p in inputs},
        "outputs": {Path(p).name: sha256(p) for p in outputs},
        "counts": counts,
    }
    write_json(manifest, path)


# ---------------------------------------------------------------------------
# schemas


class Number:
    """A JSON number (not a bool), finite as a float, that passes test;
    what describes it."""

    def __init__(self, test, what):
        self.test, self.what = test, what


NODE = {"id": str, "label?": str}  # a constant's slot nodes have no label
GRAPH = {"nodes": [NODE], "edges": [{"src": str, "tgt": str, "label": str}], "root": str}
CORPUS_ITEM = {"id": str, **GRAPH}
TYPE = {}
TYPE[str] = TYPE  # a type maps each source name to its request, itself a type
CONSTANT = {**GRAPH, "sources?": {str: str}, "type?": TYPE}
TREES_ITEM = {"id": str, "tree": {"root": str, "nodes": {str: CONSTANT},
                                  "edges": [{"parent": str, "child": str, "op": str,
                                             "source": str}]}}
INDEX = {"automata": [{"id": str, "file": str}]}
# the leaf or operation at each address of an automaton file's binarized tree
SHAPE = {str: lambda d: {"node": str, "const": str} if isinstance(d, dict)
         and d.get("kind") == "leaf" else {"kind": str}}
POSITIVE = Number(lambda x: x > 0, "a positive finite number")
THETA = {"theta": {str: POSITIVE}, "groups?": {str: [str]}, "meta?": dict, "default?": POSITIVE}


def exp_is_weight(x) -> bool:
    """Whether exp(x) is a positive finite float: a scorer parameter that
    train-joint may reach and a scorer file may hold."""
    try:
        return 0 < math.exp(x) < math.inf
    except OverflowError:
        return False


SCORER = {"params": {str: Number(exp_is_weight, "a number whose exp is a positive finite weight")},
          "meta?": dict}
# a weights file is theta.json when it has "theta", else scorer.json
WEIGHTS = lambda obj: THETA if isinstance(obj, dict) and "theta" in obj else SCORER


class _Mismatch(Exception):
    """Where and how a value departs from its schema. The field path is
    built only on failure: each level of _check adds its key or index to
    ``path`` (innermost first) as the error unwinds. ``top`` names the field
    when the path is empty."""

    def __init__(self, what, top=""):
        self.what, self.top, self.path = what, top, []

    def __str__(self):
        field = ""
        for key in reversed(self.path):
            field = f"{field}[{key}]" if isinstance(key, int) else _field(field, key)
        return f"{field or self.top}{self.what}"


_KIND = {type(None): "null", bool: "bool", int: "int", float: "float", str: "str",
         list: "a list", dict: "an object"}
_WANT = {str: "a string", list: "a list", dict: "an object"}


def _field(field, key):
    if key.isidentifier():
        return f"{field}.{key}" if field else key
    return f"{field}[{key!r}]"


def check(value, schema, name, error=MalformedInput, surrogates=False):
    """Raise error naming name and the field path where value first
    departs from schema or, with surrogates, where a string of it, key or
    value, first holds a lone surrogate."""
    try:
        _check(value, schema)
        if surrogates:
            _unpaired(value)
    except (_Mismatch, RecursionError) as exc:
        raise error(f"{name}: {exc}") from None


def _unpaired(value):
    """Raise _Mismatch at the first string of value, a key or a value, that
    holds a lone surrogate."""
    if isinstance(value, (dict, list)):
        for key, v in value.items() if isinstance(value, dict) else enumerate(value):
            try:
                _unpaired(key)
                _unpaired(v)
            except _Mismatch as exc:
                exc.path.append(key)
                raise
    elif isinstance(value, str):
        try:
            value.encode()
        except UnicodeEncodeError as exc:
            raise _Mismatch(f" holds the lone surrogate {value[exc.start]!r}",
                            "the top level") from None


def _check(value, schema):
    if callable(schema) and not isinstance(schema, type):
        schema = schema(value)
    if isinstance(schema, Number):
        try:
            ok = type(value) in (int, float) and math.isfinite(value) and schema.test(value)
        except OverflowError:  # an int too large for a float
            ok = False
        if not ok:
            raise _Mismatch(f" is {value!r}, not {schema.what}")
        return
    want = schema if schema in (str, dict) else list if isinstance(schema, list) else dict
    if not isinstance(value, want):
        raise _Mismatch(f" is {_KIND[type(value)]}, not {_WANT[want]}", "the top level")
    try:
        if isinstance(schema, list):
            for key, v in enumerate(value):
                _check(v, schema[0])
        elif isinstance(schema, dict) and str in schema:
            for key, v in value.items():
                _check(v, schema[str])
        elif isinstance(schema, dict):
            for optional, sub in schema.items():
                key = optional.rstrip("?")
                if key in value:
                    _check(value[key], sub)
                elif key == optional:
                    raise _Mismatch(" is missing")
    except _Mismatch as exc:
        exc.path.append(key)
        raise
