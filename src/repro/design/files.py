"""Design files: experiments as data on disk (TOML or JSON).

A design file declares what :class:`~repro.design.design.Design` declares
in code — factors with explicit level lists, exclusion rules, per-cell
overrides and an ordering — plus an optional ``[design.env]`` section
pinning scale/seed so a campaign file is self-contained::

    [design]
    name = "lcs-vs-dyncta"
    order = "declared"

    [[design.factor]]
    name = "bench"
    levels = ["kmeans", "iindex", "streaming"]

    [[design.factor]]
    name = "policy"
    levels = [["rr"], ["lcs", "tail", 0.5], ["dyncta"]]

    [[design.exclude]]
    bench = "streaming"
    policy = ["dyncta"]

    [[design.override]]
    match = { bench = "kmeans" }
    set = { warp = "baws" }

    [design.env]
    scale = 0.25

Multi-block designs use ``[[design.block]]`` sections, each carrying its
own ``factor``/``exclude``/``override`` arrays.  TOML has no null, so the
string ``"none"`` denotes ``None`` inside level values (e.g. the open
block-limit slot of ``["bcs", 2, "none"]``); JSON files use native
``null``.  Only *file-representable* designs serialize — nested/derived
factors and predicate filters are in-code constructs (the E-driver
registry); everything the parser accepts round-trips through
:func:`serialize_design` with identical compiled fingerprints, which is
exactly what the design round-trip tests and the fuzzer's ``design``
invariant assert.
"""

from __future__ import annotations

import json
import tomllib
from pathlib import Path
from typing import Any, Mapping

from .design import Block, Design, DesignError, Factor, Override

#: [design.env] keys a file may pin (merged over the CLI environment).
ENV_KEYS = ("scale", "seed", "timeline_window", "trace")

#: The string that encodes None in TOML files (TOML has no null).
NONE_SENTINEL = "none"


def _decode(value: Any) -> Any:
    """File value -> design value ("none" -> None, recursively)."""
    if isinstance(value, str) and value == NONE_SENTINEL:
        return None
    if isinstance(value, list):
        return [_decode(v) for v in value]
    if isinstance(value, dict):
        return {k: _decode(v) for k, v in value.items()}
    return value


def _encode(value: Any) -> Any:
    """Design value -> file value (None -> "none", tuples -> lists)."""
    if value is None:
        return NONE_SENTINEL
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    return value


# --------------------------------------------------------------------------- #
# parsing
# --------------------------------------------------------------------------- #

def _parse_block(data: Mapping, where: str) -> Block:
    factors = []
    for spec in data.get("factor", ()):
        if not isinstance(spec, Mapping) or "name" not in spec:
            raise DesignError(f"{where}: every [[factor]] needs a name, "
                              f"got {spec!r}")
        if "levels" not in spec:
            raise DesignError(f"{where}: factor {spec['name']!r} needs "
                              f"explicit levels (nested/derived factors "
                              f"are in-code constructs)")
        factors.append(Factor.crossed(spec["name"],
                                      _decode(list(spec["levels"]))))
    if not factors:
        raise DesignError(f"{where}: a design block needs at least one "
                          f"[[factor]]")
    exclude = tuple(_decode(dict(m)) for m in data.get("exclude", ()))
    overrides = []
    for spec in data.get("override", ()):
        if not isinstance(spec, Mapping) or "set" not in spec:
            raise DesignError(f"{where}: every [[override]] needs a "
                              f"'set' table, got {spec!r}")
        overrides.append(Override(match=_decode(dict(spec.get("match", {}))),
                                  set=_decode(dict(spec["set"]))))
    return Block(factors=tuple(factors), exclude=exclude,
                 overrides=tuple(overrides))


def parse_design(text: str, *, fmt: str | None = None
                 ) -> tuple[Design, dict]:
    """Parse a design document; returns ``(design, env_overrides)``.

    ``fmt`` is ``"toml"`` or ``"json"``; omitted, the document is sniffed
    (JSON documents start with ``{``).  ``env_overrides`` holds only the
    ``[design.env]`` keys the file actually pinned.
    """
    if fmt is None:
        fmt = "json" if text.lstrip().startswith("{") else "toml"
    try:
        if fmt == "json":
            document = json.loads(text)
        elif fmt == "toml":
            document = tomllib.loads(text)
        else:
            raise DesignError(f"unknown design file format {fmt!r}")
    except (json.JSONDecodeError, tomllib.TOMLDecodeError) as error:
        raise DesignError(f"unparseable {fmt} design file: {error}") from None
    data = document.get("design")
    if not isinstance(data, Mapping):
        raise DesignError("a design file needs a [design] table "
                          "(or a top-level 'design' object in JSON)")
    name = data.get("name")
    if not name or not isinstance(name, str):
        raise DesignError("[design] needs a non-empty string 'name'")
    order = data.get("order", "declared")
    block_specs = data.get("block")
    if block_specs:
        if any(key in data for key in ("factor", "exclude", "override")):
            raise DesignError("use either top-level [[design.factor]] "
                              "tables or [[design.block]] sections, "
                              "not both")
        blocks = tuple(_parse_block(spec, f"block #{i}")
                       for i, spec in enumerate(block_specs))
        design = Design(name, blocks=blocks, order=order)
    else:
        block = _parse_block(data, f"design {name!r}")
        design = Design(name, blocks=(block,), order=order)
    env = data.get("env", {})
    if not isinstance(env, Mapping):
        raise DesignError("[design.env] must be a table")
    unknown = sorted(set(env) - set(ENV_KEYS))
    if unknown:
        raise DesignError(f"unknown [design.env] keys {unknown}; "
                          f"known: {list(ENV_KEYS)}")
    return design, _decode(dict(env))


def load_design(path: str | Path) -> tuple[Design, dict]:
    """Parse a design file; the suffix picks the format (.json vs .toml)."""
    path = Path(path)
    fmt = "json" if path.suffix.lower() == ".json" else "toml"
    return parse_design(path.read_text(), fmt=fmt)


# --------------------------------------------------------------------------- #
# serialization
# --------------------------------------------------------------------------- #

def _toml_value(value: Any) -> str:
    value = _encode(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        return json.dumps(value)   # JSON strings are valid TOML strings
    if isinstance(value, list):
        return "[" + ", ".join(_toml_value(v) for v in value) + "]"
    if isinstance(value, dict):
        pairs = ", ".join(f"{k} = {_toml_value(v)}"
                          for k, v in value.items())
        return "{ " + pairs + " }"
    raise DesignError(f"cannot render {value!r} in a design file")


def _block_payload(block: Block) -> dict:
    payload: dict[str, Any] = {
        "factor": [{"name": f.name, "levels": _encode(list(f.levels))}
                   for f in block.factors]}
    if block.exclude:
        payload["exclude"] = [_encode(dict(m)) for m in block.exclude]
    if block.overrides:
        payload["override"] = [{"match": _encode(dict(o.match)),
                                "set": _encode(dict(o.set))}
                               for o in block.overrides]
    return payload


def design_payload(design: Design, *, env: Mapping | None = None) -> dict:
    """The JSON-compatible document rendering (shared by both formats)."""
    if not design.file_representable:
        raise DesignError(
            f"design {design.name!r} uses nested/derived factors or "
            f"predicate filters and cannot be written to a file")
    data: dict[str, Any] = {"name": design.name}
    if design.order != "declared":
        data["order"] = design.order
    if len(design.blocks) == 1:
        data.update(_block_payload(design.blocks[0]))
    else:
        data["block"] = [_block_payload(b) for b in design.blocks]
    if env:
        unknown = sorted(set(env) - set(ENV_KEYS))
        if unknown:
            raise DesignError(f"unknown env keys {unknown}")
        data["env"] = _encode(dict(env))
    return {"design": data}


def serialize_design(design: Design, *, fmt: str = "toml",
                     env: Mapping | None = None) -> str:
    """Render a file-representable design back to TOML or JSON text."""
    document = design_payload(design, env=env)
    if fmt == "json":
        return json.dumps(document, indent=2) + "\n"
    if fmt != "toml":
        raise DesignError(f"unknown design file format {fmt!r}")
    data = document["design"]
    lines = ["[design]", f"name = {_toml_value(data['name'])}"]
    if "order" in data:
        lines.append(f"order = {_toml_value(data['order'])}")

    def emit_block(payload: Mapping, prefix: str) -> None:
        for factor in payload.get("factor", ()):
            lines.extend(["", f"[[{prefix}factor]]",
                          f"name = {_toml_value(factor['name'])}",
                          f"levels = {_toml_value(factor['levels'])}"])
        for match in payload.get("exclude", ()):
            lines.extend(["", f"[[{prefix}exclude]]"])
            lines.extend(f"{key} = {_toml_value(value)}"
                         for key, value in match.items())
        for override in payload.get("override", ()):
            lines.extend(["", f"[[{prefix}override]]",
                          f"match = {_toml_value(override['match'])}",
                          f"set = {_toml_value(override['set'])}"])

    if "block" in data:
        for payload in data["block"]:
            lines.extend(["", "[[design.block]]"])
            # Block-local arrays are emitted inline (sub-tables of an
            # array-of-tables element would need dotted headers).
            lines.append("factor = [")
            for factor in payload.get("factor", ()):
                lines.append(f"  {{ name = {_toml_value(factor['name'])}, "
                             f"levels = {_toml_value(factor['levels'])} }},")
            lines.append("]")
            if payload.get("exclude"):
                lines.append(
                    "exclude = ["
                    + ", ".join(_toml_value(m) for m in payload["exclude"])
                    + "]")
            if payload.get("override"):
                lines.append(
                    "override = ["
                    + ", ".join(_toml_value(o) for o in payload["override"])
                    + "]")
    else:
        emit_block(data, "design.")
    if "env" in data:
        lines.extend(["", "[design.env]"])
        lines.extend(f"{key} = {_toml_value(value)}"
                     for key, value in data["env"].items())
    return "\n".join(lines) + "\n"
