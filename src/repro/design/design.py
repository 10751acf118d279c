"""Factorial experiment designs that compile to :class:`SimJob` sets.

The vocabulary (after the experimentator school of design description —
see SNIPPETS.md): an experiment is a *design*, a design is one or more
*blocks*, a block is an ordered list of *factors*, and the block's cells
are the factorial product of its factors' levels, filtered, reordered and
patched by declarative rules.  A :class:`Factor` comes in three kinds:

``crossed``
    An explicit level list; the block crosses it with every other factor.
``nested``
    Levels computed per cell from the factors declared *before* it (and
    the compile environment) — e.g. a static-CTA-limit sweep whose range
    is the benchmark's occupancy under the current scale and hardware.
``derived``
    Exactly one value per cell, computed from the cell — e.g. a policy
    descriptor assembled from separate ``rule`` and ``param`` factors.

Reserved factor names bind cells to simulation jobs (everything else is
free vocabulary for filters and derivations): ``bench`` (kernel name or
name list), ``warp``, ``policy``, ``scale_mults``, and ``config`` (a
:class:`~repro.sim.config.GPUConfig` or a dict of field overrides applied
to the environment's baseline).

:meth:`Design.compile` is deterministic by construction: the same design
and the same :class:`~repro.design.env.DesignEnv` produce the same cells
in the same order with the same job fingerprints, every time.  That is
the property campaigns (:mod:`repro.design.campaign`), the result cache
and the fuzzer's ``design`` invariant all lean on.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

from ..sim.config import GPUConfig
from ..harness.jobs import SimJob
from .env import DesignEnv


class DesignError(ValueError):
    """An invalid design declaration (bad factor, filter or override)."""


Cell = dict  # a cell is a plain {factor name: level value} mapping

#: Factor names the compiler binds to SimJob fields; all other names are
#: free design vocabulary.
RESERVED = ("bench", "warp", "policy", "scale_mults", "config")


def _freeze(value: Any) -> Any:
    """Normalize lists to tuples recursively (cells must be hashable-ish
    and descriptor-compatible: policies and warps are tuples)."""
    if isinstance(value, list):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, tuple):
        return tuple(_freeze(v) for v in value)
    return value


@dataclass(frozen=True)
class Factor:
    """One independent variable of a design block."""

    name: str
    kind: str = "crossed"                 # crossed | nested | derived
    levels: tuple = ()                    # crossed only
    fn: Callable[[Cell, DesignEnv], Any] | None = None   # nested/derived

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise DesignError(f"factor needs a non-empty name, "
                              f"got {self.name!r}")
        if self.kind not in ("crossed", "nested", "derived"):
            raise DesignError(f"unknown factor kind {self.kind!r}")
        if self.kind == "crossed":
            levels = tuple(_freeze(level) for level in self.levels)
            if not levels:
                raise DesignError(f"crossed factor {self.name!r} needs at "
                                  f"least one level")
            object.__setattr__(self, "levels", levels)
        elif self.fn is None:
            raise DesignError(f"{self.kind} factor {self.name!r} needs a "
                              f"callable")

    # ------------------------------------------------------------------ #
    @classmethod
    def crossed(cls, name: str, levels: Iterable) -> "Factor":
        return cls(name=name, kind="crossed", levels=tuple(levels))

    @classmethod
    def nested(cls, name: str,
               fn: Callable[[Cell, DesignEnv], Iterable]) -> "Factor":
        """Levels computed per cell (sees earlier factors + the env)."""
        return cls(name=name, kind="nested", fn=fn)

    @classmethod
    def derived(cls, name: str,
                fn: Callable[[Cell, DesignEnv], Any]) -> "Factor":
        """Exactly one value per cell, computed from the cell."""
        return cls(name=name, kind="derived", fn=fn)

    # ------------------------------------------------------------------ #
    def expand(self, cell: Cell, env: DesignEnv) -> list:
        if self.kind == "crossed":
            return list(self.levels)
        if self.kind == "nested":
            return [_freeze(level) for level in self.fn(cell, env)]
        return [_freeze(self.fn(cell, env))]

    @property
    def file_representable(self) -> bool:
        return self.kind == "crossed"


def _matches(cell: Cell, match: Mapping) -> bool:
    """True when every (name, value) pair of ``match`` equals the cell's."""
    return all(name in cell and cell[name] == _freeze(value)
               for name, value in match.items())


@dataclass(frozen=True)
class Override:
    """A declarative per-cell patch: cells matching ``match`` get the
    factor values in ``set`` replaced/added after generation."""

    match: Mapping
    set: Mapping

    def __post_init__(self) -> None:
        if not self.set:
            raise DesignError("an override needs a non-empty 'set' mapping")
        object.__setattr__(self, "match", dict(self.match))
        object.__setattr__(self, "set",
                           {k: _freeze(v) for k, v in dict(self.set).items()})

    def apply(self, cell: Cell) -> Cell:
        if _matches(cell, self.match):
            patched = dict(cell)
            patched.update(self.set)
            return patched
        return cell


@dataclass(frozen=True)
class Block:
    """One factorial product: factors x filters x overrides."""

    factors: tuple[Factor, ...]
    # Declarative exclusion rules (file-representable) plus arbitrary
    # predicates (in-code designs); a cell survives when no exclusion
    # matches and every predicate returns True.
    exclude: tuple[Override | Mapping, ...] = ()
    where: tuple[Callable[[Cell], bool], ...] = ()
    overrides: tuple[Override, ...] = ()

    def __post_init__(self) -> None:
        factors = tuple(self.factors)
        if not factors:
            raise DesignError("a block needs at least one factor")
        names = [f.name for f in factors]
        if len(set(names)) != len(names):
            raise DesignError(f"duplicate factor names in block: {names}")
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "exclude",
                           tuple(dict(m) for m in self.exclude))
        object.__setattr__(self, "where", tuple(self.where))
        object.__setattr__(self, "overrides", tuple(self.overrides))

    def cells(self, env: DesignEnv) -> list[Cell]:
        cells: list[Cell] = [{}]
        for factor in self.factors:
            expanded: list[Cell] = []
            for cell in cells:
                for level in factor.expand(cell, env):
                    new = dict(cell)
                    new[factor.name] = level
                    expanded.append(new)
            cells = expanded
        cells = [cell for cell in cells
                 if not any(_matches(cell, m) for m in self.exclude)
                 and all(pred(cell) for pred in self.where)]
        for override in self.overrides:
            cells = [override.apply(cell) for cell in cells]
        return cells

    @property
    def file_representable(self) -> bool:
        return (all(f.file_representable for f in self.factors)
                and not self.where)


@dataclass(frozen=True)
class CompiledCell:
    """One design cell lowered to an executable job."""

    index: int
    cell: Cell
    job: SimJob

    @property
    def label(self) -> str:
        """A stable, filesystem-safe slug of the cell's factor values."""
        parts = []
        for name, value in self.cell.items():
            if isinstance(value, tuple):
                rendered = "+".join(str(v) for v in value if v is not None)
            else:
                rendered = str(value)
            parts.append(f"{name}={rendered}")
        slug = ",".join(parts)
        return slug.replace("/", "-").replace(" ", "")


@dataclass(frozen=True)
class Design:
    """A named, orderable collection of factorial blocks.

    ``order`` is ``"declared"`` (the factorial product order, the default)
    or ``"sorted"`` (cells sorted by their rendered labels — a stable
    cross-block interleaving useful when cells should group by benchmark
    rather than by block).  Both are deterministic.
    """

    name: str
    blocks: tuple[Block, ...] = ()
    order: str = "declared"

    def __init__(self, name: str,
                 factors: Sequence[Factor] | None = None, *,
                 blocks: Sequence[Block] | None = None,
                 exclude: Sequence[Mapping] = (),
                 where: Sequence[Callable[[Cell], bool]] = (),
                 overrides: Sequence[Override] = (),
                 order: str = "declared") -> None:
        if not name:
            raise DesignError("a design needs a name")
        if order not in ("declared", "sorted"):
            raise DesignError(f"unknown ordering {order!r}; "
                              f"use 'declared' or 'sorted'")
        if (factors is None) == (blocks is None):
            raise DesignError("pass exactly one of factors= or blocks=")
        if factors is not None:
            blocks = (Block(factors=tuple(factors), exclude=tuple(exclude),
                            where=tuple(where),
                            overrides=tuple(overrides)),)
        elif exclude or where or overrides:
            raise DesignError("exclude/where/overrides belong to blocks "
                              "when blocks= is used")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "blocks", tuple(blocks))
        object.__setattr__(self, "order", order)
        if not self.blocks:
            raise DesignError("a design needs at least one block")

    # ------------------------------------------------------------------ #
    @classmethod
    def chain(cls, name: str, *designs: "Design",
              order: str = "declared") -> "Design":
        """Concatenate several designs' blocks under one name (drivers
        compose e.g. a baseline block with a static-sweep block)."""
        blocks: list[Block] = []
        for design in designs:
            blocks.extend(design.blocks)
        return cls(name, blocks=tuple(blocks), order=order)

    # ------------------------------------------------------------------ #
    def cells(self, env: DesignEnv | None = None) -> list[Cell]:
        env = env if env is not None else DesignEnv()
        cells = [cell for block in self.blocks for cell in block.cells(env)]
        seen: set[str] = set()
        unique: list[Cell] = []
        for cell in cells:
            key = _cell_key(cell)
            if key in seen:
                continue
            seen.add(key)
            unique.append(cell)
        return unique

    def compile(self, env: DesignEnv | None = None) -> list[CompiledCell]:
        """Lower every cell to a :class:`SimJob`, deterministically.

        Duplicate cells across blocks collapse to their first occurrence
        (a chained design never declares the same simulation twice), and
        the result order is stable: same design + same env -> same cells,
        same jobs, same fingerprints.
        """
        env = env if env is not None else DesignEnv()
        compiled = []
        for index, cell in enumerate(self._ordered(self.cells(env))):
            compiled.append(CompiledCell(index=index, cell=cell,
                                         job=_cell_job(cell, env)))
        return compiled

    def _ordered(self, cells: list[Cell]) -> list[Cell]:
        if self.order == "sorted":
            return sorted(cells, key=_cell_key)
        return cells

    # ------------------------------------------------------------------ #
    @property
    def file_representable(self) -> bool:
        return all(block.file_representable for block in self.blocks)

    def digest(self, env: DesignEnv | None = None) -> str:
        """sha256 over the compiled cells' labels + job fingerprints.

        Identity by *meaning*, not by declaration: two different
        declarations compiling to the same jobs share a digest (and a
        campaign store), while any change to a factor level, filter,
        override, ordering or environment produces a new digest.
        """
        compiled = self.compile(env)
        payload = [[cc.label, cc.job.fingerprint()] for cc in compiled]
        canonical = json.dumps([self.name, payload], sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _cell_key(cell: Cell) -> str:
    """A canonical, order-insensitive rendering of one cell (dedup/sort)."""
    def default(value):
        if isinstance(value, GPUConfig):
            from dataclasses import fields as dc_fields
            return {f.name: getattr(value, f.name) for f in dc_fields(value)}
        return repr(value)
    return json.dumps(cell, sort_keys=True, separators=(",", ":"),
                      default=default)


def _cell_job(cell: Cell, env: DesignEnv) -> SimJob:
    """Bind one cell's reserved factors to a job."""
    if "bench" not in cell:
        raise DesignError(f"cell {cell!r} has no 'bench' factor; the "
                          f"compiler cannot bind it to a simulation")
    names = cell["bench"]
    config = cell.get("config")
    if isinstance(config, Mapping):
        config = env.config.with_overrides(**config)
    mults = cell.get("scale_mults")
    return env.job(names, warp=cell.get("warp", "gto"),
                   policy=tuple(cell.get("policy", ("rr",))),
                   scale_mults=mults, config=config)
