"""The benchmark suite.

Twenty-two synthetic kernels whose memory/compute signatures mirror the
Rodinia/Parboil/ISPASS-class workloads GPGPU scheduling papers evaluate on.
The fifteen ``CORE_SET`` kernels form the evaluated suite of the E1–E11
tables; the remainder are extension kernels used by E17/E18 and the tests.
Each is built from the address patterns in :mod:`repro.workloads.patterns`;
the *category* says which phenomenon the kernel is designed to exhibit:

``compute``    issue-bound; more CTAs never hurt (MM-style tiled matmul,
               arithmetic kernels).
``bandwidth``  DRAM-bandwidth-bound streaming; performance saturates at a
               low CTA count and stays flat (the mixed-CKE donors).
``cache``      small per-warp/per-CTA working sets with high reuse; L1
               capacity decides everything, so maximum occupancy *thrashes*
               and LCS wins big.
``mshr``       uncoalesced gathers that exhaust the L1 MSHRs at low
               occupancy; extra CTAs only add queueing.
``irregular``  graph-style mixes of a hot shared set and cold random lines.
``locality``   1-D stencil decompositions where consecutive CTAs share halo
               lines — the BCS/BAWS targets.

Every factory takes ``scale`` (scales the grid size, so tests can run tiny
versions of the exact same code paths) and ``seed``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..sim.isa import ColumnProgram
from ..sim.kernel import Kernel
from .patterns import (DEFAULT_SEED, Region, gather_lines, hot_cold_lines,
                       private_footprint, region_base, rng_for, stream_lines,
                       tile_with_halo, warp_slice)
from .programs import TraceBuilder


def _scaled_ctas(base: int, scale: float, minimum: int = 6) -> int:
    if scale <= 0:
        raise ValueError("scale must be positive")
    return max(minimum, int(round(base * scale)))


# =========================================================================== #
# compute-bound kernels
# =========================================================================== #

def make_compute(scale: float = 1.0, seed: int = DEFAULT_SEED) -> Kernel:
    """CP-style arithmetic kernel: long ALU chains, a trickle of loads."""
    name = "compute"
    num_ctas = _scaled_ctas(480, scale)
    warps_per_cta = 6
    region = Region(region_base(name), 1 << 20)

    def build(cta_id: int, warp_idx: int) -> ColumnProgram:
        stream = cta_id * warps_per_cta + warp_idx
        lines = stream_lines(region, stream, 4)
        tb = TraceBuilder()
        for i in range(24):
            tb.alu(10)
            if i % 6 == 0:
                tb.load(lines[i // 6])
        return tb.build()

    return Kernel(name, num_ctas, warps_per_cta, build, regs_per_thread=21,
                  tags=("compute",))


def make_blackscholes(scale: float = 1.0, seed: int = DEFAULT_SEED) -> Kernel:
    """BLK-style option pricing: long *high-latency* dependency chains
    (transcendental-heavy code).  Needs many resident warps to hide its own
    ALU latency, so its performance keeps scaling all the way to maximum
    occupancy — which makes it the ideal backfill partner for mixed
    concurrent kernel execution."""
    name = "blackscholes"
    num_ctas = _scaled_ctas(480, scale)
    warps_per_cta = 6
    region = Region(region_base(name), 1 << 20)

    def build(cta_id: int, warp_idx: int) -> ColumnProgram:
        stream = cta_id * warps_per_cta + warp_idx
        lines = stream_lines(region, stream, 2)
        tb = TraceBuilder()
        tb.load(lines[0])
        for _i in range(12):
            tb.alu(20, latency=12)
        tb.load(lines[1])
        tb.alu(12, latency=12)
        return tb.build()

    return Kernel(name, num_ctas, warps_per_cta, build, regs_per_thread=21,
                  tags=("compute", "latency"))


def make_matmul(scale: float = 1.0, seed: int = DEFAULT_SEED) -> Kernel:
    """MM-style tiled matrix multiply: shared-memory tiles, barriers,
    B-matrix lines shared by all warps of a CTA (intra-CTA reuse)."""
    name = "matmul"
    num_ctas = _scaled_ctas(300, scale)
    warps_per_cta = 8
    tiles = 8
    a_region = Region(region_base(name, 0), 1 << 20)
    b_region = Region(region_base(name, 1), 1 << 20)
    c_region = Region(region_base(name, 2), 1 << 20)

    def build(cta_id: int, warp_idx: int) -> ColumnProgram:
        tb = TraceBuilder()
        for tile in range(tiles):
            a_line = a_region.line((cta_id * tiles + tile) * warps_per_cta + warp_idx)
            b_line = b_region.line(cta_id * tiles + tile)  # shared in the CTA
            tb.load(a_line).load(b_line)
            tb.barrier()
            tb.shared(4).alu(24)
            tb.barrier()
        out = (cta_id * warps_per_cta + warp_idx) * 2
        tb.store(c_region.line(out)).store(c_region.line(out + 1))
        return tb.build()

    return Kernel(name, num_ctas, warps_per_cta, build, regs_per_thread=24,
                  shmem_per_cta=8192, tags=("compute", "shared"))


def make_lud(scale: float = 1.0, seed: int = DEFAULT_SEED) -> Kernel:
    """LUD-style factorisation step: shared-memory heavy, occupancy limited
    to 2 CTAs/SM by its shared-memory appetite."""
    name = "lud"
    num_ctas = _scaled_ctas(120, scale)
    warps_per_cta = 4
    region = Region(region_base(name), 1 << 16)

    def build(cta_id: int, warp_idx: int) -> ColumnProgram:
        tb = TraceBuilder()
        base = cta_id * 8
        for round_idx in range(12):
            tb.load(region.line(base + (round_idx + warp_idx) % 8))
            tb.shared(6).alu(16)
            tb.barrier()
        tb.store(region.line(base + warp_idx))
        return tb.build()

    return Kernel(name, num_ctas, warps_per_cta, build, regs_per_thread=24,
                  shmem_per_cta=24576, tags=("compute", "shared"))


def make_nw(scale: float = 1.0, seed: int = DEFAULT_SEED) -> Kernel:
    """NW-style wavefront: small CTAs, barrier after every diagonal step."""
    name = "nw"
    num_ctas = _scaled_ctas(180, scale)
    warps_per_cta = 2
    region = Region(region_base(name), 1 << 18)

    def build(cta_id: int, warp_idx: int) -> ColumnProgram:
        tb = TraceBuilder()
        stream = cta_id * warps_per_cta + warp_idx
        lines = stream_lines(region, stream, 4)
        for round_idx in range(16):
            tb.shared(4).alu(6)
            if round_idx % 4 == 0:
                tb.load(lines[round_idx // 4])
            tb.barrier()
        return tb.build()

    return Kernel(name, num_ctas, warps_per_cta, build, regs_per_thread=24,
                  shmem_per_cta=16384, tags=("compute", "barrier"))


# =========================================================================== #
# bandwidth-bound kernels
# =========================================================================== #

def make_streaming(scale: float = 1.0, seed: int = DEFAULT_SEED) -> Kernel:
    """STREAM-style copy/scale: fully coalesced, zero reuse, DRAM-bound.

    Accesses are vectorised (float4 per thread = 4 lines per warp access),
    the standard way streaming CUDA kernels expose memory-level parallelism
    from in-order warps."""
    name = "streaming"
    num_ctas = _scaled_ctas(480, scale)
    warps_per_cta = 6
    iters = 12
    lines_per_access = 4
    in_region = Region(region_base(name, 0), 1 << 24)
    out_region = Region(region_base(name, 1), 1 << 24)

    def build(cta_id: int, warp_idx: int) -> ColumnProgram:
        stream = cta_id * warps_per_cta + warp_idx
        lines = stream_lines(in_region, stream, iters * lines_per_access)
        tb = TraceBuilder()
        for i in range(iters):
            chunk = lines[i * lines_per_access:(i + 1) * lines_per_access]
            tb.load(chunk).alu(2)
            out_base = (stream * iters + i) * lines_per_access
            tb.store([out_region.line(out_base + j)
                      for j in range(lines_per_access)])
        return tb.build()

    return Kernel(name, num_ctas, warps_per_cta, build, regs_per_thread=20,
                  tags=("bandwidth",))


def make_backprop(scale: float = 1.0, seed: int = DEFAULT_SEED) -> Kernel:
    """BP-style layer update: streaming reads feeding a shared-memory
    reduction; bandwidth-leaning but with compute phases."""
    name = "backprop"
    num_ctas = _scaled_ctas(360, scale)
    warps_per_cta = 8
    iters = 20
    in_region = Region(region_base(name, 0), 1 << 24)
    out_region = Region(region_base(name, 1), 1 << 24)

    def build(cta_id: int, warp_idx: int) -> ColumnProgram:
        stream = cta_id * warps_per_cta + warp_idx
        lines = stream_lines(in_region, stream, iters)
        tb = TraceBuilder()
        for line in lines:
            tb.load(line).alu(2).shared(1)
        tb.barrier()
        tb.shared(4)
        tb.store(out_region.line(stream))
        return tb.build()

    return Kernel(name, num_ctas, warps_per_cta, build, regs_per_thread=20,
                  shmem_per_cta=4096, tags=("bandwidth", "shared"))


# =========================================================================== #
# cache-sensitive kernels (the LCS headliners)
# =========================================================================== #

def make_kmeans(scale: float = 1.0, seed: int = DEFAULT_SEED) -> Kernel:
    """KMN-style centroid scan: each warp re-reads a small private
    footprint.  A couple of CTAs' footprints fit in L1; maximum occupancy
    thrashes it (the canonical LCS win)."""
    name = "kmeans"
    num_ctas = _scaled_ctas(480, scale)
    warps_per_cta = 6
    footprint = 8           # lines per warp: 48 lines/CTA, 2 CTAs ~= one L1
    iters = 72
    region = Region(region_base(name), 1 << 24)

    def build(cta_id: int, warp_idx: int) -> ColumnProgram:
        rng = rng_for(seed, name, cta_id, warp_idx)
        owner = cta_id * warps_per_cta + warp_idx
        lines = private_footprint(region, owner, footprint, rng, iters)
        tb = TraceBuilder()
        for line in lines:
            tb.load(line).alu(2)
        return tb.build()

    return Kernel(name, num_ctas, warps_per_cta, build, regs_per_thread=20,
                  tags=("cache",))


def make_iindex(scale: float = 1.0, seed: int = DEFAULT_SEED) -> Kernel:
    """IIX-style inverted index: warps of a CTA share a per-CTA hot set
    (intra-CTA reuse) mixed with a cold stream."""
    name = "iindex"
    num_ctas = _scaled_ctas(480, scale)
    warps_per_cta = 6
    cta_footprint = 36      # shared hot lines per CTA
    iters = 56
    hot_region = Region(region_base(name, 0), 1 << 24)
    cold_region = Region(region_base(name, 1), 1 << 24)

    def build(cta_id: int, warp_idx: int) -> ColumnProgram:
        rng = rng_for(seed, name, cta_id, warp_idx)
        hot = private_footprint(hot_region, cta_id, cta_footprint, rng, iters)
        stream = cta_id * warps_per_cta + warp_idx
        cold = stream_lines(cold_region, stream, iters)
        hot_pick = rng.random(iters) < 0.7
        tb = TraceBuilder()
        for i in range(iters):
            tb.load(hot[i] if hot_pick[i] else cold[i]).alu(2)
        return tb.build()

    return Kernel(name, num_ctas, warps_per_cta, build, regs_per_thread=20,
                  tags=("cache",))


def make_bfs(scale: float = 1.0, seed: int = DEFAULT_SEED) -> Kernel:
    """BFS-style frontier expansion: a globally shared hot set (frontier)
    plus cold random edge lists."""
    name = "bfs"
    num_ctas = _scaled_ctas(480, scale)
    warps_per_cta = 6
    iters = 40
    hot = Region(region_base(name, 0), 192)
    cold = Region(region_base(name, 1), 1 << 16)

    def build(cta_id: int, warp_idx: int) -> ColumnProgram:
        rng = rng_for(seed, name, cta_id, warp_idx)
        lines = hot_cold_lines(hot, cold, rng, iters, hot_fraction=0.6)
        tb = TraceBuilder()
        for line in lines:
            tb.load(line).alu(3)
        return tb.build()

    return Kernel(name, num_ctas, warps_per_cta, build, regs_per_thread=20,
                  tags=("irregular",))


def make_spmv(scale: float = 1.0, seed: int = DEFAULT_SEED) -> Kernel:
    """SpMV-style gather: every load touches several random lines
    (uncoalesced), exhausting L1 MSHRs at low occupancy."""
    name = "spmv"
    num_ctas = _scaled_ctas(420, scale)
    warps_per_cta = 6
    iters = 24
    lines_per_access = 4
    region = Region(region_base(name), 4096)

    def build(cta_id: int, warp_idx: int) -> ColumnProgram:
        rng = rng_for(seed, name, cta_id, warp_idx)
        gathers = gather_lines(region, rng, iters, lines_per_access)
        tb = TraceBuilder()
        for lines in gathers:
            tb.load(lines).alu(2)
        return tb.build()

    return Kernel(name, num_ctas, warps_per_cta, build, regs_per_thread=24,
                  tags=("mshr",))


# =========================================================================== #
# inter-CTA locality kernels (the BCS/BAWS targets)
# =========================================================================== #

def _make_stencil_kernel(name: str, *, base_ctas: int, tile: int, halo: int,
                         steps: int, alu_per_load: int, warps_per_cta: int,
                         regs_per_thread: int, shmem_per_cta: int,
                         scale: float, tags: tuple[str, ...],
                         time_marching: bool = False) -> Kernel:
    region = Region(region_base(name, 0), 1 << 24)
    out_region = Region(region_base(name, 1), 1 << 24)
    num_ctas = _scaled_ctas(base_ctas, scale)
    # A time-marching stencil reads a *fresh* plane each step (the previous
    # iteration's output), so the halo lines shared with the next CTA are
    # only reusable while both siblings are in the same step — exactly the
    # temporal alignment BAWS provides.  A stationary stencil re-reads the
    # same footprint every step, so reuse survives moderate drift.
    step_stride = num_ctas * tile if time_marching else 0

    def build(cta_id: int, warp_idx: int) -> ColumnProgram:
        own_tile = [region.line(cta_id * tile + i) for i in range(tile)]
        my_out = warp_slice(own_tile, warp_idx, warps_per_cta)
        tb = TraceBuilder()
        for step in range(steps):
            offset = step * step_stride
            read_set = tile_with_halo(region, cta_id, tile, halo,
                                      offset=offset)
            mine = warp_slice(read_set, warp_idx, warps_per_cta)
            for line in mine:
                tb.load(line).alu(alu_per_load)
            tb.barrier()
        for line in my_out:
            tb.store(out_region.line(line - region.base))
        return tb.build()

    return Kernel(name, num_ctas, warps_per_cta, build,
                  regs_per_thread=regs_per_thread,
                  shmem_per_cta=shmem_per_cta, tags=tags)


def make_stencil(scale: float = 1.0, seed: int = DEFAULT_SEED) -> Kernel:
    """STC-style 1-D stencil: tile 16 lines, halo 12 into the next CTA —
    consecutive CTAs share 43% of their read set."""
    return _make_stencil_kernel(
        "stencil", base_ctas=360, tile=16, halo=12, steps=6, alu_per_load=3,
        warps_per_cta=4, regs_per_thread=24, shmem_per_cta=8192,
        scale=scale, tags=("locality",))


def make_hotspot(scale: float = 1.0, seed: int = DEFAULT_SEED) -> Kernel:
    """HOTSPOT-style thermal stencil: smaller halo, more compute per line."""
    return _make_stencil_kernel(
        "hotspot", base_ctas=360, tile=20, halo=12, steps=8, alu_per_load=6,
        warps_per_cta=4, regs_per_thread=28, shmem_per_cta=8192,
        scale=scale, tags=("locality",))


def make_pathfinder(scale: float = 1.0, seed: int = DEFAULT_SEED) -> Kernel:
    """PF-style dynamic-programming sweep: thin tiles, halo row per step."""
    return _make_stencil_kernel(
        "pathfinder", base_ctas=360, tile=20, halo=10, steps=10, alu_per_load=2,
        warps_per_cta=4, regs_per_thread=42, shmem_per_cta=0,
        scale=scale, tags=("locality",))


def make_srad(scale: float = 1.0, seed: int = DEFAULT_SEED) -> Kernel:
    """SRAD-style diffusion: locality plus a heavy ALU tail per load."""
    return _make_stencil_kernel(
        "srad", base_ctas=360, tile=20, halo=12, steps=5, alu_per_load=8,
        warps_per_cta=4, regs_per_thread=24, shmem_per_cta=8192,
        scale=scale, tags=("locality",))


# =========================================================================== #
# extension kernels (used by the E17/E18 extension experiments; not part of
# the core evaluated suite so the E1–E11 tables match EXPERIMENTS.md)
# =========================================================================== #

def make_histogram(scale: float = 1.0, seed: int = DEFAULT_SEED) -> Kernel:
    """HISTO-style binning: streaming reads, write-heavy scatter into a
    small shared bin region (store-bandwidth and write-through pressure)."""
    name = "histogram"
    num_ctas = _scaled_ctas(420, scale)
    warps_per_cta = 6
    iters = 32
    bins = Region(region_base(name, 0), 256)
    input_region = Region(region_base(name, 1), 1 << 24)

    def build(cta_id: int, warp_idx: int) -> ColumnProgram:
        rng = rng_for(seed, name, cta_id, warp_idx)
        stream = cta_id * warps_per_cta + warp_idx
        reads = stream_lines(input_region, stream, iters)
        targets = rng.integers(0, bins.length, size=iters)
        tb = TraceBuilder()
        for read_line, bin_off in zip(reads, targets):
            tb.load(read_line).alu(2)
            tb.store(bins.line(int(bin_off)))
        return tb.build()

    return Kernel(name, num_ctas, warps_per_cta, build, regs_per_thread=20,
                  tags=("bandwidth", "stores"))


def make_fft(scale: float = 1.0, seed: int = DEFAULT_SEED) -> Kernel:
    """FFT-style butterfly stages: strided multi-line accesses whose stride
    doubles each stage, with a barrier between stages."""
    name = "fft"
    num_ctas = _scaled_ctas(300, scale)
    warps_per_cta = 4
    stages = 5
    region = Region(region_base(name), 1 << 22)

    def build(cta_id: int, warp_idx: int) -> ColumnProgram:
        tb = TraceBuilder()
        base = cta_id * 64
        for stage in range(stages):
            stride = 1 << stage
            for i in range(4):
                start = base + warp_idx * 16 + i * 2
                tb.load([region.line(start), region.line(start + stride)])
                tb.alu(6)
            tb.barrier()
        tb.store(region.line((1 << 20) + cta_id * warps_per_cta + warp_idx))
        return tb.build()

    return Kernel(name, num_ctas, warps_per_cta, build, regs_per_thread=28,
                  shmem_per_cta=8192, tags=("compute", "strided"))


def make_twophase(scale: float = 1.0, seed: int = DEFAULT_SEED) -> Kernel:
    """A phase-changing kernel: a cache-thrashing gather phase followed by a
    long arithmetic phase.  One-shot LCS decides during the first phase and
    cannot revise; continuous schemes (DynCTA) re-adapt.  Used by the E18
    phase-sensitivity analysis."""
    name = "twophase"
    num_ctas = _scaled_ctas(420, scale)
    warps_per_cta = 6
    footprint = 8
    mem_iters = 36
    region = Region(region_base(name), 1 << 24)

    def build(cta_id: int, warp_idx: int) -> ColumnProgram:
        rng = rng_for(seed, name, cta_id, warp_idx)
        owner = cta_id * warps_per_cta + warp_idx
        lines = private_footprint(region, owner, footprint, rng, mem_iters)
        tb = TraceBuilder()
        for line in lines:               # phase 1: cache-sensitive
            tb.load(line).alu(2)
        for _block in range(14):         # phase 2: latency-bound compute
            tb.alu(10, latency=12)
        return tb.build()

    return Kernel(name, num_ctas, warps_per_cta, build, regs_per_thread=20,
                  tags=("cache", "phased"))


def make_gemv(scale: float = 1.0, seed: int = DEFAULT_SEED) -> Kernel:
    """GEMV-style matrix-vector product: each warp streams a matrix row
    while re-reading the (globally shared) vector — asymmetric reuse."""
    name = "gemv"
    num_ctas = _scaled_ctas(360, scale)
    warps_per_cta = 6
    row_lines = 24
    matrix = Region(region_base(name, 0), 1 << 24)
    vector = Region(region_base(name, 1), row_lines)   # hot, shared by all
    out = Region(region_base(name, 2), 1 << 20)

    def build(cta_id: int, warp_idx: int) -> ColumnProgram:
        row = cta_id * warps_per_cta + warp_idx
        tb = TraceBuilder()
        for i in range(row_lines):
            tb.load(matrix.line(row * row_lines + i))   # cold stream
            tb.load(vector.line(i))                      # hot vector
            tb.alu(3)
        tb.store(out.line(row))
        return tb.build()

    return Kernel(name, num_ctas, warps_per_cta, build, regs_per_thread=20,
                  tags=("bandwidth", "shared-vector"))


def make_scan(scale: float = 1.0, seed: int = DEFAULT_SEED) -> Kernel:
    """SCAN-style prefix sum: log-tree shared-memory phases with barriers,
    bracketed by one coalesced load and store per warp."""
    name = "scan"
    num_ctas = _scaled_ctas(300, scale)
    warps_per_cta = 8
    region = Region(region_base(name), 1 << 22)

    def build(cta_id: int, warp_idx: int) -> ColumnProgram:
        stream = cta_id * warps_per_cta + warp_idx
        tb = TraceBuilder()
        tb.load(region.line(stream))
        for _level in range(5):          # log2(32) tree levels
            tb.shared(2).alu(2)
            tb.barrier()
        tb.store(region.line((1 << 21) + stream))
        return tb.build()

    return Kernel(name, num_ctas, warps_per_cta, build, regs_per_thread=16,
                  shmem_per_cta=4096, tags=("compute", "barrier"))


def make_montecarlo(scale: float = 1.0, seed: int = DEFAULT_SEED) -> Kernel:
    """MC-style path simulation: long high-latency ALU chains with sparse
    random table lookups (a latency-bound compute kernel with a small hot
    working set)."""
    name = "montecarlo"
    num_ctas = _scaled_ctas(420, scale)
    warps_per_cta = 6
    table = Region(region_base(name), 96)   # hot lookup table

    def build(cta_id: int, warp_idx: int) -> ColumnProgram:
        rng = rng_for(seed, name, cta_id, warp_idx)
        picks = rng.integers(0, table.length, size=8)
        tb = TraceBuilder()
        for pick in picks:
            tb.alu(12, latency=10)
            tb.load(table.line(int(pick)))
            tb.alu(6, latency=10)
        return tb.build()

    return Kernel(name, num_ctas, warps_per_cta, build, regs_per_thread=24,
                  tags=("compute", "latency"))


def make_nbody(scale: float = 1.0, seed: int = DEFAULT_SEED) -> Kernel:
    """NBODY-style all-pairs tile walk: every CTA streams the same body
    array (machine-wide sharing, L2-resident) with heavy per-tile compute."""
    name = "nbody"
    num_ctas = _scaled_ctas(240, scale)
    warps_per_cta = 6
    bodies = Region(region_base(name, 0), 512)   # shared by every CTA
    out = Region(region_base(name, 1), 1 << 20)

    def build(cta_id: int, warp_idx: int) -> ColumnProgram:
        tb = TraceBuilder()
        for tile in range(16):
            tb.load(bodies.line(tile * 32 + warp_idx))
            tb.alu(12)
            tb.barrier()
        tb.store(out.line(cta_id * warps_per_cta + warp_idx))
        return tb.build()

    return Kernel(name, num_ctas, warps_per_cta, build, regs_per_thread=28,
                  shmem_per_cta=4096, tags=("compute", "shared-tiles"))


# =========================================================================== #
# registry
# =========================================================================== #

@dataclass(frozen=True)
class BenchmarkInfo:
    name: str
    category: str
    description: str
    factory: Callable[..., Kernel]

    def make(self, scale: float = 1.0, seed: int = DEFAULT_SEED) -> Kernel:
        return self.factory(scale, seed)


SUITE: dict[str, BenchmarkInfo] = {
    info.name: info for info in (
        BenchmarkInfo("compute", "compute",
                      "arithmetic chains, trickle of loads", make_compute),
        BenchmarkInfo("blackscholes", "compute",
                      "high-latency ALU chains, scales to max occupancy",
                      make_blackscholes),
        BenchmarkInfo("matmul", "compute",
                      "tiled matmul: shared memory, barriers", make_matmul),
        BenchmarkInfo("lud", "compute",
                      "shared-memory-bound factorisation", make_lud),
        BenchmarkInfo("nw", "compute",
                      "barrier-heavy wavefront", make_nw),
        BenchmarkInfo("streaming", "bandwidth",
                      "coalesced streaming, no reuse", make_streaming),
        BenchmarkInfo("backprop", "bandwidth",
                      "streaming + shared reduction", make_backprop),
        BenchmarkInfo("kmeans", "cache",
                      "private per-warp footprints, high reuse", make_kmeans),
        BenchmarkInfo("iindex", "cache",
                      "per-CTA hot set + cold stream", make_iindex),
        BenchmarkInfo("bfs", "irregular",
                      "shared hot frontier + cold edges", make_bfs),
        BenchmarkInfo("spmv", "mshr",
                      "uncoalesced gathers, MSHR-bound", make_spmv),
        BenchmarkInfo("stencil", "locality",
                      "1-D stencil, 43% halo overlap", make_stencil),
        BenchmarkInfo("hotspot", "locality",
                      "thermal stencil, compute-lean", make_hotspot),
        BenchmarkInfo("pathfinder", "locality",
                      "DP sweep with halo rows", make_pathfinder),
        BenchmarkInfo("srad", "locality",
                      "diffusion stencil, ALU tail", make_srad),
        BenchmarkInfo("histogram", "bandwidth",
                      "streaming reads, scatter stores into hot bins",
                      make_histogram),
        BenchmarkInfo("fft", "compute",
                      "butterfly stages, doubling strides, barriers",
                      make_fft),
        BenchmarkInfo("twophase", "cache",
                      "cache-thrash phase then compute phase (E18)",
                      make_twophase),
        BenchmarkInfo("gemv", "bandwidth",
                      "matrix rows streamed against a hot shared vector",
                      make_gemv),
        BenchmarkInfo("scan", "compute",
                      "log-tree prefix sum, barrier per level", make_scan),
        BenchmarkInfo("montecarlo", "compute",
                      "latency-bound paths with hot table lookups",
                      make_montecarlo),
        BenchmarkInfo("nbody", "compute",
                      "all-pairs tiles over a shared body array",
                      make_nbody),
    )
}

#: The core evaluated suite (the E1–E11 tables; the three extension kernels
#: above are exercised by E17/E18 and the test suite).
CORE_SET = ("compute", "blackscholes", "matmul", "lud", "nw", "streaming",
            "backprop", "kmeans", "iindex", "bfs", "spmv", "stencil",
            "hotspot", "pathfinder", "srad")

#: Benchmarks used in the LCS experiments (memory-sensitive + controls).
LCS_SET = ("kmeans", "iindex", "bfs", "spmv", "streaming", "backprop",
           "stencil", "hotspot", "pathfinder", "srad", "compute",
           "blackscholes", "matmul", "lud", "nw")

#: Benchmarks with inter-CTA locality, used in the BCS experiments.
LOCALITY_SET = ("stencil", "hotspot", "pathfinder", "srad")

#: Representative kernels for the occupancy-sweep motivation figure.
MOTIVATION_SET = ("kmeans", "spmv", "iindex", "streaming", "compute", "matmul")

#: (memory-kernel, compute-kernel) pairs for the CKE experiments.
#: Each entry: (memory kernel, compute kernel, scale multiplier applied to
#: the compute kernel so the pair's solo durations are comparable).
CKE_PAIRS = (
    ("kmeans", "blackscholes", 1.0),
    ("spmv", "blackscholes", 3.0),
    ("streaming", "blackscholes", 9.0),
    ("iindex", "blackscholes", 3.5),
    ("bfs", "blackscholes", 2.5),
    ("spmv", "compute", 6.5),
)


def make_kernel(name: str, scale: float = 1.0, seed: int = DEFAULT_SEED) -> Kernel:
    """Instantiate a suite benchmark by name."""
    try:
        info = SUITE[name]
    except KeyError:
        raise ValueError(f"unknown benchmark {name!r}; "
                         f"available: {sorted(SUITE)}") from None
    return info.make(scale=scale, seed=seed)


def suite_names(category: str | None = None) -> tuple[str, ...]:
    """Benchmark names, optionally filtered by category."""
    if category is None:
        return tuple(SUITE)
    names = tuple(name for name, info in SUITE.items()
                  if info.category == category)
    if not names:
        raise ValueError(f"no benchmarks in category {category!r}")
    return names
