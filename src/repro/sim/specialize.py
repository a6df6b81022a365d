"""Per-config specialized replay kernel (generated dead-branch-free loops).

The inline quantum loop in :meth:`repro.sim.engine.ReplayEngine.run`
handles *every* configuration: ~226 branch sites cover the next-line
prefetcher, the miss classifiers, the banked NUCA L2, the migration data
prefetcher, the SLICC/STEPS trackers and the work-stealing knobs. For
any one run almost all of those predicates are *run constants* — policy
capability flags and config toggles that never change after engine
construction. This module is the partial evaluator the roadmap names as
the alternative to batching (and the one that, unlike batching, does not
depend on the miss rate): given the run constants of a configuration it

* **emits Python source** for a main loop specialized to exactly that
  configuration — every run-constant predicate folded, the dead branches
  deleted outright;
* **inlines per-config constants as literals** — set masks, way counts,
  TLB sizes, the quantum, every timing-model penalty and the SLICC
  thresholds become ``LOAD_CONST`` instead of local reads;
* **hoists** the engine attribute chains and bound methods the loop
  touches into function locals once per run, and unpacks a *slim*
  per-core hot tuple per dispatch (only the fields this configuration
  uses, instead of the inline loop's full 60-field
  :class:`~repro.sim.engine._CoreHot` unpack);
* ``compile()``/``exec()``s the module once and **memoises the kernel**
  by its :class:`KernelSpec` signature, so the generation cost (~ms) is
  paid once per configuration per process and amortised across sweeps.

The generated loop mirrors the inline loop *line for line* — it is the
same code with the dead arms removed — so byte-identical results follow
by construction and are enforced by the 48 golden pins and the 4-kernel
equivalence matrix in ``tests/test_hot_path.py``.

Structurally this is runtime specialization in the spirit of tracing /
metatracing JITs: the "trace" here is degenerate (the run constants are
known up front from the config, no profiling needed), which is why a
simple textual partial evaluator suffices.

Debugging and tooling:

* ``REPRO_SPECIALIZE_DUMP=<dir>`` writes every generated module to
  ``<dir>/<signature>.py`` so the emitted code can be read and diffed.
* ``REPRO_SPECIALIZE_AOT=1`` additionally tries to compile the generated
  module ahead of time with mypyc or Cython into a per-config cache
  directory (``REPRO_SPECIALIZE_CACHE``, default
  ``~/.cache/repro-specialize``), silently falling back to the exec'd
  pure-Python kernel when no toolchain is present or compilation fails.

**Measured result** (BENCH_10.json): real but modest — a uniform
1.03-1.13x over the inline loop across all eight gated variants
(slicc/tpcc-10: 1.09x, interleaved best-of-24), well short of the 1.5x
target. The surviving work per record (dict probes, LRU stamps, tracker
updates) is identical to the inline loop by construction, so
dead-branch deletion can only shave the predicate tax itself, and
CPython's run-constant predicates are cheap ``LOAD_FAST`` + jump pairs.
``kernel="auto"`` therefore keeps resolving to the inline loop (see
``engine._select_kernel``); the specialized kernel is selectable
per-config or fleet-wide via ``REPRO_KERNEL=specialized``, and CI runs
the full golden suite under it. ``REPRO_NO_SPECIALIZE=1`` vetoes it
(mirroring ``REPRO_NO_BATCH``).
"""

from __future__ import annotations

import hashlib
import os
from typing import Callable, NamedTuple

from repro.sim.engine import _CoreHot
from repro.workloads.trace import KIND_INSTR, KIND_STORE

# The generated source hard-codes the record-kind literals (protocol
# constants, not config knobs); fail at import time if they ever drift.
assert KIND_INSTR == 0 and KIND_STORE == 2, "record-kind literals drifted"

#: Field name -> position in the engine's per-core hot tuple. Resolved
#: from the NamedTuple itself so a future reordering cannot silently
#: desynchronise the generated indices.
_HOT_INDEX = {name: i for i, name in enumerate(_CoreHot._fields)}


class KernelSpec(NamedTuple):
    """The run constants one specialized kernel is generated for.

    Two engines with equal specs share one generated kernel (the memo
    key); every field is a plain bool/int so the spec is hashable and
    its repr — embedded in the generated module docstring — is
    deterministic. Fields that do not apply to a configuration are
    canonicalised to 0/False so irrelevant knobs never fragment the
    cache (e.g. a non-SLICC run ignores the SLICC thresholds).
    """

    # Structural toggles (which machinery exists).
    has_slicc: bool
    has_steps: bool
    has_pf: bool
    has_cls: bool
    has_nuca: bool
    has_dp: bool
    policy_on_start: bool
    policy_quantum: bool
    # L1-I eviction arm (at most one).
    l1i_evict_sig: bool
    l1i_evict_generic: bool
    # L1-D eviction arm.
    l1d_evict_dir: bool
    l1d_evict_generic: bool
    # Literal constants.
    quantum: int
    ibase: int
    dbase: int
    itlb_pen: int
    dtlb_pen: int
    i_miss_l2: int
    i_miss_mem: int
    d_load_l2: int
    d_load_mem: int
    d_store_l2: int
    d_store_mem: int
    pf_late: int
    l1i_set_mask: int
    l1i_assoc: int
    itlb_entries: int
    l1d_set_mask: int
    l1d_assoc: int
    dtlb_entries: int
    sig_imask: int
    mc_limit: int
    msv_window: int
    msv_dilution: int
    mtq_matched: int
    icls_cap: int
    dcls_cap: int
    n_banks: int
    bypass_repair: int


def spec_from_engine(engine) -> KernelSpec:
    """Extract the run constants of a fully constructed engine.

    Raises :class:`AssertionError` on a configuration the generator does
    not model (callers gate on ``ReplayEngine._specialize_blockers``, so
    this is a belt-and-braces invariant, not an expected failure).
    """
    from repro.sim.engine import BYPASS_REPAIR_RATE

    machine = engine.machine
    timing = engine.timing
    hot = engine._core_hot[0]
    has_slicc = engine.agents is not None
    has_steps = engine.steps_agents is not None
    has_pf = engine.prefetchers is not None
    has_cls = engine.i_classifiers is not None
    has_nuca = machine.nuca is not None
    has_dp = engine.data_prefetcher is not None
    # The eligibility gate guarantees plain age-counter LRU L1s, whose
    # replacement policy never overrides on_miss; the generated loop
    # emits only the age-counter arms.
    assert hot.l1i_is_lru and hot.l1d_is_lru, "specialize requires LRU L1s"
    assert not hot.l1i_need_on_miss and not hot.l1d_need_on_miss
    l1i_evict_sig = bool(hot.l1i_evict_is_sig)
    l1i_evict_generic = (
        not l1i_evict_sig and not has_pf and hot.l1i_on_evict is not None
    )
    l1d_evict_dir = bool(hot.l1d_evict_is_dir)
    l1d_evict_generic = not l1d_evict_dir and hot.l1d_on_evict is not None
    has_msv = has_slicc or has_steps
    return KernelSpec(
        has_slicc=has_slicc,
        has_steps=has_steps,
        has_pf=has_pf,
        has_cls=has_cls,
        has_nuca=has_nuca,
        has_dp=has_dp,
        policy_on_start=bool(engine._policy_on_start),
        policy_quantum=bool(engine._policy_quantum_hook),
        l1i_evict_sig=l1i_evict_sig,
        l1i_evict_generic=l1i_evict_generic,
        l1d_evict_dir=l1d_evict_dir,
        l1d_evict_generic=l1d_evict_generic,
        quantum=engine.config.quantum,
        ibase=timing.ibase,
        dbase=timing.dbase,
        itlb_pen=timing.itlb_miss,
        dtlb_pen=timing.dtlb_miss,
        i_miss_l2=timing.i_miss_l2,
        i_miss_mem=timing.i_miss_mem,
        d_load_l2=timing.d_load_l2,
        d_load_mem=timing.d_load_mem,
        d_store_l2=timing.d_store_l2,
        d_store_mem=timing.d_store_mem,
        pf_late=timing.prefetch_late(True) if has_pf else 0,
        l1i_set_mask=hot.l1i_set_mask,
        l1i_assoc=hot.l1i_assoc,
        itlb_entries=hot.itlb_entries,
        l1d_set_mask=hot.l1d_set_mask,
        l1d_assoc=hot.l1d_assoc,
        dtlb_entries=hot.dtlb_entries,
        sig_imask=hot.sig_imask if has_slicc else 0,
        mc_limit=hot.mc_limit if has_msv else 0,
        msv_window=hot.msv_window if has_msv else 0,
        msv_dilution=hot.msv_dilution if has_msv else 0,
        mtq_matched=hot.mtq_matched if has_slicc else 0,
        icls_cap=hot.icls_cap if has_cls else 0,
        dcls_cap=hot.dcls_cap if has_cls else 0,
        n_banks=machine.nuca.n_banks if has_nuca else 0,
        bypass_repair=BYPASS_REPAIR_RATE if has_slicc else 0,
    )


def signature(spec: KernelSpec) -> str:
    """Short stable content signature of a spec (cache/dump file names)."""
    return hashlib.sha256(repr(spec).encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------
# Source generation
# ----------------------------------------------------------------------


class _Emitter:
    """Tiny indented-line builder for the generated module."""

    def __init__(self) -> None:
        self.lines: list[str] = []

    def emit(self, block: str, indent: int = 0) -> None:
        """Append ``block`` (a possibly multi-line chunk written at
        column 0) shifted right by ``indent`` levels of 4 spaces."""
        pad = "    " * indent
        for line in block.splitlines():
            self.lines.append(pad + line if line.strip() else "")

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


def _hot_fields(spec: KernelSpec) -> list[str]:
    """The per-core hot-tuple fields this configuration's loop touches,
    in unpack order (deduplicated, stable)."""
    fields = [
        "l1i_index",
        "l1i_tags",
        "l1i_occ",
        "l1i_stats",
        "l1i_ages",
        "l1i_hi",
        "itlb",
        "itlb_map",
        "l1d_index",
        "l1d_tags",
        "l1d_occ",
        "l1d_stats",
        "l1d_ages",
        "l1d_hi",
        "dtlb",
        "dtlb_map",
    ]
    if spec.l1i_evict_generic:
        fields.append("l1i_on_evict")
    if spec.l1d_evict_generic:
        fields.append("l1d_on_evict")
    if spec.has_slicc:
        fields += [
            "sig_masks",
            "sig_bit",
            "presence_excl",
            "slicc_agent",
            "mc",
            "msv",
            "msv_bits",
            "mtq_entries",
        ]
    if spec.has_steps:
        fields += ["mc", "msv", "msv_bits"]
    if spec.has_pf:
        fields += ["pf", "pf_pending"]
    if spec.has_cls:
        fields += [
            "i_cls",
            "icls_shadow",
            "icls_seen",
            "d_cls",
            "dcls_shadow",
            "dcls_seen",
        ]
    if spec.has_nuca:
        fields.append("nuca_ipen")
    return list(dict.fromkeys(fields))


def generate_source(spec: KernelSpec) -> str:
    """Emit the source of the specialized module for ``spec``.

    The module defines ``kernel(engine)``, which executes the engine's
    entire post-admission main loop (the engine's :meth:`run` handles
    admission before and result collection after). Deterministic: equal
    specs yield byte-identical source.

    Indentation levels in the emitted function:

    ====== ==========================================================
    1      ``kernel`` body (prologue, the ``while True`` header)
    2      dispatch + per-quantum setup/flush (``while`` body)
    3      record-loop body / the data-record arm
    4      the instruction arm (``if k == 0`` body) / data-hit body
    5      instruction-hit body, SLICC fill body
    ====== ==========================================================
    """
    s = spec
    has_msv = s.has_slicc or s.has_steps
    has_mig = s.has_slicc or s.has_steps
    # The pf block touches the infinite-L2 seen-set even under NUCA
    # (l2_touch of the prefetched block), so bind it for either.
    needs_l2_seen = (not s.has_nuca) or s.has_pf
    e = _Emitter()
    e.emit(
        f'"""Generated specialized replay kernel — do not edit.\n'
        f"\n"
        f"signature: {signature(spec)}\n"
        f"spec: {spec!r}\n"
        f"\n"
        f"Emitted by repro.sim.specialize.generate_source: the inline\n"
        f"quantum loop of repro.sim.engine.ReplayEngine.run with this\n"
        f"configuration's run-constant branches folded away and its\n"
        f"constants inlined as literals.\n"
        f'"""\n'
        f"import heapq\n"
    )
    if s.has_dp:
        e.emit("from collections import deque\n")
    if s.has_cls:
        e.emit(
            "from repro.cache.classify import MissClass\n"
            "_MC_COMPULSORY = MissClass.COMPULSORY\n"
            "_MC_CAPACITY = MissClass.CAPACITY\n"
            "_MC_CONFLICT = MissClass.CONFLICT\n"
        )
    e.emit("from repro.errors import SimulationError\n\n")
    e.emit("def kernel(engine):")

    # --- run-constant bindings, hoisted once per run ------------------
    e.emit(
        "machine = engine.machine\n"
        "queues_is_empty = engine.queues.is_empty\n"
        "queues_dequeue = engine.queues.dequeue\n"
        "directory_on_write = machine.directory.on_write\n"
        "dir_sharers = machine.directory._sharers\n"
        "admit_threads = engine._admit_threads\n"
        "rebalance = engine._rebalance\n"
        "activate = engine._activate\n"
        "migrate = engine._migrate\n"
        "complete = engine._complete\n"
        "heappop = heapq.heappop\n"
        "heap = engine._heap\n"
        "in_heap = engine._in_heap\n"
        "clocks = engine.clock\n"
        "threads = engine.threads\n"
        "n_threads = len(threads)\n"
        "arrival_time = engine._arrival_time\n"
        "running = engine.running",
        1,
    )
    if needs_l2_seen:
        e.emit("l2_seen = machine._l2_seen", 1)
    if s.has_nuca:
        e.emit(
            "nuca_hot = engine._nuca_hot\n"
            "nuca_acc = engine._nuca_acc\n"
            "nuca_miss_ct = engine._nuca_miss\n"
            "nuca_ev = engine._nuca_ev",
            1,
        )
    if s.has_dp:
        e.emit(
            "dp = engine.data_prefetcher\n"
            "dp_history = dp._history\n"
            "dp_pending_map = dp._pending\n"
            "dp_n_blocks = dp.n_blocks",
            1,
        )
    if s.has_slicc:
        e.emit("evaluate_migration = engine._evaluate_migration", 1)
    if s.has_steps:
        e.emit("steps_switch = engine._steps_switch", 1)
    if s.policy_on_start:
        e.emit("policy_on_thread_start = engine.policy.on_thread_start", 1)
    if s.policy_quantum:
        e.emit("policy_quantum_end = engine.policy.quantum_end", 1)
    # Slim per-core hot tuples: only the fields this config's loop uses.
    fields = _hot_fields(s)
    idx = ", ".join(f"h[{_HOT_INDEX[name]}]" for name in fields)
    names = ", ".join(fields)
    e.emit(
        "# Slim per-core hot tuples (indices into engine._CoreHot).\n"
        f"hot_all = [({idx},) for h in engine._core_hot]",
        1,
    )

    # --- main loop ----------------------------------------------------
    e.emit(
        "while True:\n"
        "    if not heap:\n"
        "        if engine._arrival_ptr >= n_threads:\n"
        "            break\n"
        "        now = max(\n"
        "            max(clocks),\n"
        "            arrival_time[engine._arrival_ptr],\n"
        "        )\n"
        "        admit_threads(now)\n"
        "        if not heap:\n"
        "            raise SimulationError(\n"
        '                "no core activated by a due arrival — pool stuck"\n'
        "            )\n"
        "        continue\n"
        "    clock, _, core = heappop(heap)\n"
        "    in_heap[core] = False\n"
        "    clock = clocks[core] = max(clock, clocks[core])\n"
        "    if (\n"
        "        engine._arrival_ptr < n_threads\n"
        "        and arrival_time[engine._arrival_ptr] <= clock\n"
        "    ):\n"
        "        admit_threads(clock)\n"
        "\n"
        "    if running[core] is None:\n"
        "        thread_id = queues_dequeue(core)\n"
        "        if thread_id is None:\n"
        "            rebalance(clock)\n"
        "            if not queues_is_empty(core):\n"
        "                activate(core, clock)\n"
        "            continue\n"
        "        running[core] = thread_id\n"
        "        state = threads[thread_id]",
        1,
    )
    if s.policy_on_start:
        e.emit("        policy_on_thread_start(core)", 1)
    e.emit(
        "        if state.pending_cycles:\n"
        "            clocks[core] += state.pending_cycles\n"
        "            state.pending_cycles = 0\n"
        "\n"
        "    thread_id = running[core]\n"
        "    state = threads[thread_id]\n"
        "    addr = state.addr\n"
        "    kind = state.kind\n"
        "    pages = state.page\n"
        "    n_records = len(addr)\n"
        "    pos = state.pos\n"
        "    tlb_cycles = 0\n"
        "    i_stall_cycles = 0\n"
        "    d_stall_cycles = 0",
        1,
    )
    if has_mig:
        e.emit("    migrated = False", 1)
    e.emit(f"    ({names},) = hot_all[core]", 1)
    if s.has_slicc:
        e.emit("    bypass_tick = engine._bypass_tick", 1)
    if has_msv:
        e.emit(
            "    msv_n = len(msv_bits)\n"
            "    msv_ones = msv._ones",
            1,
        )
    e.emit(
        "    itlb_last = -1\n"
        "    dtlb_last = -1\n"
        "    i_n = 0\n"
        "    d_n = 0\n"
        "    itlb_m = 0\n"
        "    dtlb_m = 0\n"
        "    i_m = 0\n"
        "    d_m = 0\n"
        "    i_ev = 0\n"
        "    d_ev = 0",
        1,
    )
    if s.has_pf:
        e.emit("    pf_issued = 0\n    pf_useful = 0\n    i_pf = 0", 1)
    if s.has_cls:
        e.emit(
            "    icls_comp = icls_capc = icls_conf = 0\n"
            "    dcls_comp = dcls_capc = dcls_conf = 0",
            1,
        )
    if s.has_dp:
        e.emit(
            "    dp_useful = 0\n"
            "    dp_hist = dp_history.get(thread_id)\n"
            "    if dp_hist is None:\n"
            "        dp_hist = deque(maxlen=dp_n_blocks)\n"
            "        dp_history[thread_id] = dp_hist\n"
            "    dp_pending = dp_pending_map.get(thread_id)",
            1,
        )
    e.emit(
        f"    end = pos + {s.quantum}\n"
        "    if end > n_records:\n"
        "        end = n_records\n"
        "    for block, k, page in zip(\n"
        "        addr[pos:end], kind[pos:end], pages[pos:end]\n"
        "    ):\n"
        "        pos += 1\n"
        "        if k == 0:",  # KIND_INSTR (asserted at import)
        1,
    )

    # ---- instruction record (level 4) ----
    e.emit(
        "i_n += 1\n"
        "if page == itlb_last:\n"
        "    pass\n"
        "elif page in itlb_map:\n"
        "    itlb_map.move_to_end(page)\n"
        "    itlb_last = page\n"
        "else:\n"
        "    itlb_m += 1\n"
        "    itlb_map[page] = None\n"
        "    itlb_last = page\n"
        f"    if len(itlb_map) > {s.itlb_entries}:\n"
        "        itlb_map.popitem(last=False)\n"
        f"    tlb_cycles += {s.itlb_pen}\n"
        f"set_idx = block & {s.l1i_set_mask}\n"
        "slot = l1i_index.get(block)\n"
        "if slot is not None:\n"
        "    hi = l1i_hi[set_idx] + 1\n"
        "    l1i_hi[set_idx] = hi\n"
        "    l1i_ages[slot] = hi",
        4,
    )
    if s.has_cls:
        e.emit(
            "    if block in icls_shadow:\n"
            "        icls_shadow.move_to_end(block)\n"
            "    else:\n"
            "        icls_shadow[block] = None\n"
            f"        if len(icls_shadow) > {s.icls_cap}:\n"
            "            icls_shadow.popitem(last=False)",
            4,
        )
    if s.has_pf:
        e.emit(
            "    if block in pf_pending:\n"
            "        pf_pending.discard(block)\n"
            "        pf_useful += 1\n"
            f"        i_stall_cycles += {s.pf_late}",
            4,
        )
    if has_msv:
        bump = "        bypass_tick += 1\n" if s.has_slicc else ""
        e.emit(
            f"    if mc._count >= {s.mc_limit}:\n"
            + bump
            + f"        if msv_n == {s.msv_window}:\n"
            "            msv_ones -= msv_bits[0]\n"
            "        else:\n"
            "            msv_n += 1\n"
            "        msv_bits.append(0)",
            4,
        )
    e.emit("    continue", 4)

    # ---- instruction miss (level 4) ----
    e.emit("i_m += 1", 4)
    if s.has_cls:
        e.emit(
            "if block in icls_shadow:\n"
            "    icls_shadow.move_to_end(block)\n"
            "    if block not in icls_seen:\n"
            "        icls_seen.add(block)\n"
            "        icls_comp += 1\n"
            "    else:\n"
            "        icls_conf += 1\n"
            "else:\n"
            "    icls_shadow[block] = None\n"
            f"    if len(icls_shadow) > {s.icls_cap}:\n"
            "        icls_shadow.popitem(last=False)\n"
            "    if block not in icls_seen:\n"
            "        icls_seen.add(block)\n"
            "        icls_comp += 1\n"
            "    else:\n"
            "        icls_capc += 1",
            4,
        )
    # Fill decision: the segment-protection bypass exists only with the
    # SLICC agents; every other configuration always fills.
    fill_indent = 4
    if s.has_slicc:
        e.emit(
            "fill = True\n"
            "mc_full = False\n"
            f"if mc._count >= {s.mc_limit}:\n"
            "    mc_full = True\n"
            "    bypass_tick += 1\n"
            f"    fill = bypass_tick % {s.bypass_repair} == 0\n"
            "if fill:",
            4,
        )
        fill_indent = 5
    # SetAssociativeCache._fill, inlined (age-counter LRU arm only; the
    # set's ways are slots base .. base+assoc-1 of the flat lists).
    i_ways = f"base : base + {s.l1i_assoc}"
    if s.l1i_evict_sig:
        # The new block is written first and scanned with the survivors:
        # harmless, since the fill's signature insert sets its bit anyway.
        evict_arm = (
            "    l1i_tags[slot] = block\n"
            f"    vidx = victim & {s.sig_imask}\n"
            f"    for other in l1i_tags[{i_ways}]:\n"
            f"        if other & {s.sig_imask} == vidx:\n"
            "            break\n"
            "    else:\n"
            "        sig_masks[vidx] &= ~sig_bit\n"
        )
    elif s.has_pf:
        evict_arm = "    pf_pending.discard(victim)\n"
    elif s.l1i_evict_generic:
        evict_arm = "    l1i_on_evict(victim)\n"
    else:
        evict_arm = ""
    e.emit(
        f"base = set_idx * {s.l1i_assoc}\n"
        f"if l1i_occ[set_idx] < {s.l1i_assoc}:\n"
        "    slot = l1i_tags.index(None, base)\n"
        "    l1i_occ[set_idx] += 1\n"
        "else:\n"
        f"    slot = l1i_ages.index(min(l1i_ages[{i_ways}]), base)\n"
        "    victim = l1i_tags[slot]\n"
        "    del l1i_index[victim]\n"
        "    i_ev += 1\n"
        + evict_arm
        + "l1i_tags[slot] = block\n"
        "l1i_index[block] = slot\n"
        "hi = l1i_hi[set_idx] + 1\n"
        "l1i_hi[set_idx] = hi\n"
        "l1i_ages[slot] = hi",
        fill_indent,
    )
    # Downstream penalty.
    if not s.has_nuca:
        e.emit(
            "if block in l2_seen:\n"
            f"    i_stall_cycles += {s.i_miss_l2}\n"
            "else:\n"
            "    l2_seen.add(block)\n"
            f"    i_stall_cycles += {s.i_miss_mem}",
            4,
        )
    else:
        e.emit(
            f"bank = block % {s.n_banks}\n"
            f"local = block // {s.n_banks}\n"
            "(\n"
            "    b_index,\n"
            "    b_tags,\n"
            "    b_ages,\n"
            "    b_hi,\n"
            "    b_occ,\n"
            "    b_mask,\n"
            "    b_assoc,\n"
            ") = nuca_hot[bank]\n"
            "nuca_acc[bank] += 1\n"
            "b_set = local & b_mask\n"
            "b_slot = b_index.get(local)\n"
            "if b_slot is not None:\n"
            "    h = b_hi[b_set] + 1\n"
            "    b_hi[b_set] = h\n"
            "    b_ages[b_slot] = h\n"
            "    i_stall_cycles += nuca_ipen[bank]\n"
            "else:\n"
            "    nuca_miss_ct[bank] += 1\n"
            "    b_base = b_set * b_assoc\n"
            "    if b_occ[b_set] < b_assoc:\n"
            "        b_slot = b_tags.index(None, b_base)\n"
            "        b_occ[b_set] += 1\n"
            "    else:\n"
            "        b_slot = b_ages.index(\n"
            "            min(b_ages[b_base : b_base + b_assoc]), b_base\n"
            "        )\n"
            "        del b_index[b_tags[b_slot]]\n"
            "        nuca_ev[bank] += 1\n"
            "    b_tags[b_slot] = local\n"
            "    b_index[local] = b_slot\n"
            "    h = b_hi[b_set] + 1\n"
            "    b_hi[b_set] = h\n"
            "    b_ages[b_slot] = h\n"
            f"    i_stall_cycles += {s.i_miss_mem}",
            4,
        )
    if s.has_slicc:
        e.emit(
            "if fill:\n"
            f"    sig_masks[block & {s.sig_imask}] |= sig_bit",
            4,
        )
    if s.has_pf:
        e.emit(
            "nxt = block + 1\n"
            "if nxt not in l1i_index:\n"
            "    i_pf += 1\n"
            f"    n_set = nxt & {s.l1i_set_mask}\n"
            f"    n_base = n_set * {s.l1i_assoc}\n"
            f"    if l1i_occ[n_set] < {s.l1i_assoc}:\n"
            "        n_slot = l1i_tags.index(None, n_base)\n"
            "        l1i_occ[n_set] += 1\n"
            "    else:\n"
            "        n_slot = l1i_ages.index(\n"
            f"            min(l1i_ages[n_base : n_base + {s.l1i_assoc}]), n_base\n"
            "        )\n"
            "        victim = l1i_tags[n_slot]\n"
            "        del l1i_index[victim]\n"
            "        i_ev += 1\n"
            "        pf_pending.discard(victim)\n"
            "    l1i_tags[n_slot] = nxt\n"
            "    l1i_index[nxt] = n_slot\n"
            "    hi = l1i_hi[n_set] + 1\n"
            "    l1i_hi[n_set] = hi\n"
            "    l1i_ages[n_slot] = hi\n"
            "    pf_pending.add(nxt)\n"
            "    pf_issued += 1\n"
            "    l2_seen.add(nxt)",
            4,
        )
    if s.has_steps:
        e.emit(
            f"if mc._count < {s.mc_limit}:\n"
            "    mc._count += 1\n"
            "else:\n"
            f"    if msv_n == {s.msv_window}:\n"
            "        msv_ones -= msv_bits[0]\n"
            "    else:\n"
            "        msv_n += 1\n"
            "    msv_bits.append(1)\n"
            "    msv_ones += 1\n"
            "if (\n"
            f"    mc._count >= {s.mc_limit}\n"
            f"    and msv_ones >= {s.msv_dilution}\n"
            "    and not queues_is_empty(core)\n"
            "):\n"
            "    engine._pending_target = -1\n"
            "    migrated = True\n"
            "    break",
            4,
        )
    elif s.has_slicc:
        e.emit(
            "if not mc_full:\n"
            "    mc._count += 1\n"
            "else:\n"
            f"    if msv_n == {s.msv_window}:\n"
            "        msv_ones -= msv_bits[0]\n"
            "    else:\n"
            "        msv_n += 1\n"
            "    msv_bits.append(1)\n"
            "    msv_ones += 1\n"
            "    mtq_entries.append(\n"
            f"        sig_masks[block & {s.sig_imask}] & presence_excl\n"
            "    )\n"
            "    if (\n"
            f"        msv_ones >= {s.msv_dilution}\n"
            f"        and len(mtq_entries) == {s.mtq_matched}\n"
            "    ):\n"
            "        if evaluate_migration(core, slicc_agent):\n"
            "            migrated = True\n"
            "            break\n"
            "        msv_n = len(msv_bits)\n"
            "        msv_ones = msv._ones",
            4,
        )
    e.emit("continue", 4)

    # ---- data record (level 3) ----
    e.emit(
        "d_n += 1\n"
        "if page == dtlb_last:\n"
        "    pass\n"
        "elif page in dtlb_map:\n"
        "    dtlb_map.move_to_end(page)\n"
        "    dtlb_last = page\n"
        "else:\n"
        "    dtlb_m += 1\n"
        "    dtlb_map[page] = None\n"
        "    dtlb_last = page\n"
        f"    if len(dtlb_map) > {s.dtlb_entries}:\n"
        "        dtlb_map.popitem(last=False)\n"
        f"    tlb_cycles += {s.dtlb_pen}",
        3,
    )
    if s.has_dp:
        e.emit("dp_hist.append(block)", 3)
    e.emit(
        f"set_idx = block & {s.l1d_set_mask}\n"
        "slot = l1d_index.get(block)\n"
        "if slot is not None:\n"
        "    hi = l1d_hi[set_idx] + 1\n"
        "    l1d_hi[set_idx] = hi\n"
        "    l1d_ages[slot] = hi",
        3,
    )
    if s.has_cls:
        e.emit(
            "    if block in dcls_shadow:\n"
            "        dcls_shadow.move_to_end(block)\n"
            "    else:\n"
            "        dcls_shadow[block] = None\n"
            f"        if len(dcls_shadow) > {s.dcls_cap}:\n"
            "            dcls_shadow.popitem(last=False)",
            3,
        )
    e.emit(
        "    if k == 2:\n"  # KIND_STORE (asserted at import)
        "        sharers = dir_sharers.get(block)\n"
        "        if sharers is None:\n"
        "            dir_sharers[block] = {core}\n"
        "        elif len(sharers) == 1 and core in sharers:\n"
        "            pass\n"
        "        else:\n"
        "            directory_on_write(core, block)\n"
        "    continue\n"
        "d_m += 1",
        3,
    )
    if s.has_dp:
        e.emit(
            "if dp_pending and block in dp_pending:\n"
            "    dp_pending.discard(block)\n"
            "    dp_useful += 1",
            3,
        )
    if s.has_cls:
        e.emit(
            "if block in dcls_shadow:\n"
            "    dcls_shadow.move_to_end(block)\n"
            "    if block not in dcls_seen:\n"
            "        dcls_seen.add(block)\n"
            "        dcls_comp += 1\n"
            "    else:\n"
            "        dcls_conf += 1\n"
            "else:\n"
            "    dcls_shadow[block] = None\n"
            f"    if len(dcls_shadow) > {s.dcls_cap}:\n"
            "        dcls_shadow.popitem(last=False)\n"
            "    if block not in dcls_seen:\n"
            "        dcls_seen.add(block)\n"
            "        dcls_comp += 1\n"
            "    else:\n"
            "        dcls_capc += 1",
            3,
        )
    if s.l1d_evict_dir:
        d_evict_arm = (
            "    vs = dir_sharers.get(victim)\n"
            "    if vs is not None:\n"
            "        vs.discard(core)\n"
            "        if not vs:\n"
            "            del dir_sharers[victim]\n"
        )
    elif s.l1d_evict_generic:
        d_evict_arm = "    l1d_on_evict(victim)\n"
    else:
        d_evict_arm = ""
    e.emit(
        f"base = set_idx * {s.l1d_assoc}\n"
        f"if l1d_occ[set_idx] < {s.l1d_assoc}:\n"
        "    slot = l1d_tags.index(None, base)\n"
        "    l1d_occ[set_idx] += 1\n"
        "else:\n"
        f"    slot = l1d_ages.index(min(l1d_ages[base : base + {s.l1d_assoc}]), base)\n"
        "    victim = l1d_tags[slot]\n"
        "    del l1d_index[victim]\n"
        "    d_ev += 1\n"
        + d_evict_arm
        + "l1d_tags[slot] = block\n"
        "l1d_index[block] = slot\n"
        "hi = l1d_hi[set_idx] + 1\n"
        "l1d_hi[set_idx] = hi\n"
        "l1d_ages[slot] = hi",
        3,
    )
    if not s.has_nuca:
        e.emit(
            "if block in l2_seen:\n"
            "    in_l2 = True\n"
            "else:\n"
            "    l2_seen.add(block)\n"
            "    in_l2 = False",
            3,
        )
    else:
        e.emit(
            f"bank = block % {s.n_banks}\n"
            f"local = block // {s.n_banks}\n"
            "(\n"
            "    b_index,\n"
            "    b_tags,\n"
            "    b_ages,\n"
            "    b_hi,\n"
            "    b_occ,\n"
            "    b_mask,\n"
            "    b_assoc,\n"
            ") = nuca_hot[bank]\n"
            "nuca_acc[bank] += 1\n"
            "b_set = local & b_mask\n"
            "b_slot = b_index.get(local)\n"
            "if b_slot is not None:\n"
            "    h = b_hi[b_set] + 1\n"
            "    b_hi[b_set] = h\n"
            "    b_ages[b_slot] = h\n"
            "    in_l2 = True\n"
            "else:\n"
            "    nuca_miss_ct[bank] += 1\n"
            "    b_base = b_set * b_assoc\n"
            "    if b_occ[b_set] < b_assoc:\n"
            "        b_slot = b_tags.index(None, b_base)\n"
            "        b_occ[b_set] += 1\n"
            "    else:\n"
            "        b_slot = b_ages.index(\n"
            "            min(b_ages[b_base : b_base + b_assoc]), b_base\n"
            "        )\n"
            "        del b_index[b_tags[b_slot]]\n"
            "        nuca_ev[bank] += 1\n"
            "    b_tags[b_slot] = local\n"
            "    b_index[local] = b_slot\n"
            "    h = b_hi[b_set] + 1\n"
            "    b_hi[b_set] = h\n"
            "    b_ages[b_slot] = h\n"
            "    in_l2 = False",
            3,
        )
    e.emit(
        "if k == 2:\n"
        f"    d_stall_cycles += {s.d_store_l2} if in_l2 else {s.d_store_mem}\n"
        "    sharers = dir_sharers.get(block)\n"
        "    if sharers is None:\n"
        "        dir_sharers[block] = {core}\n"
        "    elif len(sharers) == 1 and core in sharers:\n"
        "        pass\n"
        "    else:\n"
        "        directory_on_write(core, block)\n"
        "else:\n"
        f"    d_stall_cycles += {s.d_load_l2} if in_l2 else {s.d_load_mem}\n"
        "    sharers = dir_sharers.get(block)\n"
        "    if sharers is None:\n"
        "        dir_sharers[block] = {core}\n"
        "    else:\n"
        "        sharers.add(core)",
        3,
    )

    # ---- quantum flush (level 2) ----
    e.emit("\n    state.pos = pos", 1)
    if s.has_slicc:
        e.emit("    engine._bypass_tick = bypass_tick", 1)
    if has_msv:
        e.emit("    msv._ones = msv_ones", 1)
    e.emit(
        "    l1i_stats.accesses += i_n\n"
        "    l1i_stats.misses += i_m\n"
        "    l1i_stats.evictions += i_ev",
        1,
    )
    if s.has_pf:
        e.emit(
            "    pf.issued += pf_issued\n"
            "    pf.useful += pf_useful\n"
            "    l1i_stats.prefetch_fills += i_pf",
            1,
        )
    if s.has_cls:
        e.emit(
            "    i_cls.accesses += i_n\n"
            "    counts = i_cls.counts\n"
            "    counts[_MC_COMPULSORY] += icls_comp\n"
            "    counts[_MC_CAPACITY] += icls_capc\n"
            "    counts[_MC_CONFLICT] += icls_conf",
            1,
        )
    e.emit(
        "    l1d_stats.accesses += d_n\n"
        "    l1d_stats.misses += d_m\n"
        "    l1d_stats.evictions += d_ev",
        1,
    )
    if s.has_cls:
        e.emit(
            "    d_cls.accesses += d_n\n"
            "    counts = d_cls.counts\n"
            "    counts[_MC_COMPULSORY] += dcls_comp\n"
            "    counts[_MC_CAPACITY] += dcls_capc\n"
            "    counts[_MC_CONFLICT] += dcls_conf",
            1,
        )
    if s.has_dp:
        e.emit(
            "    if dp_useful:\n"
            "        dp.useful += dp_useful",
            1,
        )
    e.emit(
        "    itlb.accesses += i_n\n"
        "    itlb.misses += itlb_m\n"
        "    dtlb.accesses += d_n\n"
        "    dtlb.misses += dtlb_m\n"
        f"    base_cycles = {s.ibase} * i_n + {s.dbase} * d_n\n"
        "    engine.cycles_base += base_cycles\n"
        "    cycles = base_cycles + tlb_cycles + i_stall_cycles + d_stall_cycles\n"
        "    engine.cycles_tlb += tlb_cycles\n"
        "    engine.cycles_i_stall += i_stall_cycles\n"
        "    engine.cycles_d_stall += d_stall_cycles\n"
        "    clocks[core] += cycles\n"
        "    engine.busy_cycles += cycles\n",
        1,
    )

    # ---- scheduling tail (level 2) ----
    first = "if"
    if has_mig:
        # SLICC's evaluate_migration always stages a real core target;
        # only the STEPS arm stages -1 — fold the dispatch per config.
        if s.has_steps:
            action = "steps_switch(core)"
        else:
            action = "migrate(core, engine._pending_target)"
        e.emit(f"    if migrated:\n        {action}", 1)
        first = "elif"
    e.emit(
        f"    {first} state.pos >= n_records:\n"
        "        complete(core, clocks[core])",
        1,
    )
    if s.policy_quantum:
        e.emit(
            "    else:\n"
            "        target = policy_quantum_end(core)\n"
            "        if target is not None:\n"
            "            migrate(core, target)",
            1,
        )
    e.emit(
        "\n"
        "    if running[core] is not None or not queues_is_empty(core):\n"
        "        activate(core, clocks[core])",
        1,
    )

    # ---- end of run: batched NUCA bank-stat flush (level 1) ----
    if s.has_nuca:
        e.emit(
            "\n"
            "for bank, cache in enumerate(machine.nuca._banks):\n"
            "    stats = cache.stats\n"
            "    stats.accesses += nuca_acc[bank]\n"
            "    stats.misses += nuca_miss_ct[bank]\n"
            "    stats.evictions += nuca_ev[bank]\n"
            "    nuca_acc[bank] = nuca_miss_ct[bank] = nuca_ev[bank] = 0",
            1,
        )
    return e.source()


# ----------------------------------------------------------------------
# Compilation, memoisation, dump and AOT
# ----------------------------------------------------------------------

#: Process-wide kernel memo. Populated pre-fork by the Runner so worker
#: processes inherit compiled kernels through the forked address space.
_KERNEL_CACHE: dict[KernelSpec, Callable] = {}


def clear_cache() -> None:
    """Drop all memoised kernels (tests only)."""
    _KERNEL_CACHE.clear()


def _exec_kernel(source: str, sig: str) -> Callable:
    namespace: dict = {"__name__": f"repro_specialized_{sig}"}
    code = compile(source, f"<specialized:{sig}>", "exec")
    exec(code, namespace)
    return namespace["kernel"]


def _aot_kernel(source: str, sig: str):
    """Best-effort ahead-of-time compilation of the generated module.

    Tries mypyc first, then Cython, building into a per-config cache
    directory; any failure (no toolchain, compiler error, import error)
    returns None and the caller falls back to the exec'd kernel. The
    cache is keyed by the source signature, so a rebuilt config reuses
    an existing extension without recompiling.
    """
    import importlib.machinery
    import importlib.util
    import subprocess
    import sys
    from pathlib import Path

    try:
        cache_root = os.environ.get("REPRO_SPECIALIZE_CACHE")
        cache = (
            Path(cache_root)
            if cache_root
            else Path.home() / ".cache" / "repro-specialize"
        )
        cache.mkdir(parents=True, exist_ok=True)
        mod_name = f"repro_specialized_{sig}"

        def _load_built():
            for suffix in importlib.machinery.EXTENSION_SUFFIXES:
                built = cache / f"{mod_name}{suffix}"
                if built.exists():
                    ext_spec = importlib.util.spec_from_file_location(
                        mod_name, built
                    )
                    module = importlib.util.module_from_spec(ext_spec)
                    ext_spec.loader.exec_module(module)
                    return module.kernel
            return None

        fn = _load_built()
        if fn is not None:
            return fn
        src_path = cache / f"{mod_name}.py"
        src_path.write_text(source)
        for backend in ("mypyc", "Cython"):
            if importlib.util.find_spec(backend) is None:
                continue
            if backend == "mypyc":
                setup_body = (
                    "from setuptools import setup\n"
                    "from mypyc.build import mypycify\n"
                    f"setup(ext_modules=mypycify([{str(src_path)!r}]))\n"
                )
            else:
                setup_body = (
                    "from setuptools import setup\n"
                    "from Cython.Build import cythonize\n"
                    f"setup(ext_modules=cythonize([{str(src_path)!r}], "
                    "language_level=3))\n"
                )
            setup_path = cache / f"setup_{sig}.py"
            setup_path.write_text(setup_body)
            result = subprocess.run(
                [
                    sys.executable,
                    str(setup_path),
                    "build_ext",
                    "--build-lib",
                    str(cache),
                ],
                cwd=str(cache),
                capture_output=True,
                timeout=600,
            )
            if result.returncode != 0:
                continue
            fn = _load_built()
            if fn is not None:
                return fn
        return None
    except Exception:
        return None


def kernel_for(spec: KernelSpec) -> Callable:
    """The compiled kernel for ``spec`` (memoised per process)."""
    fn = _KERNEL_CACHE.get(spec)
    dump_dir = os.environ.get("REPRO_SPECIALIZE_DUMP")
    if fn is not None and not dump_dir:
        return fn
    sig = signature(spec)
    source = generate_source(spec)
    if dump_dir:
        from pathlib import Path

        out = Path(dump_dir)
        out.mkdir(parents=True, exist_ok=True)
        path = out / f"{sig}.py"
        if not path.exists():
            path.write_text(source)
    if fn is None:
        if os.environ.get("REPRO_SPECIALIZE_AOT"):
            # Built extensions are keyed by their source, not the spec,
            # so a generator change never loads a module built from an
            # older template.
            source_sig = hashlib.sha256(source.encode("utf-8")).hexdigest()
            fn = _aot_kernel(source, source_sig[:16])
        if fn is None:
            fn = _exec_kernel(source, sig)
        _KERNEL_CACHE[spec] = fn
    return fn


def kernel_for_engine(engine) -> Callable:
    """Extract the engine's run constants and return its kernel."""
    return kernel_for(spec_from_engine(engine))
