"""The replay kernel: one generated quantum loop per configuration.

:meth:`repro.sim.engine.ReplayEngine.run` admits the first threads,
calls the kernel generated here for its configuration, and collects the
results. Everything in between — the event heap, thread dispatch, every
trace record, the per-quantum counter flush and the scheduling tail — is
generated code.

Generation is a small partial evaluator. A :class:`KernelSpec` holds the
structural facts of a configuration that decide which code exists at
all: the scheduling policy's capability flags, and whether the run
takes the reference path. :func:`generate_source` emits the loop with
every arm those facts rule out deleted. Run constants — the quantum,
timing penalties, cache geometry, SLICC thresholds — are bound from the
engine once in the kernel's prologue, so configurations that differ only
in numbers share one kernel. :func:`kernel_for` compiles each spec once
per process and memoises it; the Runner fills the memo before forking so
pool workers inherit it.

The generated record arms cover the paper's evaluated machine: plain
LRU L1s, the effectively infinite L2, no miss classifier and no
migration data prefetcher. A configuration with any of those four
options takes the reference path (:func:`kernel_spec`): the generated
scheduling loop and TLB lookups, with every record handed to
``ReplayEngine._process_instruction`` / ``_process_data``, the one
implementation of those options. A test asks for the reference path on
any configuration with ``ReplayEngine(trace, config, reference=True)``;
the golden pins and ``tests/test_hot_path.py`` hold the two paths
byte-identical where both run.

``print(generate_source(kernel_spec(config)))`` prints a configuration's
kernel. A compiled kernel's source is registered with :mod:`linecache`
under its ``<specialized:SIGNATURE>`` filename, so tracebacks, ``pdb``
and :func:`inspect.getsource` show the generated lines.
"""

from __future__ import annotations

import hashlib
from typing import Callable, NamedTuple

from repro.sched import SchedulingPolicy, get_policy
from repro.workloads.trace import KIND_INSTR, KIND_STORE

# The generated source hard-codes the record-kind literals (protocol
# constants, not config knobs); fail at import time if they ever drift.
assert KIND_INSTR == 0 and KIND_STORE == 2, "record-kind literals drifted"


class KernelSpec(NamedTuple):
    """The structural facts one generated kernel is specialised for.

    Configurations with equal specs share one kernel. Numeric knobs
    (quantum, thresholds, geometry, latencies) never appear here: the
    kernel reads them from the engine when it starts. Nor do the
    options the generated record arms leave out; each of them sets
    ``reference`` (:func:`kernel_spec`).
    """

    #: SLICC agents and bloom signatures (``slicc_machinery``).
    slicc: bool
    #: STEPS same-core time multiplexing (``time_multiplexes``).
    steps: bool
    #: Per-core next-line prefetchers (``nextline_prefetch``).
    nextline: bool
    #: The policy overrides ``on_thread_start``.
    on_start: bool
    #: The policy decides in ``quantum_end`` (``quantum_hook``).
    quantum_hook: bool
    #: Records go through ``ReplayEngine._process_*`` (see
    #: :func:`kernel_spec` for when).
    reference: bool


def kernel_spec(config, reference: bool = False) -> KernelSpec:
    """The :class:`KernelSpec` of a :class:`~repro.sim.config.SimConfig`
    (a pure function of the config: no engine or trace needed).

    The spec takes the reference path when ``reference`` asks for it,
    and for every configuration with an option the generated arms leave
    out: ``collect_miss_classes``, ``model_l2_capacity``,
    ``data_prefetch_n > 0`` under a migrating policy (the condition on
    which the engine builds the prefetcher), or a non-``lru`` L1.
    """
    policy = get_policy(config.variant)
    system = config.system
    l1i = policy.l1i_params(system) or system.l1i
    return KernelSpec(
        slicc=policy.slicc_machinery,
        steps=policy.time_multiplexes,
        nextline=policy.nextline_prefetch,
        on_start=policy.on_thread_start
        is not SchedulingPolicy.on_thread_start,
        quantum_hook=policy.quantum_hook,
        reference=bool(
            reference
            or config.collect_miss_classes
            or config.model_l2_capacity
            or (config.data_prefetch_n > 0 and policy.migrates)
            or l1i.policy != "lru"
            or system.l1d.policy != "lru"
        ),
    )


def signature(spec: KernelSpec) -> str:
    """Short stable content signature of a spec (the kernel's
    ``<specialized:SIGNATURE>`` filename)."""
    return hashlib.sha256(repr(spec).encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------
# Source templates (column-0 blocks; _indent nests them)
# ----------------------------------------------------------------------


def _indent(block: str, levels: int = 1) -> str:
    pad = "    " * levels
    return "".join(
        pad + line if line.strip() else line
        for line in block.splitlines(keepends=True)
    )


def _tlb(p: str) -> str:
    """``Tlb.access`` on the precomputed page id; ``p`` is ``i`` or ``d``.
    A page equal to the last one is already the MRU entry."""
    return (
        f"{p}_n += 1\n"
        f"if page == {p}tlb_last:\n"
        "    pass\n"
        f"elif page in {p}tlb_map:\n"
        f"    {p}tlb_map.move_to_end(page)\n"
        f"    {p}tlb_last = page\n"
        "else:\n"
        f"    {p}tlb_m += 1\n"
        f"    {p}tlb_map[page] = None\n"
        f"    {p}tlb_last = page\n"
        f"    if len({p}tlb_map) > {p}tlb_entries:\n"
        f"        {p}tlb_map.popitem(last=False)\n"
        f"    tlb_cycles += {p}tlb_pen\n"
    )


def _lru_stamp(c: str, set_var: str, slot_var: str) -> str:
    """Make ``slot_var`` the MRU way of its set (age-counter LRU)."""
    return (
        f"hi = {c}_hi[{set_var}] + 1\n"
        f"{c}_hi[{set_var}] = hi\n"
        f"{c}_ages[{slot_var}] = hi\n"
    )


def _fill(
    c: str,
    evict: str,
    count: str,
    set_var: str = "set_idx",
    slot_var: str = "slot",
    base_var: str = "base",
    block_var: str = "block",
) -> str:
    """``SetAssociativeCache._fill`` on an LRU cache: way ``w`` of set
    ``s`` is slot ``s * assoc + w`` of the flat lists; ``evict`` runs on
    the victim."""
    choose = (
        f"{slot_var} = {c}_ages.index("
        f"min({c}_ages[{base_var} : {base_var} + {c}_assoc]), {base_var})\n"
    )
    return (
        f"{base_var} = {set_var} * {c}_assoc\n"
        f"if {c}_occ[{set_var}] < {c}_assoc:\n"
        f"    {slot_var} = {c}_tags.index(None, {base_var})\n"
        f"    {c}_occ[{set_var}] += 1\n"
        "else:\n"
        + _indent(choose)
        + f"    victim = {c}_tags[{slot_var}]\n"
        f"    del {c}_index[victim]\n"
        f"    {count} += 1\n"
        + _indent(evict)
        + f"{c}_tags[{slot_var}] = {block_var}\n"
        f"{c}_index[{block_var}] = {slot_var}\n"
        + _lru_stamp(c, set_var, slot_var)
    )


#: ``BloomSignature.on_evict``: clear the victim's bit unless a same-set
#: survivor shares its filter index. The new block is written first and
#: scanned with the survivors — harmless, the fill sets its bit anyway.
_SIG_EVICT = (
    "l1i_tags[slot] = block\n"
    "vidx = victim & sig_imask\n"
    "for other in l1i_tags[base : base + l1i_assoc]:\n"
    "    if other & sig_imask == vidx:\n"
    "        break\n"
    "else:\n"
    "    sig_masks[vidx] &= ~sig_bit\n"
)

#: ``Directory.on_evict`` for the evicting core.
_DIR_EVICT = (
    "vs = dir_sharers.get(victim)\n"
    "if vs is not None:\n"
    "    vs.discard(core)\n"
    "    if not vs:\n"
    "        del dir_sharers[victim]\n"
)

#: ``Directory.on_write``, its two fast cases inlined (first write, or a
#: write by the sole sharer).
_DIR_WRITE = (
    "sharers = dir_sharers.get(block)\n"
    "if sharers is None:\n"
    "    dir_sharers[block] = {core}\n"
    "elif len(sharers) == 1 and core in sharers:\n"
    "    pass\n"
    "else:\n"
    "    directory_on_write(core, block)\n"
)


def _msv_record(bit: int) -> str:
    """``MissShiftVector.record`` on the local mirrors ``msv_n`` (length)
    and ``msv_ones`` (popcount), flushed at quantum end."""
    return (
        "if msv_n == msv_window:\n"
        "    msv_ones -= msv_bits[0]\n"
        "else:\n"
        "    msv_n += 1\n"
        f"msv_bits.append({bit})\n" + ("msv_ones += 1\n" if bit else "")
    )


def _instruction(s: KernelSpec) -> str:
    """The fast path of one instruction record, after its TLB lookup."""
    hit = _lru_stamp("l1i", "set_idx", "slot")
    if s.nextline:
        # consume_if_prefetched: the hit used an in-flight prefetch.
        hit += (
            "if block in pf_pending:\n"
            "    pf_pending.discard(block)\n"
            "    pf_useful += 1\n"
            "    i_stall_cycles += pf_late\n"
        )
    if s.slicc or s.steps:
        bump = "    bypass_tick += 1\n" if s.slicc else ""
        hit += "if mc._count >= mc_limit:\n" + bump + _indent(_msv_record(0))
    out = (
        "set_idx = block & l1i_set_mask\n"
        "slot = l1i_index.get(block)\n"
        "if slot is not None:\n" + _indent(hit + "continue\n") + "i_m += 1\n"
    )
    if s.nextline:
        evict = "pf_pending.discard(victim)\n"
    elif s.slicc:
        evict = _SIG_EVICT
    else:
        evict = ""
    fill = _fill("l1i", evict, "i_ev")
    if s.slicc:
        # Segment protection (see ReplayEngine._process_instruction):
        # once the MC saturates, only one in BYPASS_REPAIR_RATE misses
        # installs.
        out += (
            "fill = True\n"
            "mc_full = False\n"
            "if mc._count >= mc_limit:\n"
            "    mc_full = True\n"
            "    bypass_tick += 1\n"
            "    fill = bypass_tick % bypass_repair == 0\n"
            "if fill:\n" + _indent(fill)
        )
    else:
        out += fill
    out += (
        "if block in l2_seen:\n"
        "    i_stall_cycles += i_miss_l2\n"
        "else:\n"
        "    l2_seen.add(block)\n"
        "    i_stall_cycles += i_miss_mem\n"
    )
    if s.slicc:
        out += "if fill:\n    sig_masks[block & sig_imask] |= sig_bit\n"
    if s.nextline:
        # on_demand_miss plus the engine's l2_touch of the prefetched
        # block: install block+1 unless resident (an install, not a
        # demand access: no access/miss counts, no on_miss).
        install = _fill(
            "l1i",
            "pf_pending.discard(victim)\n",
            "i_ev",
            "n_set",
            "n_slot",
            "n_base",
            "nxt",
        )
        out += (
            "nxt = block + 1\n"
            "if nxt not in l1i_index:\n"
            "    i_pf += 1\n"
            "    n_set = nxt & l1i_set_mask\n"
            + _indent(install)
            + "    pf_pending.add(nxt)\n"
            "    pf_issued += 1\n"
            "    l2_seen.add(nxt)\n"
        )
    if s.steps:
        # observe_access plus the STEPS dilution check: the thread left
        # the cached chunk and peers wait, so switch context.
        out += (
            "if mc._count < mc_limit:\n"
            "    mc._count += 1\n"
            "else:\n"
            + _indent(_msv_record(1))
            + "if (\n"
            "    mc._count >= mc_limit\n"
            "    and msv_ones >= msv_dilution\n"
            "    and not queues_is_empty(core)\n"
            "):\n"
            "    engine._pending_target = -1\n"
            "    migrated = True\n"
            "    break\n"
        )
    elif s.slicc:
        # observe_access: fill the MC, or once it saturated record the
        # miss in the MSV and gather the remote presence into the MTQ
        # with the fused bloom probe; a full MTQ past the dilution
        # threshold asks the policy for a target. A STAY decision resets
        # the MSV in place, so the mirrors are resynced.
        out += (
            "if not mc_full:\n"
            "    mc._count += 1\n"
            "else:\n"
            + _indent(_msv_record(1))
            + "    mtq_entries.append(sig_masks[block & sig_imask] & presence_excl)\n"
            "    if msv_ones >= msv_dilution and len(mtq_entries) == mtq_matched:\n"
            "        if evaluate_migration(core, slicc_agent):\n"
            "            migrated = True\n"
            "            break\n"
            "        msv_n = len(msv_bits)\n"
            "        msv_ones = msv._ones\n"
        )
    return out + "continue\n"


def _data() -> str:
    """The fast path of one data record, after its TLB lookup."""
    hit = (
        _lru_stamp("l1d", "set_idx", "slot")
        + "if k == 2:\n"
        + _indent(_DIR_WRITE)
        + "continue\n"
    )
    return (
        "set_idx = block & l1d_set_mask\n"
        "slot = l1d_index.get(block)\n"
        "if slot is not None:\n" + _indent(hit) + "d_m += 1\n"
        + _fill("l1d", _DIR_EVICT, "d_ev")
        + "if block in l2_seen:\n"
        "    in_l2 = True\n"
        "else:\n"
        "    l2_seen.add(block)\n"
        "    in_l2 = False\n"
        "if k == 2:\n"
        "    d_stall_cycles += d_store_l2 if in_l2 else d_store_mem\n"
        + _indent(_DIR_WRITE)
        + "else:\n"
        "    d_stall_cycles += d_load_l2 if in_l2 else d_load_mem\n"
        "    sharers = dir_sharers.get(block)\n"
        "    if sharers is None:\n"
        "        dir_sharers[block] = {core}\n"
        "    else:\n"
        "        sharers.add(core)\n"
    )


def _core_fields(s: KernelSpec) -> list[tuple[str, str]]:
    """``(local name, expression)`` of every per-core reference the
    loop reads. The prologue evaluates them once per core; each dispatch
    unpacks its core's tuple."""
    fields = [
        ("itlb", "itlb"),
        ("itlb_map", "itlb._map"),
        ("dtlb", "dtlb"),
        ("dtlb_map", "dtlb._map"),
    ]
    if s.reference:
        return fields
    for c in ("l1i", "l1d"):
        fields += [
            (f"{c}_{name}", f"{c}.{attr}")
            for name, attr in (
                ("index", "_index"),
                ("tags", "_tags"),
                ("occ", "_occ"),
                ("stats", "stats"),
                ("ages", "policy._age"),
                ("hi", "policy._hi"),
            )
        ]
    if s.slicc:
        fields += [
            ("sig_bit", "1 << core"),
            ("presence_excl", "worker_mask & ~(1 << core)"),
            ("slicc_agent", "agent"),
            ("mtq_entries", "agent.mtq._entries"),
        ]
    if s.slicc or s.steps:
        fields += [
            ("mc", "agent.mc"),
            ("msv", "agent.msv"),
            ("msv_bits", "agent.msv._bits"),
        ]
    if s.nextline:
        fields += [("pf", "pf"), ("pf_pending", "pf._pending")]
    return fields


# ----------------------------------------------------------------------
# The module
# ----------------------------------------------------------------------


class _Emitter:
    """Tiny indented-line builder for the generated module."""

    def __init__(self) -> None:
        self.lines: list[str] = []

    def emit(self, block: str, indent: int = 0) -> None:
        """Append ``block`` (written at column 0) shifted right by
        ``indent`` levels of 4 spaces."""
        self.lines += _indent(block, indent).splitlines()

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


def generate_source(spec: KernelSpec) -> str:
    """Emit the source of the kernel module for ``spec``.

    The module defines ``kernel(engine)``, which runs the engine's whole
    post-admission main loop. Deterministic: equal specs yield
    byte-identical source. Indentation levels in ``kernel``: 1 the
    prologue and the event loop, 2 one dispatch (quantum setup, flush,
    scheduling tail), 3 one record, 4 the instruction arm.
    """
    s = spec
    fast = not s.reference
    tracks = s.slicc or s.steps  # MC/MSV trackers; a miss can end a quantum
    e = _Emitter()
    e.emit(
        '"""Generated replay kernel — do not edit.\n'
        "\n"
        f"signature: {signature(spec)}\n"
        f"spec: {spec!r}\n"
        "\n"
        "Emitted by repro.sim.specialize.generate_source.\n"
        '"""\n'
        "import heapq"
    )
    if fast and s.slicc:
        e.emit("from repro.sim.engine import BYPASS_REPAIR_RATE")
    e.emit("from repro.errors import SimulationError\n\n")
    e.emit("def kernel(engine):")

    # --- prologue: everything constant for the run, bound once --------
    e.emit(
        "machine = engine.machine\n"
        "timing = engine.timing\n"
        "queues_is_empty = engine.queues.is_empty\n"
        "queues_dequeue = engine.queues.dequeue\n"
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
        "running = engine.running\n"
        "quantum = engine.config.quantum\n"
        "itlb_entries = machine.itlb[0].entries\n"
        "dtlb_entries = machine.dtlb[0].entries\n"
        "itlb_pen = timing.itlb_miss\n"
        "dtlb_pen = timing.dtlb_miss",
        1,
    )
    if s.steps:
        e.emit("steps_switch = engine._steps_switch", 1)
    if s.on_start:
        e.emit("policy_on_thread_start = engine.policy.on_thread_start", 1)
    if s.quantum_hook:
        e.emit("policy_quantum_end = engine.policy.quantum_end", 1)
    if s.reference:
        e.emit(
            "process_instruction = engine._process_instruction\n"
            "process_data = engine._process_data",
            1,
        )
    else:
        e.emit(
            "directory_on_write = machine.directory.on_write\n"
            "dir_sharers = machine.directory._sharers\n"
            "ibase = timing.ibase\n"
            "dbase = timing.dbase\n"
            "i_miss_l2 = timing.i_miss_l2\n"
            "i_miss_mem = timing.i_miss_mem\n"
            "d_load_l2 = timing.d_load_l2\n"
            "d_load_mem = timing.d_load_mem\n"
            "d_store_l2 = timing.d_store_l2\n"
            "d_store_mem = timing.d_store_mem\n"
            "l1i_set_mask = machine.l1i[0]._set_mask\n"
            "l1i_assoc = machine.l1i[0].assoc\n"
            "l1d_set_mask = machine.l1d[0]._set_mask\n"
            "l1d_assoc = machine.l1d[0].assoc\n"
            "l2_seen = machine._l2_seen",
            1,
        )
        if tracks:
            agents = "engine.agents" if s.slicc else "engine.steps_agents"
            e.emit(
                f"tracker = {agents}[0]\n"
                "mc_limit = tracker.mc.fill_up_t\n"
                "msv_window = tracker.msv.window\n"
                "msv_dilution = tracker.msv.dilution_t",
                1,
            )
        if s.slicc:
            e.emit(
                "mtq_matched = tracker.mtq.matched_t\n"
                "sig_masks = machine.signature_set.masks\n"
                "sig_imask = machine._sig_index_mask\n"
                "worker_mask = engine._worker_mask\n"
                "evaluate_migration = engine._evaluate_migration\n"
                "bypass_repair = BYPASS_REPAIR_RATE",
                1,
            )
        if s.nextline:
            e.emit("pf_late = timing.prefetch_late(True)", 1)
    fields = _core_fields(s)
    per_core = "itlb = machine.itlb[core]\ndtlb = machine.dtlb[core]\n"
    if fast:
        per_core += "l1i = machine.l1i[core]\nl1d = machine.l1d[core]\n"
    if fast and tracks:
        per_core += f"agent = {agents}[core]\n"
    if fast and s.nextline:
        per_core += "pf = engine.prefetchers[core]\n"
    per_core += (
        "hot_all.append((\n"
        + "".join(f"    {expr},\n" for _, expr in fields)
        + "))\n"
    )
    e.emit(
        "hot_all = []\n"
        "for core in range(machine.n_cores):\n" + _indent(per_core),
        1,
    )

    # --- event loop: pop the earliest core, dispatch a thread ---------
    e.emit(
        "while True:\n"
        "    if not heap:\n"
        "        if engine._arrival_ptr >= n_threads:\n"
        "            break\n"
        "        # All admitted work finished before the next arrival: jump\n"
        "        # time forward to the arrival and admit it.\n"
        "        admit_threads(max(max(clocks), arrival_time[engine._arrival_ptr]))\n"
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
        "    if running[core] is None:\n"
        "        thread_id = queues_dequeue(core)\n"
        "        if thread_id is None:\n"
        "            rebalance(clock)\n"
        "            if not queues_is_empty(core):\n"
        "                activate(core, clock)\n"
        "            continue\n"
        "        running[core] = thread_id\n"
        "        state = threads[thread_id]"
        + ("\n        policy_on_thread_start(core)" if s.on_start else "")
        + "\n"
        "        if state.pending_cycles:\n"
        "            clocks[core] += state.pending_cycles\n"
        "            state.pending_cycles = 0\n"
        "\n"
        "    thread_id = running[core]\n"
        "    state = threads[thread_id]\n"
        "    records = state.records\n"
        "    n_records = len(records)\n"
        "    pos = state.pos",
        1,
    )

    # --- quantum setup: counters batched in locals until the flush ----
    e.emit(
        f"({', '.join(name for name, _ in fields)},) = hot_all[core]\n"
        "itlb_last = -1\n"
        "dtlb_last = -1\n"
        "i_n = d_n = itlb_m = dtlb_m = tlb_cycles = 0",
        2,
    )
    if tracks:
        e.emit("migrated = False", 2)
    if s.reference:
        e.emit("cycles = 0", 2)
    else:
        e.emit("i_m = d_m = i_ev = d_ev = i_stall_cycles = d_stall_cycles = 0", 2)
        if s.slicc:
            e.emit("bypass_tick = engine._bypass_tick", 2)
        if tracks:
            e.emit("msv_n = len(msv_bits)\nmsv_ones = msv._ones", 2)
        if s.nextline:
            e.emit("pf_issued = pf_useful = i_pf = 0", 2)

    # --- the records of one quantum -----------------------------------
    e.emit(
        "end = pos + quantum\n"
        "if end > n_records:\n"
        "    end = n_records\n"
        "for block, k, page in records[pos:end]:\n"
        "    pos += 1\n"
        "    if k == 0:",  # KIND_INSTR (asserted at import)
        2,
    )
    e.emit(_tlb("i"), 4)
    if s.reference:
        if tracks:
            e.emit(
                "step, migrate_now = process_instruction(core, block)\n"
                "cycles += step\n"
                "if migrate_now:\n"
                "    migrated = True\n"
                "    break\n"
                "continue",
                4,
            )
        else:
            e.emit("cycles += process_instruction(core, block)[0]\ncontinue", 4)
        e.emit(_tlb("d"), 3)
        e.emit("cycles += process_data(core, block, k == 2)", 3)  # KIND_STORE
    else:
        e.emit(_instruction(s), 4)
        e.emit(_tlb("d"), 3)
        e.emit(_data(), 3)

    # --- quantum flush -------------------------------------------------
    e.emit("state.pos = pos", 2)
    if fast:
        if s.slicc:
            e.emit("engine._bypass_tick = bypass_tick", 2)
        if tracks:
            e.emit("msv._ones = msv_ones", 2)
        e.emit(
            "l1i_stats.accesses += i_n\n"
            "l1i_stats.misses += i_m\n"
            "l1i_stats.evictions += i_ev\n"
            "l1d_stats.accesses += d_n\n"
            "l1d_stats.misses += d_m\n"
            "l1d_stats.evictions += d_ev",
            2,
        )
        if s.nextline:
            e.emit(
                "pf.issued += pf_issued\n"
                "pf.useful += pf_useful\n"
                "l1i_stats.prefetch_fills += i_pf",
                2,
            )
    e.emit(
        "itlb.accesses += i_n\n"
        "itlb.misses += itlb_m\n"
        "dtlb.accesses += d_n\n"
        "dtlb.misses += dtlb_m\n"
        "engine.cycles_tlb += tlb_cycles",
        2,
    )
    if s.reference:
        # _process_* charged base and stall cycles to the engine totals.
        e.emit("cycles += tlb_cycles", 2)
    else:
        e.emit(
            "base_cycles = ibase * i_n + dbase * d_n\n"
            "engine.cycles_base += base_cycles\n"
            "engine.cycles_i_stall += i_stall_cycles\n"
            "engine.cycles_d_stall += d_stall_cycles\n"
            "cycles = base_cycles + tlb_cycles + i_stall_cycles + d_stall_cycles",
            2,
        )
    e.emit("clocks[core] += cycles\nengine.busy_cycles += cycles\n", 2)

    # --- scheduling tail -----------------------------------------------
    # Only STEPS stages the -1 context-switch target, and it takes
    # precedence over SLICC's evaluation in the record arms (as in the
    # reference path), so the dispatch folds on the STEPS flag.
    first = "if"
    if tracks:
        action = (
            "steps_switch(core)"
            if s.steps
            else "migrate(core, engine._pending_target)"
        )
        e.emit(f"if migrated:\n    {action}", 2)
        first = "elif"
    e.emit(f"{first} state.pos >= n_records:\n    complete(core, clocks[core])", 2)
    if s.quantum_hook:
        # Extension policies decide at quantum boundaries only.
        e.emit(
            "else:\n"
            "    target = policy_quantum_end(core)\n"
            "    if target is not None:\n"
            "        migrate(core, target)",
            2,
        )
    e.emit(
        "if running[core] is not None or not queues_is_empty(core):\n"
        "    activate(core, clocks[core])",
        2,
    )
    return e.source()


# ----------------------------------------------------------------------
# Compilation and memoisation
# ----------------------------------------------------------------------

#: Process-wide kernel memo. The Runner fills it before forking so pool
#: workers inherit compiled kernels through the forked address space.
_KERNEL_CACHE: dict[KernelSpec, Callable] = {}


def clear_cache() -> None:
    """Drop all memoised kernels (tests only)."""
    _KERNEL_CACHE.clear()


def kernel_for(spec: KernelSpec) -> Callable:
    """The compiled kernel for ``spec`` (memoised per process).

    The first compile registers the source with :mod:`linecache` under
    the kernel's filename, so tracebacks, ``pdb`` and
    :func:`inspect.getsource` show the generated lines.
    """
    fn = _KERNEL_CACHE.get(spec)
    if fn is not None:
        return fn
    import linecache

    sig = signature(spec)
    source = generate_source(spec)
    filename = f"<specialized:{sig}>"
    # An mtime of None marks the entry as not backed by a file, so
    # linecache.checkcache keeps it.
    linecache.cache[filename] = (
        len(source),
        None,
        source.splitlines(keepends=True),
        filename,
    )
    namespace: dict = {"__name__": f"repro_specialized_{sig}"}
    exec(compile(source, filename, "exec"), namespace)
    fn = _KERNEL_CACHE[spec] = namespace["kernel"]
    return fn
