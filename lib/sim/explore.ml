open Wfc_spec
open Wfc_program

type options = { dedup : bool; por : bool; symmetry : bool }

let naive = { dedup = false; por = false; symmetry = false }
let fast = { dedup = true; por = true; symmetry = true }

type partial_reason =
  | Budget_exhausted
  | Deadline_exceeded
  | Stopped
  | Interrupted
  | Probabilistic

type completeness = Exhaustive | Partial of partial_reason

let pp_partial_reason ppf = function
  | Budget_exhausted -> Fmt.string ppf "node budget exhausted"
  | Deadline_exceeded -> Fmt.string ppf "deadline exceeded"
  | Stopped -> Fmt.string ppf "stopped by on_leaf"
  | Interrupted -> Fmt.string ppf "interrupted"
  | Probabilistic ->
    Fmt.string ppf "probabilistic dedup (memory budget forced the Bloom tier)"

let pp_completeness ppf = function
  | Exhaustive -> Fmt.string ppf "exhaustive"
  | Partial r -> Fmt.pf ppf "partial (%a)" pp_partial_reason r

type stats = {
  leaves : int;
  nodes : int;
  max_events : int;
  max_op_steps : int;
  max_accesses : int array;
  overflows : int;
  pruned : int;
  sleep_skips : int;
  evictions : int;
  spilled : int;
  completeness : completeness;
  overflow_trace : Faults.trace option;
}

let default_fuel = 10_000

let to_exec_stats s =
  {
    Exec.leaves = s.leaves;
    nodes = s.nodes;
    max_events = s.max_events;
    max_op_steps = s.max_op_steps;
    max_accesses = s.max_accesses;
    overflows = s.overflows;
  }

(* --- path trackers ----------------------------------------------------------

   A tracker threads caller state down the tree, advanced at every edge that
   completes an operation or crashes/wedges a process. The state is
   persistent, so sibling subtrees share the value computed along their
   common prefix — this is what the incremental linearizability engine fuses
   into. Trackers observe completion order and pending sets, never raw
   timestamps; see the .mli for why that makes POR sound here. *)

type path_event =
  | Op_completed of { op : Exec.op; pending : (int * Value.t) list }
  | Proc_crashed of int
  | Proc_wedged of int

type 'a tracker = {
  root : 'a;
  event : 'a -> trace_rev:Faults.trace -> path_event -> 'a;
  at_leaf : 'a -> trace_rev:Faults.trace -> Exec.leaf -> unit;
  fingerprint : ('a -> Value.t) option;
}

(* run is monomorphic in its result, so the caller's state type is hidden
   behind an existential and the engine below is written once, generically. *)
type etracker = Tracker : 'a tracker -> etracker

let null_tracker =
  {
    root = ();
    event = (fun () ~trace_rev:_ _ -> ());
    at_leaf = (fun () ~trace_rev:_ _ -> ());
    fingerprint = Some (fun () -> Value.unit);
  }

(* --- process-symmetry reduction ---------------------------------------------

   Two configurations that differ only by a permutation π of interchangeable
   processes have π-isomorphic subtrees: every schedule of one is a schedule
   of the other with pids renamed, and every verdict predicate we run
   (agreement, validity, wait-freedom fuel, per-object access bounds) is
   invariant under renaming processes *within a class of equal inputs*. So
   instead of exploring both, we canonicalize the dedup KEY — never the
   configuration itself — by sorting the per-process fingerprint components
   within each class under a fixed total order. Exploration always proceeds
   on real configurations, so traces, witnesses and leaves are reported in
   un-permuted pids; symmetry only makes the dedup table coarser, which
   composes with sleep sets exactly like plain dedup does (the sleep bits
   are canonicalized along with the process components).

   Interchangeability is DECLARED ([Implementation.symmetric] promises the
   program text never inspects [proc]) and then narrowed here: every base
   spec must be port-oblivious, and only processes with equal workloads and
   equal initial local states fall in one class. Trackers thread caller
   state whose pid-equivariance we cannot see, so a user tracker disables
   the reduction (the engine falls back to exact, pid-ordered keys). *)

module Symmetry = struct
  (* [classes.(p)] is the smallest pid interchangeable with [p]; a process
     in no nontrivial class is its own representative. *)
  type t = { classes : int array }

  let classes g = g.classes

  let group_order g =
    let n = Array.length g.classes in
    let size = Array.make n 0 in
    Array.iter (fun r -> size.(r) <- size.(r) + 1) g.classes;
    let fact k =
      let rec go acc i = if i <= 1 then acc else go (acc * i) (i - 1) in
      go 1 k
    in
    Array.fold_left (fun acc s -> if s > 1 then acc * fact s else acc) 1 size

  let of_impl (impl : Implementation.t) ~(workloads : Value.t list array) =
    if not impl.Implementation.symmetric then None
    else if
      Array.exists
        (fun (spec, _) -> not spec.Type_spec.oblivious)
        impl.Implementation.objects
    then None
    else begin
      let n = Array.length workloads in
      let classes = Array.init n Fun.id in
      for p = 1 to n - 1 do
        let rec find q =
          if q >= p then p
          else if
            classes.(q) = q
            && List.equal Value.equal workloads.(q) workloads.(p)
            && Value.equal
                 (impl.Implementation.local_init q)
                 (impl.Implementation.local_init p)
          then q
          else find (q + 1)
        in
        classes.(p) <- find 0
      done;
      let nontrivial = ref false in
      Array.iteri (fun p r -> if r <> p then nontrivial := true) classes;
      if !nontrivial then Some { classes } else None
    end
end

(* --- duplicate-state fingerprints ---------------------------------------------

   The dedup key deliberately drops the timing fields ([started],
   [start_step]/[end_step]) so that interleavings converging to the same
   configuration merge; it keeps everything a timing-insensitive leaf
   predicate can observe: object states, per-process control (operations
   issued, the pending continuation, local state), completed operations'
   results and step counts, the fault bookkeeping (crashed/stuck flags,
   remaining budgets, staleness histories), and the event/access totals
   (which also makes fuel and max-accesses accounting exact — states at
   different depths never merge). The active sleep set is part of the key:
   combining sleep sets with state caching is only sound when a cached state
   was explored under the same (or smaller) sleep set, and keying on the
   exact set is the simple sound choice.

   Per process the key holds five ints: [next_op], the pending-chain cell,
   the local-state cell, the completed-operations cell, and the
   crashed/stuck/sleep bits packed together. Each is kept up to date along
   tree edges in O(1), from cells the edge already holds, and restored from
   the frame's saved copies when it backtracks:

   - The todo suffix is not in the key: it is always the suffix of the
     process's workload after [next_op], minus the head while an operation
     is pending (a recovery puts the head back and clears the pending
     operation). Processes compared under symmetry have equal workloads.

   - The pending operation ⟨inv0, op_index, responses so far⟩ is a chain:
     its root is [pair inv0 op_index] (interned when the operation's first
     access is taken), and each access conses its response cell — straight
     from the [Step_table] row, or the interned glitch response — onto it
     with one [pair]. A root's second component is an int cell, a link's is
     a pair cell, so no link equals any root. No operation pending is the
     unit cell. The continuation is a closure, but programs are
     deterministic functions of (proc, invocation, local-at-invocation), so
     the chain pins it exactly. (A glitched response enters the chain like
     an honest one: the continuation depends on what the program saw, not on
     whether the object really said it.)

   - The local state is re-interned only when an edge changes it
     physically.

   - A process's completed operations form a chain of [pair ⟨pair resp
     steps⟩ rest], extended by one link when an edge retires an operation.
     A process retires its operations in workload order, so a link's
     position fixes its op_index and invocation. Completed operations
     therefore enter the key per ⟨proc, op_index⟩, not in completion order:
     schedules that completed the same operations with the same values
     merge even when they retired them in a different order — completion
     order is already outside the engine's soundness envelope.

   Interning hits allocate nothing ({!Value.Intern}), so neither does this
   upkeep, except for the cells a first visit creates. Per-process
   components exclude the pid itself (the position in the key carries it;
   under symmetry, the canonical position). *)

module I = Value.Intern

let fp_op_cell ist ~resp ~steps =
  I.pair ist (I.intern ist resp) (I.int ist steps)

let fp_pend_root ist ~inv0 ~op_index =
  I.pair ist (I.intern ist inv0) (I.int ist op_index)

let fp_hist_cell ist h = I.intern ist (Value.List h)

(* --- graceful degradation ----------------------------------------------------

   [budget] (configurations visited) and [deadline] (absolute wall clock)
   cut the whole exploration rather than a single path: an exceeded limit
   raises [Cut], records why, and the final stats carry
   [completeness = Partial _] — "not falsified within budget" instead of a
   verdict. *)

exception Cut

type limiter = {
  budget : int Atomic.t option;  (* remaining visits *)
  deadline : float option;  (* absolute, Monotime scale *)
  interrupt : bool Atomic.t option;  (* e.g. set by a SIGINT handler *)
  tripped : partial_reason option Atomic.t;
  active : bool;
}

let make_limiter ?budget ?deadline_s ?interrupt () =
  let budget = Option.map Atomic.make budget in
  let deadline = Option.map (fun s -> Monotime.now () +. s) deadline_s in
  {
    budget;
    deadline;
    interrupt;
    tripped = Atomic.make None;
    active =
      Option.is_some budget || Option.is_some deadline
      || Option.is_some interrupt;
  }

let trip lim reason =
  ignore (Atomic.compare_and_set lim.tripped None (Some reason))

let check_limits lim =
  (match lim.interrupt with
  | Some flag when Atomic.get flag ->
    trip lim Interrupted;
    raise Cut
  | _ -> ());
  (match lim.deadline with
  | Some t when Monotime.now () > t ->
    trip lim Deadline_exceeded;
    raise Cut
  | _ -> ());
  match lim.budget with
  | Some b ->
    if Atomic.fetch_and_add b (-1) <= 0 then begin
      trip lim Budget_exhausted;
      raise Cut
    end
  | None -> ()

(* --- the engine -------------------------------------------------------------- *)

type counters = {
  mutable leaves : int;
  mutable nodes : int;
  mutable max_events : int;
  mutable max_op_steps : int;
  max_accesses : int array;
  mutable overflows : int;
  mutable pruned : int;
  mutable sleep_skips : int;
  mutable degraded : int;
      (* passed through from a resumed checkpoint's counts to the next
         checkpoint; this engine never adds to it *)
  mutable evictions : int;
  mutable spilled : int;
  mutable probabilistic : bool;
  mutable overflow_trace : Faults.trace option;
}

let fresh_counters n_objs =
  {
    leaves = 0;
    nodes = 0;
    max_events = 0;
    max_op_steps = 0;
    max_accesses = Array.make n_objs 0;
    overflows = 0;
    pruned = 0;
    sleep_skips = 0;
    degraded = 0;
    evictions = 0;
    spilled = 0;
    probabilistic = false;
    overflow_trace = None;
  }

(* Stitch in the accumulated counts of previously checkpointed segments, so
   the stats (and completeness) a resumed run reports cover the whole search,
   not just the last segment. *)
let add_counts (a : counters) (k : Checkpoint.counts) =
  a.leaves <- a.leaves + k.Checkpoint.leaves;
  a.nodes <- a.nodes + k.nodes;
  if k.max_events > a.max_events then a.max_events <- k.max_events;
  if k.max_op_steps > a.max_op_steps then a.max_op_steps <- k.max_op_steps;
  Array.iteri
    (fun i v ->
      if i < Array.length a.max_accesses && v > a.max_accesses.(i) then
        a.max_accesses.(i) <- v)
    k.max_accesses;
  a.overflows <- a.overflows + k.overflows;
  a.pruned <- a.pruned + k.pruned;
  a.sleep_skips <- a.sleep_skips + k.sleep_skips;
  a.degraded <- a.degraded + k.degraded;
  a.evictions <- a.evictions + k.evictions;
  a.spilled <- a.spilled + k.spilled;
  a.probabilistic <- a.probabilistic || k.probabilistic

let counts_of_counters (c : counters) =
  {
    Checkpoint.leaves = c.leaves;
    nodes = c.nodes;
    max_events = c.max_events;
    max_op_steps = c.max_op_steps;
    max_accesses = Array.copy c.max_accesses;
    overflows = c.overflows;
    pruned = c.pruned;
    sleep_skips = c.sleep_skips;
    degraded = c.degraded;
    evictions = c.evictions;
    spilled = c.spilled;
    probabilistic = c.probabilistic;
  }

let engine_of_options (o : options) =
  {
    Checkpoint.dedup = o.dedup;
    por = o.por;
    symmetry = o.symmetry;
  }

let options_of_engine (e : Checkpoint.engine) =
  {
    dedup = e.Checkpoint.dedup;
    por = e.Checkpoint.por;
    symmetry = e.Checkpoint.symmetry;
  }

(* --- flat fingerprint encoding -----------------------------------------------

   The hot-path representation of a dedup key: a fixed-size scratch
   [int array] of interned-cell ids and raw scalars, hashed into a ⟨hi, lo⟩
   124-bit {!Wfc_spec.Fingerprint} and probed in an open-addressing table —
   no boxed key is allocated, no hashtable bucket or list cell is built, no
   structural equality is ever walked, and nothing is added to the intern
   state per probe.

   Layout:

     per object   : [obj_cell; hist_cell; acc]                   (3·n_objs)
     per process  : [next_op; pend_cell; local_cell; ops_cell; flags]
                                                                 (5·n_procs)
     scalars      : [events; crashes_left; recoveries_left; glitches_left]
     tracker      : [tracker cell id, or -1]

   where [flags] packs the crashed, stuck and sleep bits. Every per-process
   component has a FIXED width of five ints, so symmetry canonicalization
   is an in-place insertion sort of five-int records within each class
   segment — no allocation there either. Cell ids are unique within the
   owning intern state, so two encodings are equal iff the configurations
   agree on every component above (up to 124-bit fingerprint collisions,
   which hash compaction treats as negligible). *)

let rec_width = 5

type flat_ctx = {
  ist : I.state;
  buf : int array;  (* the scratch encoding; length fixed per run *)
  tmp : int array;  (* one record, for the insertion sort *)
  mutable table : Fingerprint.Table.t option;  (* exact tier *)
  mutable bloom : Fingerprint.Bloom.t option;  (* probabilistic tier *)
}

(* One spare exact-tier table per domain. A run that completes hands its
   table back, cleared, and the next run starts from it instead of a fresh
   allocation: a verification is a long stream of small runs (one per input
   vector), whose tables and their growth copies would otherwise all be
   major-heap garbage. Tables above [spare_max_words] are dropped instead,
   so clearing stays cheap and little memory stays pinned. *)
let spare_table : Fingerprint.Table.t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let spare_max_words = 1 lsl 17

let take_table () =
  let spare = Domain.DLS.get spare_table in
  match !spare with
  | Some t ->
    spare := None;
    t
  | None -> Fingerprint.Table.create ()

let give_back_table t =
  if Fingerprint.Table.size_words t <= spare_max_words then begin
    Fingerprint.Table.clear t;
    Domain.DLS.get spare_table := Some t
  end

let flat_create ~ist ~n_objs ~n_procs ~tier2 ~bloom_bits_log2 () =
  {
    ist;
    buf = Array.make ((3 * n_objs) + (rec_width * n_procs) + 5) 0;
    tmp = Array.make rec_width 0;
    table = (if tier2 then None else Some (take_table ()));
    bloom =
      (if tier2 then Some (Fingerprint.Bloom.create ~bits_log2:bloom_bits_log2 ())
       else None);
  }

(* Is the record in [tmp] lexicographically below the one at [k]? *)
let rec tmp_below tmp buf k i =
  i < rec_width
  &&
  let a = Array.unsafe_get tmp i and b = Array.unsafe_get buf (k + i) in
  a < b || (a = b && tmp_below tmp buf k (i + 1))

(* Sort the records in slots [lo, hi) of [buf] (slot [s] starts at
   [base + rec_width*s]) lexicographically, in place. Class segments are
   tiny (≤ n_procs), so insertion sort wins. *)
let sort_records buf tmp ~base ~lo ~hi =
  for i = lo + 1 to hi - 1 do
    Array.blit buf (base + (rec_width * i)) tmp 0 rec_width;
    let j = ref (i - 1) in
    while !j >= lo && tmp_below tmp buf (base + (rec_width * !j)) 0 do
      Array.blit buf (base + (rec_width * !j)) buf
        (base + (rec_width * (!j + 1)))
        rec_width;
      decr j
    done;
    Array.blit tmp 0 buf (base + (rec_width * (!j + 1))) rec_width
  done

(* Write process [p]'s record into [slot]. *)
let put_record buf ~base slot p ~next_op ~pend_cells ~local_cells ~ops_cells
    ~crashed ~stuck ~sleep =
  let k = base + (rec_width * slot) in
  Array.unsafe_set buf k (Array.unsafe_get next_op p);
  Array.unsafe_set buf (k + 1) (I.id (Array.unsafe_get pend_cells p));
  Array.unsafe_set buf (k + 2) (I.id (Array.unsafe_get local_cells p));
  Array.unsafe_set buf (k + 3) (I.id (Array.unsafe_get ops_cells p));
  Array.unsafe_set buf (k + 4)
    ((((crashed lsr p) land 1) lsl 2)
    lor (((stuck lsr p) land 1) lsl 1)
    lor ((sleep lsr p) land 1))

(* Fill the scratch buffer from the kernel's cell/scalar components and
   return the encoding's length. Zero allocation. [crashed], [stuck] and
   [sleep] are per-process bitmasks. *)
let encode_flat fx ~obj_cells ~hist_cells ~acc ~next_op ~pend_cells
    ~local_cells ~ops_cells ~crashed ~stuck ~events ~crashes_left
    ~recoveries_left ~glitches_left ~sleep ~classes ~tracker_id =
  let buf = fx.buf in
  let n_objs = Array.length obj_cells in
  let nprocs = Array.length next_op in
  for o = 0 to n_objs - 1 do
    buf.(3 * o) <- I.id obj_cells.(o);
    buf.((3 * o) + 1) <- I.id hist_cells.(o);
    buf.((3 * o) + 2) <- acc.(o)
  done;
  let base = 3 * n_objs in
  (match classes with
  | None ->
    for p = 0 to nprocs - 1 do
      put_record buf ~base p p ~next_op ~pend_cells ~local_cells ~ops_cells
        ~crashed ~stuck ~sleep
    done
  | Some rep ->
    (* Emit each class's members contiguously at the representative's
       position and canonicalize by sorting the segment — any fixed total
       order on the record multiset yields a canonical sequence. *)
    let slot = ref 0 in
    for p = 0 to nprocs - 1 do
      if rep.(p) = p then begin
        let seg = !slot in
        for q = p to nprocs - 1 do
          if rep.(q) = p then begin
            put_record buf ~base !slot q ~next_op ~pend_cells ~local_cells
              ~ops_cells ~crashed ~stuck ~sleep;
            incr slot
          end
        done;
        if !slot - seg > 1 then
          sort_records buf fx.tmp ~base ~lo:seg ~hi:!slot
      end
    done);
  let j = base + (rec_width * nprocs) in
  buf.(j) <- events;
  buf.(j + 1) <- crashes_left;
  buf.(j + 2) <- recoveries_left;
  buf.(j + 3) <- glitches_left;
  buf.(j + 4) <- tracker_id;
  j + 5

(* Exact tier while it exists, Bloom tier after the watchdog demoted it. *)
let flat_mem_or_add fx ~len =
  let hi = Fingerprint.hash_hi fx.buf ~len
  and lo = Fingerprint.hash_lo fx.buf ~len in
  match (fx.table, fx.bloom) with
  | Some tbl, _ -> Fingerprint.Table.mem_or_add tbl ~hi ~lo
  | None, Some bl -> Fingerprint.Bloom.mem_or_add bl ~hi ~lo
  | None, None -> false

(* Per-run duplicate-state machinery. The table is allocated lazily, only
   once the run has visited [threshold] nodes: on trees smaller than that it
   can never pay for its own allocation, let alone the per-node
   fingerprinting. States visited before activation are simply never
   cached, which is sound (pruning only ever happens on a hit). *)
type dedup_ctx = {
  threshold : int;
  bloom_bits_log2 : int;
  classes : int array option;  (* symmetry classes, if active *)
  mutable table : flat_ctx option;
  mutable tier2 : bool;
      (* the memory watchdog demoted the table to the Bloom tier — dedup
         answers become probabilistic instead of vanishing *)
}

let stats_of c ~lim =
  {
    leaves = c.leaves;
    nodes = c.nodes;
    max_events = c.max_events;
    max_op_steps = c.max_op_steps;
    max_accesses = c.max_accesses;
    overflows = c.overflows;
    pruned = c.pruned;
    sleep_skips = c.sleep_skips;
    evictions = c.evictions;
    spilled = c.spilled;
    completeness =
      (* An explicit cut (budget, deadline, interrupt, stop) takes priority:
         those runs can be resumed. A run that merely passed through the
         Bloom tier finished — but its clean sweep is only probabilistic. *)
      (match Atomic.get lim.tripped with
      | Some reason -> Partial reason
      | None -> if c.probabilistic then Partial Probabilistic else Exhaustive);
    overflow_trace = c.overflow_trace;
  }

(* --- memory watchdog ---------------------------------------------------------

   Long exhaustive runs die of dedup tables, not of the DFS stack: the
   table grows with the number of distinct states. When the major heap
   crosses the budget, the run demotes its table to the constant-memory
   Bloom tier instead of OOMing. *)

let mem_sample ~budget_words c (dd : dedup_ctx option) =
  match dd with
  | Some dd
    when (not dd.tier2) && (Gc.quick_stat ()).Gc.heap_words > budget_words
    -> (
    (* Migrate the exact table's fingerprints into a constant-memory Bloom
       filter and free the table. Dedup answers become probabilistic from
       here on — the run's completeness is downgraded, never its
       falsifications. Once on tier 2 there is nothing left to shed: the
       Bloom is constant-size. *)
    dd.tier2 <- true;
    c.evictions <- c.evictions + 1;
    c.probabilistic <- true;
    match dd.table with
    | Some fx when fx.bloom = None ->
      let bl = Fingerprint.Bloom.create ~bits_log2:dd.bloom_bits_log2 () in
      (match fx.table with
      | Some tbl ->
        Fingerprint.Table.iter
          (fun ~hi ~lo -> ignore (Fingerprint.Bloom.mem_or_add bl ~hi ~lo))
          tbl
      | None -> ());
      fx.table <- None;
      fx.bloom <- Some bl
    | _ -> ()
    (* table not yet allocated: it will start on the Bloom tier *))
  | _ -> ()

(* Calibrated from the same BENCH_explore.json family: the sequential engine
   visits a node in ~1 µs without dedup, while allocating a dedup table plus
   fingerprinting every node costs tens of µs up front — on the 15-node
   E3-sticky3-tree that overhead was 40x the naive walk. Well under 64 nodes
   a table can never win; well over, a single pruned subtree pays for it. *)
let default_dedup_threshold = 64

(* --- the compiled kernel -----------------------------------------------------

   The one engine behind every run: naive or reduced, fault-free or under a
   fault adversary, direct or in frontier mode (checkpointed, resumed or
   spilled). With all reductions and faults off it is bit-for-bit
   {!Exec.explore}. Three things make it fast, none of them changing which
   tree is walked:

   - Transitions come from [Step_table] rows — per (interned state, port,
     invocation) lists compiled by running the interpreted spec once — so the
     hot path never re-applies spec closures, and every successor state and
     response it hands out is the canonical representative of a per-domain
     intern state that persists across runs. Program continuations advance
     through [Program.step]'s per-node memo keyed on those (physically
     stable) canonical responses, so a program closure also runs at most once
     per (node, response).

   - There is one mutable configuration. Each edge saves the handful of
     slots it is about to clobber in locals of the recursive step function,
     mutates in place, recurses, and restores — the OCaml call stack is the
     undo journal, so an edge allocates no configuration at all.

   - Duplicate-state fingerprints are [encode_flat] over the engine's own
     cell arrays. Below the activation threshold no cell is ever built; at
     activation the cells are rebuilt from scratch and maintained
     incrementally from there on. A frame that entered before activation has
     no cell saves, so when it backtracks it marks the cache invalid and the
     next probe rebuilds — a bounded number of O(state) rebuilds, paid only
     around the activation frontier.

   Fault branching adds children after each process's steps: its glitches
   (degraded reads, see {!Faults.glitch_responses}), then its crash; after
   all processes come the recoveries. When the adversary can derail a
   program ([Faults.can_derail]), a step whose alternatives raise
   [Bad_step]/[Type_error] becomes a single [Wedge] child instead; every
   alternative is evaluated before the first is entered, so a wedge never
   follows a partial fan-out.

   Frontier mode drives the same kernel over ⟨decision-trace prefix, sleep
   set⟩ items. A walk first replays its prefix through the kernel's own
   edges — counting nothing, probing nothing — and then either explores the
   subtree below it or, when expanding the frontier, visits only the item's
   own node and records its children instead of entering them. *)

(* Per-depth classification scratch as parallel arrays, pooled so the hot
   path never allocates a classification: [ck] is 0 for a program that
   returns without any base access, 1 for a base access continuing a pending
   operation, 2 for a base access starting a fresh one. *)
type cls = {
  ck : int array;
  cnode : (Value.t * Value.t) Program.t array;
  crow : Step_table.row array;
  cobj : int array;
}

let dummy_node : (Value.t * Value.t) Program.t =
  Program.Return (Value.unit, Value.unit)

let dummy_row : Step_table.row =
  {
    Step_table.alts = [];
    cells = [||];
    packed = [||];
    n_alts = 0;
    det = false;
    pure_read = false;
  }

let fresh_cls n_procs =
  {
    ck = Array.make n_procs 0;
    cnode = Array.make n_procs dummy_node;
    crow = Array.make n_procs dummy_row;
    cobj = Array.make n_procs 0;
  }

(* The kernel's mutable configuration as parallel arrays, pooled across runs
   (sizes are fixed per implementation): a run borrows the pool,
   re-initializes the slots the root defines, and returns it on normal
   completion. Reentrancy (a leaf callback starting another exploration of
   the same implementation) and abandoned runs (an exception unwinding past
   the borrow) simply find the pool empty and allocate fresh. Crash and
   wedge flags are bitmasks in locals of the run, not pooled. *)
type mut_state = {
  ms_objs : Value.t array;
  ms_obj_cells : I.cell array;
  ms_acc : int array;
  ms_hist : Value.t list array;
      (* per object: its overwritten states, newest first *)
  ms_todo : Value.t list array;
  ms_next_op : int array;
  ms_local : Value.t array;
  ms_haspend : bool array;
  ms_inv0 : Value.t array;
  ms_opidx : int array;
  ms_started : int array;
  ms_steps : int array;
  ms_resps : Value.t list array;
  ms_node : (Value.t * Value.t) Program.t array;
  ms_pend_cells : I.cell array;
  ms_local_cells : I.cell array;
  ms_ops_cells : I.cell array;
  ms_hist_cells : I.cell array;
  mutable ms_cls : cls array;
      (* per-depth classification scratch; entries are only ever read for
         processes classified at the current node, so stale slots from a
         previous node at the same depth are never observed *)
}

(* Per-domain, per-implementation persistent compilation state: the intern
   state, the transition tables keyed on it, the port map, and the program
   memos all survive across runs — a verify invocation that explores many
   workloads of one implementation compiles each row and program node once.
   Keyed on physical identity of the implementation record; a tiny LRU keeps
   unrelated implementations (e.g. property-test streams) from pinning each
   other's tables. *)
type compiled_ctx = {
  cc_impl : Implementation.t;
  cc_ist : I.state;
  cc_tables : Step_table.t array;  (* per base object, sharing [cc_ist] *)
  cc_ports : int array array;  (* [p].(obj): cached port_map, min_int = unset *)
  cc_topmemo : (Value.t * Value.t * (Value.t * Value.t) Program.t) list array;
      (* per proc: (inv, local at invocation) → program top node. Programs
         are deterministic functions of exactly that triple — the same
         contract the fingerprint already leans on — so memoizing is
         invisible. *)
  cc_rootcells : I.cell array;  (* snd impl.objects, interned *)
  cc_decisions : Faults.decision array array;
      (* [p].(i), i < 8: preallocated step-decision records so trace conses
         don't allocate a fresh record and [Step] block per edge *)
  mutable cc_pool : mut_state option;
}

let compiled_cache : compiled_ctx list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let compiled_ctx_of impl =
  let cache = Domain.DLS.get compiled_cache in
  match List.find_opt (fun cc -> cc.cc_impl == impl) !cache with
  | Some cc -> cc
  | None ->
    let ist = I.create () in
    let n_procs = impl.Implementation.procs in
    let n_objs = Array.length impl.Implementation.objects in
    let cc =
      {
        cc_impl = impl;
        cc_ist = ist;
        cc_tables =
          Array.map
            (fun (spec, _) -> Step_table.create ~ist spec)
            impl.Implementation.objects;
        cc_ports = Array.init n_procs (fun _ -> Array.make n_objs min_int);
        cc_topmemo = Array.make n_procs [];
        cc_rootcells =
          Array.map
            (fun (_, q0) -> I.intern ist q0)
            impl.Implementation.objects;
        cc_decisions =
          Array.init n_procs (fun p ->
              Array.init 8 (fun i -> { Faults.proc = p; kind = Faults.Step i }));
        cc_pool = None;
      }
    in
    cache := cc :: List.filteri (fun i _ -> i < 3) !cache;
    cc

let fresh_mut_state ~n_objs ~n_procs ~unit_cell ~empty_hist =
  {
    ms_objs = Array.make n_objs Value.unit;
    ms_obj_cells = Array.make n_objs unit_cell;
    ms_acc = Array.make n_objs 0;
    ms_hist = Array.make n_objs [];
    ms_todo = Array.make n_procs [];
    ms_next_op = Array.make n_procs 0;
    ms_local = Array.make n_procs Value.unit;
    ms_haspend = Array.make n_procs false;
    ms_inv0 = Array.make n_procs Value.unit;
    ms_opidx = Array.make n_procs 0;
    ms_started = Array.make n_procs 0;
    ms_steps = Array.make n_procs 0;
    ms_resps = Array.make n_procs [];
    ms_node = Array.make n_procs (Program.Return (Value.unit, Value.unit));
    ms_pend_cells = Array.make n_procs unit_cell;
    ms_local_cells = Array.make n_procs unit_cell;
    ms_ops_cells = Array.make n_procs unit_cell;
    ms_hist_cells = Array.make n_objs empty_hist;
    ms_cls = [||];
  }

(* Lazy: [port_map] is only contractually total on the (proc, obj) pairs the
   programs actually reach, so it is consulted only where a step needs it. *)
let port_of cc p obj =
  let v = cc.cc_ports.(p).(obj) in
  if v <> min_int then v
  else begin
    let v = cc.cc_impl.Implementation.port_map ~proc:p ~obj in
    cc.cc_ports.(p).(obj) <- v;
    v
  end

(* The memo scan, top-level so that a hit allocates nothing. *)
let rec find_top ~inv ~local = function
  | [] -> raise_notrace Not_found
  | (i, l, n) :: rest ->
    if (i == inv || Value.equal i inv) && (l == local || Value.equal l local)
    then n
    else find_top ~inv ~local rest

let top_node cc p ~inv ~local =
  match find_top ~inv ~local cc.cc_topmemo.(p) with
  | n -> n
  | exception Not_found ->
    let n = cc.cc_impl.Implementation.program ~proc:p ~inv local in
    cc.cc_topmemo.(p) <- (inv, local, n) :: cc.cc_topmemo.(p);
    n

(* A frontier prefix that does not lead anywhere in this tree. *)
exception Replay_error of string

type walker = {
  walk : Faults.trace -> sleep:int -> cut:int -> (Faults.trace * int) list;
      (** [walk prefix ~sleep ~cut] replays [prefix], then visits the node it
          reaches under sleep set [sleep]. Nodes at depth [cut] (in events
          from the root) are not visited but returned, with their sleep sets,
          in visit order: [cut = max_int] explores the whole subtree,
          [List.length prefix + 1] expands one level, and
          [List.length prefix] only checks that the prefix replays. Raises
          [Replay_error] on a prefix that does not replay. *)
  release : unit -> unit;
      (** return the mutable configuration and the dedup table to their
          pools (normal completion only) *)
}

(* Every index the kernel's hot frames use is established by a loop bound
   ([0 .. n_procs-1]), by the pool-growth check in [cls_at], or by the
   bounds-checked [cc_tables.(obj)] load in [classify_into] (which validates
   a program node's object index before any unchecked use), so the kernel
   reads and writes arrays unchecked. *)
let kernel impl ~workloads ~faults ~(opts : options) ~fuel
    ~(dd : dedup_ctx option) ~lim ~t ~user_tracker ~want_leaf c ~emit_leaf
    ~memcheck =
  let cc = compiled_ctx_of impl in
  let ist = cc.cc_ist in
  let n_objs = Array.length impl.Implementation.objects in
  let n_procs = impl.Implementation.procs in
  let unit_cell = I.unit ist in
  let empty_hist = fp_hist_cell ist [] in
  let ms =
    match cc.cc_pool with
    | Some ms ->
      cc.cc_pool <- None;
      ms
    | None -> fresh_mut_state ~n_objs ~n_procs ~unit_cell ~empty_hist
  in
  let objs = ms.ms_objs
  and obj_cells = ms.ms_obj_cells
  and acc = ms.ms_acc
  and hist = ms.ms_hist
  and todo = ms.ms_todo
  and next_op = ms.ms_next_op
  and local = ms.ms_local
  and haspend = ms.ms_haspend
  and p_inv0 = ms.ms_inv0
  and p_opidx = ms.ms_opidx
  and p_started = ms.ms_started
  and p_steps = ms.ms_steps
  and p_resps = ms.ms_resps
  and p_node = ms.ms_node in
  (* The root configuration (no process has a pending operation, so the p_*
     pending slots may keep stale dummies). *)
  for o = 0 to n_objs - 1 do
    let qc = cc.cc_rootcells.(o) in
    obj_cells.(o) <- qc;
    objs.(o) <- I.value qc;
    acc.(o) <- 0;
    hist.(o) <- []
  done;
  for p = 0 to n_procs - 1 do
    todo.(p) <- workloads.(p);
    next_op.(p) <- 0;
    local.(p) <- impl.Implementation.local_init p;
    haspend.(p) <- false
  done;
  let events = ref 0 in
  let ops_rev = ref [] in
  (* Fault state: flag bitmasks and remaining budgets. Staleness histories
     are kept only for [Stale_reads] objects of a live adversary — an
     adversary with no fault branching at all ([Faults.is_none]) can never
     spend them. *)
  let crashed = ref 0 and stuck = ref 0 in
  let crashes_left = ref faults.Faults.max_crashes in
  let recoveries_left = ref faults.Faults.max_recoveries in
  let glitches_left = ref faults.Faults.max_glitches in
  let derail = Faults.can_derail faults in
  let degradation = Array.init n_objs (Faults.degradation_of faults) in
  let hist_depth =
    Array.init n_objs (fun o ->
        if Faults.is_none faults then 0 else Faults.stale_depth faults o)
  in
  (* Fingerprint cells over the mutable state. [obj_cells] is maintained
     unconditionally — successor cells come for free out of the transition
     rows and double as the table keys. The per-proc and history cells only
     exist once the dedup tables activate ([cells_valid]); a frame decides
     at entry whether it maintains them ([track] below) and a non-tracking
     backtrack invalidates the cache for the next probe to rebuild. *)
  let hist_cells = ms.ms_hist_cells in
  let pend_cells = ms.ms_pend_cells in
  let local_cells = ms.ms_local_cells in
  let ops_cells = ms.ms_ops_cells in
  let cells_valid = ref false in
  let cls_at depth =
    let pool = ms.ms_cls in
    if depth < Array.length pool then Array.unsafe_get pool depth
    else begin
      let len = Array.length pool in
      let pool' =
        Array.init
          (max (depth + 1) (max 8 (2 * len)))
          (fun i -> if i < len then pool.(i) else fresh_cls n_procs)
      in
      ms.ms_cls <- pool';
      pool'.(depth)
    end
  in
  let dec p i =
    if i < 8 then Array.unsafe_get (Array.unsafe_get cc.cc_decisions p) i
    else { Faults.proc = p; kind = Faults.Step i }
  in
  let rebuild_cells () =
    for p = 0 to n_procs - 1 do
      local_cells.(p) <- I.intern ist local.(p);
      pend_cells.(p) <-
        (if haspend.(p) then
           List.fold_right
             (fun r chain -> I.pair ist (I.intern ist r) chain)
             p_resps.(p)
             (fp_pend_root ist ~inv0:p_inv0.(p) ~op_index:p_opidx.(p))
         else unit_cell);
      ops_cells.(p) <- unit_cell
    done;
    List.iter
      (fun (o : Exec.op) ->
        ops_cells.(o.proc) <-
          I.pair ist (fp_op_cell ist ~resp:o.resp ~steps:o.steps)
            ops_cells.(o.proc))
      (List.rev !ops_rev);
    for o = 0 to n_objs - 1 do
      hist_cells.(o) <- fp_hist_cell ist hist.(o)
    done;
    cells_valid := true
  in
  (* One integer compare per node stands in for the full dedup-activation
     test: [probe] is only entered once [c.nodes] reaches the floor, and the
     floor tracks activation state (threshold while the table is pending, 0
     once it exists, max_int when dedup is off). *)
  let probe_floor =
    ref
      (match dd with
      | None -> max_int
      | Some dd -> if Option.is_some dd.table then 0 else dd.threshold)
  in
  let probe sleep st =
    match dd with
    | None -> false
    | Some dd ->
      probe_floor := 0;
      let fx =
        match dd.table with
        | Some fx -> fx
        | None ->
          let fx =
            flat_create ~ist ~n_objs ~n_procs ~tier2:dd.tier2
              ~bloom_bits_log2:dd.bloom_bits_log2 ()
          in
          dd.table <- Some fx;
          fx
      in
      if not !cells_valid then rebuild_cells ();
      let tracker_id =
        match t.fingerprint with
        | Some fp -> I.id (I.intern ist (fp st))
        | None -> -1
      in
      let len =
        encode_flat fx ~obj_cells ~hist_cells ~acc ~next_op ~pend_cells
          ~local_cells ~ops_cells ~crashed:!crashed ~stuck:!stuck
          ~events:!events ~crashes_left:!crashes_left
          ~recoveries_left:!recoveries_left ~glitches_left:!glitches_left
          ~sleep ~classes:dd.classes ~tracker_id
      in
      flat_mem_or_add fx ~len
  in
  (* The ⟨proc, target-level invocation⟩ of every live pending operation:
     invoked, not yet returned, process neither crashed nor stuck. Only these
     attempts can still complete as-is (a recovery restarts the operation with
     a fresh invocation), which is what a tracker's early-linearization
     reasoning depends on. *)
  let live_pending () =
    let off = !crashed lor !stuck in
    let out = ref [] in
    for p = n_procs - 1 downto 0 do
      if haspend.(p) && off land (1 lsl p) = 0 then
        out := (p, p_inv0.(p)) :: !out
    done;
    !out
  in
  let has_work p =
    Array.unsafe_get haspend p
    || match Array.unsafe_get todo p with [] -> false | _ :: _ -> true
  in
  (* The program node [p] is poised at: its pending continuation, or the
     top of its next operation. *)
  let poised p =
    if Array.unsafe_get haspend p then Array.unsafe_get p_node p
    else
      match Array.unsafe_get todo p with
      | [] -> assert false
      | inv :: _ -> top_node cc p ~inv ~local:(Array.unsafe_get local p)
  in
  let classify_into cl p =
    let fresh = not (Array.unsafe_get haspend p) in
    let node = poised p in
    match node with
    | Program.Return _ ->
      Array.unsafe_set cl.ck p 0;
      Array.unsafe_set cl.cnode p node
    | Program.Invoke { obj; inv; _ } ->
      (* bounds-checked on purpose: validates [obj] for the whole frame *)
      let row =
        Step_table.row_cells cc.cc_tables.(obj)
          (Array.unsafe_get obj_cells obj)
          ~port:(port_of cc p obj) ~inv
      in
      Array.unsafe_set cl.ck p (if fresh then 2 else 1);
      Array.unsafe_set cl.cnode p node;
      Array.unsafe_set cl.crow p row;
      Array.unsafe_set cl.cobj p obj
  in
  let disabled p obj inv =
    let spec, _ = impl.Implementation.objects.(obj) in
    Type_spec.Bad_step
      (Fmt.str "proc %d: invocation %a disabled on object %d (%s) in state %a"
         p Value.pp inv obj spec.Type_spec.name Value.pp objs.(obj))
  in
  (* Classify [p] and evaluate every alternative's continuation, so a step
     that cannot be taken raises here, before any child is entered. *)
  let classify_all cl p =
    classify_into cl p;
    if Array.unsafe_get cl.ck p > 0 then begin
      let node = Array.unsafe_get cl.cnode p in
      let row = Array.unsafe_get cl.crow p in
      (match node with
      | Program.Invoke { inv; _ } when row.Step_table.n_alts = 0 ->
        raise (disabled p (Array.unsafe_get cl.cobj p) inv)
      | _ -> ());
      for j = 0 to row.Step_table.n_alts - 1 do
        ignore (Program.step node (I.value row.Step_table.cells.((2 * j) + 1)))
      done
    end
  in
  (* The glitched response cells [p]'s poised access may receive, paired
     with the object and the continuation each leads to; responses the
     program cannot decode ([Type_error]) are dropped, so indices count
     survivors only. *)
  let glitch_alts p =
    if !glitches_left <= 0 || not (has_work p) then []
    else
      match poised p with
      | Program.Return _ -> []
      | Program.Invoke { obj; inv; _ } as node -> (
        match degradation.(obj) with
        | None -> []
        | Some d ->
          let port = port_of cc p obj in
          let alts_at qc =
            try (Step_table.row_cells cc.cc_tables.(obj) qc ~port ~inv).alts
            with Type_spec.Bad_step _ -> []
          in
          Faults.glitch_responses
            ~alts:(alts_at obj_cells.(obj))
            ~alts_at:(fun qs -> alts_at (I.intern ist qs))
            ~q:objs.(obj) ~hist:hist.(obj) d
          |> List.filter_map (fun r ->
                 let rc = I.intern ist r in
                 match Program.step node (I.value rc) with
                 | next -> Some (obj, rc, next)
                 | exception Value.Type_error _ -> None))
  in
  let independent cl p q =
    Array.unsafe_get cl.ck p > 0
    && Array.unsafe_get cl.ck q > 0
    &&
    let rp = Array.unsafe_get cl.crow p and rq = Array.unsafe_get cl.crow q in
    rp.Step_table.det && rq.Step_table.det
    && (Array.unsafe_get cl.cobj p <> Array.unsafe_get cl.cobj q
       || (rp.Step_table.pure_read && rq.Step_table.pure_read))
  in
  (* Walk state: the prefix still to replay, the sleep set its last node
     gets, the depth at which nodes are recorded instead of visited, and the
     recorded ⟨trace_rev, sleep⟩ pairs, newest first. *)
  let path = ref [] and target_sleep = ref 0 in
  let cut_depth = ref max_int and recorded = ref [] in
  (* [cl_par]/[dirty]: the parent frame's classifications and a bitmask of
     processes whose classification may have changed across the parent's
     step. A step by [p] invalidates [p] itself plus (for a base access on
     [obj]) every process whose classified access targets [obj] — all other
     classifications depend only on untouched per-process state and
     untouched objects, so the POR prepass copies them instead of
     re-resolving rows. Root, non-POR and fault frames pass [-1] (all
     dirty). *)
  let rec go cl_par dirty sleep trace_rev st =
    match !path with
    | d :: rest -> replay d rest trace_rev st
    | [] ->
      if !events >= !cut_depth then recorded := (trace_rev, sleep) :: !recorded
      else visit cl_par dirty sleep trace_rev st
  and visit cl_par dirty sleep trace_rev st =
    (* a frontier expansion samples memory after the item, not before *)
    if !cut_depth = max_int then memcheck ();
    let live = ref 0 in
    for p = n_procs - 1 downto 0 do
      if has_work p then live := !live lor (1 lsl p)
    done;
    let live = !live in
    let mask = live land lnot (!crashed lor !stuck) in
    let recs =
      if !recoveries_left > 0 then live land !crashed land lnot !stuck else 0
    in
    if lim.active then check_limits lim;
    if mask = 0 then begin
      c.leaves <- c.leaves + 1;
      if !events > c.max_events then c.max_events <- !events;
      List.iter
        (fun (o : Exec.op) ->
          if o.steps > c.max_op_steps then c.max_op_steps <- o.steps)
        !ops_rev;
      Array.iteri
        (fun i a -> if a > c.max_accesses.(i) then c.max_accesses.(i) <- a)
        acc;
      if want_leaf then
        emit_leaf trace_rev
          {
            Exec.objects = Array.copy objs;
            locals = Array.copy local;
            ops = List.rev !ops_rev;
            events = !events;
            accesses = Array.copy acc;
          }
          st
    end;
    (* a node with no enabled process is a leaf even when recoveries remain *)
    if mask <> 0 || recs <> 0 then
      if !events >= fuel then begin
        if mask <> 0 then begin
          c.overflows <- c.overflows + 1;
          if c.overflow_trace = None then
            c.overflow_trace <- Some (List.rev trace_rev)
        end
      end
      else if c.nodes >= !probe_floor && probe sleep st then
        c.pruned <- c.pruned + 1
      else expand cl_par dirty mask recs sleep trace_rev st
  and expand cl_par dirty mask recs sleep trace_rev st =
    (* Under POR every runnable process is classified up front (the
       independence relation needs all of them); without POR each process is
       classified right before expansion. *)
    let cl = cls_at !events in
    if opts.por then
      for p = 0 to n_procs - 1 do
        if mask land (1 lsl p) <> 0 then
          if dirty land (1 lsl p) <> 0 then classify_into cl p
          else begin
            Array.unsafe_set cl.ck p (Array.unsafe_get cl_par.ck p);
            Array.unsafe_set cl.cnode p (Array.unsafe_get cl_par.cnode p);
            Array.unsafe_set cl.crow p (Array.unsafe_get cl_par.crow p);
            Array.unsafe_set cl.cobj p (Array.unsafe_get cl_par.cobj p)
          end
      done;
    let explored = ref 0 in
    for p = 0 to n_procs - 1 do
      if mask land (1 lsl p) <> 0 then begin
        if sleep land (1 lsl p) <> 0 then c.sleep_skips <- c.sleep_skips + 1
        else begin
          let child_sleep =
            if not opts.por then 0
            else begin
              let earlier = sleep lor !explored in
              let s = ref 0 in
              for q = 0 to n_procs - 1 do
                if
                  q <> p
                  && mask land (1 lsl q) <> 0
                  && earlier land (1 lsl q) <> 0
                  && independent cl p q
                then s := !s lor (1 lsl q)
              done;
              !s
            end
          in
          (if not derail then begin
             if not opts.por then classify_into cl p;
             steps p cl mask child_sleep trace_rev st
           end
           else
             match classify_all cl p with
             | () -> steps p cl mask child_sleep trace_rev st
             | exception (Type_spec.Bad_step _ | Value.Type_error _) ->
               c.nodes <- c.nodes + 1;
               wedge_child p cl trace_rev st);
          if !glitches_left > 0 then
            List.iteri
              (fun i (obj, rc, next) ->
                c.nodes <- c.nodes + 1;
                acc_child p cl (-1) (not haspend.(p)) obj obj_cells.(obj) next
                  rc
                  { Faults.proc = p; kind = Faults.Glitch i }
                  1 0 trace_rev st)
              (glitch_alts p);
          if !crashes_left > 0 then begin
            c.nodes <- c.nodes + 1;
            crash_child p cl trace_rev st
          end;
          explored := !explored lor (1 lsl p)
        end
      end
    done;
    if recs <> 0 then
      for p = 0 to n_procs - 1 do
        if recs land (1 lsl p) <> 0 then begin
          c.nodes <- c.nodes + 1;
          recover_child p cl trace_rev st
        end
      done
  (* The step children of classified process [p]. *)
  and steps p cl mask child_sleep trace_rev st =
    match Array.unsafe_get cl.ck p with
    | 0 ->
      c.nodes <- c.nodes + 1;
      ret_child p cl
        (if opts.por then 1 lsl p else -1)
        (Array.unsafe_get cl.cnode p)
        child_sleep trace_rev st
    | k ->
      let node = Array.unsafe_get cl.cnode p in
      let row = Array.unsafe_get cl.crow p in
      let obj = Array.unsafe_get cl.cobj p in
      let child_dirty =
        if not opts.por then -1
        else begin
          let d = ref (1 lsl p) in
          for q = 0 to n_procs - 1 do
            if
              mask land (1 lsl q) <> 0
              && Array.unsafe_get cl.ck q > 0
              && Array.unsafe_get cl.cobj q = obj
            then d := !d lor (1 lsl q)
          done;
          !d
        end
      in
      let n_alts = row.Step_table.n_alts in
      if n_alts = 0 then begin
        match node with
        | Program.Invoke { inv; _ } -> raise (disabled p obj inv)
        | Program.Return _ -> assert false
      end;
      let cells = row.Step_table.cells in
      for j = 0 to n_alts - 1 do
        c.nodes <- c.nodes + 1;
        let rc = Array.unsafe_get cells ((2 * j) + 1) in
        acc_child p cl child_dirty (k = 2) obj
          (Array.unsafe_get cells (2 * j))
          (Program.step node (I.value rc))
          rc (dec p j) 0 child_sleep trace_rev st
      done
  (* A fresh operation whose program returns without touching a base object:
     one completion child, no object mutation. *)
  and ret_child p cl child_dirty node child_sleep trace_rev st =
    match node with
    | Program.Invoke _ -> assert false
    | Program.Return (resp, local') ->
      let tr = dec p 0 :: trace_rev in
      let s_todo = Array.unsafe_get todo p in
      let s_nextop = Array.unsafe_get next_op p
      and s_local = Array.unsafe_get local p in
      let s_ops = !ops_rev in
      let s_opsc = Array.unsafe_get ops_cells p
      and s_lc = Array.unsafe_get local_cells p in
      let track = !cells_valid in
      let inv0, todo' =
        match s_todo with inv :: tl -> (inv, tl) | [] -> assert false
      in
      let op =
        {
          Exec.proc = p;
          op_index = s_nextop;
          inv = inv0;
          resp;
          start_step = !events;
          end_step = !events;
          steps = 0;
        }
      in
      ops_rev := op :: s_ops;
      Array.unsafe_set todo p todo';
      Array.unsafe_set next_op p (s_nextop + 1);
      Array.unsafe_set local p local';
      if track then begin
        Array.unsafe_set ops_cells p
          (I.pair ist (fp_op_cell ist ~resp ~steps:0) s_opsc);
        if local' != s_local then
          Array.unsafe_set local_cells p (I.intern ist local')
      end;
      incr events;
      let st' =
        if user_tracker then
          t.event st ~trace_rev:tr
            (Op_completed { op; pending = live_pending () })
        else st
      in
      go cl child_dirty child_sleep tr st';
      decr events;
      ops_rev := s_ops;
      Array.unsafe_set todo p s_todo;
      Array.unsafe_set next_op p s_nextop;
      Array.unsafe_set local p s_local;
      if track then begin
        Array.unsafe_set ops_cells p s_opsc;
        Array.unsafe_set local_cells p s_lc
      end
      else cells_valid := false
  (* One base access by [p] on [obj] along decision [d]: the object moves to
     cell [qc] (a glitch passes the current cell — degraded reads never
     mutate), the program to [next] on response cell [rc], and [gl] glitches
     are spent; recurse, restore. *)
  and acc_child p cl child_dirty fresh obj qc next rc d gl child_sleep
      trace_rev st =
    let tr = d :: trace_rev in
    let resp = I.value rc in
    let s_q = Array.unsafe_get objs obj
    and s_qc = Array.unsafe_get obj_cells obj in
    let s_hist = Array.unsafe_get hist obj
    and s_hc = Array.unsafe_get hist_cells obj in
    let s_todo = Array.unsafe_get todo p in
    let s_nextop = Array.unsafe_get next_op p
    and s_local = Array.unsafe_get local p in
    let s_haspend = Array.unsafe_get haspend p
    and s_inv0 = Array.unsafe_get p_inv0 p in
    let s_opidx = Array.unsafe_get p_opidx p
    and s_started = Array.unsafe_get p_started p in
    let s_steps = Array.unsafe_get p_steps p
    and s_resps = Array.unsafe_get p_resps p in
    let s_node = Array.unsafe_get p_node p in
    let s_ops = !ops_rev in
    let s_opsc = Array.unsafe_get ops_cells p
    and s_pendc = Array.unsafe_get pend_cells p
    and s_lc = Array.unsafe_get local_cells p in
    let track = !cells_valid in
    let inv0 =
      if fresh then match s_todo with inv :: _ -> inv | [] -> assert false
      else s_inv0
    in
    let op_index = if fresh then s_nextop else s_opidx in
    let started = if fresh then !events else s_started in
    let steps_done = if fresh then 0 else s_steps in
    let resps_rev = if fresh then [] else s_resps in
    if qc != s_qc then begin
      Array.unsafe_set objs obj (I.value qc);
      Array.unsafe_set obj_cells obj qc;
      let depth = Array.unsafe_get hist_depth obj in
      if depth > 0 then begin
        let h = List.filteri (fun i _ -> i < depth) (s_q :: s_hist) in
        Array.unsafe_set hist obj h;
        if track then Array.unsafe_set hist_cells obj (fp_hist_cell ist h)
      end
    end;
    Array.unsafe_set acc obj (Array.unsafe_get acc obj + 1);
    glitches_left := !glitches_left - gl;
    if fresh then
      Array.unsafe_set todo p
        (match s_todo with _ :: tl -> tl | [] -> assert false);
    let completed =
      match next with
      | Program.Return (res, local') ->
        let op =
          {
            Exec.proc = p;
            op_index;
            inv = inv0;
            resp = res;
            start_step = started;
            end_step = !events;
            steps = steps_done + 1;
          }
        in
        ops_rev := op :: s_ops;
        Array.unsafe_set haspend p false;
        Array.unsafe_set next_op p (op_index + 1);
        Array.unsafe_set local p local';
        if track then begin
          Array.unsafe_set ops_cells p
            (I.pair ist (fp_op_cell ist ~resp:res ~steps:(steps_done + 1))
               s_opsc);
          Array.unsafe_set pend_cells p unit_cell;
          if local' != s_local then
            Array.unsafe_set local_cells p (I.intern ist local')
        end;
        Some op
      | Program.Invoke _ ->
        Array.unsafe_set haspend p true;
        Array.unsafe_set p_inv0 p inv0;
        Array.unsafe_set p_opidx p op_index;
        Array.unsafe_set p_started p started;
        Array.unsafe_set p_steps p (steps_done + 1);
        Array.unsafe_set p_resps p (resp :: resps_rev);
        Array.unsafe_set p_node p next;
        if track then
          Array.unsafe_set pend_cells p
            (I.pair ist rc
               (if fresh then fp_pend_root ist ~inv0 ~op_index else s_pendc));
        None
    in
    incr events;
    let st' =
      match completed with
      | Some op when user_tracker ->
        t.event st ~trace_rev:tr
          (Op_completed { op; pending = live_pending () })
      | _ -> st
    in
    go cl child_dirty child_sleep tr st';
    decr events;
    Array.unsafe_set objs obj s_q;
    Array.unsafe_set obj_cells obj s_qc;
    Array.unsafe_set hist obj s_hist;
    Array.unsafe_set hist_cells obj s_hc;
    Array.unsafe_set acc obj (Array.unsafe_get acc obj - 1);
    glitches_left := !glitches_left + gl;
    Array.unsafe_set todo p s_todo;
    Array.unsafe_set next_op p s_nextop;
    Array.unsafe_set local p s_local;
    Array.unsafe_set haspend p s_haspend;
    Array.unsafe_set p_inv0 p s_inv0;
    Array.unsafe_set p_opidx p s_opidx;
    Array.unsafe_set p_started p s_started;
    Array.unsafe_set p_steps p s_steps;
    Array.unsafe_set p_resps p s_resps;
    Array.unsafe_set p_node p s_node;
    ops_rev := s_ops;
    if track then begin
      Array.unsafe_set ops_cells p s_opsc;
      Array.unsafe_set pend_cells p s_pendc;
      Array.unsafe_set local_cells p s_lc
    end
    else cells_valid := false
  (* [p] halts mid-operation; its pending attempt stays pending. *)
  and crash_child p cl trace_rev st =
    let tr = { Faults.proc = p; kind = Faults.Crash } :: trace_rev in
    crashed := !crashed lor (1 lsl p);
    decr crashes_left;
    incr events;
    let st' =
      if user_tracker then t.event st ~trace_rev:tr (Proc_crashed p) else st
    in
    go cl (-1) 0 tr st';
    decr events;
    incr crashes_left;
    crashed := !crashed land lnot (1 lsl p)
  (* [p] stepped off its envelope and is stuck forever. *)
  and wedge_child p cl trace_rev st =
    let tr = { Faults.proc = p; kind = Faults.Wedge } :: trace_rev in
    stuck := !stuck lor (1 lsl p);
    incr events;
    let st' =
      if user_tracker then t.event st ~trace_rev:tr (Proc_wedged p) else st
    in
    go cl (-1) 0 tr st';
    decr events;
    stuck := !stuck land lnot (1 lsl p)
  (* A crashed [p] comes back and restarts its interrupted operation from
     scratch, against whatever state the objects are in now. *)
  and recover_child p cl trace_rev st =
    let tr = { Faults.proc = p; kind = Faults.Recover } :: trace_rev in
    let s_todo = todo.(p) and s_haspend = haspend.(p) in
    let s_pendc = pend_cells.(p) in
    let track = !cells_valid in
    crashed := !crashed land lnot (1 lsl p);
    decr recoveries_left;
    incr events;
    if s_haspend then begin
      todo.(p) <- p_inv0.(p) :: s_todo;
      haspend.(p) <- false;
      if track then pend_cells.(p) <- unit_cell
    end;
    go cl (-1) 0 tr st;
    decr events;
    incr recoveries_left;
    crashed := !crashed lor (1 lsl p);
    todo.(p) <- s_todo;
    haspend.(p) <- s_haspend;
    if track then pend_cells.(p) <- s_pendc
    else if s_haspend then cells_valid := false
  (* Follow decision [d] of the prefix being replayed through the same edges
     the search takes, without counting or probing anything. *)
  and replay d rest trace_rev st =
    path := rest;
    let fail fmt = Fmt.kstr (fun s -> raise (Replay_error s)) fmt in
    let p = d.Faults.proc in
    if p < 0 || p >= n_procs then fail "replay: no process p%d" p;
    let sleep = match rest with [] -> !target_sleep | _ :: _ -> 0 in
    let cl = cls_at !events in
    match d.Faults.kind with
    | Faults.Step i -> (
      if not (has_work p) then
        fail "replay: p%d has no step alternative %d" p i;
      (match classify_all cl p with
      | () -> ()
      | exception (Type_spec.Bad_step _ | Value.Type_error _) ->
        fail "replay: p%d cannot step" p);
      match cl.ck.(p) with
      | 0 ->
        if i <> 0 then fail "replay: p%d has no step alternative %d" p i;
        ret_child p cl (-1) cl.cnode.(p) sleep trace_rev st
      | k ->
        let row = cl.crow.(p) in
        if i < 0 || i >= row.Step_table.n_alts then
          fail "replay: p%d has no step alternative %d" p i;
        let rc = row.Step_table.cells.((2 * i) + 1) in
        acc_child p cl (-1) (k = 2) cl.cobj.(p)
          row.Step_table.cells.(2 * i)
          (Program.step cl.cnode.(p) (I.value rc))
          rc d 0 sleep trace_rev st)
    | Faults.Glitch i -> (
      match List.nth_opt (glitch_alts p) i with
      | Some (obj, rc, next) ->
        acc_child p cl (-1) (not haspend.(p)) obj obj_cells.(obj) next rc d 1
          sleep trace_rev st
      | None -> fail "replay: p%d has no glitch alternative %d" p i)
    | Faults.Crash ->
      if
        !crashes_left > 0 && has_work p
        && (!crashed lor !stuck) land (1 lsl p) = 0
      then crash_child p cl trace_rev st
      else fail "replay: p%d cannot crash here" p
    | Faults.Recover ->
      if
        !recoveries_left > 0 && has_work p
        && !crashed land (1 lsl p) <> 0
        && !stuck land (1 lsl p) = 0
      then recover_child p cl trace_rev st
      else fail "replay: p%d cannot recover here" p
    | Faults.Wedge -> wedge_child p cl trace_rev st
  in
  let walk prefix ~sleep ~cut =
    path := prefix;
    target_sleep := sleep;
    cut_depth := cut;
    recorded := [];
    go (cls_at 0) (-1) (match prefix with [] -> sleep | _ :: _ -> 0) [] t.root;
    cut_depth := max_int;
    let r = !recorded in
    recorded := [];
    List.rev_map (fun (tr, s) -> (List.rev tr, s)) r
  in
  let release () =
    cc.cc_pool <- Some ms;
    match dd with
    | Some { table = Some ({ table = Some tbl; _ } as fx); _ } ->
      fx.table <- None;
      give_back_table tbl
    | _ -> ()
  in
  { walk; release }

(* Physically recognizable defaults: when the caller supplied no leaf
   consumer (and no tracker), the kernel can skip materializing leaf records
   entirely. *)
let no_on_leaf (_ : Exec.leaf) = ()
let no_on_leaf_trace (_ : Faults.trace) (_ : Exec.leaf) = ()

let run impl ~workloads ?(fuel = default_fuel) ?(faults = Faults.none)
    ?budget ?deadline_s ?(options = naive)
    ?(dedup_threshold = default_dedup_threshold)
    ?(bloom_bits_log2 = Fingerprint.Bloom.default_bits_log2) ?tracker
    ?(on_leaf = no_on_leaf) ?(on_leaf_trace = no_on_leaf_trace)
    ?checkpoint ?(checkpoint_meta = []) ?resume_from ?interrupt ?mem_budget_mb
    () =
  if Array.length workloads <> impl.Implementation.procs then
    invalid_arg "Explore: workloads length must equal impl.procs";
  let user_tracker = Option.is_some tracker in
  let ckpt_armed = Option.is_some checkpoint || Option.is_some resume_from in
  if user_tracker && ckpt_armed then
    invalid_arg
      "Explore.run: checkpointing does not compose with a user tracker \
       (tracker state cannot be serialized)";
  let (Tracker t) =
    match tracker with Some t -> Tracker t | None -> Tracker null_tracker
  in
  (match resume_from with
  | Some ck -> (
    match
      Checkpoint.describe_mismatch ck ~engine:(engine_of_options options)
        ~fuel ~faults ~workloads
    with
    | Some reason -> invalid_arg ("Explore.run: cannot resume: " ^ reason)
    | None -> ())
  | None -> ());
  (* Sleep sets reason about base accesses only; crashes, recoveries and
     glitches are distinct transitions of the same process that they would
     wrongly put to sleep, so POR is disabled whenever fault branching is
     on. Duplicate-state pruning is sound under a tracker only when the
     tracker state is part of the key, so dedup requires a fingerprint. *)
  let opts =
    {
      options with
      por = options.por && Faults.is_none faults;
      dedup = options.dedup && Option.is_some t.fingerprint;
    }
  in
  (* Symmetry narrows further: the implementation must declare its program
     process-oblivious, every base spec must be port-oblivious, and a user
     tracker disables the reduction outright — tracker state is caller
     -defined and we cannot check it is invariant under pid permutation, so
     the sound composition with trackers is exact pid-ordered keys. *)
  let classes =
    if opts.dedup && opts.symmetry && not user_tracker then
      Option.map Symmetry.classes (Symmetry.of_impl impl ~workloads)
    else None
  in
  let dd =
    if opts.dedup then
      Some
        {
          threshold = dedup_threshold;
          bloom_bits_log2;
          classes;
          table = None;
          tier2 = false;
        }
    else None
  in
  let lim = make_limiter ?budget ?deadline_s ?interrupt () in
  let c = fresh_counters (Array.length impl.Implementation.objects) in
  let budget_words =
    Option.map (fun mb -> mb * 1024 * 1024 / (Sys.word_size / 8)) mem_budget_mb
  in
  (* Cheap per-node hook: a real sample only every 1024 nodes. *)
  let memcheck () =
    match budget_words with
    | Some budget_words when c.nodes land 1023 = 0 ->
      mem_sample ~budget_words c dd
    | _ -> ()
  in
  let emit_leaf trace_rev leaf st =
    on_leaf leaf;
    on_leaf_trace (List.rev trace_rev) leaf;
    t.at_leaf st ~trace_rev leaf
  in
  let want_leaf =
    user_tracker || on_leaf != no_on_leaf || on_leaf_trace != no_on_leaf_trace
  in
  let k =
    kernel impl ~workloads ~faults ~opts ~fuel ~dd ~lim ~t ~user_tracker
      ~want_leaf c ~emit_leaf ~memcheck
  in
  if not ckpt_armed then begin
    (match k.walk [] ~sleep:0 ~cut:max_int with
    | _ -> k.release ()
    | exception Exec.Stop -> trip lim Stopped
    | exception Cut -> ());
    stats_of c ~lim
  end
  else begin
    (* Frontier mode — any checkpointed or resumed run (a checkpoint needs an
       explicit frontier of pending subtrees to serialize; a resume starts
       from one). Expand the top of the tree breadth-first until the
       frontier is wide enough, then drain frontier subtrees in order.
       Leaves met during expansion are processed inline. An item is a
       decision-trace prefix plus the sleep set its node is explored
       under. *)
    let roots =
      match resume_from with
      | None -> [ ([], 0) ]
      | Some ck ->
        (* Sleep sets are not serialized; resumed roots restart with an
           empty one, which is sound (sleep only ever skips). Every prefix
           is checked to replay before any is explored. *)
        List.map
          (fun trace ->
            match k.walk trace ~sleep:0 ~cut:(List.length trace) with
            | _ -> (trace, 0)
            | exception Replay_error e ->
              invalid_arg ("Explore.run: cannot resume: " ^ e))
          ck.Checkpoint.frontier
    in
    (match resume_from with
    | Some ck -> add_counts c ck.Checkpoint.counts
    | None -> ());
    let sink = checkpoint in
    let last_save = ref (Monotime.now ()) in
    let saved_any = ref false in
    let save_ck remaining =
      match sink with
      | None -> ()
      | Some (path, _) ->
        let ck =
          Checkpoint.make ~meta:checkpoint_meta
            ~engine:(engine_of_options options) ~fuel
            ?budget_left:(Option.map (fun b -> max 0 (Atomic.get b)) lim.budget)
            ~faults ~workloads ~counts:(counts_of_counters c)
            ~frontier:remaining ()
        in
        Checkpoint.save ck ~path;
        saved_any := true;
        last_save := Monotime.now ()
    in
    let maybe_save remaining =
      match sink with
      | Some (_, interval) when Monotime.now () -. !last_save >= interval ->
        save_ck (remaining ())
      | _ -> ()
    in
    (* The frontier is the unit of checkpoint progress, so finer granularity
       means a resumed segment can finish items (and shrink the checkpoint)
       sooner. When a memory budget is armed, expand wider still: everything
       beyond a small in-RAM window is spilled to disk below, so a wide
       frontier costs a few text lines in a temp file, not heap — and gives
       the watchdogged run fine-grained work units. *)
    let spill_armed = Option.is_some mem_budget_mb in
    let target = if spill_armed then 256 else 16 in
    let cut = ref false in
    let pending_expansion = ref None in
    let frontier = ref roots in
    (try
       let level = ref 0 in
       while !level < 8 && List.length !frontier < target && !frontier <> [] do
         incr level;
         let next = ref [] in
         let rest = ref !frontier in
         while !rest <> [] do
           let ((trace, sleep) as item) = List.hd !rest in
           rest := List.tl !rest;
           (match k.walk trace ~sleep ~cut:(List.length trace + 1) with
           | kids -> next := List.rev_append kids !next
           | exception e ->
             (* Keep the in-flight item whole in the checkpoint — its
                partial children would otherwise be explored twice on
                resume. Children of items already finished this level
                stay. *)
             pending_expansion := Some ((item :: !rest) @ !next);
             raise e);
           memcheck ()
         done;
         frontier := List.rev !next
       done
     with
    | Exec.Stop ->
      trip lim Stopped;
      cut := true
    | Cut -> cut := true);
    if !cut then begin
      (match !pending_expansion with
      | Some items -> save_ck (List.map fst items)
      | None -> save_ck (List.map fst !frontier));
      stats_of c ~lim
    end
    else begin
      let work = Array.of_list !frontier in
      let n_items = Array.length work in
      (* Two-tier frontier: items beyond a small in-RAM window are demoted
         to their decision-trace prefix in a disk spill file — exactly the
         representation checkpoints use — and their sleep set is dropped.
         Taking a demoted item re-reads the line; sleep sets restart empty,
         which is sound. Only armed together with the memory watchdog. *)
      let spill_window = 16 in
      let spill =
        if spill_armed && n_items > spill_window then Some (Frontier.create ())
        else None
      in
      let spill_handle = Array.make (max 1 n_items) None in
      (match spill with
      | Some sp ->
        for i = spill_window to n_items - 1 do
          spill_handle.(i) <- Some (Frontier.append sp (fst work.(i)));
          work.(i) <- ([], 0)
        done;
        c.spilled <- c.spilled + Frontier.spilled sp
      | None -> ());
      let item i =
        match spill_handle.(i) with
        | None -> work.(i)
        | Some (off, len) -> (
          match Frontier.read (Option.get spill) ~off ~len with
          | Ok trace -> (trace, 0)
          | Error e -> failwith ("Explore: frontier spill: " ^ e))
      in
      (* Items before [drained] are finished; a checkpoint holds the rest. *)
      let drained = ref 0 in
      let remaining_traces () =
        List.init (n_items - !drained) (fun j -> fst (item (!drained + j)))
      in
      (try
         while !drained < n_items do
           let trace, sleep = item !drained in
           (match k.walk trace ~sleep ~cut:max_int with
           | _ -> ()
           | exception Replay_error e ->
             failwith ("Explore: frontier spill: " ^ e));
           incr drained;
           maybe_save remaining_traces
         done;
         k.release ()
       with
      | Exec.Stop ->
        trip lim Stopped;
        cut := true
      | Cut -> cut := true);
      (* A run that completes exhaustively needs no checkpoint; only refresh
         the file (to an empty frontier) if interval saves already wrote a
         now-stale one. *)
      if !cut then save_ck (remaining_traces ())
      else if !saved_any then save_ck [];
      Option.iter Frontier.close spill;
      stats_of c ~lim
    end
  end
