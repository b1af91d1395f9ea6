(* The three workloads: runs users launch, driven through the libraries'
   public entry points.

   Each workload is a closed loop with one caller: [setup] builds what a
   pass needs (timed as set-up), [run] issues the pass's jobs back to back
   and waits for each verdict, [teardown] releases what set-up acquired.
   Every job is checked against its known answer (expected.txt).

   With a span recorder in the context the same pass is traced: every call
   into a layer's public function is wrapped in a span, and where a layer
   hides its inner loop (Check.verify) the pass drives that loop itself
   through the layer's exported building blocks, so each layer's share
   becomes visible. [probe] holds traced-only attribution work that the
   untraced pass does not do; it runs outside the timed pass. *)

open Wfc_spec
open Wfc_zoo
open Wfc_consensus
open Wfc_core
module Explore = Wfc_sim.Explore
module Faults = Wfc_sim.Faults
module Witness = Wfc_sim.Witness
module Checkpoint = Wfc_sim.Checkpoint
module Engine = Wfc_linearize.Engine
module Local = Wfc_fleet.Local
module Coordinator = Wfc_fleet.Coordinator
module Worker = Wfc_fleet.Worker

type outcome = { job : string; error : string option }

type ctx = {
  trace : Spans.t option;
  reference : (string, Check.verdict) Hashtbl.t;
      (** untraced [Check.verify] verdicts by job, for the traced pass's
          parity checks *)
}

type env = {
  run : unit -> outcome list;
  probe : unit -> outcome list;
  teardown : unit -> unit;
}

type t = {
  name : string;
  why : string;
  seed_effect : string;
  setup : seed:int -> ctx -> env;
}

(* Files the runs leave behind (fleet sockets, shard scratch files, span
   dumps) go here, relative to the directory the benchmark runs in. *)
let out_dir = ".e2ebench"

let rec mkdir_p d =
  if not (Sys.file_exists d) then (
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755)

(* Create [out_dir] and point temporary files (the fleet's shard
   checkpoints) into it, for this process and the workers it forks. *)
let prepare_out_dir () =
  let tmp = Filename.concat out_dir "tmp" in
  mkdir_p tmp;
  Filename.set_temp_dir_name (Filename.concat (Sys.getcwd ()) tmp)

let now = Wfc_sim.Monotime.now
let ( let* ) = Result.bind

let span ctx name f =
  match ctx.trace with None -> f () | Some t -> Spans.with_span t name f

let count ctx name v =
  Option.iter (fun t -> Spans.count t name (float_of_int v)) ctx.trace

let sample ctx name v = Option.iter (fun t -> Spans.sample t name v) ctx.trace

let guard job f =
  match f () with
  | Ok () -> { job; error = None }
  | Error e -> { job; error = Some e }
  | exception e -> { job; error = Some (job ^ ": " ^ Printexc.to_string e) }

let ok_exn what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)

let kind = function
  | Check.Verified _ -> "verified"
  | Check.Falsified _ -> "falsified"
  | Check.Unknown _ -> "unknown"

(* --- known answers ------------------------------------------------------- *)

(* A falsified verdict counts only with evidence: the witness must replay to
   a leaf the consensus predicate rejects. *)
let replay_rejected ctx impl (w : Witness.t) =
  let* leaf = span ctx "sim.Witness.replay" (fun () -> Witness.replay impl w) in
  let inputs = Check.inputs_of_workloads w.Witness.workloads in
  match Check.check_leaf ~inputs leaf with
  | Error _ -> Ok ()
  | Ok () -> Error "witness replays to a leaf the consensus check accepts"

let check_verdict ctx ~job ?(extra = []) impl verdict =
  let* e = Expected.find job in
  match (e.Expected.verdict, verdict) with
  | "verified", Check.Verified r ->
    Expected.check_fields job e (("vectors", r.Check.vectors) :: extra)
  | "falsified", Check.Falsified { witness = Some w; _ } ->
    let* () = Expected.check_fields job e extra in
    replay_rejected ctx impl w
  | "falsified", Check.Falsified { witness = None; _ } ->
    Error (job ^ ": falsified without a witness")
  | want, v ->
    Error (Printf.sprintf "%s: verdict %s, expected %s" job (kind v) want)

(* --- Check.verify, untraced or decomposed -------------------------------- *)

exception Bad_leaf of Witness.t

type search =
  | Clean of { vectors : int; leaves : int; max_events : int }
  | Bad of Witness.t

(* Check.verify's per-vector loop spelled out through public entry points:
   the job enumeration, one Explore.run per vector on the default engine,
   and a timed Check.check_leaf inside the leaf callback. *)
let decompose ctx ~faults impl =
  let vectors =
    span ctx "consensus.Check.vectors" (fun () -> Check.vectors impl)
  in
  let leaves = ref 0 and max_events = ref 0 in
  let explore (v : Check.vector) =
    let t0 = now () in
    let stats =
      span ctx "sim.Explore.run" (fun () ->
          Explore.run impl ~workloads:v.Check.workloads ~faults
            ~options:Explore.fast
            ~on_leaf_trace:(fun trace leaf ->
              incr leaves;
              match
                span ctx "consensus.Check.check_leaf" (fun () ->
                    Check.check_leaf ~inputs:v.Check.inputs leaf)
              with
              | Ok () -> ()
              | Error _ ->
                let w = Witness.make ~workloads:v.Check.workloads ~faults trace in
                raise (Bad_leaf w))
            ())
    in
    sample ctx "consensus.vector_s" (now () -. t0);
    count ctx "consensus.vectors" 1;
    count ctx "consensus.leaves" stats.Explore.leaves;
    count ctx "sim.explore_nodes" stats.Explore.nodes;
    count ctx "sim.nodes" stats.Explore.nodes;
    count ctx "sim.pruned" stats.Explore.pruned;
    count ctx "sim.sleep_skips" stats.Explore.sleep_skips;
    max_events := max !max_events stats.Explore.max_events;
    if stats.Explore.overflows > 0 then failwith "fuel overflow: not wait-free";
    if stats.Explore.completeness <> Explore.Exhaustive then
      failwith "exploration cut before the search finished"
  in
  match List.iter explore vectors with
  | () ->
    Clean
      { vectors = List.length vectors; leaves = !leaves; max_events = !max_events }
  | exception Bad_leaf w -> Bad w

(* Check.verify's shrinking of a violation, through the witness layer. *)
let shrink ctx impl w =
  let bad ~workloads leaf =
    let inputs = Check.inputs_of_workloads workloads in
    inputs <> [] && Result.is_error (Check.check_leaf ~inputs leaf)
  in
  let w = span ctx "sim.Witness.shrink" (fun () -> Witness.shrink impl ~bad w) in
  count ctx "sim.witness_len" (List.length w.Witness.trace);
  w

(* Parity: the decomposition must describe the search Check.verify ran. *)
let parity ctx ~job search =
  match (Hashtbl.find_opt ctx.reference job, search) with
  | None, _ ->
    Error (job ^ ": no untraced Check.verify verdict to compare against")
  | Some (Check.Verified r), Clean c ->
    if
      r.Check.vectors = c.vectors && r.Check.executions = c.leaves
      && r.Check.max_events = c.max_events
    then Ok ()
    else
      Error
        (Printf.sprintf
           "%s: traced decomposition saw %d vectors, %d leaves, %d max events; \
            Check.verify reported %d, %d, %d"
           job c.vectors c.leaves c.max_events r.Check.vectors r.Check.executions
           r.Check.max_events)
  | Some (Check.Falsified _), Bad _ -> Ok ()
  | Some v, _ ->
    Error
      (Printf.sprintf "%s: decomposition disagrees with Check.verify (%s)" job
         (kind v))

(* One consensus verification job, untraced ([Check.verify]) or traced
   (decomposed, then checked for parity with the untraced verdict). *)
let verify_job ctx ~job ?(faults = Faults.none) ?(extra = []) impl =
  match ctx.trace with
  | None ->
    let v = Check.verify ~faults impl in
    Hashtbl.replace ctx.reference job v;
    check_verdict ctx ~job ~extra impl v
  | Some _ -> (
    let search = decompose ctx ~faults impl in
    let* () = parity ctx ~job search in
    let* e = Expected.find job in
    match (e.Expected.verdict, search) with
    | "verified", Clean c ->
      Expected.check_fields job e (("vectors", c.vectors) :: extra)
    | "falsified", Bad w ->
      let* () = Expected.check_fields job e extra in
      replay_rejected ctx impl (shrink ctx impl w)
    | want, _ ->
      Error (Printf.sprintf "%s: decomposition does not match expected %s" job want))

(* The §4.2 access-bound analysis of the same protocol (what `wfc explore`
   runs), timed for attribution only. *)
let bounds_probe ctx ~job impl =
  guard (job ^ "-bounds") (fun () ->
      span ctx "consensus.Access_bounds.analyze" (fun () ->
          Access_bounds.analyze impl)
      |> Result.map ignore)

(* --- the fleet, traced only --------------------------------------------- *)

let sockets = ref 0

let fresh_socket () =
  incr sockets;
  Printf.sprintf "unix:%s/fleet-%d-%d.sock" out_dir (Unix.getpid ()) !sockets

(* The root shards the coordinator builds (one per vector, the whole tree),
   each run in-process through Worker.exec_shard at the coordinator's
   default quantum; a cut shard's remainder is leased again, as the
   coordinator would. Its nodes and leaves are the clean search's, already
   counted by the decomposition, so only the shard spans are recorded. *)
let shard_probe ctx ~job ~meta ~quantum impl =
  guard (job ^ "-shards") (fun () ->
      let vectors = Check.vectors impl in
      let engine = Explore.engine_of_options Explore.fast in
      let n_objs = Array.length impl.Wfc_program.Implementation.objects in
      let rec drain job_ck =
        match
          span ctx "fleet.Worker.exec_shard" (fun () ->
              Worker.exec_shard impl ~job:job_ck ~quantum ())
        with
        | Wfc_fleet.Codec.Done ck ->
          if ck.Checkpoint.frontier = [] then Ok ()
          else drain (List.hd (Checkpoint.split ck ~into:1))
        | Wfc_fleet.Codec.Violation { reason; _ } ->
          Error (job ^ ": shard violation: " ^ reason)
        | Wfc_fleet.Codec.Refused why -> Error (job ^ ": shard refused: " ^ why)
      in
      let* () =
        List.fold_left
          (fun acc (v : Check.vector) ->
            let* () = acc in
            drain
              (Checkpoint.make
                 ~meta:(meta @ [ ("check.vector", string_of_int v.Check.pos) ])
                 ~engine ~fuel:Explore.default_fuel ~faults:(Faults.crashes 0)
                 ~workloads:v.Check.workloads
                 ~counts:(Checkpoint.zero_counts ~n_objs) ~frontier:[ [] ] ()))
          (Ok ()) vectors
      in
      let* e = Expected.find job in
      Expected.check_fields job e [ ("vectors", List.length vectors) ])

(* The same search as the clean verification, served by Coordinator.serve to
   [workers] forked workers over a Unix socket with the default lease and
   quantum, then its root shards run in-process. Its verdict and vector
   count are checked against the clean job's known answer. The workers are
   stopped and reaped on every path out. *)
let fleet_probe ctx ~job ~procs ~workers =
  let impl = ok_exn "cas" (Protocols.of_name ~procs "cas") in
  let addr = fresh_socket () in
  let meta = [ ("protocol", "cas"); ("procs", string_of_int procs) ] in
  let config = Coordinator.config addr in
  let pids = span ctx "fleet.Local.spawn" (fun () -> Local.spawn ~addr workers) in
  count ctx "fleet.workers" workers;
  let stop () =
    span ctx "fleet.Local.shutdown" (fun () -> Local.shutdown pids);
    match Wfc_fleet.Transport.parse addr with
    | Ok a -> Wfc_fleet.Transport.unlink_noerr a
    | Error _ -> ()
  in
  let served =
    Fun.protect ~finally:stop (fun () ->
        guard (job ^ "-fleet") (fun () ->
            let verdict, st =
              span ctx "fleet.Coordinator.serve" (fun () ->
                  Coordinator.serve ~meta ~config impl)
            in
            count ctx "fleet.shards_run" st.Coordinator.shards_run;
            count ctx "fleet.steals" st.Coordinator.steals;
            count ctx "fleet.splits" st.Coordinator.splits;
            count ctx "fleet.lease_misses" st.Coordinator.lease_misses;
            count ctx "fleet.reattaches" st.Coordinator.reattaches;
            count ctx "fleet.local_shards" st.Coordinator.local_shards;
            check_verdict ctx ~job impl verdict))
  in
  [ served; shard_probe ctx ~job ~meta ~quantum:config.Coordinator.quantum impl ]

(* --- cas6-clean ---------------------------------------------------------- *)

(* The traced run also serves the same search through the fleet, outside the
   timed pass: a fleet pass on two workers over the host's two cores varied
   too much from run to run to carry end-to-end bounds of its own. *)
let clean ~procs ~workers =
  {
    name = "cas6-clean";
    why =
      "the largest clean tree users verify routinely (wfc verify cas -n 6, 728 \
       vectors), and the only workload the compiled kernel runs end to end";
    seed_effect = "none: a fixed exhaustive search";
    setup =
      (fun ~seed:_ ctx ->
        let impl = Protocols.from_cas ~procs () in
        let job = Printf.sprintf "cas%d" procs in
        {
          run = (fun () -> [ guard job (fun () -> verify_job ctx ~job impl) ]);
          probe =
            (fun () ->
              bounds_probe ctx ~job impl :: fleet_probe ctx ~job ~procs ~workers);
          teardown = ignore;
        });
  }

(* --- fault-matrix -------------------------------------------------------- *)

(* The E8 table's four register-using sources and five ways of building
   one-use bits; its 20 rows are their product. *)
let t5_sources =
  [
    ("tas", Protocols.from_tas);
    ("faa", Protocols.from_faa);
    ("swap", Protocols.from_swap);
    ("queue", Protocols.from_queue);
  ]

let t5_types =
  [ "test-and-set"; "fifo-queue"; "sticky-bit"; "non-oblivious-flag"; "cas-consensus" ]

let strategy_of = function
  | "cas-consensus" ->
    Theorem5.Consensus_based (fun () -> Protocols.from_cas ~procs:2 ())
  | name ->
    ok_exn name (Theorem5.strategy_for (Catalog.find ~ports:2 name).Catalog.spec)

(* One pipeline per strategy in [types]; the seed picks each one's source
   protocol. Rows sharing a strategy do the same amount of work (the sources
   are interchangeable 2-process protocols of one shape), so every seed
   costs the same while covering all 20 rows across seeds. The jobs run in a
   fixed order: the heap's peak depends on what each job leaves behind for
   the next, so a seeded order would make peak_heap_mb vary with the seed. *)
let draw ~seed ~types =
  let rng = Random.State.make [| seed |] in
  List.map
    (fun t ->
      let i = Random.State.int rng (List.length t5_sources) in
      (fst (List.nth t5_sources i), t))
    types

(* Theorem 5 pipeline: eliminate the registers, then verify the compiled
   register-free protocol under a crash-recovery adversary. *)
let t5_job ctx ~job ~strategy source =
  let* r =
    span ctx "core.Theorem5.eliminate_registers" (fun () ->
        Theorem5.eliminate_registers ~strategy source)
  in
  count ctx "core.one_use_bits" r.Theorem5.one_use_bits;
  count ctx "core.t_objects" r.Theorem5.t_objects;
  verify_job ctx ~job
    ~faults:(Faults.crash_recovery ~crashes:2 ~recoveries:2)
    ~extra:
      [
        ("d", r.Theorem5.bounds.Access_bounds.bound_d);
        ("one_use_bits", r.Theorem5.one_use_bits);
        ("t_objects", r.Theorem5.t_objects);
      ]
    r.Theorem5.compiled

let fault_matrix ~procs ~types =
  {
    name = "fault-matrix";
    why =
      "crash-recovery and degraded-read jobs plus Theorem 5 pipelines: fault \
       branching turns off POR and the compiled kernel, so the boxed \
       interpreter, Faults and Witness work";
    seed_effect =
      "picks the source protocol of each Theorem 5 pipeline";
    setup =
      (fun ~seed ctx ->
        let rows = draw ~seed ~types in
        let cas = Printf.sprintf "cas%d" procs in
        let impl = Protocols.from_cas ~procs () in
        let fault_jobs =
          [
            (cas ^ "-crash1-rec1", Faults.crash_recovery ~crashes:1 ~recoveries:1);
            (cas ^ "-stale1", Faults.degrade_all impl ~glitches:1 (`Stale 1));
            (* the negative control: must be falsified, with a witness *)
            (cas ^ "-safe1", Faults.degrade_all impl ~glitches:1 `Safe);
          ]
          |> List.map (fun (job, faults) () ->
                 guard job (fun () -> verify_job ctx ~job ~faults impl))
        in
        let pipelines =
          List.map
            (fun (s, t) ->
              let job = Printf.sprintf "t5-%s-%s" s t in
              let source = (List.assoc s t5_sources) () and strategy = strategy_of t in
              fun () -> guard job (fun () -> t5_job ctx ~job ~strategy source))
            rows
        in
        let jobs = fault_jobs @ pipelines in
        {
          run = (fun () -> List.map (fun j -> j ()) jobs);
          probe = (fun () -> []);
          teardown = ignore;
        });
  }

(* --- stack-linearize ----------------------------------------------------- *)

let stack ~writes ~reads =
  {
    name = "stack-linearize";
    why =
      "fused linearizability over the register stack: the explorer driven by \
       a path tracker and a run-wide memo instead of a leaf predicate";
    seed_effect = "none: a fixed exhaustive search";
    setup =
      (fun ~seed:_ ctx ->
        let impl =
          Wfc_registers.Chain.atomic_mrsw_from_regular_srsw ~readers:2
            ~init:(Value.int 0) ()
        in
        let reader = List.init reads (fun _ -> Ops.read) in
        let workloads =
          [| List.map (fun v -> Ops.write (Value.int v)) writes; reader; reader |]
        in
        let job =
          Printf.sprintf "stack-w%s-r%d-r%d"
            (String.concat "" (List.map string_of_int writes))
            reads reads
        in
        let run () =
          [
            guard job (fun () ->
                let* e = Expected.find job in
                match
                  span ctx "linearize.Engine.verify" (fun () ->
                      Engine.verify impl ~workloads ())
                with
                | Ok s when e.Expected.verdict = "linearizable" ->
                  count ctx "sim.nodes" s.Engine.explore.Explore.nodes;
                  count ctx "sim.pruned" s.Engine.explore.Explore.pruned;
                  count ctx "sim.sleep_skips" s.Engine.explore.Explore.sleep_skips;
                  count ctx "linearize.transitions" s.Engine.transitions;
                  count ctx "linearize.memo_hits" s.Engine.memo_hits;
                  count ctx "linearize.frontier_peak" s.Engine.frontier_peak;
                  Ok ()
                | Ok _ ->
                  Error (job ^ ": linearizable, expected " ^ e.Expected.verdict)
                | Error v -> Error (job ^ ": " ^ v.Engine.reason));
          ]
        in
        { run; probe = (fun () -> []); teardown = ignore });
  }

(* Full size, and the toy size the smoke mode runs through the same code. *)
let all ~smoke =
  if smoke then
    [
      clean ~procs:3 ~workers:1;
      fault_matrix ~procs:3 ~types:[ "test-and-set" ];
      stack ~writes:[ 1 ] ~reads:1;
    ]
  else
    [
      clean ~procs:6 ~workers:2;
      fault_matrix ~procs:5 ~types:t5_types;
      stack ~writes:[ 1; 0 ] ~reads:2;
    ]
