(* E14 — flat-state hot path: every way [Explore.run] drives its kernel (a
   direct walk, and frontier mode with a checkpoint sink, in memory or
   spilled to disk) must reach exactly the outcome set and the consensus
   verdict of the naive [Exec.explore] oracle, including under fault
   adversaries; the compiled step tables must
   agree with the interpreted specs; the Bloom second tier must only ever
   prune (never flip a Falsified verdict, always downgrade a clean sweep);
   and the fingerprint structures themselves are fuzzed against oracles. *)

open Wfc_spec
open Wfc_zoo
open Wfc_consensus
open Wfc_program
module Exec = Wfc_sim.Exec
module Explore = Wfc_sim.Explore
module Faults = Wfc_sim.Faults
module Witness = Wfc_sim.Witness

let value = Alcotest.testable Value.pp Value.equal

(* Timing-insensitive leaf projection (same as test_explore's): ops keyed by
   ⟨proc, op_index⟩, timestamps dropped. *)
let value_proj (leaf : Exec.leaf) =
  let ops =
    List.sort
      (fun (a : Exec.op) (b : Exec.op) ->
        compare (a.proc, a.op_index) (b.proc, b.op_index))
      leaf.ops
  in
  Value.list
    [
      Value.list (Array.to_list leaf.objects);
      Value.list (Array.to_list leaf.locals);
      Value.list
        (List.map
           (fun (o : Exec.op) ->
             Value.list
               [
                 Value.int o.proc;
                 Value.int o.op_index;
                 o.inv;
                 o.resp;
                 Value.int o.steps;
               ])
           ops);
      Value.int leaf.events;
      Value.list (List.map Value.int (Array.to_list leaf.accesses));
    ]

(* --- fixture: the randomized register machine from test_explore ------------ *)

let rw_impl ~procs ~bits ~coin =
  let bit = Register.bit ~ports:procs in
  let coin_spec = Nondet.coin ~ports:procs in
  let objects =
    List.init bits (fun _ -> (bit, Value.falsity))
    @ (if coin then [ (coin_spec, coin_spec.Type_spec.initial) ] else [])
  in
  Implementation.make
    ~target:(Register.bit ~ports:procs)
    ~procs ~objects
    ~local_init:(fun _ -> Value.falsity)
    ~program:(fun ~proc:_ ~inv local ->
      let open Program.Syntax in
      match inv with
      | Value.Pair (Value.Sym "wr", Value.Pair (Value.Int o, b)) ->
        let+ _ = Program.invoke ~obj:o (Ops.write b) in
        (Ops.ok, local)
      | Value.Pair (Value.Sym "rd", Value.Int o) ->
        let+ v = Program.invoke ~obj:o Ops.read in
        (v, v)
      | Value.Pair (Value.Sym "cp", Value.Pair (Value.Int a, Value.Int b)) ->
        let* v = Program.invoke ~obj:a Ops.read in
        let+ _ = Program.invoke ~obj:b (Ops.write v) in
        (v, local)
      | Value.Sym "flip" ->
        let+ v = Program.invoke ~obj:bits Ops.read in
        (v, v)
      | Value.Sym "loc" -> Program.return (local, local)
      | _ -> Alcotest.fail "rw_impl: bad invocation")
    ()

let wr o b = Value.pair (Value.sym "wr") (Value.pair (Value.int o) (Value.bool b))
let rd o = Value.pair (Value.sym "rd") (Value.int o)
let cp a b = Value.pair (Value.sym "cp") (Value.pair (Value.int a) (Value.int b))

let collect ?faults ?(dedup_threshold = 0) ?bloom_bits_log2 ?mem_budget_mb
    ~options impl workloads =
  let acc = ref [] in
  let stats =
    Explore.run impl ~workloads ?faults ~options ~dedup_threshold
      ?bloom_bits_log2 ?mem_budget_mb
      ~on_leaf:(fun leaf -> acc := value_proj leaf :: !acc)
      ()
  in
  (stats, List.sort Value.compare !acc)

let gen_workloads =
  let open QCheck.Gen in
  let* procs = int_range 2 3 in
  let* bits = int_range 1 2 in
  let* coin = if procs = 2 then bool else return false in
  let op =
    frequency
      [
        (3, map2 (fun o b -> wr o b) (int_range 0 (bits - 1)) bool);
        (3, map (fun o -> rd o) (int_range 0 (bits - 1)));
        ( 2,
          map2
            (fun a b -> cp a b)
            (int_range 0 (bits - 1))
            (int_range 0 (bits - 1)) );
        (1, return (Value.sym "loc"));
        ((if coin then 2 else 0), return (Value.sym "flip"));
      ]
  in
  let+ wls = array_size (return procs) (list_size (int_range 0 2) op) in
  (procs, bits, coin, wls)

(* --- compiled step tables vs the interpreted spec --------------------------- *)

(* [Step_table.alternatives] must agree with [Type_spec.alternatives] on
   every (state, port, invocation) of every zoo type — same pairs, same
   order — on both the compiling first lookup and the cached second one.
   Disabled invocations (discipline-typed specs) agree on the empty list;
   out-of-range ports raise [Bad_step] on both sides. Nondeterministic
   specs are in the sweep: rows cache the whole alternative list. *)

let states_of (spec : Type_spec.t) =
  match spec.Type_spec.states with
  | Some qs -> qs
  | None ->
    Value.Set.elements (Type_spec.reachable spec ~from:spec.Type_spec.initial)

let check_alts_equal ~msg interp compiled =
  Alcotest.(check int) (msg ^ ": arity") (List.length interp)
    (List.length compiled);
  List.iter2
    (fun (q1, r1) (q2, r2) ->
      Alcotest.check value (msg ^ ": successor") q1 q2;
      Alcotest.check value (msg ^ ": response") r1 r2)
    interp compiled

let test_step_table_agrees_with_zoo () =
  List.iter
    (fun (e : Wfc_zoo.Catalog.entry) ->
      let spec = e.Wfc_zoo.Catalog.spec in
      let tbl = Step_table.create spec in
      let name = spec.Type_spec.name in
      List.iter
        (fun q ->
          for port = 0 to spec.Type_spec.ports - 1 do
            List.iter
              (fun inv ->
                let msg = Fmt.str "%s q=%a p%d %a" name Value.pp q port
                    Value.pp inv
                in
                let interp = Type_spec.alternatives spec q ~port ~inv in
                check_alts_equal ~msg interp
                  (Step_table.alternatives tbl q ~port ~inv);
                (* second lookup hits the cached row *)
                check_alts_equal ~msg:(msg ^ " (cached)") interp
                  (Step_table.alternatives tbl q ~port ~inv))
              spec.Type_spec.invocations
          done)
        (states_of spec);
      List.iter
        (fun port ->
          match
            Step_table.alternatives tbl spec.Type_spec.initial ~port
              ~inv:(List.hd spec.Type_spec.invocations)
          with
          | exception Type_spec.Bad_step _ -> ()
          | _ -> Alcotest.failf "%s: port %d accepted" name port)
        [ -1; spec.Type_spec.ports ])
    (Wfc_zoo.Catalog.all ~ports:2)

(* --- oracle: every engine path against Exec.explore ------------------------- *)

(* [Explore.run] walks every tree with one kernel, driven in ways chosen by
   the run's inputs: directly (no checkpoint, with or without a fault
   adversary), and in frontier mode (a checkpoint sink armed), where each
   pending subtree is a decision-trace prefix the kernel replays before
   expanding or exploring it. Frontier mode under a memory budget
   additionally spills pending subtrees beyond a small in-RAM window to disk
   and replays them when taken; that path runs [Explore.naive], so no
   Bloom-tier pruning can hide a lost subtree. Whatever the path, the set of timing-insensitive outcomes
   and the consensus verdict must be exactly those of the naive
   [Exec.explore] — counts of nodes and leaves legitimately differ and are
   not compared. *)

type path = Direct | Checkpointed | Spilled

let paths =
  [ ("direct", Direct); ("checkpointed", Checkpointed); ("spilled", Spilled) ]

let with_path path k =
  let with_sink options ~mem_budget_mb =
    let file = Filename.temp_file "wfc_flat_oracle" ".ck" in
    Fun.protect
      ~finally:(fun () -> if Sys.file_exists file then Sys.remove file)
      (fun () -> k ~options ~checkpoint:(Some (file, 3600.)) ~mem_budget_mb)
  in
  match path with
  | Direct -> k ~options:Explore.fast ~checkpoint:None ~mem_budget_mb:None
  | Checkpointed -> with_sink Explore.fast ~mem_budget_mb:None
  | Spilled -> with_sink Explore.naive ~mem_budget_mb:(Some 0)

(* Symmetry reduction keeps one schedule per orbit of pid permutations
   within a class of interchangeable processes, so outcomes are compared
   modulo those permutations: per-process records (class representative,
   local state, completed operations without the pid) are sorted. Without
   symmetry every process is its own class and the projection is pid-exact. *)
let outcome ~classes (leaf : Exec.leaf) =
  let record p =
    let ops =
      List.filter (fun (o : Exec.op) -> o.proc = p) leaf.ops
      |> List.sort (fun (a : Exec.op) (b : Exec.op) ->
             compare a.op_index b.op_index)
      |> List.map (fun (o : Exec.op) ->
             Value.list [ Value.int o.op_index; o.inv; o.resp; Value.int o.steps ])
    in
    Value.list [ Value.int classes.(p); leaf.locals.(p); Value.list ops ]
  in
  Value.list
    [
      Value.list (Array.to_list leaf.objects);
      Value.list
        (List.sort Value.compare
           (List.init (Array.length leaf.locals) record));
      Value.int leaf.events;
      Value.list (List.map Value.int (Array.to_list leaf.accesses));
    ]

let classes_of impl workloads =
  match Explore.Symmetry.of_impl impl ~workloads with
  | Some g -> Explore.Symmetry.classes g
  | None -> Array.init (Array.length workloads) Fun.id

(* Returns the frontier items the spilled path demoted to disk. *)
let assert_outcomes_match_oracle ~msg ?faults impl workloads =
  let classes = classes_of impl workloads in
  let oracle = ref [] in
  let exec =
    Exec.explore impl ~workloads ?faults
      ~on_leaf:(fun l -> oracle := outcome ~classes l :: !oracle)
      ()
  in
  let oracle = List.sort_uniq Value.compare !oracle in
  List.fold_left
    (fun spilled (name, path) ->
      let got = ref [] in
      let stats =
        with_path path (fun ~options ~checkpoint ~mem_budget_mb ->
            Explore.run impl ~workloads ?faults ~options ?checkpoint
              ?mem_budget_mb ~dedup_threshold:0
              ~on_leaf:(fun l -> got := outcome ~classes l :: !got)
              ())
      in
      let msg = msg ^ "/" ^ name in
      Alcotest.(check (list value))
        (msg ^ ": outcome set")
        oracle
        (List.sort_uniq Value.compare !got);
      Alcotest.(check bool)
        (msg ^ ": overflow detection")
        (exec.Exec.overflows > 0)
        (stats.Explore.overflows > 0);
      spilled + stats.Explore.spilled)
    0 paths

let adversaries impl =
  [
    ("no faults", None);
    ( "crash+recovery",
      Some
        {
          Faults.max_crashes = 1;
          max_recoveries = 1;
          max_glitches = 0;
          degraded = [];
        } );
    ("stale", Some (Faults.degrade_all impl ~glitches:1 (`Stale 1)));
    ("safe", Some (Faults.degrade_all impl ~glitches:1 `Safe));
  ]

let test_oracle_fixed () =
  List.iter
    (fun (name, impl, workloads) ->
      List.iter
        (fun (adv, faults) ->
          let msg = name ^ "/" ^ adv in
          let spilled =
            assert_outcomes_match_oracle ~msg ?faults impl workloads
          in
          (* the cas3 fault trees outgrow the 16-item in-RAM window, so the
             spilled path really replays subtrees from disk there *)
          if String.starts_with ~prefix:"cas3" name && Option.is_some faults
          then
            Alcotest.(check bool) (msg ^ ": frontier spilled") true (spilled > 0))
        (adversaries impl))
    [
      ( "rw3",
        rw_impl ~procs:3 ~bits:2 ~coin:false,
        [| [ wr 0 true; rd 1 ]; [ cp 0 1 ]; [ rd 0 ] |] );
      ( "rw2",
        rw_impl ~procs:2 ~bits:2 ~coin:false,
        [| [ wr 0 true; rd 1 ]; [ cp 0 1; rd 0 ] |] );
      ( "coin",
        rw_impl ~procs:2 ~bits:1 ~coin:true,
        [| [ Value.sym "flip"; rd 0 ]; [ wr 0 true ] |] );
      ( "cas3-equal",
        Protocols.from_cas ~procs:3 (),
        Array.make 3 [ Ops.propose Value.truth ] );
      ( "cas3-mixed",
        Protocols.from_cas ~procs:3 (),
        [|
          [ Ops.propose Value.truth ];
          [ Ops.propose Value.falsity ];
          [ Ops.propose Value.truth ];
        |] );
    ]

let prop_oracle =
  QCheck.Test.make ~count:40
    ~name:"random workloads and adversaries match Exec.explore"
    (QCheck.make
       QCheck.Gen.(pair gen_workloads (int_bound 3))
       ~print:(fun ((procs, bits, coin, wls), adv) ->
         Fmt.str "procs=%d bits=%d coin=%b adversary=%d workloads=%a" procs
           bits coin adv
           Fmt.(array (list Value.pp))
           wls))
    (fun ((procs, bits, coin, wls), adv) ->
      let impl = rw_impl ~procs ~bits ~coin in
      let name, faults = List.nth (adversaries impl) adv in
      ignore
        (assert_outcomes_match_oracle ~msg:("qcheck/" ^ name) ?faults impl wls);
      true)

(* The consensus verdict the naive engine implies: every vector's every
   leaf passes [Check.check_leaf] and no path exhausts its fuel. *)
let oracle_verdict ?faults impl =
  let bad (v : Check.vector) =
    let found = ref false in
    let stats =
      Exec.explore impl ~workloads:v.Check.workloads ?faults
        ~on_leaf:(fun leaf ->
          if Result.is_error (Check.check_leaf ~inputs:v.Check.inputs leaf)
          then found := true)
        ()
    in
    !found || stats.Exec.overflows > 0
  in
  if List.exists bad (Check.vectors impl) then "falsified" else "verified"

let test_verdict_parity () =
  List.iter
    (fun (name, impl) ->
      List.iter
        (fun (adv, faults) ->
          let expected = oracle_verdict ?faults (impl ()) in
          List.iter
            (fun (pname, path) ->
              let msg = Fmt.str "%s/%s/%s" name adv pname in
              let verdict =
                with_path path (fun ~options ~checkpoint ~mem_budget_mb ->
                    Check.verify ~engine:options ?faults ?checkpoint
                      ?mem_budget_mb (impl ()))
              in
              match verdict with
              | Check.Verified _ ->
                Alcotest.(check string) msg expected "verified"
              | Check.Falsified v -> (
                Alcotest.(check string) msg expected "falsified";
                (* a reported violation must replay: its witness is real *)
                match v.Check.witness with
                | None -> ()
                | Some w -> (
                  match Witness.replay (impl ()) w with
                  | Ok _ -> ()
                  | Error e ->
                    Alcotest.failf "%s: witness does not replay: %s" msg e))
              | Check.Unknown _ ->
                Alcotest.failf "%s: unbounded run returned Unknown" msg)
            paths)
        (adversaries (impl ())))
    [
      ("cas2", fun () -> Protocols.from_cas ~procs:2 ());
      ("sticky2", fun () -> Protocols.from_sticky ~procs:2 ());
      ("broken", Protocols.broken_register_only);
    ]

(* --- Bloom tier soundness --------------------------------------------------- *)

(* With [mem_budget_mb:0] the watchdog trips on its first sample and the
   flat path runs on the Bloom tier. A false positive can only prune: the
   leaf set shrinks (or stays equal), a clean sweep is downgraded to
   [Partial Probabilistic], and a found violation is still a real
   violation. [bits_log2 = 6] (64 bits) forces a high FP rate. *)
let test_bloom_only_prunes () =
  let impl = rw_impl ~procs:3 ~bits:2 ~coin:false in
  let wls = [| [ wr 0 true; rd 1 ]; [ cp 0 1 ]; [ rd 0; wr 1 false ] |] in
  let exact, exact_leaves =
    collect ~options:{ Explore.fast with symmetry = false } impl wls
  in
  let bloom, bloom_leaves =
    collect
      ~options:{ Explore.fast with symmetry = false }
      ~mem_budget_mb:0 ~bloom_bits_log2:6 impl wls
  in
  (match bloom.Explore.completeness with
  | Explore.Partial Explore.Probabilistic -> ()
  | c ->
    Alcotest.failf "Bloom tier must report Probabilistic, got %a"
      Explore.pp_completeness c);
  Alcotest.(check bool) "evicted to tier 2" true (bloom.Explore.evictions >= 1);
  Alcotest.(check bool) "prune-only: no more nodes" true
    (bloom.Explore.nodes <= exact.Explore.nodes);
  Alcotest.(check bool) "prune-only: no more leaves" true
    (bloom.Explore.leaves <= exact.Explore.leaves);
  List.iter
    (fun l ->
      Alcotest.(check bool) "Bloom observations ⊆ exact observations" true
        (List.exists (Value.equal l) exact_leaves))
    bloom_leaves

let test_bloom_tier_verdicts () =
  (* a clean protocol on the Bloom tier must never claim Verified *)
  (match
     Check.verify ~engine:Explore.fast ~mem_budget_mb:0 ~subsets:false
       (Protocols.from_cas ~procs:3 ())
   with
  | Check.Unknown { reason; _ } ->
    Alcotest.(check string)
      "downgraded reason" "probabilistic dedup (memory budget)" reason
  | Check.Verified _ ->
    Alcotest.fail "Bloom-tier run claimed an exhaustive Verified"
  | Check.Falsified v ->
    Alcotest.failf "clean protocol falsified: %a" Check.pp_violation v);
  (* a broken protocol must stay Falsified — FPs cannot invent a verdict,
     and at the default filter size they prune essentially nothing *)
  match
    Check.verify ~engine:Explore.fast ~mem_budget_mb:0 ~subsets:false
      (Protocols.broken_register_only ())
  with
  | Check.Falsified v -> (
    match v.Check.witness with
    | None -> ()
    | Some w -> (
      match Witness.replay (Protocols.broken_register_only ()) w with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "Bloom-tier witness does not replay: %s" e))
  | v ->
    Alcotest.failf "broken protocol not falsified on Bloom tier: %a"
      Check.pp_verdict v

(* --- open-addressing table vs Hashtbl oracle -------------------------------- *)

let gen_fp_pairs =
  QCheck.Gen.(
    let lane =
      oneof [ int_bound 3; map (fun n -> n land max_int) int ]
    in
    list_size (int_range 0 400) (pair lane lane))

let prop_table_oracle =
  QCheck.Test.make ~count:100
    ~name:"Fingerprint.Table matches a Hashtbl oracle"
    (QCheck.make gen_fp_pairs
       ~print:(fun ps -> Fmt.str "%d pairs" (List.length ps)))
    (fun pairs ->
      (* tiny initial capacity: growth is exercised on almost every case *)
      let t = Fingerprint.Table.create ~capacity_log2:2 () in
      let oracle = Hashtbl.create 16 in
      List.for_all
        (fun (hi, lo) ->
          (* the table documents the ⟨0,0⟩ → ⟨0,1⟩ remap; mirror it *)
          let key = if hi = 0 && lo = 0 then (0, 1) else (hi, lo) in
          let expect = Hashtbl.mem oracle key in
          let got = Fingerprint.Table.mem_or_add t ~hi ~lo in
          Hashtbl.replace oracle key ();
          got = expect && Fingerprint.Table.length t = Hashtbl.length oracle)
        pairs)

let test_table_iter_complete () =
  let t = Fingerprint.Table.create ~capacity_log2:2 () in
  let n = 100 in
  for i = 1 to n do
    ignore (Fingerprint.Table.mem_or_add t ~hi:(i * 7919) ~lo:(i * 104729))
  done;
  let seen = Hashtbl.create n in
  Fingerprint.Table.iter (fun ~hi ~lo -> Hashtbl.replace seen (hi, lo) ()) t;
  Alcotest.(check int) "iter visits every stored fingerprint" n
    (Hashtbl.length seen)

(* --- Bloom filter: no false negatives --------------------------------------- *)

let test_bloom_no_false_negatives () =
  let bl = Fingerprint.Bloom.create ~bits_log2:12 () in
  let rng = Random.State.make [| 0xB10F11 |] in
  let keys =
    List.init 300 (fun _ ->
        (Random.State.full_int rng max_int, Random.State.full_int rng max_int))
  in
  List.iter
    (fun (hi, lo) -> ignore (Fingerprint.Bloom.mem_or_add bl ~hi ~lo))
    keys;
  List.iter
    (fun (hi, lo) ->
      Alcotest.(check bool) "inserted key reports possibly-seen" true
        (Fingerprint.Bloom.mem_or_add bl ~hi ~lo))
    keys

(* --- fingerprint hashing sanity --------------------------------------------- *)

let test_hash_sensitivity () =
  let h a ~len = (Fingerprint.hash_hi a ~len, Fingerprint.hash_lo a ~len) in
  Alcotest.(check bool) "order-sensitive" true
    (h [| 1; 2; 3 |] ~len:3 <> h [| 3; 2; 1 |] ~len:3);
  Alcotest.(check bool) "length-sensitive" true
    (h [| 1; 2; 3 |] ~len:2 <> h [| 1; 2; 3 |] ~len:3);
  Alcotest.(check bool) "prefix-stable" true
    (h [| 1; 2; 99 |] ~len:2 = h [| 1; 2; 0 |] ~len:2);
  let hi, lo = h [| 5; 6; 7 |] ~len:3 in
  Alcotest.(check bool) "lanes non-negative" true (hi >= 0 && lo >= 0);
  Alcotest.(check bool) "lanes independent" true (hi <> lo);
  Alcotest.(check bool) "string digest deterministic" true
    (Fingerprint.hash_string "wfc" = Fingerprint.hash_string "wfc");
  Alcotest.(check bool) "string digest separates" true
    (Fingerprint.hash_string "wfc-checkpoint/1"
    <> Fingerprint.hash_string "wfc-checkpoint/2")

(* --- the dedup key's equivalence relation -------------------------------------

   The key's per-process record is maintained incrementally by the kernel
   (see the fingerprint notes in explore.ml); any change to what it merges
   moves these exact counts. They pin the relation under symmetry (cas n=4,
   all inputs equal, one class of four), clean and under crash-recovery,
   and the local-state component on a machine whose only difference between
   two converging schedules is a process's local state: a key without the
   local id merges them and loses a leaf. *)

let test_key_counts () =
  let cas4 = Protocols.from_cas ~procs:4 () in
  let equal4 = Array.make 4 [ Ops.propose Value.truth ] in
  let bit = Register.bit ~ports:2 in
  let load =
    Implementation.make ~target:bit ~procs:2
      ~objects:[ (bit, Value.falsity) ]
      ~local_init:(fun _ -> Value.falsity)
      ~program:(fun ~proc:_ ~inv local ->
        let open Program.Syntax in
        match inv with
        | Value.Sym "load" ->
          let+ v = Program.invoke ~obj:0 Ops.read in
          (Ops.ok, v)
        | Value.Sym "loc" -> Program.return (local, local)
        | b ->
          let+ _ = Program.invoke ~obj:0 (Ops.write b) in
          (Ops.ok, local))
      ()
  in
  let cr = Faults.crash_recovery ~crashes:1 ~recoveries:1 in
  List.iter
    (fun (name, impl, workloads, faults, dedup_threshold, expect) ->
      let s =
        Explore.run impl ~workloads ~faults ~options:Explore.fast
          ?dedup_threshold ()
      in
      Alcotest.(check (list int))
        (name ^ ": nodes, pruned, sleep skips, leaves")
        expect
        [ s.Explore.nodes; s.pruned; s.sleep_skips; s.leaves ])
    [
      ("cas4-equal clean", cas4, equal4, Faults.none, None,
        [ 136; 24; 153; 3 ]);
      ("cas4-equal crash-recovery", cas4, equal4, cr, None,
        [ 421; 254; 0; 35 ]);
      ("cas4-equal crash-recovery, every node probed", cas4, equal4, cr, Some 0,
        [ 334; 230; 0; 14 ]);
      ("local state", load,
        [| [ Value.sym "load"; Value.sym "loc" ]; [ Value.truth ] |],
        Faults.none, Some 0, [ 8; 0; 0; 3 ]);
    ]

(* --- hot-path allocation --------------------------------------------------

   Minor words per node of a warm [Explore.fast] run (the compiled context
   and the spare dedup table already exist). Deterministic; native-only, as
   bytecode allocates differently. Measured 15.1 (clean, 211 nodes: the
   per-run set-up weighs in on a tree this small) and 11.4 (crash-recovery,
   1395 nodes); before the fingerprint upkeep became allocation-free these
   were 218.8 and 194.3. The bounds leave about 30% headroom. *)

let test_words_per_node () =
  if Sys.backend_type <> Sys.Native then Alcotest.skip ();
  let impl = Protocols.from_cas ~procs:4 () in
  let workloads =
    Array.init 4 (fun p -> [ Ops.propose (Value.bool (p mod 2 = 0)) ])
  in
  List.iter
    (fun (name, faults, nodes, bound) ->
      let run () =
        Explore.run impl ~workloads ~faults ~options:Explore.fast ()
      in
      ignore (run ());
      let w0 = Gc.minor_words () in
      let s = run () in
      let words = Gc.minor_words () -. w0 in
      Alcotest.(check int) (name ^ ": nodes") nodes s.Explore.nodes;
      let per_node = words /. float_of_int s.Explore.nodes in
      if per_node > bound then
        Alcotest.failf "%s: %.1f minor words/node, bound %.0f" name per_node
          bound)
    [
      ("cas4 clean", Faults.none, 211, 20.);
      ("cas4 crash-recovery", Faults.crash_recovery ~crashes:1 ~recoveries:1,
        1395, 15.);
    ]

let () =
  Alcotest.run "wfc_flat"
    [
      ( "compiled step tables",
        [
          Alcotest.test_case "agree with Type_spec across the zoo" `Quick
            test_step_table_agrees_with_zoo;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "fixed workloads under every adversary" `Quick
            test_oracle_fixed;
          QCheck_alcotest.to_alcotest prop_oracle;
        ] );
      ( "verdict parity",
        [ Alcotest.test_case "Check.verify agrees" `Quick test_verdict_parity ]
      );
      ( "bloom tier",
        [
          Alcotest.test_case "only prunes, downgrades completeness" `Quick
            test_bloom_only_prunes;
          Alcotest.test_case "verdict soundness" `Quick
            test_bloom_tier_verdicts;
          Alcotest.test_case "no false negatives" `Quick
            test_bloom_no_false_negatives;
        ] );
      ( "dedup key",
        [
          Alcotest.test_case "exact counts pin the equivalence" `Quick
            test_key_counts;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "minor words per node" `Quick
            test_words_per_node;
        ] );
      ( "fingerprint structures",
        [
          QCheck_alcotest.to_alcotest prop_table_oracle;
          Alcotest.test_case "iter is complete" `Quick test_table_iter_complete;
          Alcotest.test_case "hash sensitivity" `Quick test_hash_sensitivity;
        ] );
    ]
