(* The closed-loop runner and the metrics it reports.

   Untraced run: passes run back to back until [seconds] have elapsed (at
   least one). Each pass sets up, runs its jobs and tears down. Wall and CPU
   time are the fastest pass's, the other metrics medians over the passes
   (set-up time over every set-up): on a shared host other tenants only ever
   add time, for stretches of tens of seconds, so a run's fastest pass is
   the figure that repeats from run to run (the header line records every
   metric's per-pass median and quartiles).

   Traced run: untraced and traced passes alternate until [seconds] have
   elapsed (at least one of each). Each traced pass gets a fresh span
   recorder; its per-layer metrics are derived from the spans and counts,
   and reported as medians over the traced passes. The tracing overhead is
   the median traced wall time minus the median untraced one. *)

module W = Workloads

type metric = {
  name : string;
  unit_ : string;
  better : string;
  bound : float option;
}

let m ?bound name unit_ better = { name; unit_; better; bound }

let end_to_end =
  [
    m "wall_s" "s" "lower" ~bound:0.25;
    m "cpu_s" "s" "lower" ~bound:0.25;
    m "minor_mwords" "Mwords" "lower" ~bound:0.1;
    m "peak_heap_mb" "MB" "lower" ~bound:0.2;
    m "pass_ratio" "ratio" "higher" ~bound:0.01;
    m "setup_s" "s" "lower" ~bound:0.25;
  ]

(* Set-ups timed on their own before every pass, so set-up time is a median
   of many samples even when a pass is long, taken across the whole run like
   the passes' own figures: a set-up lasts microseconds, and samples taken
   back to back would all see the host's speed at one moment. *)
let setups_per_pass = 5

let now = Wfc_sim.Monotime.now

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime +. t.Unix.tms_cutime +. t.Unix.tms_cstime

type pass = {
  setup_s : float;
  wall_s : float;
  cpu_s : float;  (** the pass and its teardown, reaped children included *)
  minor_words : float;
  minor_collections : int;
  major_collections : int;
  promoted_words : float;
  outcomes : W.outcome list;
}

(* One closed-loop pass: set up, run the jobs back to back (wall time is
   from the first library call to the last verdict), run the traced-only
   probes if asked, tear down. The heap is compacted first, so every pass
   starts from the same state. *)
let pass (w : W.t) ~seed ?(probe = false) ctx =
  Gc.compact ();
  let t0 = now () in
  let env = w.W.setup ~seed ctx in
  let setup_s = now () -. t0 in
  let cpu0 = cpu_now () and g0 = Gc.quick_stat () in
  let minor0 = Gc.minor_words () in
  let run () =
    let t1 = now () in
    let outcomes = env.W.run () in
    let wall_s = now () -. t1 in
    let minor_words = Gc.minor_words () -. minor0 and g1 = Gc.quick_stat () in
    let probed = if probe then env.W.probe () else [] in
    (wall_s, minor_words, g1, outcomes @ probed)
  in
  let wall_s, minor_words, g1, outcomes =
    Fun.protect ~finally:env.W.teardown run
  in
  {
    setup_s;
    wall_s;
    cpu_s = cpu_now () -. cpu0;
    minor_words;
    minor_collections = g1.Gc.minor_collections - g0.Gc.minor_collections;
    major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
    outcomes;
  }

let setup_only (w : W.t) ~seed ctx =
  let t0 = now () in
  let env = w.W.setup ~seed ctx in
  let dt = now () -. t0 in
  env.W.teardown ();
  dt

let fresh_ctx trace reference = { W.trace; reference }

(* What a traced pass leaves behind: its recorder and its GC counters. *)
type traced_pass = {
  rec_ : Spans.t;
  spans : Spans.span list;
  selfs : Spans.self list;
  pass : pass;
}

let traced_pass rec_ pass =
  let spans = Spans.spans rec_ in
  { rec_; spans; selfs = Spans.self_of spans; pass }

let total t name = Spans.total name t.spans
let c t name = Spans.counted t.rec_ name

let self_sum t name f =
  List.fold_left
    (fun acc (s : Spans.self) ->
      if s.Spans.span.Spans.name = name then acc +. f s else acc)
    0. t.selfs

let ms_at pct xs =
  match xs with [] -> 0. | xs -> 1000. *. Stats.percentile pct xs

let explore_self t = self_sum t "sim.Explore.run" (fun s -> s.Spans.self_s)

(* Nodes visited inside the Explore.run spans the pass placed itself; the
   explorers inside Engine.verify and Worker.exec_shard have no span. *)
let per_explore_node t f =
  Stats.ratio (self_sum t "sim.Explore.run" f) (c t "sim.explore_nodes")

let shard_s t =
  List.map Spans.duration (Spans.named "fleet.Worker.exec_shard" t.spans)

let shard_compute t = List.fold_left ( +. ) 0. (shard_s t)
let vector_s t = Spans.sampled t.rec_ "consensus.vector_s"

(* Every per-layer metric and how a traced pass yields it. *)
let per_layer_table =
  [
    (m "sim.explore_self_s" "s" "lower", explore_self);
    ( m "sim.nodes_per_s" "1/s" "higher",
      fun t -> Stats.ratio (c t "sim.explore_nodes") (explore_self t) );
    ( m "sim.minor_words_per_node" "words/node" "lower",
      fun t -> per_explore_node t (fun s -> s.Spans.self_minor) );
    ( m "sim.promoted_words_per_node" "words/node" "lower",
      fun t -> per_explore_node t (fun s -> s.Spans.self_promoted) );
    (m "sim.nodes" "count" "lower", fun t -> c t "sim.nodes");
    (m "sim.pruned" "count" "higher", fun t -> c t "sim.pruned");
    (m "sim.sleep_skips" "count" "higher", fun t -> c t "sim.sleep_skips");
    ( m "sim.prune_ratio" "ratio" "higher",
      fun t -> Stats.ratio (c t "sim.pruned") (c t "sim.nodes") );
    ( m "sim.skip_ratio" "ratio" "higher",
      fun t -> Stats.ratio (c t "sim.sleep_skips") (c t "sim.nodes") );
    (m "sim.witness_shrink_s" "s" "lower", fun t -> total t "sim.Witness.shrink");
    (m "sim.witness_replay_s" "s" "lower", fun t -> total t "sim.Witness.replay");
    (m "sim.witness_len" "count" "lower", fun t -> c t "sim.witness_len");
    (m "consensus.vectors" "count" "lower", fun t -> c t "consensus.vectors");
    (m "consensus.leaves" "count" "lower", fun t -> c t "consensus.leaves");
    (m "consensus.vector_p50_ms" "ms" "lower", fun t -> ms_at 50. (vector_s t));
    (m "consensus.vector_p98_ms" "ms" "lower", fun t -> ms_at 98. (vector_s t));
    ( m "consensus.leaf_check_s" "s" "lower",
      fun t -> total t "consensus.Check.check_leaf" );
    ( m "consensus.access_bounds_s" "s" "lower",
      fun t -> total t "consensus.Access_bounds.analyze" );
    ( m "core.compile_s" "s" "lower",
      fun t -> total t "core.Theorem5.eliminate_registers" );
    (m "core.one_use_bits" "count" "lower", fun t -> c t "core.one_use_bits");
    (m "core.t_objects" "count" "lower", fun t -> c t "core.t_objects");
    (m "linearize.verify_s" "s" "lower", fun t -> total t "linearize.Engine.verify");
    ( m "linearize.transitions" "count" "lower",
      fun t -> c t "linearize.transitions" );
    (m "linearize.memo_hits" "count" "higher", fun t -> c t "linearize.memo_hits");
    ( m "linearize.frontier_peak" "count" "lower",
      fun t -> c t "linearize.frontier_peak" );
    (m "fleet.spawn_s" "s" "lower", fun t -> total t "fleet.Local.spawn");
    (m "fleet.serve_s" "s" "lower", fun t -> total t "fleet.Coordinator.serve");
    (m "fleet.shutdown_s" "s" "lower", fun t -> total t "fleet.Local.shutdown");
    (m "fleet.shards_run" "count" "lower", fun t -> c t "fleet.shards_run");
    (m "fleet.steals" "count" "lower", fun t -> c t "fleet.steals");
    (m "fleet.splits" "count" "lower", fun t -> c t "fleet.splits");
    (m "fleet.lease_misses" "count" "lower", fun t -> c t "fleet.lease_misses");
    (m "fleet.reattaches" "count" "lower", fun t -> c t "fleet.reattaches");
    (m "fleet.local_shards" "count" "lower", fun t -> c t "fleet.local_shards");
    (m "fleet.shard_compute_s" "s" "lower", shard_compute);
    (m "fleet.shard_p50_ms" "ms" "lower", fun t -> ms_at 50. (shard_s t));
    (m "fleet.shard_p98_ms" "ms" "lower", fun t -> ms_at 98. (shard_s t));
    ( m "fleet.efficiency" "ratio" "higher",
      fun t ->
        Stats.ratio (shard_compute t)
          (c t "fleet.workers" *. total t "fleet.Coordinator.serve") );
    ( m "gc.minor_collections" "count" "lower",
      fun t -> float_of_int t.pass.minor_collections );
    ( m "gc.major_collections" "count" "lower",
      fun t -> float_of_int t.pass.major_collections );
    (m "gc.promoted_mwords" "Mwords" "lower", fun t -> t.pass.promoted_words /. 1e6);
  ]

(* The median traced wall time minus the median untraced one. *)
let overhead = m "trace.overhead_s" "s" "lower"
let per_layer = List.map fst per_layer_table @ [ overhead ]

type result = {
  workload : W.t;
  seed : int;
  traced : bool;
  passes : int;
  jobs : W.outcome list;  (** every job of every pass, probes included *)
  metrics : (metric * float) list;
  samples : (string * float list) list;
      (** per-pass samples behind each metric *)
  spans : Spans.span list;
}

let count_failed jobs =
  List.length (List.filter (fun (o : W.outcome) -> o.W.error <> None) jobs)

let correct r = count_failed r.jobs = 0
let failed r = count_failed r.jobs

let peak_heap_mb () =
  let words = (Gc.quick_stat ()).Gc.top_heap_words in
  float_of_int (words * (Sys.word_size / 8)) /. 1048576.

let medians metrics samples =
  List.map (fun m -> (m, Stats.median (List.assoc m.name samples))) metrics

(* How each end-to-end metric summarises its per-pass samples. *)
let summarise name xs =
  match name with
  | "wall_s" | "cpu_s" -> List.fold_left Float.min Float.infinity xs
  | _ -> Stats.median xs

let untraced (w : W.t) ~seed ~seconds =
  let ctx = fresh_ctx None (Hashtbl.create 8) in
  let t_end = now () +. seconds in
  (* The heap's peak over set-up and the first pass: later passes would make
     it grow with the number of passes a run happens to fit. *)
  let peak = ref 0. in
  let rec loop setups passes =
    let setups = List.init setups_per_pass (fun _ -> setup_only w ~seed ctx) @ setups in
    let p = pass w ~seed ctx in
    if passes = [] then peak := peak_heap_mb ();
    let setups = p.setup_s :: setups and passes = p :: passes in
    if now () < t_end then loop setups passes else (setups, List.rev passes)
  in
  let setups, passes = loop [] [] in
  let jobs = List.concat_map (fun (p : pass) -> p.outcomes) passes in
  let attempted = List.length jobs in
  let passed = float_of_int (attempted - count_failed jobs) in
  let samples =
    [
      ("wall_s", List.map (fun (p : pass) -> p.wall_s) passes);
      ("cpu_s", List.map (fun (p : pass) -> p.cpu_s) passes);
      ("minor_mwords", List.map (fun (p : pass) -> p.minor_words /. 1e6) passes);
      ("peak_heap_mb", [ !peak ]);
      ("pass_ratio", [ Stats.ratio passed (float_of_int attempted) ]);
      ("setup_s", setups);
    ]
  in
  {
    workload = w;
    seed;
    traced = false;
    passes = List.length passes;
    jobs;
    metrics =
      List.map (fun m -> (m, summarise m.name (List.assoc m.name samples))) end_to_end;
    samples;
    spans = [];
  }

let traced (w : W.t) ~seed ~seconds =
  let reference = Hashtbl.create 8 in
  let t_end = now () +. seconds in
  let rec loop k acc =
    let u = pass w ~seed (fresh_ctx None reference) in
    let r = Spans.create () in
    Spans.set_run r k;
    let t = pass w ~seed ~probe:true (fresh_ctx (Some r) reference) in
    let acc = (u, t, r) :: acc in
    if now () < t_end then loop (k + 1) acc else List.rev acc
  in
  let runs = loop 1 [] in
  let wall f = Stats.median (List.map f runs) in
  let overhead_s =
    wall (fun (_, t, _) -> t.wall_s) -. wall (fun (u, _, _) -> u.wall_s)
  in
  let passes = List.map (fun (_, t, r) -> traced_pass r t) runs in
  let samples =
    List.map (fun (m, f) -> (m.name, List.map f passes)) per_layer_table
    @ [ (overhead.name, [ overhead_s ]) ]
  in
  {
    workload = w;
    seed;
    traced = true;
    passes = List.length runs;
    jobs =
      List.concat_map (fun ((u : pass), (t : pass), _) -> u.outcomes @ t.outcomes) runs;
    metrics = medians per_layer samples;
    samples;
    spans = List.concat_map (fun (t : traced_pass) -> t.spans) passes;
  }

(* --- output ---------------------------------------------------------------- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let json_obj fields =
  let field (k, v) = json_string k ^ ": " ^ v in
  "{" ^ String.concat ", " (List.map field fields) ^ "}"

(* The last line: exactly the keys the benchmark contract names. *)
let result_line r =
  json_obj
    [
      ("correct", string_of_bool (correct r));
      ("attempted", string_of_int (List.length r.jobs));
      ("failed", string_of_int (failed r));
      ( "metrics",
        json_obj
          (List.map
             (fun (m, v) ->
               let value = [ ("value", json_float v); ("unit", json_string m.unit_) ] in
               (m.name, json_obj value))
             r.metrics) );
    ]

(* The header line before it: where and how the figures were taken, and the
   median and quartiles of every metric's per-pass samples. *)
let header_line ~smoke ~seconds ~spans_file r =
  let summary xs =
    let q1, q2, q3 = Stats.quartiles xs in
    json_obj
      [
        ("n", string_of_int (List.length xs));
        ("median", json_float q2);
        ("q1", json_float q1);
        ("q3", json_float q3);
      ]
  in
  json_obj
    [
      ( "e2ebench",
        json_obj
          [
            ("workload", json_string r.workload.W.name);
            ("why", json_string r.workload.W.why);
            ("seed", string_of_int r.seed);
            ("seed_effect", json_string r.workload.W.seed_effect);
            ("trace", if r.traced then "1" else "0");
            ("smoke", string_of_bool smoke);
            ("seconds", json_float seconds);
            ("cores", string_of_int (Domain.recommended_domain_count ()));
            ("ocaml", json_string Sys.ocaml_version);
            ("passes", string_of_int r.passes);
            ("samples", json_obj (List.map (fun (k, xs) -> (k, summary xs)) r.samples));
            ( "jobs",
              "["
              ^ String.concat ", "
                  (List.sort_uniq compare
                     (List.map
                        (fun (o : W.outcome) ->
                          json_obj
                            [
                              ("job", json_string o.W.job);
                              ( "error",
                                Option.fold ~none:"null" ~some:json_string o.W.error );
                            ])
                        r.jobs))
              ^ "]" );
            ("spans", Option.fold ~none:"null" ~some:json_string spans_file);
          ] );
    ]
