(* The benchmark's own tests: its statistics, the span self-time rule, the
   known-answer checks, agreement with BENCHMARK.json, and a smoke run of
   every workload at toy size through the same code path, untraced and
   traced. *)

open E2ebench

let close = Alcotest.float 1e-9
let floats = Alcotest.(list (float 1e-9))

(* Reference values from Python's statistics.quantiles(xs, n=4). *)
let test_quantiles () =
  let q xs = Stats.quantiles ~n:4 xs in
  let one_to_ten = List.init 10 (fun i -> float_of_int (i + 1)) in
  Alcotest.check floats "1..10" [ 2.75; 5.5; 8.25 ] (q one_to_ten);
  Alcotest.check floats "three" [ 1.0; 2.5; 3.2 ] (q [ 3.2; 1.0; 2.5 ]);
  Alcotest.check floats "two extrapolate" [ 0.0; 3.0; 6.0 ] (q [ 5.0; 1.0 ]);
  Alcotest.check floats "seven" [ 0.88; 0.91; 0.95 ]
    (q [ 0.91; 0.87; 0.95; 0.9; 0.88; 0.93; 1.02 ]);
  Alcotest.check floats "one sample" [ 4.; 4.; 4. ] (q [ 4. ])

let test_median_percentile_ratio () =
  Alcotest.check close "even median" 2.5 (Stats.median [ 4.; 1.; 3.; 2. ]);
  Alcotest.check close "odd median" 3. (Stats.median [ 5.; 3.; 1. ]);
  let xs = List.init 101 float_of_int in
  Alcotest.check close "p0" 0. (Stats.percentile 0. xs);
  Alcotest.check close "p50" 50. (Stats.percentile 50. xs);
  Alcotest.check close "p98" 98. (Stats.percentile 98. xs);
  Alcotest.check close "p100" 100. (Stats.percentile 100. xs);
  Alcotest.check close "interpolated" 1.5 (Stats.percentile 50. [ 1.; 2. ]);
  Alcotest.check close "ratio" 0.25 (Stats.ratio 1. 4.);
  Alcotest.check close "empty base" 0. (Stats.ratio 3. 0.)

let span ?(parent = -1) ?(minor = 0.) id start stop =
  { Spans.id; parent; run = 1; name = "s"; start; stop; minor; promoted = 0. }

let test_self_time () =
  (* children [1,3] and [2,5] overlap, [7,8] is apart, [9,12] sticks out of
     the parent: covered = [1,5] + [7,8] + [9,10] = 6 *)
  let spans =
    [
      span 0 0. 10. ~minor:100.;
      span 1 1. 3. ~parent:0 ~minor:10.;
      span 2 2. 5. ~parent:0 ~minor:20.;
      span 3 7. 8. ~parent:0;
      span 4 9. 12. ~parent:0;
      span 5 2.5 2.75 ~parent:2;
    ]
  in
  let self = Spans.self_of spans in
  let of_id id = List.find (fun (s : Spans.self) -> s.Spans.span.Spans.id = id) self in
  Alcotest.check close "parent self" 4. (of_id 0).Spans.self_s;
  Alcotest.check close "parent self minor" 70. (of_id 0).Spans.self_minor;
  Alcotest.check close "nested child" 2.75 (of_id 2).Spans.self_s;
  Alcotest.check close "leaf" 1. (of_id 3).Spans.self_s

let test_recorder () =
  (* a clock that ticks by one per reading *)
  let t = ref 0. in
  let r = Spans.create ~clock:(fun () -> t := !t +. 1.; !t) () in
  Spans.set_run r 7;
  Spans.with_span r "outer" (fun () ->
      Spans.with_span r "inner" ignore;
      (try Spans.with_span r "raises" (fun () -> failwith "x") with Failure _ -> ()));
  let spans = Spans.spans r in
  let find n = List.find (fun (s : Spans.span) -> s.Spans.name = n) spans in
  Alcotest.(check int) "three spans" 3 (List.length spans);
  Alcotest.(check int) "inner parent" (find "outer").Spans.id (find "inner").Spans.parent;
  Alcotest.(check int) "raising span closed" (find "outer").Spans.id
    (find "raises").Spans.parent;
  Alcotest.(check int) "run id" 7 (find "inner").Spans.run;
  (* outer [1,6], inner [2,3], raises [4,5] *)
  let self = Spans.self_of spans in
  let outer =
    List.find (fun (s : Spans.self) -> s.Spans.span.Spans.name = "outer") self
  in
  Alcotest.check close "outer self" 3. outer.Spans.self_s

let test_expected () =
  let table =
    Expected.parse "# comment\n\njob-a verified vectors=26 d=5\njob-b falsified\n"
  in
  let a = List.assoc "job-a" table in
  Alcotest.(check string) "verdict" "verified" a.Expected.verdict;
  Alcotest.(check bool) "fields match" true
    (Result.is_ok (Expected.check_fields "job-a" a [ ("vectors", 26); ("d", 5) ]));
  Alcotest.(check bool) "field differs" true
    (Result.is_error (Expected.check_fields "job-a" a [ ("vectors", 27); ("d", 5) ]));
  Alcotest.(check bool) "field missing" true
    (Result.is_error (Expected.check_fields "job-a" a [ ("vectors", 26) ]));
  Alcotest.(check bool) "every job has an answer" true
    (Result.is_ok (Expected.find "cas6") && Result.is_error (Expected.find "nope"))

(* A wrong verdict is a failed job: the negative control reported verified. *)
let test_wrong_verdict_fails () =
  let ctx = { Workloads.trace = None; reference = Hashtbl.create 1 } in
  let report =
    {
      Wfc_consensus.Check.vectors = 26;
      executions = 1;
      max_events = 1;
      max_op_steps = 1;
      degraded = 0;
      evictions = 0;
    }
  in
  let impl = Wfc_consensus.Protocols.from_cas ~procs:3 () in
  let check job v = Workloads.check_verdict ctx ~job impl v in
  let open Wfc_consensus.Check in
  Alcotest.(check bool) "right" true (Result.is_ok (check "cas3" (Verified report)));
  Alcotest.(check bool) "wrong kind" true
    (Result.is_error (check "cas3-safe1" (Verified report)));
  Alcotest.(check bool) "wrong count" true
    (Result.is_error (check "cas3" (Verified { report with vectors = 25 })));
  Alcotest.(check bool) "unknown" true
    (Result.is_error (check "cas3" (Unknown { partial = report; reason = "budget" })))

let contains text needle =
  let n = String.length needle and l = String.length text in
  let rec go i = i + n <= l && (String.sub text i n = needle || go (i + 1)) in
  go 0

(* BENCHMARK.json names every metric the runner reports, with the same unit,
   direction and bound, and every workload with the reason recorded next to
   its definition. *)
let test_benchmark_json () =
  let text = In_channel.with_open_text "../BENCHMARK.json" In_channel.input_all in
  List.iter
    (fun m ->
      let bound =
        Option.fold ~none:"" ~some:(Printf.sprintf ", \"bound\": %g") m.Bench.bound
      in
      Alcotest.(check bool) m.Bench.name true
        (contains text
           (Printf.sprintf "{\"name\": \"%s\", \"unit\": \"%s\", \"better\": \"%s\"%s}"
              m.Bench.name m.Bench.unit_ m.Bench.better bound)))
    (Bench.end_to_end @ Bench.per_layer);
  List.iter
    (fun w ->
      Alcotest.(check bool) w.Workloads.name true
        (contains text
           (Printf.sprintf "{\"name\": \"%s\", \"why\": \"%s\"}" w.Workloads.name
              w.Workloads.why)))
    (Workloads.all ~smoke:false)

let smoke (w : Workloads.t) () =
  let names ms = List.map (fun (m, _) -> m.Bench.name) ms in
  let u = Bench.untraced w ~seed:3 ~seconds:0. in
  Alcotest.(check bool) "untraced correct" true (Bench.correct u);
  Alcotest.(check (list string)) "end-to-end metrics"
    (List.map (fun m -> m.Bench.name) Bench.end_to_end)
    (names u.Bench.metrics);
  List.iter
    (fun (m, v) -> Alcotest.(check bool) (m.Bench.name ^ " > 0") true (v > 0.))
    u.Bench.metrics;
  let t = Bench.traced w ~seed:3 ~seconds:0. in
  Alcotest.(check bool) "traced correct (parity included)" true (Bench.correct t);
  Alcotest.(check (list string)) "per-layer metrics"
    (List.map (fun m -> m.Bench.name) Bench.per_layer)
    (names t.Bench.metrics);
  Alcotest.(check bool) "spans recorded" true (t.Bench.spans <> [])

let () =
  Workloads.prepare_out_dir ();
  Alcotest.run "e2ebench"
    [
      ( "stats",
        [
          Alcotest.test_case "quantiles match Python" `Quick test_quantiles;
          Alcotest.test_case "median, percentile, ratio" `Quick
            test_median_percentile_ratio;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "recorder nesting" `Quick test_recorder;
        ] );
      ( "known answers",
        [
          Alcotest.test_case "expected file" `Quick test_expected;
          Alcotest.test_case "wrong verdict fails" `Quick test_wrong_verdict_fails;
          Alcotest.test_case "BENCHMARK.json agrees" `Quick test_benchmark_json;
        ] );
      ( "smoke",
        List.map
          (fun (w : Workloads.t) -> Alcotest.test_case w.Workloads.name `Quick (smoke w))
          (Workloads.all ~smoke:true) );
    ]
