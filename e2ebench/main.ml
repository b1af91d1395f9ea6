(* The end-to-end benchmark's command line.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

   Runs one workload for S seconds and prints, as its last line, one JSON
   object with the keys correct, attempted, failed and metrics: the
   end-to-end metrics untraced (--trace 0), the per-layer metrics traced
   (--trace 1). The line before it is a header recording the host (cores,
   OCaml version), the pass count and every metric's per-pass median and
   quartiles. A traced run also writes its spans to .e2ebench/. Exits 1 when
   any job's verdict differs from its known answer, 2 on bad arguments. *)

open E2ebench

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. in
  let trace = ref 0 and smoke = ref false in
  let names = List.map (fun w -> w.Workloads.name) (Workloads.all ~smoke:false) in
  let usage =
    "main.exe --workload NAME --seed N --seconds S --trace 0|1 [--smoke]\n\
     workloads: " ^ String.concat ", " names
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1)");
      ("--smoke", Arg.Set smoke, " toy sizes, same code path");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let w =
    let named w = w.Workloads.name = !workload in
    match List.find_opt named (Workloads.all ~smoke:!smoke) with
    | Some w when !trace = 0 || !trace = 1 -> w
    | _ ->
      prerr_endline usage;
      exit 2
  in
  Workloads.prepare_out_dir ();
  let run = if !trace = 1 then Bench.traced else Bench.untraced in
  let r = run w ~seed:!seed ~seconds:!seconds in
  let spans_file =
    if r.Bench.traced then (
      let f =
        Printf.sprintf "%s/spans-%s-seed%d.tsv" Workloads.out_dir w.Workloads.name
          !seed
      in
      Out_channel.with_open_text f (fun oc ->
          output_string oc (Spans.to_tsv r.Bench.spans));
      Some f)
    else None
  in
  List.iter
    (fun (o : Workloads.outcome) ->
      Option.iter (fun e -> prerr_endline ("FAIL " ^ e)) o.Workloads.error)
    r.Bench.jobs;
  print_endline (Bench.header_line ~smoke:!smoke ~seconds:!seconds ~spans_file r);
  print_endline (Bench.result_line r);
  exit (if Bench.correct r then 0 else 1)
