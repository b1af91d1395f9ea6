(* The traced run's recorder.

   A span wraps one call from the benchmark into a layer's public function.
   Its name is "<layer>.<Module>.<function>" (for example
   "sim.Explore.run"); it carries its start and end, the span that was open
   when it began (its parent), the traced pass it belongs to (the run id),
   and the minor and promoted words allocated while it was open. Spans are
   kept in memory and written out once the run ends.

   Next to the spans the recorder keeps the counts the layers return
   (nodes visited, shards run, ...) and per-item samples (the time of each
   input vector), so ratios are formed from figures taken at the same
   boundary. *)

type span = {
  id : int;
  parent : int;  (** [-1] for a root span *)
  run : int;
  name : string;
  start : float;
  stop : float;
  minor : float;  (** minor words allocated while the span was open *)
  promoted : float;  (** words promoted to the major heap meanwhile *)
}

type t = {
  clock : unit -> float;
  mutable run : int;
  mutable next : int;
  mutable open_ : int list;  (** ids of open spans, innermost first *)
  mutable closed : span list;
  counts : (string, float) Hashtbl.t;
  samples : (string, float list) Hashtbl.t;
}

let create ?(clock = Wfc_sim.Monotime.now) () =
  {
    clock;
    run = 0;
    next = 0;
    open_ = [];
    closed = [];
    counts = Hashtbl.create 16;
    samples = Hashtbl.create 16;
  }

let set_run t run = t.run <- run

let with_span t name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.open_ with p :: _ -> p | [] -> -1 in
  t.open_ <- id :: t.open_;
  let minor0, promoted0, _ = Gc.counters () in
  let start = t.clock () in
  let finish () =
    let stop = t.clock () in
    let minor1, promoted1, _ = Gc.counters () in
    t.open_ <- List.tl t.open_;
    t.closed <-
      {
        id;
        parent;
        run = t.run;
        name;
        start;
        stop;
        minor = minor1 -. minor0;
        promoted = promoted1 -. promoted0;
      }
      :: t.closed
  in
  Fun.protect ~finally:finish f

let count t name v =
  Hashtbl.replace t.counts name
    (v +. Option.value (Hashtbl.find_opt t.counts name) ~default:0.)

let sample t name v =
  Hashtbl.replace t.samples name
    (v :: Option.value (Hashtbl.find_opt t.samples name) ~default:[])

let spans t = List.rev t.closed
let counted t name = Option.value (Hashtbl.find_opt t.counts name) ~default:0.
let sampled t name = Option.value (Hashtbl.find_opt t.samples name) ~default:[]
let duration s = s.stop -. s.start

(* Length of the union of [intervals] clipped to [start, stop]: the part of
   a parent's interval its children cover, counting overlaps once. *)
let covered ~start ~stop intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a start and b = Float.min b stop in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let rec merge acc cur = function
    | [] -> ( match cur with None -> acc | Some (a, b) -> acc +. (b -. a))
    | (a, b) :: rest -> (
      match cur with
      | None -> merge acc (Some (a, b)) rest
      | Some (ca, cb) when a <= cb -> merge acc (Some (ca, Float.max cb b)) rest
      | Some (ca, cb) -> merge (acc +. (cb -. ca)) (Some (a, b)) rest)
  in
  merge 0. None clipped

type self = {
  span : span;
  self_s : float;
  self_minor : float;
  self_promoted : float;
}

(* Each span's self time is its duration minus the part of its interval its
   direct children cover; its self allocation is its allocation minus its
   children's. *)
let self_of spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (s :: Option.value (Hashtbl.find_opt children s.parent) ~default:[]))
    spans;
  List.map
    (fun s ->
      let kids = Option.value (Hashtbl.find_opt children s.id) ~default:[] in
      let sum f = List.fold_left (fun acc k -> acc +. f k) 0. kids in
      {
        span = s;
        self_s =
          duration s
          -. covered ~start:s.start ~stop:s.stop
               (List.map (fun k -> (k.start, k.stop)) kids);
        self_minor = s.minor -. sum (fun k -> k.minor);
        self_promoted = s.promoted -. sum (fun k -> k.promoted);
      })
    spans

let named name spans = List.filter (fun s -> s.name = name) spans

let total name spans =
  List.fold_left (fun acc s -> acc +. duration s) 0. (named name spans)

let to_tsv spans =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    "id\tparent\trun\tname\tstart_s\tstop_s\tminor_words\tpromoted_words\n";
  List.iter
    (fun s ->
      Printf.bprintf b "%d\t%d\t%d\t%s\t%.9f\t%.9f\t%.0f\t%.0f\n" s.id s.parent s.run
        s.name s.start s.stop s.minor s.promoted)
    spans;
  Buffer.contents b
