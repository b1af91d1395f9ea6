(* Order statistics and ratios for the benchmark's reports.

   [quantiles] reproduces Python's [statistics.quantiles(xs, n)] with its
   default "exclusive" method, so the quartiles printed here and those a
   script computes from the same samples agree to the last digit. *)

let sorted xs = Array.of_list (List.sort Float.compare xs)

let quantiles ~n xs =
  if n < 2 then invalid_arg "Stats.quantiles: n must be at least 2";
  let d = sorted xs in
  let ld = Array.length d in
  if ld = 0 then invalid_arg "Stats.quantiles: no samples"
  else if ld = 1 then List.init (n - 1) (fun _ -> d.(0))
  else
    let m = ld + 1 in
    List.init (n - 1) (fun k ->
        let i = k + 1 in
        let j = max 1 (min (ld - 1) (i * m / n)) in
        let delta = (i * m) - (j * n) in
        ((d.(j - 1) *. float_of_int (n - delta)) +. (d.(j) *. float_of_int delta))
        /. float_of_int n)

let quartiles xs =
  match quantiles ~n:4 xs with
  | [ q1; q2; q3 ] -> (q1, q2, q3)
  | _ -> assert false

(* Python's [statistics.median]: the middle sample, or the mean of the two
   middle ones. *)
let median xs =
  let d = sorted xs in
  let n = Array.length d in
  if n = 0 then invalid_arg "Stats.median: no samples"
  else if n mod 2 = 1 then d.(n / 2)
  else (d.((n / 2) - 1) +. d.(n / 2)) /. 2.

(* Linear interpolation between the closest ranks (numpy's default):
   [percentile 0.] is the minimum, [percentile 100.] the maximum. *)
let percentile p xs =
  let d = sorted xs in
  let n = Array.length d in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  let pos = Float.max 0. (Float.min 100. p) /. 100. *. float_of_int (n - 1) in
  let lo = truncate pos in
  let hi = min (n - 1) (lo + 1) in
  let frac = pos -. float_of_int lo in
  d.(lo) +. ((d.(hi) -. d.(lo)) *. frac)

(* A ratio whose base may legitimately be empty (no nodes visited on a
   workload that never reaches the layer): 0 rather than nan, so every
   reported figure stays a JSON number. *)
let ratio num den = if den = 0. then 0. else num /. den
