open Wfc_spec

type 'a t =
  | Return of 'a
  | Invoke of {
      obj : int;
      inv : Value.t;
      k : Value.t -> 'a t;
      mutable memo : (Value.t * 'a t) list;
    }

let return x = Return x

let invoke ~obj inv = Invoke { obj; inv; k = (fun r -> Return r); memo = [] }

let rec bind p f =
  match p with
  | Return x -> f x
  | Invoke { obj; inv; k; _ } ->
    Invoke { obj; inv; k = (fun r -> bind (k r) f); memo = [] }

let map f p = bind p (fun x -> Return (f x))

module Syntax = struct
  let ( let* ) = bind
  let ( let+ ) p f = map f p
end

let rec rename_objects ren = function
  | Return x -> Return x
  | Invoke { obj; inv; k; _ } ->
    Invoke
      { obj = ren obj; inv; k = (fun r -> rename_objects ren (k r)); memo = [] }

(* The memo is keyed on the physical identity of the response: the compiled
   engine answers every invocation with the canonical interned representative,
   so within one run [r1 == r2] iff they are the same response. A structurally
   equal but physically distinct response just misses the memo and re-runs the
   continuation — always sound, since [k] is pure. The walk is a top-level
   function over the node [p] it memoizes for, so a hit (every step edge of
   the engine) allocates nothing. *)
let rec memo_step p resp = function
  | (r, next) :: rest -> if r == resp then next else memo_step p resp rest
  | [] -> (
    match p with
    | Invoke n ->
      let next = n.k resp in
      n.memo <- (resp, next) :: n.memo;
      next
    | Return _ -> assert false)

let step p resp =
  match p with
  | Return _ -> invalid_arg "Program.step: Return has no continuation"
  | Invoke n -> memo_step p resp n.memo

let length_along oracle p =
  let rec go n = function
    | Return _ -> n
    | Invoke { inv; k; _ } -> go (n + 1) (k (oracle inv))
  in
  go 0 p

let rec for_list xs body =
  match xs with
  | [] -> Return ()
  | x :: rest -> bind (body x) (fun () -> for_list rest body)

let repeat n body = for_list (List.init n Fun.id) body
