open Wfc_spec

let poke = Value.sym "poke"
let inc = Value.sym "inc"
let probe = Value.sym "probe"
let flip = Value.sym "flip"
let loud = Value.sym "loud"

let constant ~ports =
  Type_spec.deterministic_oblivious ~name:"constant" ~ports
    ~initial:Value.unit ~states:[ Value.unit ] ~responses:[ Ops.ok ]
    ~invocations:[ poke ]
    (fun q _ -> (q, Ops.ok))

let ack_counter ~ports ~modulus =
  let states = List.init modulus Value.int in
  Type_spec.deterministic_oblivious
    ~name:("ack-counter" ^ string_of_int modulus)
    ~ports ~initial:(Value.int 0) ~states ~responses:[ Ops.ok ]
    ~invocations:[ inc ]
    (fun q _ -> (Value.int ((Value.as_int q + 1) mod modulus), Ops.ok))

let two_phase_ack ~ports =
  let a = Value.sym "a" and b = Value.sym "b" in
  Type_spec.deterministic_oblivious ~name:"two-phase-ack" ~ports ~initial:a
    ~states:[ a; b ] ~responses:[ Ops.ok ] ~invocations:[ flip; probe ]
    (fun q i ->
      match i with
      | Value.Sym "flip" -> ((if Value.equal q a then b else a), Ops.ok)
      | _ -> (q, Ops.ok))

let latent_loud_state = Value.sym "x"

let latent ~ports =
  let a = Value.sym "a" in
  Type_spec.deterministic_oblivious ~name:"latent" ~ports ~initial:a
    ~states:[ a; latent_loud_state ]
    ~responses:[ Ops.ok; loud ] ~invocations:[ probe ]
    (fun q _ -> if Value.equal q latent_loud_state then (q, loud) else (q, Ops.ok))

let delayed_reveal ~ports =
  let s name = Value.sym name in
  let states = [ s "a"; s "b"; s "c"; s "d" ] in
  let next = function
    | Value.Sym "a" -> s "b"
    | Value.Sym "b" -> s "c"
    | Value.Sym "c" -> s "d"
    | q -> q
  in
  Type_spec.deterministic_oblivious ~name:"delayed-reveal" ~ports
    ~initial:(s "a") ~states ~responses:[ Ops.ok; loud ]
    ~invocations:[ inc; probe ]
    (fun q i ->
      match i with
      | Value.Sym "inc" -> (next q, Ops.ok)
      | _ -> (q, if Value.equal q (s "d") then loud else Ops.ok))
