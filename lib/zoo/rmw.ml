open Wfc_spec

let bad name inv =
  raise (Type_spec.Bad_step (Fmt.str "%s: bad invocation %a" name Value.pp inv))

let test_and_set ~ports =
  Type_spec.deterministic_oblivious ~name:"test-and-set" ~ports
    ~initial:Value.falsity
    ~states:[ Value.falsity; Value.truth ]
    ~responses:[ Value.falsity; Value.truth ]
    ~invocations:[ Ops.test_and_set; Ops.read ]
    (fun q inv ->
      match inv with
      | Value.Sym "test-and-set" -> (Value.truth, q)
      | Value.Sym "read" -> (q, q)
      | _ -> bad "test-and-set" inv)

let swap_bounded ~ports ~values =
  let domain = List.init values Value.int in
  Type_spec.deterministic_oblivious
    ~name:("swap" ^ string_of_int values)
    ~ports ~initial:(Value.int 0) ~states:domain ~responses:domain
    ~invocations:(Ops.read :: List.map (fun v -> Ops.swap v) domain)
    (fun q inv ->
      match inv with
      | Value.Pair (Value.Sym "swap", v) -> (v, q)
      | Value.Sym "read" -> (q, q)
      | _ -> bad "swap" inv)

let faa_step ~wrap q inv =
  match (q, inv) with
  | Value.Int n, Value.Pair (Value.Sym "fetch-add", Value.Int d) ->
    (Value.int (wrap (n + d)), q)
  | Value.Int _, Value.Sym "read" -> (q, q)
  | _ -> bad "fetch-add" inv

let fetch_add_mod ~ports ~modulus =
  if modulus < 2 then invalid_arg "Rmw.fetch_add_mod: modulus < 2";
  let domain = List.init modulus Value.int in
  let deltas = [ Ops.fetch_add 0; Ops.fetch_add 1; Ops.fetch_add 2 ] in
  Type_spec.deterministic_oblivious
    ~name:("fetch-add-mod" ^ string_of_int modulus)
    ~ports ~initial:(Value.int 0) ~states:domain ~responses:domain
    ~invocations:(Ops.read :: deltas)
    (faa_step ~wrap:(fun n -> ((n mod modulus) + modulus) mod modulus))

let fetch_add ~ports =
  Type_spec.make ~name:"fetch-add" ~ports ~initial:(Value.int 0)
    ~invocations:[ Ops.read; Ops.fetch_add 1 ]
    ~oblivious:true
    (fun q ~port:_ ~inv -> [ faa_step ~wrap:Fun.id q inv ])

let bot = Value.sym "bot"

let cas_bounded ~ports ~values =
  let domain = List.init values Value.int in
  let states = bot :: domain in
  let invocations =
    Ops.read
    :: List.concat_map
         (fun expect ->
           List.map (fun update -> Ops.cas ~expect ~update) domain)
         states
  in
  Type_spec.deterministic_oblivious
    ~name:("cas" ^ string_of_int values)
    ~ports ~initial:bot ~states
    ~responses:(Value.falsity :: Value.truth :: states)
    ~invocations
    (fun q inv ->
      match inv with
      | Value.Sym "read" -> (q, q)
      | Value.Pair (Value.Sym "cas", Value.Pair (expect, update)) ->
        if Value.equal q expect then (update, Value.truth)
        else (q, Value.falsity)
      | _ -> bad "cas" inv)
