open Wfc_spec

let bot = Value.sym "bot"

let make ~name ~ports domain =
  let states = bot :: domain in
  Type_spec.deterministic_oblivious ~name ~ports ~initial:bot ~states
    ~responses:states
    ~invocations:(Ops.read :: List.map Ops.stick domain)
    (fun q inv ->
      match inv with
      | Value.Sym "read" -> (q, q)
      | Value.Pair (Value.Sym "stick", v) ->
        if Value.equal q bot then (v, v) else (q, q)
      | _ ->
        raise
          (Type_spec.Bad_step
             (Fmt.str "sticky: bad invocation %a" Value.pp inv)))

let bit ~ports = make ~name:"sticky-bit" ~ports [ Value.falsity; Value.truth ]

let bounded ~ports ~values =
  make
    ~name:("sticky" ^ string_of_int values)
    ~ports
    (List.init values Value.int)
