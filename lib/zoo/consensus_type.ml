open Wfc_spec

let bot = Value.sym "bot"

let decided v = v

let make ~name ~ports domain =
  Type_spec.deterministic_oblivious ~name ~ports ~initial:bot
    ~states:(bot :: domain) ~responses:domain
    ~invocations:(List.map Ops.propose domain)
    (fun q inv ->
      match inv with
      | Value.Pair (Value.Sym "propose", v) ->
        if Value.equal q bot then (v, v) else (q, q)
      | _ ->
        raise
          (Type_spec.Bad_step
             (Fmt.str "consensus: bad invocation %a" Value.pp inv)))

let binary ~ports =
  make
    ~name:("consensus" ^ string_of_int ports)
    ~ports
    [ Value.falsity; Value.truth ]

let any ~ports =
  Type_spec.make
    ~name:("consensus" ^ string_of_int ports ^ "-any")
    ~ports ~initial:bot
    ~invocations:[ Ops.propose Value.unit ]
    ~oblivious:true
    (fun q ~port:_ ~inv ->
      match inv with
      | Value.Pair (Value.Sym "propose", v) ->
        if Value.equal q bot then [ (v, v) ] else [ (q, q) ]
      | _ ->
        raise
          (Type_spec.Bad_step
             (Fmt.str "consensus: bad invocation %a" Value.pp inv)))

let multivalued ~ports ~values =
  make
    ~name:("consensus" ^ string_of_int ports ^ "-val" ^ string_of_int values)
    ~ports
    (List.init values Value.int)
