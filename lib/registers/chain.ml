open Wfc_spec
open Wfc_zoo
open Wfc_program

let weak_init_value v =
  match v with
  | Value.Pair (cur, Value.Sym "idle") -> cur
  | _ -> invalid_arg "Chain: base register mid-write at initialization"

let is_weak_reg spec =
  let name = spec.Type_spec.name in
  String.length name >= 4
  && (String.sub name 0 4 = "safe"
     || String.length name >= 7 && String.sub name 0 7 = "regular")

let srsw_bit_count impl = Implementation.count_objects_where impl ~pred:is_weak_reg

(* wrap(C2 ∘ wrap(C1)): a two-phase regular bit whose base objects are SRSW
   safe bits. *)
let regular_bit_stack ~readers ~init () =
  let procs = readers + 1 in
  let c2 = On_change.regular_bit ~readers ~init () in
  let c1_wrapped b =
    Two_phase.wrap
      ~weak_spec:(Weak_register.safe_bit ~ports:procs)
      (Replicate.mrsw_bit ~base:`Safe ~readers ~init:b ())
  in
  let stacked =
    Implementation.substitute_where c2
      ~pred:(fun spec -> String.equal spec.Type_spec.name "safe-bit")
      ~replace:(fun _ (_, iv) ->
        c1_wrapped (Value.as_bool (weak_init_value iv)))
  in
  Two_phase.wrap ~weak_spec:(Weak_register.regular_bit ~ports:procs) stacked

let regular_bounded_from_safe_bits ~readers ~values ~init () =
  let c3 = Unary.regular_reg ~readers ~values ~init () in
  Implementation.substitute_where c3
    ~pred:(fun spec -> String.equal spec.Type_spec.name "regular-bit")
    ~replace:(fun _ (_, iv) ->
      regular_bit_stack ~readers ~init:(Value.as_bool (weak_init_value iv)) ())

(* C4 presented through the two-phase interface is not needed: C5's bases are
   plain atomic registers, and C4's target is exactly that interface. Only
   the role split (writer=0 / reader=1) needs a proc_map per table entry. *)
let atomic_mrsw_from_regular_srsw ~readers ~init () =
  let c5 = Readers_table.atomic_mrsw ~readers ~init () in
  (* object indices in C5: w.(i) = i; a.(i→j) = readers + i(readers-1) + ... *)
  (* the process that writes base object [obj]; everyone else maps to C4's
     reader role (only the designated reader ever actually accesses it) *)
  let owner obj =
    if obj < readers then 0 (* the writer process *)
    else
      let k = obj - readers in
      (k / (readers - 1)) + 1
  in
  let n = Implementation.base_object_count c5 in
  (* Every C5 register starts at the same value, so one C4 instance replaces
     them all ([substitute] rejects a replacement whose initial value does
     not match). *)
  let c4 =
    Timestamp.atomic_srsw ~init:(snd c5.Implementation.objects.(0)) ()
  in
  let rec subst acc obj =
    if obj = n then acc
    else
      let wproc = owner obj in
      let proc_map p = if p = wproc then 0 else 1 in
      subst
        (Implementation.substitute ~obj ~proc_map ~replacement:c4 acc)
        (obj + 1)
  in
  subst c5 0

(* C5∘C4, but also usable standalone for C6 stacking. *)
let mrsw_stack ~readers ~init () = atomic_mrsw_from_regular_srsw ~readers ~init ()

let atomic_mrmw_from_mrsw ~writers ~extra_readers ~init () =
  let c6 = Multi_writer.atomic_mrmw ~writers ~extra_readers ~init () in
  let procs = writers + extra_readers in
  let n = Implementation.base_object_count c6 in
  let rec subst acc obj =
    if obj = n then acc
    else
      let _, iv = acc.Implementation.objects.(obj) in
      (* base register [obj] is written by process [obj], read by everyone *)
      let proc_map p =
        if p = obj then 0
        else if p < obj then p + 1
        else p
      in
      let acc =
        Implementation.substitute ~obj ~proc_map
          ~replacement:
            (Readers_table.atomic_mrsw ~readers:(procs - 1) ~init:iv ())
          acc
      in
      subst acc (obj + 1)
  in
  subst c6 0

let atomic_mrmw_from_regular_srsw ~writers ~extra_readers ~init () =
  let c6 = Multi_writer.atomic_mrmw ~writers ~extra_readers ~init () in
  let procs = writers + extra_readers in
  let n = Implementation.base_object_count c6 in
  let rec subst acc obj =
    if obj = n then acc
    else
      let _, iv = acc.Implementation.objects.(obj) in
      let proc_map p =
        if p = obj then 0
        else if p < obj then p + 1
        else p
      in
      let acc =
        Implementation.substitute ~obj ~proc_map
          ~replacement:(mrsw_stack ~readers:(procs - 1) ~init:iv ())
          acc
      in
      subst acc (obj + 1)
  in
  subst c6 0
