type t =
  | Unit
  | Bool of bool
  | Int of int
  | Sym of string
  | Pair of t * t
  | List of t list

let rec compare a b =
  let tag = function
    | Unit -> 0
    | Bool _ -> 1
    | Int _ -> 2
    | Sym _ -> 3
    | Pair _ -> 4
    | List _ -> 5
  in
  match (a, b) with
  | Unit, Unit -> 0
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int.compare x y
  | Sym x, Sym y -> String.compare x y
  | Pair (x1, y1), Pair (x2, y2) ->
    let c = compare x1 x2 in
    if c <> 0 then c else compare y1 y2
  | List xs, List ys -> compare_lists xs ys
  | (Unit | Bool _ | Int _ | Sym _ | Pair _ | List _), _ ->
    Int.compare (tag a) (tag b)

and compare_lists xs ys =
  match (xs, ys) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: xs', y :: ys' ->
    let c = compare x y in
    if c <> 0 then c else compare_lists xs' ys'

let equal a b = compare a b = 0

(* Position-sensitive bit mixer (Boost hash_combine style). The
   multiplicative chains it replaces ([h a * 65599 + h b]) are linear, so
   right-nested spines collided on reordered siblings:
   [Pair (a, Pair (b, c))] and [Pair (b, Pair (a, c))] both hashed to
   65599·(h a + h b) + h c — exactly the cons-chain shape of exploration
   fingerprints. [combine] is not commutative in its arguments and not
   associative across nesting levels, so those families separate. *)
let combine h k =
  (h lxor (k + 0x9e3779b9 + (h lsl 6) + (h lsr 2))) land max_int

let pair_seed = 29
let list_seed = 43

let rec hash = function
  | Unit -> 17
  | Bool b -> if b then 31 else 37
  | Int i -> Hashtbl.hash i
  | Sym s -> Hashtbl.hash s
  | Pair (a, b) -> combine (combine pair_seed (hash a)) (hash b)
  | List xs -> List.fold_left (fun acc x -> combine acc (hash x)) list_seed xs

let rec pp ppf = function
  | Unit -> Fmt.string ppf "()"
  | Bool b -> Fmt.bool ppf b
  | Int i -> Fmt.int ppf i
  | Sym s -> Fmt.string ppf s
  | Pair (a, b) -> Fmt.pf ppf "(%a, %a)" pp a pp b
  | List xs -> Fmt.pf ppf "[%a]" (Fmt.list ~sep:(Fmt.any "; ") pp) xs

let to_string v = Fmt.str "%a" pp v

(* Parser for the grammar [pp] prints: "()", "true"/"false", integers,
   "(a, b)", "[a; b; …]", and bare symbol atoms. Symbols round-trip as long
   as they avoid the delimiter characters — true for every symbol in this
   library (e.g. "test-and-set", "write-start"). *)
exception Parse of string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse (Fmt.str "%s at position %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      match peek () with Some (' ' | '\t' | '\n') -> true | _ -> false
    do
      incr pos
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> incr pos
    | _ -> fail (Fmt.str "expected '%c'" c)
  in
  let is_digit c = '0' <= c && c <= '9' in
  let is_atom_char c =
    match c with
    | '(' | ')' | '[' | ']' | ',' | ';' | ' ' | '\t' | '\n' | '|' -> false
    | _ -> true
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '(' ->
      incr pos;
      skip_ws ();
      if peek () = Some ')' then begin
        incr pos;
        Unit
      end
      else begin
        let a = value () in
        skip_ws ();
        expect ',';
        let b = value () in
        skip_ws ();
        expect ')';
        Pair (a, b)
      end
    | Some '[' ->
      incr pos;
      skip_ws ();
      if peek () = Some ']' then begin
        incr pos;
        List []
      end
      else begin
        let items = ref [ value () ] in
        skip_ws ();
        while peek () = Some ';' do
          incr pos;
          items := value () :: !items;
          skip_ws ()
        done;
        expect ']';
        List (List.rev !items)
      end
    | Some c when is_digit c || (c = '-' && !pos + 1 < n && is_digit s.[!pos + 1])
      ->
      let start = !pos in
      if c = '-' then incr pos;
      while (match peek () with Some d -> is_digit d | None -> false) do
        incr pos
      done;
      Int (int_of_string (String.sub s start (!pos - start)))
    | Some c when is_atom_char c ->
      let start = !pos in
      while (match peek () with Some d -> is_atom_char d | None -> false) do
        incr pos
      done;
      (match String.sub s start (!pos - start) with
      | "true" -> Bool true
      | "false" -> Bool false
      | atom -> Sym atom)
    | Some c -> fail (Fmt.str "unexpected character '%c'" c)
  in
  match
    let v = value () in
    skip_ws ();
    if !pos <> n then fail "trailing input";
    v
  with
  | v -> Ok v
  | exception Parse msg -> Error (Fmt.str "Value.of_string: %s in %S" msg s)

let unit = Unit
let bool b = Bool b
let int i = Int i
let sym s = Sym s
let pair a b = Pair (a, b)
let list xs = List xs
let truth = Bool true
let falsity = Bool false

exception Type_error of string

let type_error expected v =
  raise (Type_error (Fmt.str "expected %s, got %a" expected pp v))

let as_bool = function Bool b -> b | v -> type_error "bool" v
let as_int = function Int i -> i | v -> type_error "int" v
let as_sym = function Sym s -> s | v -> type_error "sym" v
let as_pair = function Pair (a, b) -> (a, b) | v -> type_error "pair" v
let as_list = function List xs -> xs | v -> type_error "list" v

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Map = Map.Make (Ord)
module Set = Set.Make (Ord)

(* Hash-consing. A [state] owns an intern table holding one [cell] per
   distinct value interned into it. Interning is bottom-up, so two
   structurally equal values always reach the same cell: equality on cells is
   physical equality, the hash is cached (and equal to [hash] of the
   underlying value), and the id gives a total order that is cheap to sort
   on.

   The table is open addressing over the cells themselves, indexed by their
   cached hash. A lookup is compared against the arguments in place — an
   atom by its payload, a pair by the physical identity of its two
   children's canonical values, a list by walking its elements against the
   argument cells, an arbitrary value by structural equality — so a hit
   allocates nothing: no key, no closure, no option, no boxed [Int]. Only a
   miss builds the value and its cell. Physical identity of the canonical
   child values is identity of the child cells: every cell's value is built
   from its children's canonical values, and no two cells share a value.

   States are deliberately NOT global: the exploration engine creates one
   state per run (and the compiled kernel one per domain), living exactly
   as long as the dedup/memo table keyed on its cells. No mutable state is
   shared across domains, so explorations may run on several domains at
   once without any locking. *)
module Intern = struct
  let structural_hash = hash
  let structural_equal = equal

  type cell = { value : t; chash : int; id : int }

  (* The empty-slot sentinel; never handed out. *)
  let vacant = { value = Unit; chash = -1; id = -1 }

  type state = {
    mutable slots : cell array;  (* power-of-two capacity, at most half full *)
    mutable next_id : int;  (* also the number of cells *)
  }

  let create () = { slots = Array.make 256 vacant; next_id = 0 }
  let value c = c.value
  let hash c = c.chash
  let id c = c.id
  let equal (a : cell) (b : cell) = a == b
  let compare_id (a : cell) (b : cell) = Int.compare a.id b.id

  let home h mask =
    let x = h * 0x2545F4914F6CDD1D in
    (x lxor (x lsr 29)) land mask

  let rec values_are vs cs =
    match (vs, cs) with
    | [], [] -> true
    | v :: vs, c :: cs -> v == c.value && values_are vs cs
    | _ -> false

  (* What a lookup compares a stored value against. Each takes its
     arguments unboxed, and is passed as a static closure, so a probe
     allocates nothing. *)
  let is_bool v b () = match v with Bool b' -> b = b' | _ -> false
  let is_int v n () = match v with Int m -> m = n | _ -> false
  let is_sym v s () = match v with Sym s' -> String.equal s s' | _ -> false
  let is_pair v x y = match v with Pair (a, b) -> a == x && b == y | _ -> false
  let is_list v cs () = match v with List vs -> values_are vs cs | _ -> false
  let is_value v w () = v == w || structural_equal v w

  let rec probe eq slots mask i h a b =
    let c = Array.unsafe_get slots i in
    if c == vacant || (c.chash = h && eq c.value a b) then i
    else probe eq slots mask ((i + 1) land mask) h a b

  (* The slot of the cell with hash [h] that [eq] accepts, or the vacant
     slot where that cell belongs. *)
  let find st eq h a b =
    let slots = st.slots in
    let mask = Array.length slots - 1 in
    probe eq slots mask (home h mask) h a b

  let grow st =
    let old = st.slots in
    let cap = 2 * Array.length old in
    let slots = Array.make cap vacant and mask = cap - 1 in
    Array.iter
      (fun c ->
        if c != vacant then begin
          let i = ref (home c.chash mask) in
          while Array.unsafe_get slots !i != vacant do
            i := (!i + 1) land mask
          done;
          Array.unsafe_set slots !i c
        end)
      old;
    st.slots <- slots

  (* The miss path: a new cell in vacant slot [i] of the current table. [h]
     must equal [structural_hash v]; the constructors below maintain this by
     replaying the [hash] recurrence on the children's cached hashes. *)
  let add st i v h =
    let c = { value = v; chash = h; id = st.next_id } in
    Array.unsafe_set st.slots i c;
    st.next_id <- st.next_id + 1;
    if 2 * st.next_id > Array.length st.slots then grow st;
    c

  (* Atoms hash exactly as [hash] does, without building the atom. *)
  let bool st b =
    let h = if b then 31 else 37 in
    let i = find st is_bool h b () in
    let c = Array.unsafe_get st.slots i in
    if c != vacant then c else add st i (Bool b) h

  let int st n =
    let h = Hashtbl.hash n in
    let i = find st is_int h n () in
    let c = Array.unsafe_get st.slots i in
    if c != vacant then c else add st i (Int n) h

  let sym st s =
    let h = Hashtbl.hash s in
    let i = find st is_sym h s () in
    let c = Array.unsafe_get st.slots i in
    if c != vacant then c else add st i (Sym s) h

  let pair st a b =
    let h = combine (combine pair_seed a.chash) b.chash in
    let i = find st is_pair h a.value b.value in
    let c = Array.unsafe_get st.slots i in
    if c != vacant then c else add st i (Pair (a.value, b.value)) h

  let rec list_hash acc = function
    | [] -> acc
    | c :: cs -> list_hash (combine acc c.chash) cs

  let list st cs =
    let h = list_hash list_seed cs in
    let i = find st is_list h cs () in
    let c = Array.unsafe_get st.slots i in
    if c != vacant then c
    else add st i (List (List.map (fun c -> c.value) cs)) h

  (* A hit is found by structural equality against the stored canonical
     value, without touching the children; only a miss interns them, in the
     order the bottom-up constructors always have (a pair's right child
     first), and then the node itself. *)
  let rec intern st v =
    let h = structural_hash v in
    let i = find st is_value h v () in
    let c = Array.unsafe_get st.slots i in
    if c != vacant then c
    else
      match v with
      | Unit | Bool _ | Int _ | Sym _ -> add st i v h
      | Pair (a, b) ->
        let cb = intern st b in
        let ca = intern st a in
        pair st ca cb
      | List xs -> list st (List.map (intern st) xs)

  let unit st = intern st Unit

  (* Hashtable keyed on cells of a single state: physical equality plus the
     (unique, densely allocated) id as hash — probes never walk values. *)
  module H = Hashtbl.Make (struct
    type t = cell

    let equal = ( == )
    let hash c = c.id
  end)
end
