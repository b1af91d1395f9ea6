(** Fixed-width fingerprints and the flat dedup tables built on them.

    The exploration engine's flat hot path encodes a configuration as a
    small [int array] of interned-cell ids and scalars, hashes it into a
    ⟨hi, lo⟩ pair of 62-bit lanes (~124 bits total, splitmix64-family
    avalanche mixers with two independent seeds), and probes that pair in
    an open-addressing {!Table} — no boxed key is ever built, no structural
    equality is ever walked. At 124 bits, fingerprint equality is treated
    as state equality (hash compaction: the collision probability for a
    10^9-state run is ≈ 2^-64).

    {!Bloom} is the constant-memory second tier for runs that outgrow
    their memory budget: membership answers become "possibly seen", so an
    engine on this tier reports its result as probabilistic rather than
    exhaustive. *)

val hash_hi : int array -> len:int -> int
val hash_lo : int array -> len:int -> int
(** [hash_hi a ~len] and [hash_lo a ~len] fold [a.(0 .. len-1)] into the
    two lanes of a ⟨hi, lo⟩ fingerprint, each with its own seed and mixer,
    so a probe builds no pair. Position-sensitive in both lanes; only the
    first [len] elements are read. Both lanes are non-negative. *)

val hash_string : string -> int
(** One-pass 62-bit digest of a string (both mixer lanes folded together).
    Replaces MD5 as the checkpoint body digest: not cryptographic, but
    detects any realistic corruption/truncation of a line-oriented text
    body, with no dependency and ~6x the throughput. *)

(** Open-addressing fingerprint set: two parallel [int array] lanes,
    power-of-two capacity, linear probing, growth at 50% load, 16 bytes
    per entry flat. The all-zero slot encodes "empty"; ⟨0,0⟩ keys are
    remapped to ⟨0,1⟩ internally. *)
module Table : sig
  type t

  val create : ?capacity_log2:int -> unit -> t
  (** Default capacity 2^10 entries. *)

  val mem_or_add : t -> hi:int -> lo:int -> bool
  (** [true] iff the fingerprint was already present; records it otherwise.
      The only hot-path operation. *)

  val length : t -> int

  val clear : t -> unit
  (** Empty the table, keeping its capacity: O(capacity), allocates
      nothing. *)

  val iter : (hi:int -> lo:int -> unit) -> t -> unit
  (** Iterate stored fingerprints (used to migrate a table into a {!Bloom}
      when the memory watchdog trips). *)

  val size_words : t -> int
  (** Approximate live heap words held by the table. *)
end

(** Constant-memory probabilistic membership, k = 3 probes per key derived
    from the two fingerprint lanes. A false positive makes the engine
    wrongly treat a new state as seen — prune a subtree — which is sound
    for falsification (a found violation is always real) but downgrades a
    clean sweep to a probabilistic claim. *)
module Bloom : sig
  type t

  val default_bits_log2 : int
  (** 23: a 1 MiB bit array, ≈0.3% false-positive rate at 10^6 states. *)

  val create : ?bits_log2:int -> unit -> t
  (** [bits_log2] is clamped to [6 .. 30]. *)

  val mem_or_add : t -> hi:int -> lo:int -> bool
  (** [true] = possibly seen before; [false] = definitely new (and now
      recorded). *)

  val size_words : t -> int
end
