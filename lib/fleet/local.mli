(** Fork-based local worker pools.

    [wfc serve --workers n] and the chaos tests need real separate
    processes — a worker that [Unix._exit]s mid-shard or wedges for an hour
    must not take the coordinator with it. Fork the pool {e before} the
    coordinator binds its socket (and before the process starts a second
    domain: OCaml 5 refuses to fork once one is running); children connect
    with {!Backoff} retries, so the ordering race is harmless. *)

val spawn :
  ?chaos:(int -> Chaos.plan) ->
  ?seed:int ->
  ?persist:bool ->
  addr:string ->
  int ->
  int list
(** [spawn ~addr n] forks [n] workers connecting to [addr] (any spelling
    {!Transport.parse} accepts: a socket path, [unix:PATH], or
    [tcp:HOST:PORT]) and returns their pids. [chaos i] is worker [i]'s
    fault plan (default none); [seed + i] seeds its reconnect jitter;
    [persist] makes the pool outlive individual runs ({!Worker.config}).
    Children never return: they [Unix._exit] when done. *)

val kill : int -> unit
(** [SIGKILL], errors ignored — also the chaos harness's mid-run murder
    weapon. *)

val shutdown : int list -> unit
(** {!kill} every pid, then reap the zombies. *)
