(** The packet walker and send loop under {!Replay} and {!Per_source}.

    [create] copies a FIB history once into flat per-node arrays (change
    times and next hops) and keeps, per node, the interval
    [\[lo, hi)] in effect at its last lookup with its next hop, so a
    lookup is a range check and binary-searches only on a miss.  A
    packet caught in a forwarding loop whose nodes' intervals all
    outlast its remaining lifetime skips straight to its TTL exhaustion.
    Every fate is exactly {!Forwarder.walk}'s, times bit for bit, and a
    walk allocates nothing. *)

type t

val create :
  fib:Netcore.Fib_history.t -> origin:int -> link_delay:float -> ttl:int -> t
(** A walker over [fib] as recorded now; later changes are not seen.
    [ttl] and [link_delay] are not checked.
    @raise Invalid_argument if a change installs a negative next hop. *)

val fate : t -> src:int -> send_time:float -> Forwarder.fate
(** One packet: the same result as {!Forwarder.walk} with the walker's
    parameters, for checking the walker against it. *)

type tally = {
  src : int;
  sent : int;
  sent_for_ratio : int;  (** sent before [ratio_cutoff] *)
  delivered : int;
  unreachable : int;
  exhausted : int;
}

val streams :
  who:string ->
  fib:Netcore.Fib_history.t ->
  origin:int ->
  n:int ->
  link_delay:float ->
  ttl:int ->
  rate:float ->
  window:float * float ->
  seed:int ->
  ratio_cutoff:float ->
  ?sources:int list ->
  unit ->
  tally array * float array
(** The workload of {!Replay.run}, with the same arguments and the same
    phase draws: one tally per source in source order, and every TTL
    exhaustion time, sorted ascending.  [who] prefixes the messages.
    @raise Invalid_argument on a non-positive [rate], [ttl] or
    [link_delay], [t1 < t0], or a source equal to [origin] / out of
    range, before any packet is sent. *)
