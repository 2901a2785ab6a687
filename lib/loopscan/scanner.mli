(** Forwarding-loop tracking over a recorded FIB history.

    {!scan} folds {!Stream.observe} over the history's changes; the
    loop and report types, and the algorithm behind them, are
    {!Stream}'s.

    This implements the paper's stated next step ("measure the
    statistics of individual loops such as the loop size and
    duration"), which the published study only measured in aggregate. *)

type loop = Stream.loop = {
  members : int list;
  birth : float;
  death : float option;
  trigger : int;
}

val size : loop -> int

val duration : loop -> until:float -> float
(** Lifetime, using [until] for loops still alive. *)

val pp_loop : Format.formatter -> loop -> unit

type report = Stream.report = {
  loops : loop list;
  first_loop_birth : float option;
  last_loop_death : float option;
  max_concurrent : int;
}

val scan :
  ?obs:Obs.Bus.t ->
  ?prefix:int ->
  fib:Netcore.Fib_history.t ->
  origin:int ->
  from:float ->
  unit ->
  report
(** [scan ~fib ~origin ~from ()] starts from the forwarding state just
    before [from] (which must be loop-free, e.g. a converged warm-up
    state) and processes all changes at or after [from].  [obs]
    (default {!Obs.Bus.off}) receives [Loop_detected]/[Loop_resolved]
    events, timestamped with the FIB-change virtual times and tagged
    with [prefix] when given.
    @raise Invalid_argument if the starting state already contains a
    loop or [origin] is out of range. *)

(** {2 Aggregates} *)

type aggregate = {
  count : int;
  mean_size : float;
  max_size : int;
  mean_duration : float;
  max_duration : float;
  total_loop_seconds : float;
      (** sum of loop lifetimes — a load-like measure of looping *)
}

val aggregate : report -> until:float -> aggregate
(** Zeroed fields when no loops formed. *)

val pp_aggregate : Format.formatter -> aggregate -> unit
