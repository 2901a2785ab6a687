(** Loop tracking over a stream of FIB changes.

    The per-destination forwarding state is a functional graph (each
    node has at most one next hop), so its cycles are node-disjoint and
    each node belongs to at most one loop.  A FIB change at node [v]
    can only kill the loop [v] is a member of (its outgoing edge
    changed) and can only create a loop through [v] (any new cycle must
    use [v]'s new edge) — so chasing the next-hop chain from each
    changed node tracks every loop exactly.  The origin is treated as
    having no out-edge.

    This is the one implementation of loop tracking: {!Scanner.scan}
    folds it over a recorded history, churn and mesh runs feed it one
    change at a time without retaining a history.  The test suite
    checks it against a brute-force oracle that recomputes every cycle
    after every change.

    State is plain data (no closures): churn checkpoints Marshal it
    directly, which is why the observability bus is an argument to
    {!observe} rather than part of the state.

    Two modes:
    - [record = false] (default): bounded memory; only aggregate
      {!totals} are maintained, O(nodes) state regardless of run
      length.
    - [record = true]: additionally retains every finished loop so
      {!report} can list each loop (the form {!Scanner.scan}
      returns). *)

type loop = {
  members : int list;
      (** the cycle in forwarding order, starting at its smallest
          member *)
  birth : float;
  death : float option;  (** [None] if alive at the end of the scan *)
  trigger : int;
      (** the node whose next-hop change created the cycle (a cycle can
          only form through the changed node's new edge) *)
}

type report = {
  loops : loop list;
      (** by birth time, then members; loops equal in both (one born
          and killed at an instant, then re-formed) in birth order *)
  first_loop_birth : float option;
  last_loop_death : float option;
      (** [None] when no loop formed or one survived the scan *)
  max_concurrent : int;  (** most loops alive at once *)
}

type t

val create :
  ?record:bool -> origin:int -> initial:int option array -> unit -> t
(** [create ~origin ~initial ()] starts tracking from the forwarding
    state [initial] (copied; [initial.(v)] is [v]'s next hop toward
    the destination).  The starting state must be loop-free.
    @raise Invalid_argument if it contains a loop or [origin] is out
    of range. *)

val observe :
  ?obs:Obs.Bus.t ->
  ?prefix:int ->
  t ->
  time:float ->
  node:int ->
  next_hop:int option ->
  unit
(** Apply one FIB change.  Changes must arrive in nondecreasing time
    order (as the simulation emits them).  [obs] (default
    {!Obs.Bus.off}) receives [Loop_detected] / [Loop_resolved]
    events, tagged with [prefix] when given (mesh runs). *)

val live_loops : t -> int
(** Number of loops alive right now. *)

val n_nodes : t -> int

val fib : t -> int -> int option
(** Current next hop of a node, as tracked by the scanner. *)

type totals = {
  loops_started : int;
  loops_resolved : int;
  live_now : int;
  max_concurrent : int;
  max_size : int;
  mean_size : float;
  total_loop_seconds : float;
      (** finished loops plus survivors charged up to [until] *)
  first_loop_birth : float option;
  last_loop_death : float option;
      (** [None] when no loop resolved yet or one is still alive *)
}

val totals : t -> until:float -> totals
(** Aggregates; available in both modes. *)

val report : t -> report
(** Full per-loop report; survivors carry [death = None].
    @raise Invalid_argument unless created with [~record:true]. *)
