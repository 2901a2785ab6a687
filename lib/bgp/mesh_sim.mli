(** Full-mesh multi-prefix simulation: every AS (by default) originates
    its own prefix over one shared event stream.

    All speakers share one path arena and one {!Prefix.Table}
    (pre-interned in origin order, so prefix id = index into the origin
    list), and their Adj-RIBs are sharded by packed [(prefix_id, peer)]
    keys with one batched MRAI timer per peer — the workload the
    single-prefix study cannot express: N² routing processes contending
    for the same per-router queues.

    Observability is per prefix: [Update_sent]/[Update_recv]/
    [Originate]/[Withdrawal]/[Fib_change] events carry the prefix id,
    and a streaming loop scanner per prefix (armed on the converged
    warm-up state) emits [Loop_detected]/[Loop_resolved] events
    chronologically interleaved with the forwarding changes that caused
    them.

    Given a few [origins], it is the multi-origin study: the victim's
    convergence-critical updates queue behind background churn on the
    same routers, which the single-prefix study cannot see.  With one
    origin it evolves exactly as {!Routing_sim.run} with [Tdown] on the
    same graph and seed (test/test_differential.ml checks this). *)

type churn = {
  period : float;
      (** a flapping origin withdraws its prefix, re-announces it half
          a period later, and repeats *)
  cycles : int;
      (** number of withdraw/re-announce cycles, from the failure time *)
  flappers : int list;  (** indices into [origins] of the flapping ones *)
}

type outcome = {
  prefixes : (Prefix.t * Netcore.Fib_history.t) list;
      (** one forwarding history per prefix, in origin order (so the
          list index is the prefix id used in trace events) *)
  loop_reports : (Prefix.t * Loopscan.Scanner.report) list;
      (** per-prefix streaming loop scans over the post-warm-up phase;
          empty when the warm-up blew its event budget (the scanners
          need a loop-free converged state to start from) *)
  trace : Netcore.Trace.t;
      (** message/process/link logs (all prefixes combined); its FIB
          history is unused — per-prefix histories are above *)
  t_fail : float;
  victim : Prefix.t;
  victim_convergence_end : float;
      (** last send of a message for the victim prefix at/after
          [t_fail] *)
  victim_messages : int;
  background_messages : int;
  converged : bool;
  termination : Network.termination;
      (** how the post-failure phase ended *)
  invariant_violations : (Faults.Invariant.kind * int) list;
  paths_interned : int;
  events_executed : int;  (** engine events over both phases *)
}

val convergence_time : outcome -> float

val run :
  ?params:Netcore.Params.t ->
  ?config:Config.t ->
  ?churn:churn ->
  ?origins:int list ->
  ?max_events:int ->
  ?max_vtime:float ->
  ?invariants:Faults.Invariant.mode ->
  ?obs:Obs.Bus.t ->
  ?profile:Obs.Profile.t ->
  ?watchdog:Faults.Watchdog.t ->
  graph:Topo.Graph.t ->
  victim:int ->
  seed:int ->
  unit ->
  outcome
(** [run ~graph ~victim ~seed ()] originates one prefix per origin
    (default: every node), converges, then withdraws the prefix of
    [origins[victim]].  With [churn], the listed origins flap for the
    configured number of cycles starting at the failure time.
    Defaults: paper parameters and BGP configuration, [max_events =
    40_000_000], no virtual-time or wall budget, invariants [Off].

    [obs], [profile] and [watchdog] act as in {!Routing_sim.run}; a
    run the watchdog cuts ends with [Wall_budget], not an exception.
    @raise Invalid_argument on an empty or out-of-range
    [origins]/[victim], duplicate origins, a flapper index equal to
    [victim], a disconnected graph, or non-positive budgets. *)
