(** One network of path-vector speakers on one event engine — the
    builder every workload drives.

    A network owns what the single-prefix study, the full mesh and the
    churn service have in common: the {!Dessim.Engine} (with its
    optional step profiler and the invariant checker's clock monitor),
    one {!Netcore.Link} per graph edge and one {!Netcore.Node_proc} per
    node, the shared {!As_path.Table} arena, the speakers and the
    emit/deliver path between them, the fault primitives, and the
    chunked run-to-drain loop with its budgets.  A workload is a script
    over it: what it originates and injects when, and what it records
    from the FIB changes it is handed (see DESIGN.md §17).

    The message path logs every send and processing into [trace] when
    one is given, and reports it to the bus as [Update_sent] /
    [Update_recv] — tagged with the dense prefix id when a prefix
    table is given, untagged otherwise. *)

(** Why a {!drain} stopped. *)
type termination =
  | Drained  (** the event queue emptied: the network converged *)
  | Event_budget  (** [max_events] fired first — a would-be hang *)
  | Vtime_budget  (** the next event lies beyond [max_vtime] *)
  | Wall_budget
      (** the watchdog expired with events still queued; the engine
          stopped at an event boundary *)

val termination_name : termination -> string

type t

val create :
  ?params:Netcore.Params.t ->
  ?config:Config.t ->
  ?invariants:Faults.Invariant.mode ->
  ?obs:Obs.Bus.t ->
  ?profile:Obs.Profile.t ->
  ?trace:Netcore.Trace.t ->
  ?prefixes:Prefix.Table.t ->
  ?max_events:int ->
  ?max_vtime:float ->
  ?watchdog:Faults.Watchdog.t ->
  ?now:float ->
  ?on_send:(time:float -> Msg.t -> unit) ->
  graph:Topo.Graph.t ->
  origins:(int * Prefix.t) list ->
  proc_rng:Dessim.Rng.t ->
  speaker_rngs:Dessim.Rng.t array ->
  on_fib_change:
    (time:float -> node:int -> prefix:Prefix.t -> next_hop:int option -> unit) ->
  unit ->
  t
(** Builds the network: engine (clock at [now], default 0), links,
    node processors and one speaker per node, speaker [i] drawing its
    MRAI jitter from [speaker_rngs.(i)] and every processing delay
    coming from [proc_rng].  Nothing is scheduled.

    [origins] pairs each originating node with its prefix, in
    origination order; {!schedule_originations} announces them and a
    restarted node re-originates its own.  [prefixes], when given, is
    shared by every speaker (RIB shard keys and trace prefix ids agree
    across nodes) and turns on per-prefix trace tags.  [on_send] sees
    every message as it leaves; [on_fib_change] every next-hop change.

    Budgets (defaults: 20 M events, no virtual-time or wall limit) are
    enforced by {!drain}.  [invariants] (default [Off]) threads a
    {!Faults.Invariant.t} through the clock, every link and every
    speaker; [obs] defaults to {!Obs.Bus.off}.
    @raise Invalid_argument on invalid params/config, a disconnected
    graph, empty, out-of-range or duplicate origins, fewer speaker RNGs
    than nodes, or non-positive budgets. *)

val speaker_rngs : Dessim.Rng.t -> n:int -> Dessim.Rng.t array
(** The per-speaker streams split from a root, labelled [speaker-i] in
    node order. *)

(** {2 Scripting} *)

val now : t -> float
val events_executed : t -> int
val speaker : t -> int -> Speaker.t
val speakers : t -> Speaker.t array

val link : t -> int -> int -> Netcore.Link.t
(** @raise Invalid_argument when [(a, b)] is not an edge. *)

val links_down : t -> (int * int) array
(** Failed links as [(lo, hi)] pairs, ascending. *)

val schedule : t -> tag:string -> at:float -> (unit -> unit) -> unit

val schedule_originations : t -> at:float -> unit
(** Schedules every origin's announcement at [at] (tag ["originate"]),
    one event per origin in [origins] order. *)

val apply : t -> Faults.Scenario.action -> unit
(** The fault primitives.  Link fail/recover flip the link, log it
    (trace and bus) and take both sessions down/up; a node crash drops
    the sessions of its live neighbours (the links stay up); a restart
    re-establishes them and re-originates the node's own prefixes; a
    session reset bounces both ends of a live link.  Each is a no-op
    when the element is already in the target state. *)

val arm_chaos : t -> loss:float -> dup:float -> rng:Dessim.Rng.t -> unit
(** Arms message loss/duplication on every link, drawing from [rng]. *)

val drain : ?since:int -> t -> termination
(** Runs the engine until the queue empties or a budget stops it, in
    chunks so that watchdog expiry is noticed at event granularity
    (event execution is identical to one uninterrupted run).  The
    event budget counts the events executed since event count [since]
    (default 0: since creation).  An empty queue reports [Drained]
    even when the watchdog has expired or the budget is spent exactly;
    otherwise the watchdog is checked first, then the event budget,
    then the virtual-time budget. *)

(** {2 Arena and results} *)

val paths : t -> As_path.Table.t

val set_paths : t -> As_path.Table.t -> unit
(** Swap every speaker's arena (after {!Speaker.remap_paths} into it). *)

val route_changes : t -> int
(** Best-route changes summed over all speakers. *)

val violations : t -> (Faults.Invariant.kind * int) list

val count_run : t -> unit
(** Credits the run's engine events and arena size to the bus
    counters, when the bus has a registry. *)
