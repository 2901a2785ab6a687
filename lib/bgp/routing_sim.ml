type event =
  | Tdown
  | Tlong of { a : int; b : int }
  | Tup
  | Trecover of { a : int; b : int }
  | Tshort of { a : int; b : int; down_for : float }
  | Scenario of Faults.Scenario.t

type termination = Network.termination =
  | Drained
  | Event_budget
  | Vtime_budget
  | Wall_budget

type outcome = {
  trace : Netcore.Trace.t;
  prefix : Prefix.t;
  t_fail : float;
  convergence_end : float;
  converged : bool;
  termination : termination;
  warmup_end : float;
  updates_after_fail : int;
  withdrawals_after_fail : int;
  events_executed : int;
  route_changes : int;
  paths_interned : int;
  invariant_violations : (Faults.Invariant.kind * int) list;
}

let convergence_time o = o.convergence_end -. o.t_fail

let termination_name = Network.termination_name

(* Quiet gap between warm-up quiescence and failure injection; any value
   works since the warmed-up network is silent (all MRAI timers idle
   once the queue drains). *)
let failure_gap = 10.

let run ?params ?config ?max_events ?max_vtime ?invariants ?(obs = Obs.Bus.off)
    ?profile ?watchdog ~graph ~origin ~event ~seed () =
  let n = Topo.Graph.n_nodes graph in
  (match event with
  | Tdown | Tup | Scenario _ -> ()
  | Tlong { a; b } | Trecover { a; b } | Tshort { a; b; _ } ->
      if not (Topo.Graph.has_edge graph a b) then
        invalid_arg
          (Printf.sprintf "Routing_sim.run: event link (%d,%d) absent" a b));
  (match event with
  | Tshort { down_for; _ } ->
      if down_for <= 0. then
        invalid_arg "Routing_sim.run: Tshort down_for must be positive"
  | Scenario s -> Faults.Scenario.validate s ~graph
  | Tdown | Tup | Tlong _ | Trecover _ -> ());
  let trace = Netcore.Trace.create ~n in
  let fib = Netcore.Trace.fib trace in
  if Obs.Bus.enabled obs then
    Netcore.Fib_history.set_on_change fib
      (fun { Netcore.Fib_history.time; node; next_hop } ->
        Obs.Bus.fib_change obs ~time ~node ~next_hop);
  let prefix = Prefix.make ~origin () in
  let root_rng = Dessim.Rng.create ~seed in
  let proc_rng = Dessim.Rng.split root_rng ~label:"proc" in
  let speaker_rngs = Network.speaker_rngs root_rng ~n in
  let net =
    Network.create ?params ?config ?invariants ~obs ?profile ~trace
      ?max_events ?max_vtime ?watchdog ~graph ~origins:[ (origin, prefix) ]
      ~proc_rng ~speaker_rngs
      ~on_fib_change:(fun ~time ~node ~prefix:_ ~next_hop ->
        Netcore.Fib_history.record fib ~time ~node ~next_hop)
      ()
  in
  let speaker = Network.speaker net in
  (* Phase 1: warm-up convergence.  Inverse events warm up without
     the element they will add: Tup never originates here, Trecover
     starts with its link (and both sessions over it) down. *)
  (match event with
  | Trecover { a; b } ->
      Netcore.Link.fail (Network.link net a b);
      Speaker.session_down (speaker a) ~peer:b;
      Speaker.session_down (speaker b) ~peer:a
  | Tdown | Tlong _ | Tup | Tshort _ | Scenario _ -> ());
  (match event with
  | Tup -> ()
  | Tdown | Tlong _ | Trecover _ | Tshort _ | Scenario _ ->
      Network.schedule_originations net ~at:0.);
  let warmup = Network.drain net in
  let warmup_end = Network.now net in
  (* Phase 2: failure injection. *)
  let t_fail = warmup_end +. failure_gap in
  let inject at f = Network.schedule net ~tag:"inject" ~at f in
  (match event with
  | Tdown ->
      inject t_fail (fun () -> Speaker.withdraw_local (speaker origin) prefix)
  | Tup -> inject t_fail (fun () -> Speaker.originate (speaker origin) prefix)
  | Tlong { a; b } ->
      inject t_fail (fun () -> Network.apply net (Link_fail (a, b)))
  | Trecover { a; b } ->
      inject t_fail (fun () -> Network.apply net (Link_recover (a, b)))
  | Tshort { a; b; down_for } ->
      inject t_fail (fun () ->
          Network.apply net (Link_fail (a, b));
          inject (t_fail +. down_for) (fun () ->
              Network.apply net (Link_recover (a, b))))
  | Scenario scenario ->
      (* chaos knobs arm at the injection instant, so the warm-up is
         always clean *)
      if scenario.msg_loss > 0. || scenario.msg_dup > 0. then begin
        let rng = Dessim.Rng.split root_rng ~label:"chaos" in
        inject t_fail (fun () ->
            Network.arm_chaos net ~loss:scenario.msg_loss ~dup:scenario.msg_dup
              ~rng)
      end;
      let scenario_rng = Dessim.Rng.split root_rng ~label:"scenario" in
      List.iter
        (fun { Faults.Scenario.at; action } ->
          inject (t_fail +. at) (fun () -> Network.apply net action))
        (Faults.Scenario.compile scenario ~graph ~rng:scenario_rng));
  let termination = Network.drain net in
  Network.count_run net;
  let convergence_end =
    match Netcore.Trace.last_send_at_or_after trace ~from:t_fail with
    | Some time -> time
    | None -> t_fail
  in
  {
    trace;
    prefix;
    t_fail;
    convergence_end;
    converged = warmup = Drained && termination = Drained;
    termination;
    warmup_end;
    updates_after_fail =
      Netcore.Trace.count_kind_from trace ~from:t_fail ~kind:Netcore.Trace.Announce;
    withdrawals_after_fail =
      Netcore.Trace.count_kind_from trace ~from:t_fail ~kind:Netcore.Trace.Withdraw;
    events_executed = Network.events_executed net;
    route_changes = Network.route_changes net;
    paths_interned = As_path.Table.size (Network.paths net);
    invariant_violations = Network.violations net;
  }
