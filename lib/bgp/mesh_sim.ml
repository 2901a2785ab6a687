(* Full-mesh multi-prefix workload: N origins, each announcing its own
   prefix over one shared event stream, one path arena and one prefix
   table, on a {!Network}.  The script: originate everything, converge,
   arm one streaming loop scanner per prefix on the converged state,
   withdraw the victim's prefix (optionally under background flaps)
   and run to drain, counting the victim's and the background's
   messages as they leave. *)

type churn = { period : float; cycles : int; flappers : int list }

type outcome = {
  prefixes : (Prefix.t * Netcore.Fib_history.t) list;
  loop_reports : (Prefix.t * Loopscan.Scanner.report) list;
  trace : Netcore.Trace.t;
  t_fail : float;
  victim : Prefix.t;
  victim_convergence_end : float;
  victim_messages : int;
  background_messages : int;
  converged : bool;
  termination : Routing_sim.termination;
  invariant_violations : (Faults.Invariant.kind * int) list;
  paths_interned : int;
  events_executed : int;
}

let convergence_time o = o.victim_convergence_end -. o.t_fail

let failure_gap = 10.

let run ?params ?config ?churn ?origins ?(max_events = 40_000_000) ?max_vtime
    ?invariants ?(obs = Obs.Bus.off) ?profile ?watchdog ~graph ~victim ~seed () =
  let n = Topo.Graph.n_nodes graph in
  (* the full mesh by default: every AS originates its own prefix *)
  let origins =
    match origins with Some os -> os | None -> List.init n Fun.id
  in
  let n_prefixes = List.length origins in
  if victim < 0 || victim >= n_prefixes then
    invalid_arg "Mesh_sim.run: victim index out of range";
  (match churn with
  | Some c ->
      if c.period <= 0. then invalid_arg "Mesh_sim.run: churn period <= 0";
      if c.cycles < 0 then invalid_arg "Mesh_sim.run: negative churn cycles";
      List.iter
        (fun f ->
          if f = victim then invalid_arg "Mesh_sim.run: the victim cannot flap";
          if f < 0 || f >= n_prefixes then
            invalid_arg "Mesh_sim.run: flapper index out of range")
        c.flappers
  | None -> ());
  let prefix_list = List.map (fun origin -> Prefix.make ~origin ()) origins in
  (* one prefix table for the whole run: RIB shard keys and trace
     prefix ids agree across every speaker *)
  let prefixes = Prefix.Table.create ~capacity:n_prefixes () in
  let victim_prefix = List.nth prefix_list victim in
  let fibs =
    List.map (fun p -> (p, Netcore.Fib_history.create ~n)) prefix_list
  in
  let fib_by_id = Array.of_list (List.map snd fibs) in
  (* streaming scanners, armed at the warm-up boundary (a drained
     warm-up is converged, hence loop-free — the precondition the
     scanner checks) *)
  let streams : Loopscan.Stream.t option array = Array.make n_prefixes None in
  let victim_msgs = ref 0
  and background_msgs = ref 0
  and last_victim_send = ref neg_infinity in
  let t_fail_ref = ref infinity in
  let on_send ~time msg =
    if time >= !t_fail_ref then
      if Prefix.equal (Msg.prefix msg) victim_prefix then begin
        incr victim_msgs;
        if time > !last_victim_send then last_victim_send := time
      end
      else incr background_msgs
  in
  let on_fib_change ~time ~node ~prefix ~next_hop =
    let pid = Prefix.Table.id prefixes prefix in
    Netcore.Fib_history.record fib_by_id.(pid) ~time ~node ~next_hop;
    Obs.Bus.fib_change obs ~prefix:pid ~time ~node ~next_hop;
    match streams.(pid) with
    | Some stream ->
        Loopscan.Stream.observe ~obs ~prefix:pid stream ~time ~node ~next_hop
    | None -> ()
  in
  let trace = Netcore.Trace.create ~n in
  let root_rng = Dessim.Rng.create ~seed in
  let proc_rng = Dessim.Rng.split root_rng ~label:"proc" in
  let speaker_rngs = Network.speaker_rngs root_rng ~n in
  let net =
    Network.create ?params ?config ?invariants ~obs ?profile
      ~trace ~prefixes ~max_events ?max_vtime
      ?watchdog ~on_send ~graph
      ~origins:(List.combine origins prefix_list)
      ~proc_rng ~speaker_rngs ~on_fib_change ()
  in
  (* pre-intern in origin order (the network has rejected duplicate
     origins): prefix id = index into [origins] *)
  List.iteri
    (fun i p ->
      let id = Prefix.Table.id prefixes p in
      assert (id = i))
    prefix_list;
  Network.schedule_originations net ~at:0.;
  let warmup = Network.drain net in
  (* arm the streaming scanners on the converged forwarding state; a
     warm-up cut by a budget may hold transient loops the scanner
     rejects, so streaming is skipped (loop_reports stays empty) *)
  if warmup = Network.Drained then
    List.iteri
      (fun pid origin ->
        streams.(pid) <-
          Some
            (Loopscan.Stream.create ~record:true ~origin
               ~initial:
                 (Netcore.Fib_history.snapshot fib_by_id.(pid) ~before:infinity)
               ()))
      origins;
  let t_fail = Network.now net +. failure_gap in
  t_fail_ref := t_fail;
  let inject at f = Network.schedule net ~tag:"inject" ~at f in
  let speaker = Network.speaker net in
  (* the victim's T_down *)
  let victim_origin = List.nth origins victim in
  inject t_fail (fun () ->
      Speaker.withdraw_local (speaker victim_origin) victim_prefix);
  (* background churn *)
  (match churn with
  | None -> ()
  | Some c ->
      List.iter
        (fun flapper ->
          let origin = List.nth origins flapper in
          let prefix = List.nth prefix_list flapper in
          for k = 0 to c.cycles - 1 do
            let base = t_fail +. (float_of_int k *. c.period) in
            inject base (fun () -> Speaker.withdraw_local (speaker origin) prefix);
            inject
              (base +. (c.period /. 2.))
              (fun () -> Speaker.originate (speaker origin) prefix)
          done)
        c.flappers);
  let termination = Network.drain net in
  Network.count_run net;
  let loop_reports =
    List.concat
      (List.mapi
         (fun pid (p, _fib) ->
           match streams.(pid) with
           | Some stream -> [ (p, Loopscan.Stream.report stream) ]
           | None -> [])
         fibs)
  in
  {
    prefixes = fibs;
    loop_reports;
    trace;
    t_fail;
    victim = victim_prefix;
    victim_convergence_end =
      (if !last_victim_send > neg_infinity then !last_victim_send else t_fail);
    victim_messages = !victim_msgs;
    background_messages = !background_msgs;
    converged = warmup = Network.Drained && termination = Network.Drained;
    termination;
    invariant_violations = Network.violations net;
    paths_interned = As_path.Table.size (Network.paths net);
    events_executed = Network.events_executed net;
  }
