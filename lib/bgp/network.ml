(* The network every workload scripts: links, node processors,
   speakers, the emit/deliver path, fault primitives and the
   run-to-drain loop.

   Determinism rests on three orders: the script splits the RNG streams
   and hands them in, so each keeps its historical split order; the
   trace is written before the bus on every message; speakers are
   created in node order, each interning into the one shared arena. *)

type termination = Drained | Event_budget | Vtime_budget | Wall_budget

let termination_name = function
  | Drained -> "drained"
  | Event_budget -> "event-budget"
  | Vtime_budget -> "vtime-budget"
  | Wall_budget -> "wall-budget"

type t = {
  graph : Topo.Graph.t;
  n : int;
  params : Netcore.Params.t;
  engine : Dessim.Engine.t;
  checker : Faults.Invariant.t;
  obs : Obs.Bus.t;
  trace : Netcore.Trace.t option;
  prefixes : Prefix.Table.t option;
  on_send : (time:float -> Msg.t -> unit) option;
  proc_rng : Dessim.Rng.t;
  procs : Netcore.Node_proc.t array;
  (* edges in graph order, as (lo, hi, link) *)
  edges : (int * int * Netcore.Link.t) array;
  (* link lookup by lo * n + hi: an int key, so the per-message lookup
     allocates nothing *)
  links : (int, Netcore.Link.t) Hashtbl.t;
  origins : (int * Prefix.t) list;
  mutable paths : As_path.Table.t;
  mutable speakers : Speaker.t array;
  max_events : int;
  max_vtime : float option;
  watchdog : Faults.Watchdog.t;
}

let speaker_rngs root ~n =
  Array.init n (fun i -> Dessim.Rng.split root ~label:("speaker-" ^ string_of_int i))

let link t a b =
  match Hashtbl.find t.links ((Stdlib.min a b * t.n) + Stdlib.max a b) with
  | l -> l
  | exception Not_found ->
      invalid_arg (Printf.sprintf "Network: no link (%d,%d)" a b)

(* The per-message hot path.  One [deliver] closure per send and one
   [work] closure per delivery, each capturing [t] rather than its
   fields. *)
let emit t src ~peer msg =
  let link = link t src peer in
  let now = Dessim.Engine.now t.engine in
  let withdraw =
    match (msg : Msg.t) with Withdraw _ -> true | Announce _ -> false
  in
  let prefix =
    match t.prefixes with
    | Some table -> Some (Prefix.Table.id table (Msg.prefix msg))
    | None -> None
  in
  (match t.trace with
  | Some trace ->
      Netcore.Trace.log_send trace ~time:now ~src ~dst:peer ~kind:(Msg.kind msg)
  | None -> ());
  Obs.Bus.update_sent ?prefix t.obs ~time:now ~src ~dst:peer ~withdraw;
  (match t.on_send with Some f -> f ~time:now msg | None -> ());
  let deliver () =
    Netcore.Node_proc.submit t.procs.(peer) ~engine:t.engine
      ~delay:
        (Dessim.Rng.uniform t.proc_rng ~lo:t.params.proc_delay_min
           ~hi:t.params.proc_delay_max)
      ~work:(fun () ->
        let now = Dessim.Engine.now t.engine in
        (match t.trace with
        | Some trace ->
            Netcore.Trace.log_process trace ~time:now ~node:peer ~from:src
              ~kind:(Msg.kind msg)
        | None -> ());
        Obs.Bus.update_recv ?prefix t.obs ~time:now ~node:peer ~from:src
          ~withdraw;
        Speaker.handle_msg t.speakers.(peer) ~from:src msg)
  in
  (* A send onto a dead link is dropped silently, like packets into a
     torn-down TCP session. *)
  ignore (Netcore.Link.send link ~engine:t.engine ~from:src ~deliver : bool)

let create ?(params = Netcore.Params.default) ?(config = Config.default)
    ?(invariants = Faults.Invariant.Off) ?(obs = Obs.Bus.off) ?profile ?trace
    ?prefixes ?(max_events = 20_000_000) ?max_vtime
    ?(watchdog = Faults.Watchdog.unlimited) ?now ?on_send ~graph ~origins
    ~proc_rng ~speaker_rngs ~on_fib_change () =
  Netcore.Params.validate params;
  Config.validate config;
  let n = Topo.Graph.n_nodes graph in
  (match origins with
  | [] -> invalid_arg "Network.create: no origins"
  | _ :: _ -> ());
  List.iter
    (fun (o, _) ->
      if o < 0 || o >= n then invalid_arg "Network.create: origin out of range")
    origins;
  let nodes = List.map fst origins in
  if List.length (List.sort_uniq compare nodes) <> List.length nodes then
    invalid_arg "Network.create: duplicate origins";
  if not (Topo.Graph.is_connected graph) then
    invalid_arg "Network.create: graph must be connected";
  if Array.length speaker_rngs < n then
    invalid_arg "Network.create: one RNG per speaker";
  if max_events <= 0 then
    invalid_arg "Network.create: max_events must be positive";
  (match max_vtime with
  | Some t when t <= 0. || Float.is_nan t ->
      invalid_arg "Network.create: max_vtime must be positive"
  | Some _ | None -> ());
  let engine = Dessim.Engine.create ?now () in
  (match profile with
  | Some p -> Dessim.Engine.set_step_profiler engine (Obs.Profile.step p)
  | None -> ());
  let checker = Faults.Invariant.create invariants in
  if Faults.Invariant.enabled checker then
    Dessim.Engine.set_clock_monitor engine (fun ~old_time ~new_time ->
        if new_time < old_time then
          Faults.Invariant.report checker Faults.Invariant.Clock_regression
            ~detail:(fun () ->
              Printf.sprintf "event at %g fired with clock at %g" new_time
                old_time));
  let edges =
    Array.of_list
      (List.map
         (fun (a, b) ->
           let link = Netcore.Link.create ~a ~b ~delay:params.link_delay in
           if Faults.Invariant.enabled checker then
             Netcore.Link.attach_checker link checker;
           if Obs.Bus.enabled obs then Netcore.Link.attach_obs link obs;
           (Stdlib.min a b, Stdlib.max a b, link))
         (Topo.Graph.edges graph))
  in
  let links = Hashtbl.create (Array.length edges) in
  Array.iter (fun (lo, hi, link) -> Hashtbl.replace links ((lo * n) + hi) link) edges;
  let t =
    {
      graph;
      n;
      params;
      engine;
      checker;
      obs;
      trace;
      prefixes;
      on_send;
      proc_rng;
      procs = Array.init n (fun i -> Netcore.Node_proc.create ~obs ~node:i ());
      edges;
      links;
      origins;
      (* one hash-consing arena per network: handles in flight compare
         by pointer (DESIGN.md §12) *)
      paths = As_path.Table.create ();
      speakers = [||];
      max_events;
      max_vtime;
      watchdog;
    }
  in
  t.speakers <-
    Array.init n (fun i ->
        Speaker.create ~checker ~obs ~prefix_obs:(Option.is_some prefixes)
          ~paths:t.paths ?prefixes ~engine ~config ~rng:speaker_rngs.(i)
          ~node:i
          ~peers:(Topo.Graph.neighbors graph i)
          ~emit:(emit t i)
          ~on_next_hop_change:(fun ~prefix ~next_hop ->
            on_fib_change ~time:(Dessim.Engine.now engine) ~node:i ~prefix
              ~next_hop)
          ());
  t

let now t = Dessim.Engine.now t.engine
let events_executed t = Dessim.Engine.events_executed t.engine
let speaker t i = t.speakers.(i)
let speakers t = t.speakers
let paths t = t.paths
let violations t = Faults.Invariant.violations t.checker

let links_down t =
  Array.to_list t.edges
  |> List.filter_map (fun (lo, hi, link) ->
         if Netcore.Link.is_up link then None else Some (lo, hi))
  |> List.sort compare |> Array.of_list

let schedule t ~tag ~at f =
  let (_ : Dessim.Engine.handle) = Dessim.Engine.schedule ~tag t.engine ~at f in
  ()

let schedule_originations t ~at =
  List.iter
    (fun (origin, prefix) ->
      schedule t ~tag:"originate" ~at (fun () ->
          Speaker.originate t.speakers.(origin) prefix))
    t.origins

(* --- fault primitives --- *)

let set_link t a b ~up =
  let link = link t a b in
  if Netcore.Link.is_up link <> up then begin
    if up then Netcore.Link.restore link else Netcore.Link.fail link;
    let time = now t in
    (match t.trace with
    | Some trace -> Netcore.Trace.log_link_event trace ~time ~a ~b ~up
    | None -> ());
    Obs.Bus.link_state t.obs ~time ~a ~b ~up;
    let session = if up then Speaker.session_up else Speaker.session_down in
    session t.speakers.(a) ~peer:b;
    session t.speakers.(b) ~peer:a
  end

let live_neighbors t v =
  List.filter
    (fun u -> Netcore.Link.is_up (link t u v))
    (Topo.Graph.neighbors t.graph v)

let apply t (action : Faults.Scenario.action) =
  let sp i = t.speakers.(i) in
  match action with
  | Link_fail (a, b) -> set_link t a b ~up:false
  | Link_recover (a, b) -> set_link t a b ~up:true
  | Node_crash v ->
      if Speaker.alive (sp v) then begin
        Speaker.crash (sp v);
        (* sessions die with the node; the links themselves stay up *)
        List.iter
          (fun u -> Speaker.session_down (sp u) ~peer:v)
          (live_neighbors t v)
      end
  | Node_restart v ->
      if not (Speaker.alive (sp v)) then begin
        Speaker.restart (sp v);
        List.iter
          (fun u ->
            if Speaker.alive (sp u) then begin
              Speaker.session_up (sp v) ~peer:u;
              Speaker.session_up (sp u) ~peer:v
            end)
          (live_neighbors t v);
        (* a restarted origin re-injects its prefix (it survives in the
           router's configuration, not in the lost RIB) *)
        List.iter
          (fun (o, prefix) -> if o = v then Speaker.originate (sp v) prefix)
          t.origins
      end
  | Session_reset (a, b) ->
      if Netcore.Link.is_up (link t a b) then begin
        Speaker.session_down (sp a) ~peer:b;
        Speaker.session_down (sp b) ~peer:a;
        Speaker.session_up (sp a) ~peer:b;
        Speaker.session_up (sp b) ~peer:a
      end

let arm_chaos t ~loss ~dup ~rng =
  Array.iter
    (fun (_, _, link) -> Netcore.Link.set_chaos link ~loss ~dup ~rng ())
    t.edges

(* --- run to drain --- *)

(* Chunks bound how late a watchdog expiry is noticed; they do not
   change which events run. *)
let chunk = 65_536

let drain ?(since = 0) t =
  let rec loop () =
    match Dessim.Engine.next_live_time t.engine with
    | None -> Drained
    | Some next ->
        let used = Dessim.Engine.events_executed t.engine - since in
        if Faults.Watchdog.expired t.watchdog then Wall_budget
        else if used >= t.max_events then Event_budget
        else if
          match t.max_vtime with Some limit -> next > limit | None -> false
        then Vtime_budget
        else begin
          Dessim.Engine.run ?until:t.max_vtime
            ~max_events:
              (Dessim.Engine.events_executed t.engine
              + Stdlib.min chunk (t.max_events - used))
            t.engine;
          loop ()
        end
  in
  loop ()

let set_paths t table =
  Array.iter (fun s -> Speaker.set_path_table s table) t.speakers;
  t.paths <- table

let route_changes t =
  Array.fold_left (fun acc s -> acc + Speaker.route_change_count s) 0 t.speakers

let count_run t =
  match Obs.Bus.counters t.obs with
  | Some c ->
      Obs.Counters.add_events c (Dessim.Engine.events_executed t.engine);
      Obs.Counters.observe_paths_interned c ~count:(As_path.Table.size t.paths)
  | None -> ()
