(* One sample of one benchmark workload, in a fresh process.

     bench.exe WORKLOAD SEED plain    end-to-end metrics of one measured run
     bench.exe WORKLOAD SEED traced   plain run, then the per-layer run
     bench.exe WORKLOAD SEED pins     print the simulated statistics to pin

   A sample sets up, warms up, runs the workload once while the host
   clocks run, times the set-up again for a steady median, and checks
   every simulated statistic: pinned values on the default seed, the
   self-consistency relations on any seed.  It prints one JSON object
   with the metrics it measured; a traced sample has the per-layer
   metrics of the layers its workload calls and this file can time.
   run.py spawns samples and aggregates them.  README.md gives the
   workloads, the metrics and the layer -> end-to-end map. *)

open Bgpsim

(* --- host measurements --- *)

let now = Unix.gettimeofday

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Words allocated by the calling domain: Gc.counters is per domain in
   OCaml 5, so a pool worker measures its own cells (Gc.quick_stat sums
   every domain and would count concurrent cells twice). *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let peak_heap_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words
  *. float_of_int (Sys.word_size / 8)
  /. 1e6

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "median: empty"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* nearest-rank percentile *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let ratio a b = if b = 0. then 0. else a /. b

let md5 s = Digest.to_hex (Digest.string s)

(* --- the simulated-statistics gate --- *)

type gate = {
  mutable attempted : int;
  mutable failed : int;
  mutable notes : string list;
}

let gate = { attempted = 0; failed = 0; notes = [] }

(* One operation: a fig4 cell or a churn run.  Any problem
   (a raise, a non-converged or non-Completed status, a pin or relation
   mismatch) fails it. *)
let operation name problems =
  gate.attempted <- gate.attempted + 1;
  if problems <> [] then begin
    gate.failed <- gate.failed + 1;
    gate.notes <- gate.notes @ List.map (fun p -> name ^ ": " ^ p) problems
  end

let need cond what = if cond then [] else [ what ]

let pinned ~pin ~got what =
  match pin with
  | Some p when p <> got -> [ Printf.sprintf "%s is %s, pinned %s" what got p ]
  | Some _ | None -> []

(* churn pins the default seed only *)
let on_default seed v = if seed = Pins.default_seed then Some v else None

(* --- metrics of this sample --- *)

let e2e : (string * float) list ref = ref []

let layers : (string * float) list ref = ref []

let put table name v = table := !table @ [ (name, v) ]

(* The median of each timed part of [setup] over at least 15 calls and
   0.2 s.  Called after the measured run, which used one call made before
   it: by then the processor runs at speed, and the calls' garbage cannot
   raise the run's peak heap. *)
let setup_medians setup =
  let t0 = now () in
  let rec go k acc =
    let acc = snd (setup ()) :: acc in
    if k >= 15 && now () -. t0 >= 0.2 then acc else go (k + 1) acc
  in
  let reps = go 1 [] in
  fun i -> median (List.map (fun parts -> List.nth parts i) reps)

type measured = { wall : float; cpu : float; words : float; peak_mb : float }

let measure f =
  let c0 = cpu_now () and w0 = alloc_words () and t0 = now () in
  let r = f () in
  let wall = now () -. t0 in
  let cpu = cpu_now () -. c0 in
  (r, { wall; cpu; words = alloc_words () -. w0; peak_mb = peak_heap_mb () })

let put_e2e ~setup_s ~events (m : measured) ~words =
  put e2e "wall_s" m.wall;
  put e2e "cpu_s" m.cpu;
  put e2e "setup_s" setup_s;
  put e2e "events_per_s" (ratio (float_of_int events) m.wall);
  put e2e "alloc_mw" (words /. 1e6);
  put e2e "peak_heap_mb" m.peak_mb

(* --- fig4: Experiment.run over the paper's Fig 4 clique cells --- *)

let fig4_sizes = [ 5; 10; 15; 20; 25; 30 ]

let fig4_cells seed =
  List.concat_map (fun n -> List.init 3 (fun i -> (n, seed + i))) fig4_sizes

let fig4_spec (n, seed) =
  { (Experiment.default_spec (Experiment.Clique n)) with Experiment.seed = seed }

let cell_name (n, s) = Printf.sprintf "clique-%d/seed-%d" n s

(* Run_metrics.t minus wall_clock_s, with exact floats. *)
let render_metrics (m : Metrics.Run_metrics.t) =
  Printf.sprintf
    "conv=%h loopdur=%h exh=%d sent=%d ratio=%h deliv=%d unreach=%d upd=%d \
     wd=%d rc=%d loops=%d lsize=%h lmax=%d ldur=%h ldmax=%h conc=%d conv?=%b \
     inv=%d events=%d"
    m.convergence_time m.overall_looping_duration m.ttl_exhaustions
    m.packets_sent m.looping_ratio m.packets_delivered m.packets_unreachable
    m.updates_sent m.withdrawals_sent m.route_changes m.loop_count
    m.loop_mean_size m.loop_max_size m.loop_mean_duration m.loop_max_duration
    m.max_concurrent_loops m.converged m.invariant_violations m.events_executed

let fig4_relations n (m : Metrics.Run_metrics.t) =
  List.concat
    [
      need m.converged "not converged";
      need (m.invariant_violations = 0) "invariant violations";
      need (m.events_executed > 0) "no events";
      need (m.convergence_time > 0.) "zero convergence time";
      need (m.packets_sent > 0) "no packets sent during convergence";
      need
        (m.looping_ratio
        = float_of_int m.ttl_exhaustions /. float_of_int m.packets_sent)
        "looping_ratio <> exhaustions / packets";
      need
        (m.ttl_exhaustions + m.packets_delivered + m.packets_unreachable
        >= m.packets_sent)
        "packet fates do not cover the packets sent";
      need
        (m.ttl_exhaustions = 0 || m.loop_count > 0)
        "TTL exhaustions without a loop";
      need (m.loop_max_size <= n) "loop larger than the clique";
      need
        (m.max_concurrent_loops <= m.loop_count)
        "more concurrent loops than loops";
    ]

type cell = {
  metrics : Metrics.Run_metrics.t;
  completed : bool;
  cell_wall : float;
  cell_words : float;
}

let plain_cell spec () =
  let w0 = alloc_words () in
  let r = Experiment.run spec in
  {
    metrics = r.Experiment.metrics;
    completed =
      (match Experiment.status r.Experiment.outcome with
      | Experiment.Completed -> true
      | Experiment.Non_converged _ -> false);
    cell_wall = r.Experiment.metrics.Metrics.Run_metrics.wall_clock_s;
    cell_words = alloc_words () -. w0;
  }

(* Experiment.run's degraded analyses for budget-cut runs. *)
let empty_replay : Traffic.Replay.result =
  {
    sent = 0;
    sent_for_ratio = 0;
    delivered = 0;
    unreachable = 0;
    exhausted = 0;
    first_exhaustion = None;
    last_exhaustion = None;
    exhaustion_times = [||];
  }

let empty_loops : Loopscan.Scanner.report =
  {
    loops = [];
    first_loop_birth = None;
    last_loop_death = None;
    max_concurrent = 0;
  }

type layered = {
  cell : cell;
  resolve_s : float;
  routing_s : float;
  replay_s : float;
  scan_s : float;
  make_s : float;
  replay_words : float;
  packets : int;
  exhausted : int;
  fib_changes : int;
  paths_interned : int;
  counters : Obs.Counters.snapshot;
  profile : Obs.Profile.t;
}

(* Experiment.run decomposed into its layer calls, in its order, with a
   clock read at every boundary.  The spec has no pre-flight and no
   partitions, so these calls are all Experiment.run makes. *)
let traced_cell (spec : Experiment.spec) () =
  assert (spec.preflight = Analysis.Preflight.Off && spec.partitions = None);
  let w0 = alloc_words () in
  let t0 = now () in
  let wd = Faults.Watchdog.create ?max_wall_s:spec.max_wall_s () in
  let graph, origin, event = Experiment.resolve_raw spec in
  let config = Bgp.Config.of_enhancement ~mrai:spec.mrai spec.enhancement in
  let t1 = now () in
  let counters = Obs.Counters.create () in
  let obs = Obs.Bus.create ~counters () in
  let profile = Obs.Profile.create () in
  let outcome =
    Bgp.Routing_sim.run ~params:spec.params ~config ~max_events:spec.max_events
      ?max_vtime:spec.max_vtime ~invariants:spec.invariants ~obs ~profile
      ~watchdog:wd ~graph ~origin ~event ~seed:spec.seed ()
  in
  let t2 = now () in
  let fib = Netcore.Trace.fib outcome.trace in
  let window_end = outcome.convergence_end +. spec.replay_tail in
  let tolerant f fallback =
    if Faults.Watchdog.expired wd then fallback
    else if outcome.converged then f ()
    else try f () with Invalid_argument _ -> fallback
  in
  let rw0 = alloc_words () in
  let replay =
    tolerant
      (fun () ->
        Traffic.Replay.run ~fib ~origin ~n:(Topo.Graph.n_nodes graph)
          ~link_delay:spec.params.link_delay ~ttl:spec.params.ttl
          ~rate:spec.params.pkt_rate
          ~window:(outcome.t_fail, window_end)
          ~seed:(spec.seed + 0x7ea) ~ratio_cutoff:outcome.convergence_end ())
      empty_replay
  in
  let replay_words = alloc_words () -. rw0 in
  let t3 = now () in
  let loops =
    tolerant
      (fun () -> Loopscan.Scanner.scan ~obs ~fib ~origin ~from:outcome.t_fail ())
      empty_loops
  in
  let t4 = now () in
  let metrics =
    Metrics.Run_metrics.make ~wall_clock_s:(t4 -. t0) ~outcome ~replay ~loops
      ~loops_until:window_end ()
  in
  let t5 = now () in
  {
    cell =
      {
        metrics;
        completed = outcome.converged;
        cell_wall = t5 -. t0;
        cell_words = alloc_words () -. w0;
      };
    resolve_s = t1 -. t0;
    routing_s = t2 -. t1;
    replay_s = t3 -. t2;
    scan_s = t4 -. t3;
    make_s = t5 -. t4;
    replay_words;
    packets = replay.sent;
    exhausted = replay.exhausted;
    fib_changes = Netcore.Fib_history.change_count fib;
    paths_interned = outcome.paths_interned;
    counters = Obs.Counters.snapshot counters;
    profile;
  }

let fig4_problems ?(extra = fun _ -> []) (n, s) = function
  | Error exn -> [ "raised " ^ Printexc.to_string exn ]
  | Ok c ->
      let got = md5 (render_metrics c.metrics) in
      List.concat
        [
          need c.completed "status is not Completed";
          fig4_relations n c.metrics;
          pinned ~pin:(List.assoc_opt (n, s) Pins.fig4) ~got "metrics digest";
          extra c;
        ]

let sweep ?pool thunk_of specs =
  measure (fun () -> Sweep.run_batch ?pool (List.map thunk_of specs))

let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs

let ok_cells results = List.filter_map Result.to_option results

(* --- churn on internet-110 --- *)

(* The topology is part of the workload, as in the existing churn bench
   group; the seed drives the simulation (delays, the churn schedule) so
   every seed does a comparable amount of work. *)
let internet_n = 110

let internet_graph_seed = 1

let internet_graph () = Topo.Internet.generate ~seed:internet_graph_seed internet_n

let churn_target_events = 3_000_000

let churn_cfg ?(target_events = churn_target_events) ~graph ~seed () =
  let origin = List.hd (Topo.Graph.min_degree_nodes graph) in
  let workload = Churn.Workload.make ~epoch_len:300. ~flap_rate:8. () in
  Churn.Driver.make ~seed ~workload ~epochs:max_int ~target_events ~graph
    ~origin ()

let render_totals (t : Loopscan.Stream.totals) =
  let opt = function Some f -> Printf.sprintf "%h" f | None -> "-" in
  Printf.sprintf
    "started=%d resolved=%d live=%d conc=%d max=%d mean=%h secs=%h first=%s \
     last=%s"
    t.loops_started t.loops_resolved t.live_now t.max_concurrent t.max_size
    t.mean_size t.total_loop_seconds (opt t.first_loop_birth)
    (opt t.last_loop_death)

let render_counters (c : Obs.Counters.snapshot) =
  Printf.sprintf
    "us=%d ur=%d ws=%d wr=%d drop=%d dec=%d fib=%d mrai=%d flap=%d loops=%d \
     ev=%d paths=%d tdrop=%d nodes=%s"
    c.s_updates_sent c.s_updates_recv c.s_withdrawals_sent c.s_withdrawals_recv
    c.s_msgs_dropped c.s_decision_runs c.s_fib_changes c.s_mrai_fires
    c.s_link_flaps c.s_loops_detected c.s_events_executed c.s_paths_interned
    c.s_trace_dropped
    (String.concat ";"
       (List.map
          (fun (i, (p : Obs.Counters.per_node)) ->
            Printf.sprintf "%d:%d/%d/%d/%d/%d" i p.msgs_sent p.msgs_recv
              p.decision_runs p.fib_changes p.queue_depth_hwm)
          c.s_nodes))

(* Every message sent is received or dropped once the network drains. *)
let message_balance (c : Obs.Counters.snapshot) =
  need
    (c.s_updates_sent + c.s_withdrawals_sent
    = c.s_updates_recv + c.s_withdrawals_recv + c.s_msgs_dropped)
    "messages sent <> received + dropped"

let churn_problems ~seed (r : Churn.Driver.result) =
  let t = r.loop_totals and c = r.counters in
  let pin = on_default seed in
  List.concat
    [
      need (r.status = Churn.Driver.Completed)
        ("status " ^ Churn.Driver.status_name r.status);
      need
        (r.events_executed >= churn_target_events)
        "stopped short of target_events";
      need
        (c.s_events_executed = r.events_executed)
        "event counter <> events executed";
      need
        (t.loops_resolved + t.live_now = t.loops_started)
        "loops started <> resolved + live";
      need
        (t.max_concurrent <= max 1 t.loops_started)
        "more concurrent loops than loops";
      need (r.arena_size <= r.arena_peak) "arena larger than its peak";
      message_balance c;
      (match r.chain_digest with
      | Some d ->
          need (String.length d = 32) "malformed chain digest"
          @ pinned ~pin:(pin Pins.churn_chain) ~got:d "chain digest"
      | None -> [ "no chain digest" ]);
      pinned ~pin:(pin Pins.churn_totals) ~got:(md5 (render_totals t))
        "loop_totals digest";
      pinned ~pin:(pin Pins.churn_counters) ~got:(md5 (render_counters c))
        "counters digest";
    ]

(* A short churn run on the same graph and seed: the warm-up of the
   churn workload, and the source of the event mix and queue depth the
   micro probes replay. *)
let churn_capture_events = 150_000

let churn_warmup ?sink ~graph ~seed () =
  let cfg =
    churn_cfg ~target_events:churn_capture_events ~graph ~seed ()
  in
  ignore (Churn.Driver.run ?sink cfg : Churn.Driver.result)

type capture = { events : Obs.Event.t array; depth : float }

(* The depth is the number of messages in flight (each one queued
   engine event: link-deliver or proc-complete) seen by each send. *)
let churn_capture ~graph ~seed =
  let kept = ref [] and inflight = ref 0 and depth_sum = ref 0 and sends = ref 0 in
  let sink =
    Obs.Sink.fn (fun e ->
        kept := e :: !kept;
        match e with
        | Obs.Event.Update_sent _ ->
            depth_sum := !depth_sum + !inflight;
            incr sends;
            incr inflight
        | Obs.Event.Update_recv _ | Obs.Event.Msg_dropped _ -> decr inflight
        | _ -> ())
  in
  churn_warmup ~sink ~graph ~seed ();
  {
    events = Array.of_list (List.rev !kept);
    depth = ratio (float_of_int !depth_sum) (float_of_int !sends);
  }

let run_guarded name f =
  match f () with
  | r -> Some r
  | exception exn ->
      operation name [ "raised " ^ Printexc.to_string exn ];
      None

(* --- micro probes on inputs taken from the workloads --- *)

(* Median over at least 5 passes, and 0.3 s of probing in all, of one
   pass's time per operation. *)
let per_op_ns ~ops pass =
  let rec go acc total =
    if total >= 0.3 && List.length acc >= 5 then acc
    else
      let s = pass () in
      go (s :: acc) (total +. s)
  in
  median (go [] 0.) *. 1e9 /. float_of_int ops

let timed_pass f =
  let t0 = now () in
  ignore (Sys.opaque_identity (f ()));
  now () -. t0

(* The FIB history of the clique-30 cell of this seed. *)
let clique30_fib ~seed =
  let spec = fig4_spec (30, seed) in
  let graph, origin, event = Experiment.resolve_raw spec in
  let config = Bgp.Config.of_enhancement ~mrai:spec.mrai spec.enhancement in
  let o =
    Bgp.Routing_sim.run ~params:spec.params ~config ~graph ~origin ~event
      ~seed:spec.seed ()
  in
  ( Netcore.Trace.fib o.trace,
    origin,
    o.t_fail,
    o.convergence_end +. spec.replay_tail )

(* Forwarding paths of the run: at instants along convergence, each node
   u's next-hop chain to the origin is the AS path u announces
   (extend u path). *)
let announced_paths fib ~origin ~t_fail =
  let n = Netcore.Fib_history.n_nodes fib in
  let instants =
    Netcore.Fib_history.changes_from fib ~from:0.
    |> List.map (fun (c : Netcore.Fib_history.change) -> c.time)
    |> List.sort_uniq Float.compare
  in
  let every = max 1 (List.length instants / 200) in
  let seen = Hashtbl.create 4096 and pairs = ref [] in
  List.iteri
    (fun i t ->
      if i mod every = 0 || t = t_fail then begin
        let hops = Netcore.Fib_history.snapshot fib ~before:(t +. 1e-9) in
        for u = 0 to n - 1 do
          let rec chain v acc len =
            if v = origin then Some (List.rev (origin :: acc))
            else if len > n then None
            else
              match hops.(v) with
              | Some w when not (List.mem v acc) -> chain w (v :: acc) (len + 1)
              | Some _ | None -> None
          in
          let path =
            if u = origin then Some []
            else match hops.(u) with Some w -> chain w [] 0 | None -> None
          in
          match path with
          | Some p when (not (List.mem u p)) && not (Hashtbl.mem seen (u, p)) ->
              Hashtbl.add seen (u, p) ();
              pairs := (u, p) :: !pairs
          | Some _ | None -> ()
        done
      end)
    instants;
  Array.of_list (List.rev !pairs)

(* The probes of the layers fig4 calls: FIB lookups and packet walks
   (replay) and AS-path extends (the speakers), on the clique-30 cell. *)
let micro_fig4 ~seed =
  let params = Netcore.Params.default in
  let fib, origin, t_fail, t_end = clique30_fib ~seed in
  let rng = Random.State.make [| seed |] in
  let n = Netcore.Fib_history.n_nodes fib in
  let q = 100_000 in
  let nodes = Array.init q (fun _ -> Random.State.int rng n) in
  let times =
    Array.init q (fun _ -> t_fail +. Random.State.float rng (t_end -. t_fail))
  in
  put layers "netcore.fib_lookup_ns"
    (per_op_ns ~ops:q (fun () ->
         timed_pass (fun () ->
             let acc = ref 0 in
             for i = 0 to q - 1 do
               match
                 Netcore.Fib_history.lookup fib ~node:nodes.(i) ~time:times.(i)
               with
               | Some h -> acc := !acc + h
               | None -> ()
             done;
             !acc)));
  let walks = 10_000 in
  let srcs =
    Array.init walks (fun i ->
        if nodes.(i) = origin then (origin + 1) mod n else nodes.(i))
  in
  put layers "traffic.walk_ns"
    (per_op_ns ~ops:walks (fun () ->
         timed_pass (fun () ->
             let delivered = ref 0 in
             for i = 0 to walks - 1 do
               match
                 Traffic.Forwarder.walk ~fib ~origin ~link_delay:params.link_delay
                   ~ttl:params.ttl ~src:srcs.(i) ~send_time:times.(i)
               with
               | Traffic.Forwarder.Delivered _ -> incr delivered
               | Traffic.Forwarder.Ttl_exhausted _
               | Traffic.Forwarder.Unreachable _ ->
                   ()
             done;
             !delivered)));
  let pairs = announced_paths fib ~origin ~t_fail in
  (* a pass extends every pair in each of [arenas] fresh arenas, so it
     lasts well over the clock's microsecond *)
  let arenas = 16 in
  put layers "bgp.as_path_extend_ns"
    (per_op_ns ~ops:(arenas * Array.length pairs) (fun () ->
         let prepared =
           List.init arenas (fun _ ->
               let table = Bgp.As_path.Table.create () in
               ( table,
                 Array.map
                   (fun (u, p) -> (u, Bgp.As_path.of_list ~table p))
                   pairs ))
         in
         timed_pass (fun () ->
             List.iter
               (fun (table, bases) ->
                 Array.iter
                   (fun (u, p) ->
                     ignore
                       (Sys.opaque_identity (Bgp.As_path.extend ~table u p)))
                   bases)
               prepared)))

(* The probes of the layers churn calls and fig4 does not: the event
   queue at churn's depth, and the digest's binary encoding of its event
   mix. *)
let micro_churn ~seed ~capture =
  let rng = Random.State.make [| seed |] in
  let depth = max 1 (int_of_float (Float.round capture.depth)) in
  let ops = 200_000 in
  let delays =
    Array.init 4096 (fun _ -> -.log (1. -. Random.State.float rng 1.) *. 0.01)
  in
  put layers "dessim.queue_depth" capture.depth;
  put layers "dessim.queue_push_pop_ns"
    (per_op_ns ~ops (fun () ->
         let queue = Dessim.Event_queue.create () in
         for i = 0 to depth - 1 do
           Dessim.Event_queue.push queue ~time:delays.(i land 4095) i
         done;
         timed_pass (fun () ->
             for i = 0 to ops - 1 do
               let t = Dessim.Event_queue.top_time queue in
               let item = Dessim.Event_queue.pop_item queue in
               Dessim.Event_queue.push queue
                 ~time:(t +. delays.(i land 4095))
                 item
             done)));
  let events = capture.events in
  let buf = Buffer.create (1 lsl 16) in
  put layers "obs.binary_encode_ns"
    (per_op_ns ~ops:(Array.length events) (fun () ->
         timed_pass (fun () ->
             Buffer.clear buf;
             Array.iter
               (fun e ->
                 Obs.Binary.encode buf e;
                 if Buffer.length buf > 1 lsl 20 then Buffer.clear buf)
               events)))

(* Counter-derived layers, common to every workload's traced run. *)
let put_counters (c : Obs.Counters.snapshot) ~(traced : measured)
    ~(plain : measured) =
  put layers "bgp.updates_sent" (float_of_int c.s_updates_sent);
  put layers "bgp.withdrawals_sent" (float_of_int c.s_withdrawals_sent);
  put layers "bgp.decision_runs" (float_of_int c.s_decision_runs);
  put layers "bgp.mrai_fires" (float_of_int c.s_mrai_fires);
  put layers "bgp.fib_changes_per_decision"
    (ratio (float_of_int c.s_fib_changes) (float_of_int c.s_decision_runs));
  put layers "dessim.events" (float_of_int c.s_events_executed);
  put layers "trace_overhead_share" (ratio traced.wall plain.wall -. 1.)

let fig4 ~seed ~mode =
  let cells = fig4_cells seed in
  let specs = List.map fig4_spec cells in
  let setup () =
    let t0 = now () in
    List.iter
      (fun (n, _) -> ignore (Topo.Generators.clique n : Topo.Graph.t))
      cells;
    let t1 = now () in
    List.iter
      (fun (spec : Experiment.spec) ->
        ignore (Experiment.resolve_raw spec : _ * _ * _);
        ignore
          (Bgp.Config.of_enhancement ~mrai:spec.mrai spec.enhancement
            : Bgp.Config.t))
      specs;
    let t2 = now () in
    ((), [ t1 -. t0; t2 -. t1 ])
  in
  let (), _ = setup () in
  (* warm-up: one clique-25 cell (heap growth) *)
  ignore (plain_cell (fig4_spec (25, seed)) () : cell);
  let results, m = sweep plain_cell specs in
  List.iter2
    (fun key r -> operation (cell_name key) (fig4_problems key r))
    cells results;
  let ok = ok_cells results in
  let events = List.fold_left (fun a c -> a + c.metrics.events_executed) 0 ok in
  let setup_part = setup_medians setup in
  put_e2e ~setup_s:(setup_part 1) ~events m
    ~words:(sum (fun c -> c.cell_words) ok);
  if mode = `Traced then begin
    (* a later run of these cells must give Experiment.run's metrics,
       cell for cell *)
    let same_as plain what (c : cell) =
      match plain with
      | Ok p -> need (render_metrics p.metrics = render_metrics c.metrics) what
      | Error _ -> [ "no Experiment.run result to compare" ]
    in
    let check label what results' =
      List.iter2
        (fun (key, plain) r ->
          operation
            (cell_name key ^ " (" ^ label ^ ")")
            (fig4_problems ~extra:(same_as plain what) key r))
        (List.combine cells results)
        results'
    in
    let traced, tm = sweep traced_cell specs in
    check "traced" "layered pipeline differs from Experiment.run"
      (List.map (Result.map (fun l -> l.cell)) traced);
    let ls = ok_cells traced in
    let isum f = sum (fun l -> float_of_int (f l)) ls in
    let counters =
      List.fold_left
        (fun acc l -> Obs.Counters.merge acc l.counters)
        (Obs.Counters.snapshot (Obs.Counters.create ()))
        ls
    in
    let profile = Obs.Profile.create () in
    List.iter (fun l -> Obs.Profile.merge_into ~src:l.profile ~dst:profile) ls;
    let tag_s tag =
      match List.assoc_opt tag (Obs.Profile.kinds profile) with
      | Some k -> k.Obs.Profile.wall_total_s
      | None -> 0.
    in
    let replay_s = sum (fun l -> l.replay_s) ls in
    let scan_s = sum (fun l -> l.scan_s) ls in
    let packets = isum (fun l -> l.packets) in
    let fib_changes = isum (fun l -> l.fib_changes) in
    put layers "topo.generate_s" (setup_part 0);
    put layers "topo.resolve_s" (sum (fun l -> l.resolve_s) ls);
    put layers "traffic.replay_s" replay_s;
    put layers "traffic.packets" packets;
    put layers "traffic.ns_per_packet" (ratio (replay_s *. 1e9) packets);
    put layers "traffic.exhausted_share"
      (ratio (isum (fun l -> l.exhausted)) packets);
    put layers "traffic.alloc_mw" (sum (fun l -> l.replay_words) ls /. 1e6);
    put layers "netcore.proc_complete_s" (tag_s "proc-complete");
    put layers "netcore.link_deliver_s" (tag_s "link-deliver");
    put layers "netcore.fib_changes" fib_changes;
    put layers "bgp.routing_sim_s" (sum (fun l -> l.routing_s) ls);
    put layers "bgp.mrai_fire_s" (tag_s "mrai-fire");
    put layers "bgp.paths_interned" (isum (fun l -> l.paths_interned));
    put layers "loopscan.scan_s" scan_s;
    put layers "loopscan.ns_per_fib_change" (ratio (scan_s *. 1e9) fib_changes);
    put layers "loopscan.loops"
      (isum (fun l -> l.cell.metrics.Metrics.Run_metrics.loop_count));
    put layers "metrics.make_s" (sum (fun l -> l.make_s) ls);
    put_counters counters ~traced:tm ~plain:m;
    (* the sweep pool, as bench fig4 and bgpsim figures run it: the same
       cells on min(2, recommended domains) workers *)
    let jobs = min 2 (Domain.recommended_domain_count ()) in
    let pool, start = measure (fun () -> Parallel.create ~jobs ()) in
    let pooled, pm = sweep ~pool plain_cell specs in
    Parallel.shutdown pool;
    check "pooled" "pooled cell differs from the sequential run" pooled;
    let busy = sum (fun c -> c.cell_wall) (ok_cells pooled) in
    let capacity = float_of_int jobs *. pm.wall in
    put layers "core.pool_efficiency" (ratio busy capacity);
    put layers "core.pool_idle_s" (capacity -. busy);
    put layers "core.pool_start_s" start.wall;
    micro_fig4 ~seed
  end

let churn ~seed ~mode =
  let setup () =
    let t0 = now () in
    let graph = internet_graph () in
    let t1 = now () in
    let cfg = churn_cfg ~graph ~seed () in
    let t2 = now () in
    (cfg, [ t1 -. t0; t2 -. t1 ])
  in
  let cfg, _ = setup () in
  let graph = cfg.Churn.Driver.graph in
  churn_warmup ~graph ~seed ();
  let r, m =
    measure (fun () ->
        run_guarded "churn-110" (fun () -> Churn.Driver.run cfg))
  in
  Option.iter (fun r -> operation "churn-110" (churn_problems ~seed r)) r;
  let events =
    match r with Some r -> r.Churn.Driver.events_executed | None -> 0
  in
  let setup_part = setup_medians setup in
  put_e2e ~setup_s:(setup_part 0 +. setup_part 1) ~events m ~words:m.words;
  if mode = `Traced then begin
    let last = ref None and epoch_walls = ref [] in
    let on_epoch _ =
      let t = now () in
      Option.iter (fun l -> epoch_walls := (t -. l) :: !epoch_walls) !last;
      last := Some t
    in
    let tr, tm =
      measure (fun () ->
          run_guarded "churn-110 (traced)" (fun () ->
              Churn.Driver.run ~on_epoch cfg))
    in
    Option.iter
      (fun (t : Churn.Driver.result) ->
        let plain_digest = Option.bind r (fun r -> r.Churn.Driver.chain_digest) in
        operation "churn-110 (traced)"
          (churn_problems ~seed t
          @ need (t.chain_digest = plain_digest) "traced chain digest differs");
        let c = t.counters in
        put layers "topo.generate_s" (setup_part 0);
        put layers "topo.resolve_s" (setup_part 1);
        put layers "netcore.fib_changes" (float_of_int c.s_fib_changes);
        put layers "bgp.paths_interned" (float_of_int c.s_paths_interned);
        put layers "loopscan.loops" (float_of_int t.loop_totals.loops_started);
        put layers "churn.run_s" tm.wall;
        put layers "churn.epochs" (float_of_int t.epochs_completed);
        put layers "churn.epoch_s.p50" (percentile !epoch_walls 0.5);
        put layers "churn.epoch_s.p99" (percentile !epoch_walls 0.99);
        put layers "churn.arena_peak" (float_of_int t.arena_peak);
        put layers "churn.arena_words" (float_of_int t.arena_words);
        put_counters c ~traced:tm ~plain:m)
      tr;
    micro_churn ~seed ~capture:(churn_capture ~graph ~seed)
  end

(* --- output --- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else failwith "non-finite metric value"

let json_object kvs =
  let field (k, v) = json_string k ^ ": " ^ v in
  "{" ^ String.concat ", " (List.map field kvs) ^ "}"

let print_sample ~workload ~seed ~mode =
  let numbers table =
    json_object (List.map (fun (k, v) -> (k, json_number v)) table)
  in
  let notes = "[" ^ String.concat ", " (List.map json_string gate.notes) ^ "]" in
  print_endline
    (json_object
       [
         ("workload", json_string workload);
         ("seed", string_of_int seed);
         ("mode", json_string mode);
         ("attempted", string_of_int gate.attempted);
         ("failed", string_of_int gate.failed);
         ("notes", notes);
         ( "recommended_domains",
           string_of_int (Domain.recommended_domain_count ()) );
         ("ocaml", json_string Sys.ocaml_version);
         ("e2e", numbers !e2e);
         ("layers", numbers !layers);
       ])

(* The values pins.ml holds, computed by the current code. *)
let print_pins ~workload ~seed =
  match workload with
  | "fig4-clique" ->
      List.iter
        (fun (n, s) ->
          let c = plain_cell (fig4_spec (n, s)) () in
          Printf.printf "    ((%d, %d), %S);\n" n s
            (md5 (render_metrics c.metrics)))
        (fig4_cells seed)
  | "churn-110" ->
      let r = Churn.Driver.run (churn_cfg ~graph:(internet_graph ()) ~seed ()) in
      Printf.printf "let churn_chain = %S\n"
        (Option.value r.chain_digest ~default:"");
      Printf.printf "let churn_totals = %S\n" (md5 (render_totals r.loop_totals));
      Printf.printf "let churn_counters = %S\n" (md5 (render_counters r.counters))
  | w -> failwith ("unknown workload " ^ w)

let () =
  match Sys.argv with
  | [| _; workload; seed; "pins" |] ->
      print_pins ~workload ~seed:(int_of_string seed)
  | [| _; workload; seed; ("plain" | "traced" as mode_s) |] ->
      let seed = int_of_string seed in
      let mode = if mode_s = "traced" then `Traced else `Plain in
      (match workload with
      | "fig4-clique" -> fig4 ~seed ~mode
      | "churn-110" -> churn ~seed ~mode
      | w -> failwith ("unknown workload " ^ w));
      print_sample ~workload ~seed ~mode:mode_s
  | _ ->
      prerr_endline "usage: bench.exe WORKLOAD SEED plain|traced|pins";
      exit 2
