(* Reproduction harness for every figure in the paper's evaluation
   (Figures 4-9; the paper has no tables), plus ablation studies of the
   model choices called out in DESIGN.md §6 and the extension
   workloads.  It prints tables; performance is recorded by the fixed
   benchmark in perfbench/.

     dune exec bench/main.exe                    # everything
     dune exec bench/main.exe -- fig4            # one figure group
     dune exec bench/main.exe -- --jobs 4 fig4   # sweeps on 4 worker domains

   The figure groups print the series of Bgpsim.Figures.  Figures 4
   and 6 are two views (durations vs exhaustions) of the same runs, as
   are Figures 5 and 7.  The figure groups run their (spec, seed)
   batches through a shared Sweep/Parallel domain pool; results are
   identical to a sequential run by construction (see DESIGN.md
   §"Performance"), only faster on multicore hosts. *)

open Bgpsim

let say fmt = Format.printf (fmt ^^ "@.")

let print_table ~title ~header rows =
  print_string (Report.table ~title ~header ~rows)

let fit_line ~label series ~y =
  match series with
  | _ :: _ :: _ ->
      let fit = Sweep.linearity series ~x:(fun x -> x) ~y in
      say "  fit: %s %a" label Stats.Linear_fit.pp fit
  | _ -> ()

let x_cell x = Printf.sprintf "%g" x

(* --- Figures 4-7: metric vs network size or MRAI --- *)

let duration_rows series =
  List.map
    (fun (x, (m : Metrics.Run_metrics.t)) ->
      [
        x_cell x;
        Report.float_cell m.convergence_time;
        Report.float_cell m.overall_looping_duration;
      ])
    series

let exhaustion_rows series =
  List.map
    (fun (x, (m : Metrics.Run_metrics.t)) ->
      [
        x_cell x;
        string_of_int m.ttl_exhaustions;
        Report.ratio_cell m.looping_ratio;
      ])
    series

let duration_header = [ "conv(s)"; "loop-dur(s)" ]

let exhaustion_header = [ "ttl-exh"; "ratio" ]

let standard_runs ~pool group =
  List.map
    (fun (s : Figures.series) ->
      (s, Sweep.series ~pool ~make:s.make ~seeds:s.seeds s.xs))
    (Figures.in_group group)

(* One table per series, titled by [caption] of its captions; [fits i]
   lists the least-squares fits printed under the [i]th table. *)
let print_view ~caption ~header ~rows ?(fits = fun _ -> []) runs =
  List.iteri
    (fun i ((s : Figures.series), data) ->
      print_table ~title:(caption s.captions) ~header:(s.x_label :: header)
        (rows data);
      List.iter (fun (label, y) -> fit_line ~label data ~y) (fits i);
      say "")
    runs

let fig4_6 ~pool =
  say "=== Figures 4 & 6: looping vs network size ===@.";
  let runs = standard_runs ~pool "fig4" in
  print_view ~caption:fst ~header:duration_header ~rows:duration_rows runs;
  say
    "Observation 1 check: in T_down the looping duration should sit a few@,\
     seconds under the convergence time; in T_long the gap is ~1 MRAI.";
  say "";
  print_view ~caption:snd ~header:exhaustion_header ~rows:exhaustion_rows runs;
  say
    "Observation 2 check: ratio >65%% for T_down cliques of size >=15, >35%%@,\
     for T_long b-cliques of size >=15.";
  say ""

let fig5_7 ~pool =
  say "=== Figures 5 & 7: looping vs MRAI value ===@.";
  let runs = standard_runs ~pool "fig5" in
  let conv (m : Metrics.Run_metrics.t) = m.convergence_time in
  let loop (m : Metrics.Run_metrics.t) = m.overall_looping_duration in
  let exh (m : Metrics.Run_metrics.t) = float_of_int m.ttl_exhaustions in
  (* every series fits convergence; the clique one (i = 0) also fits
     looping duration and exhaustions *)
  print_view ~caption:fst ~header:duration_header ~rows:duration_rows
    ~fits:(fun i ->
      ("convergence ~", conv)
      :: (if i = 0 then [ ("looping dur ~", loop) ] else []))
    runs;
  print_view ~caption:snd ~header:exhaustion_header ~rows:exhaustion_rows
    ~fits:(fun i -> if i = 0 then [ ("exhaustions ~", exh) ] else [])
    runs;
  say
    "Observation 1/2 checks: convergence, looping duration and exhaustion@,\
     counts all linear in the MRAI (R^2 near 1); the looping ratio column@,\
     stays flat.";
  say ""

(* --- Figures 8 and 9: enhancement comparisons --- *)

let enhancement_tables ~pool (s : Figures.series) =
  (* one series per enhancement over all x values, so the pool sees the
     whole (x x seed) space of each series at once *)
  let per_enh =
    List.map
      (fun (enh, _, make) ->
        (enh, Sweep.series ~pool ~make ~seeds:s.seeds s.xs))
      (Figures.runs s)
  in
  let per_x =
    List.mapi
      (fun i x ->
        (x, List.map (fun (enh, series) -> (enh, snd (List.nth series i))) per_enh))
      s.xs
  in
  let header =
    s.x_label :: List.map (fun (enh, _) -> Bgp.Enhancement.name enh) per_enh
  in
  let exh_rows =
    List.map
      (fun (x, ms) ->
        let std =
          match List.assoc Bgp.Enhancement.Standard ms with
          | (m : Metrics.Run_metrics.t) -> Stdlib.max m.ttl_exhaustions 1
        in
        x_cell x
        :: List.map
             (fun (_, (m : Metrics.Run_metrics.t)) ->
               Printf.sprintf "%.3f"
                 (float_of_int m.ttl_exhaustions /. float_of_int std))
             ms)
      per_x
  in
  let conv_rows =
    List.map
      (fun (x, ms) ->
        x_cell x
        :: List.map
             (fun (_, (m : Metrics.Run_metrics.t)) ->
               Report.float_cell m.convergence_time)
             ms)
      per_x
  in
  print_table ~title:(fst s.captions) ~header exh_rows;
  say "";
  print_table ~title:(snd s.captions) ~header conv_rows;
  say ""

let fig8 ~pool =
  say "=== Figure 8: T_down convergence enhancements ===@.";
  List.iter (enhancement_tables ~pool) (Figures.in_group "fig8");
  say
    "Observation 3 checks: Assertion ~0 on cliques but weaker on Internet@,\
     topologies; Ghost Flushing <=0.2 normalized everywhere; SSLD a mild@,\
     <1 factor; WRATE near or above 1.";
  say ""

let fig9 ~pool =
  say "=== Figure 9: T_long convergence enhancements ===@.";
  List.iter (enhancement_tables ~pool) (Figures.in_group "fig9")

(* --- ablations (DESIGN.md §6) --- *)

let ablations () =
  say "=== Ablations: model choices behind the reproduction ===@.";
  (* MRAI jitter *)
  let jitter_rows =
    List.map
      (fun (label, jitter) ->
        let config_mrai spec = spec in
        ignore config_mrai;
        let metrics =
          List.map
            (fun seed ->
              let graph = Topo.Generators.clique 10 in
              let config =
                { Bgp.Config.default with mrai_jitter_min = jitter }
              in
              let o =
                Bgp.Routing_sim.run ~config ~graph ~origin:0
                  ~event:Bgp.Routing_sim.Tdown ~seed ()
              in
              Bgp.Routing_sim.convergence_time o)
            Figures.seeds
        in
        let arr = Array.of_list metrics in
        [
          label;
          Report.float_cell (Stats.Descriptive.mean arr);
          Report.float_cell (Stats.Descriptive.stddev arr);
        ])
      [ ("none (1.0)", 1.0); ("rfc (0.75)", 0.75); ("wide (0.5)", 0.5) ]
  in
  print_string
    (Report.table ~title:"MRAI jitter vs T_down convergence (clique-10)"
       ~header:[ "jitter"; "conv mean(s)"; "conv sd(s)" ]
       ~rows:jitter_rows);
  say "";
  (* processing delay magnitude: the paper sets it two orders above the
     link delay; show MRAI dominance is robust to reducing it *)
  let proc_rows =
    List.map
      (fun (label, lo, hi) ->
        let params =
          { Netcore.Params.default with proc_delay_min = lo; proc_delay_max = hi }
        in
        let m =
          Sweep.over_seeds
            { (Experiment.default_spec (Experiment.Clique 10)) with params; mrai = 30. }
            ~seeds:Figures.seeds
        in
        [
          label;
          Report.float_cell m.convergence_time;
          Report.float_cell m.overall_looping_duration;
          Report.ratio_cell m.looping_ratio;
        ])
      [
        ("U(0.1,0.5)s (paper)", 0.1, 0.5);
        ("U(0.01,0.05)s", 0.01, 0.05);
        ("U(0.001,0.005)s", 0.001, 0.005);
      ]
  in
  print_string
    (Report.table
       ~title:
         "Processing delay vs looping (clique-10, T_down): MRAI still dominates"
       ~header:[ "proc delay"; "conv(s)"; "loop-dur(s)"; "ratio" ]
       ~rows:proc_rows);
  say "";
  (* tie-breaking policy *)
  let tie_rows =
    List.map
      (fun (label, prefer) ->
        let policy = { Bgp.Policy.shortest_path with prefer; name = label } in
        let m =
          List.map
            (fun seed ->
              let graph = Topo.Generators.clique 10 in
              let config = { Bgp.Config.default with policy } in
              let o =
                Bgp.Routing_sim.run ~config ~graph ~origin:0
                  ~event:Bgp.Routing_sim.Tdown ~seed ()
              in
              Bgp.Routing_sim.convergence_time o)
            Figures.seeds
        in
        [
          label;
          Report.float_cell (Stats.Descriptive.mean (Array.of_list m));
        ])
      [
        ( "lowest-id (paper)",
          fun ~self:_ (a : Bgp.Policy.candidate) (b : Bgp.Policy.candidate) ->
            Bgp.As_path.compare a.path b.path );
        ( "highest-id",
          fun ~self:_ (a : Bgp.Policy.candidate) (b : Bgp.Policy.candidate) ->
            let c = compare (Bgp.As_path.length a.path) (Bgp.As_path.length b.path) in
            if c <> 0 then c else Bgp.As_path.compare_lex b.path a.path );
      ]
  in
  print_string
    (Report.table
       ~title:"Tie-breaking direction vs convergence (aggregate trends robust)"
       ~header:[ "tie-break"; "conv(s)" ]
       ~rows:tie_rows);
  say "";
  (* WRATE with a collapsing vs FIFO rate limiter (EXPERIMENTS.md
     deviation 2): a limiter that still transmits superseded states
     keeps stale information flowing and should loop more *)
  let wrate_rows =
    List.concat_map
      (fun (scenario, event) ->
        List.map
          (fun (label, mode) ->
            let results =
              List.map
                (fun seed ->
                  let graph = Topo.Internet.generate ~seed 75 in
                  let survivable_link v =
                    List.find_opt
                      (fun peer ->
                        Topo.Graph.is_connected
                          (Topo.Graph.remove_edge graph v peer))
                      (Topo.Graph.neighbors graph v)
                  in
                  let origin =
                    match event with
                    | `Tdown -> List.hd (Topo.Internet.stub_nodes graph)
                    | `Tlong ->
                        (* lowest-degree node whose link loss is survivable *)
                        List.find
                          (fun v -> survivable_link v <> None)
                          (List.sort
                             (fun a b ->
                               compare (Topo.Graph.degree graph a)
                                 (Topo.Graph.degree graph b))
                             (Topo.Graph.nodes graph))
                  in
                  let config =
                    {
                      Bgp.Config.default with
                      wrate = true;
                      rate_limiter = mode;
                    }
                  in
                  let event =
                    match event with
                    | `Tdown -> Bgp.Routing_sim.Tdown
                    | `Tlong -> (
                        match survivable_link origin with
                        | Some peer ->
                            Bgp.Routing_sim.Tlong { a = origin; b = peer }
                        | None -> assert false)
                  in
                  let o = Bgp.Routing_sim.run ~config ~graph ~origin ~event ~seed () in
                  let fib = Netcore.Trace.fib o.trace in
                  let replay =
                    Traffic.Replay.run ~fib ~origin
                      ~n:(Topo.Graph.n_nodes graph) ~link_delay:0.002 ~ttl:128
                      ~rate:10.
                      ~window:(o.t_fail, o.convergence_end +. 2.)
                      ~seed:(seed + 31) ~ratio_cutoff:o.convergence_end ()
                  in
                  ( Bgp.Routing_sim.convergence_time o,
                    float_of_int replay.exhausted ))
                Figures.seeds
            in
            let convs = Array.of_list (List.map fst results) in
            let exhs = Array.of_list (List.map snd results) in
            [
              scenario;
              label;
              Report.float_cell (Stats.Descriptive.mean convs);
              Report.float_cell (Stats.Descriptive.mean exhs);
            ])
          [ ("collapse", Bgp.Mrai.Collapse); ("fifo", Bgp.Mrai.Fifo) ])
      [ ("Tdown", `Tdown); ("Tlong", `Tlong) ]
  in
  print_string
    (Report.table
       ~title:"WRATE rate-limiter semantics on internet-75 (deviation 2 probe)"
       ~header:[ "event"; "limiter"; "conv(s)"; "ttl-exh" ]
       ~rows:wrate_rows);
  say ""

(* --- topology provenance (paper footnote 1) --- *)

let provenance () =
  say "=== Ablation: topology provenance (paper footnote 1) ===@.";
  say
    "The same T_down measurement on 48-node graphs from three different@,\
     generators: the trends (looping ~ convergence, high ratio) should@,\
     not depend on the model that produced the topology.";
  say "";
  let families =
    [
      ("internet (ours)", fun seed -> Topo.Internet.generate ~seed 48);
      ("waxman", fun seed -> Topo.Random_graphs.waxman ~seed 48);
      ("glp m=2", fun seed -> Topo.Random_graphs.glp ~m:2 ~seed 48);
    ]
  in
  let rows =
    List.map
      (fun (label, gen) ->
        let samples =
          List.map
            (fun seed ->
              let graph = gen seed in
              let origin = List.hd (Topo.Graph.min_degree_nodes graph) in
              let o =
                Bgp.Routing_sim.run ~graph ~origin ~event:Bgp.Routing_sim.Tdown
                  ~seed ()
              in
              let fib = Netcore.Trace.fib o.trace in
              let replay =
                Traffic.Replay.run ~fib ~origin ~n:(Topo.Graph.n_nodes graph)
                  ~link_delay:0.002 ~ttl:128 ~rate:10.
                  ~window:(o.t_fail, o.convergence_end +. 2.)
                  ~seed:(seed + 5) ~ratio_cutoff:o.convergence_end ()
              in
              ( Bgp.Routing_sim.convergence_time o,
                Traffic.Replay.overall_looping_duration replay,
                Traffic.Replay.looping_ratio replay ))
            Figures.seeds
        in
        let col f = Array.of_list (List.map f samples) in
        [
          label;
          Report.float_cell (Stats.Descriptive.mean (col (fun (c, _, _) -> c)));
          Report.float_cell (Stats.Descriptive.mean (col (fun (_, d, _) -> d)));
          Report.ratio_cell (Stats.Descriptive.mean (col (fun (_, _, r) -> r)));
        ])
      families
  in
  print_string
    (Report.table ~title:"T_down on 48 nodes across topology generators"
       ~header:[ "generator"; "conv(s)"; "loop-dur(s)"; "ratio" ]
       ~rows);
  say ""

(* --- route-flap damping on link flaps (extension) --- *)

let damping () =
  say "=== Extension: route-flap damping vs a single link flap ===@.";
  say
    "RFC 2439 damping suppresses flapping routes; BGP path exploration@,\
     makes one physical flap look like many route flaps downstream@,\
     (Mao et al.), so the network stays off the recovered path until@,\
     penalties decay.";
  say "";
  let damped_config half_life =
    {
      Bgp.Config.default with
      damping =
        Some
          {
            Bgp.Damping.default_params with
            half_life;
            suppress_threshold = 1.4;
          };
    }
  in
  let scenarios =
    [
      ("b-clique-6 flap 15s", Topo.Generators.b_clique 6, 0, 6, 15.);
      ("b-clique-10 flap 15s", Topo.Generators.b_clique 10, 0, 10, 15.);
    ]
  in
  let rows =
    List.concat_map
      (fun (label, graph, a, b, down_for) ->
        let event = Bgp.Routing_sim.Tshort { a; b; down_for } in
        List.map
          (fun (mech, config) ->
            let convs =
              List.map
                (fun seed ->
                  let o =
                    Bgp.Routing_sim.run ?config ~graph ~origin:0 ~event ~seed ()
                  in
                  Bgp.Routing_sim.convergence_time o)
                Figures.seeds
            in
            [
              label;
              mech;
              Report.float_cell
                (Stats.Descriptive.mean (Array.of_list convs));
            ])
          [
            ("plain", None);
            ("damped hl=120s", Some (damped_config 120.));
            ("damped hl=300s", Some (damped_config 300.));
          ])
      scenarios
  in
  print_string
    (Report.table ~title:"time to quiesce after one T_short flap"
       ~header:[ "scenario"; "mechanism"; "settle(s)" ]
       ~rows);
  say ""

(* --- multi-prefix churn interference (extension) --- *)

let interference () =
  say "=== Extension: background churn vs victim convergence ===@.";
  say
    "One stub prefix suffers a T_down while other origins flap their own@,\
     prefixes; all updates share each router's serial processing queue.";
  say "";
  let graph = Topo.Internet.generate ~seed:1 48 in
  let victim_origin = List.hd (Topo.Internet.stub_nodes graph) in
  let background =
    List.filteri (fun i _ -> i < 8)
      (List.sort
         (fun a b ->
           compare (Topo.Graph.degree graph b) (Topo.Graph.degree graph a))
         (List.filter (fun v -> v <> victim_origin) (Topo.Graph.nodes graph)))
  in
  let origins = victim_origin :: background in
  let flappers = List.mapi (fun i _ -> i + 1) background in
  let scenarios =
    [
      ("quiet", None);
      ("flap every 60s", Some { Bgp.Mesh_sim.period = 60.; cycles = 8; flappers });
      ("flap every 30s", Some { Bgp.Mesh_sim.period = 30.; cycles = 16; flappers });
      ("flap every 10s", Some { Bgp.Mesh_sim.period = 10.; cycles = 48; flappers });
    ]
  in
  let rows =
    List.map
      (fun (label, churn) ->
        let samples =
          List.map
            (fun seed ->
              let o =
                Bgp.Mesh_sim.run ?churn ~graph ~origins ~victim:0 ~seed ()
              in
              let fib = List.assoc o.victim o.prefixes in
              let replay =
                Traffic.Replay.run ~fib ~origin:victim_origin
                  ~n:(Topo.Graph.n_nodes graph) ~link_delay:0.002 ~ttl:128
                  ~rate:10.
                  ~window:(o.t_fail, o.victim_convergence_end +. 2.)
                  ~seed:(seed + 13)
                  ~ratio_cutoff:o.victim_convergence_end ()
              in
              ( Bgp.Mesh_sim.convergence_time o,
                float_of_int replay.exhausted,
                float_of_int o.background_messages ))
            Figures.seeds
        in
        let col f = Array.of_list (List.map f samples) in
        [
          label;
          Report.float_cell
            (Stats.Descriptive.mean (col (fun (c, _, _) -> c)));
          Report.float_cell
            (Stats.Descriptive.mean (col (fun (_, e, _) -> e)));
          Report.float_cell
            (Stats.Descriptive.mean (col (fun (_, _, b) -> b)));
        ])
      scenarios
  in
  print_string
    (Report.table
       ~title:"victim T_down on internet-48 under background churn"
       ~header:[ "background"; "victim conv(s)"; "victim ttl-exh"; "bg msgs" ]
       ~rows);
  say ""

(* --- sustained churn: long-horizon service-mode throughput ---

   One persistent simulation driven through flap epochs by the churn
   engine (streaming loop detection, arena compaction every 8 epochs,
   no checkpoints).  The full groups run to 10 M engine events and
   gate two regressions: throughput must stay at or above the one-shot
   routing-sim T_down floor of the internet sweeps (446 k ev/s), and
   the peak heap must stay flat across the horizon — bounded-memory
   operation is the point of the service mode.  The churn-digest
   variant keeps the per-epoch digest chain on (folding Obs.Binary
   frames), measuring the fully-audited fast path. *)

let churn_floor_ev_s = 446_000.

let churn_group ~smoke ~digest () =
  let n = 110 in
  let graph = Topo.Internet.generate ~seed:1 n in
  let origin = List.hd (Topo.Graph.min_degree_nodes graph) in
  let target_events = if smoke then 200_000 else 10_000_000 in
  let workload = Churn.Workload.make ~epoch_len:300. ~flap_rate:8. () in
  let cfg =
    Churn.Driver.make ~seed:1 ~workload ~epochs:max_int ~target_events
      ~compact_every:8 ~digest ~graph ~origin ()
  in
  say
    "=== Churn: sustained service mode on internet-%d (target %d events, \
     digest %s) ===@."
    n target_events
    (if digest then "on" else "off");
  (* peak-heap sample once the run is warm (10 % of the horizon, past
     GC ramp-up); the flat-heap gate compares the end-of-run peak
     against it *)
  let heap_early = ref None in
  let events_seen = ref 0 in
  let on_epoch (e : Churn.Driver.epoch_info) =
    events_seen := !events_seen + e.Churn.Driver.ei_events;
    if !heap_early = None && !events_seen >= target_events / 10 then
      heap_early := Some (Gc.quick_stat ()).Gc.top_heap_words
  in
  let t0 = Unix.gettimeofday () in
  let r = Churn.Driver.run ~on_epoch cfg in
  let wall = Unix.gettimeofday () -. t0 in
  let heap_final = (Gc.quick_stat ()).Gc.top_heap_words in
  let ev_s =
    if wall > 0. then float_of_int r.Churn.Driver.events_executed /. wall
    else 0.
  in
  let t = r.Churn.Driver.loop_totals in
  (match r.Churn.Driver.chain_digest with
  | Some d -> say "chain-digest %s" d
  | None -> ());
  print_string
    (Report.table
       ~title:
         (if smoke then "churn smoke"
          else if digest then "churn: 10M-event horizon (digest chain on)"
          else "churn: 10M-event horizon")
       ~header:
         [
           "epochs"; "events"; "wall(s)"; "ev/s"; "fib-chg"; "loops";
           "arena"; "arena-peak"; "heap-Mw";
         ]
       ~rows:
         [
           [
             string_of_int r.Churn.Driver.epochs_completed;
             string_of_int r.Churn.Driver.events_executed;
             Printf.sprintf "%.3f" wall;
             Printf.sprintf "%.0f" ev_s;
             string_of_int r.Churn.Driver.counters.Obs.Counters.s_fib_changes;
             string_of_int t.Loopscan.Stream.loops_started;
             string_of_int r.Churn.Driver.arena_size;
             string_of_int r.Churn.Driver.arena_peak;
             Printf.sprintf "%.1f" (float_of_int heap_final /. 1e6);
           ];
         ]);
  say "";
  (match r.Churn.Driver.status with
  | Churn.Driver.Completed -> ()
  | s ->
      say "churn did not complete: %s" (Churn.Driver.status_name s);
      exit 1);
  if not smoke then begin
    (match !heap_early with
    | Some early when heap_final > early + (early / 2) ->
        say
          "FLAT-HEAP GATE FAILED: peak heap grew %.1f Mw (10%% mark) -> %.1f \
           Mw (end)"
          (float_of_int early /. 1e6)
          (float_of_int heap_final /. 1e6);
        exit 1
    | Some early ->
        say "flat-heap gate: %.1f Mw (10%% mark) -> %.1f Mw (end)  OK"
          (float_of_int early /. 1e6)
          (float_of_int heap_final /. 1e6)
    | None -> say "flat-heap gate: run too short to sample (skipped)");
    if ev_s < churn_floor_ev_s then begin
      say "THROUGHPUT GATE FAILED: %.0f ev/s < %.0f ev/s floor" ev_s
        churn_floor_ev_s;
      exit 1
    end
    else say "throughput gate: %.0f ev/s >= %.0f ev/s floor  OK" ev_s
           churn_floor_ev_s
  end;
  say ""

(* --- full-mesh multi-prefix workload (ROADMAP item 2) ---

   Every AS on internet-110 originates its own prefix — 110 RIB shards
   per speaker keyed by packed (prefix_id, peer), one batched MRAI
   timer per peer — over one arena and one event stream.  After the
   shared warm-up the min-degree stub's prefix is withdrawn while 30
   background origins flap for 20 cycles, so each seed drives millions
   of engine events through the per-prefix decision process
   (EXPERIMENTS.md §"Full-mesh workload"). *)

let mesh_group ~smoke () =
  let n = if smoke then 20 else 110 in
  let graph = Topo.Internet.generate ~seed:1 n in
  let victim = List.hd (Topo.Graph.min_degree_nodes graph) in
  let flappers =
    (* 30 deterministic background flappers (origin index = node id) *)
    List.filter (fun i -> i <> victim) (List.init n Fun.id)
    |> List.filteri (fun i _ -> i < if smoke then 4 else 30)
  in
  let churn =
    {
      Bgp.Mesh_sim.period = 60.;
      cycles = (if smoke then 2 else 20);
      flappers;
    }
  in
  say
    "=== Mesh: full-mesh T_down + background flaps on internet-%d (%d \
     prefixes, seeds {%s}) ===@."
    n n
    (String.concat "," (List.map string_of_int Figures.seeds));
  let cells =
    List.map
      (fun seed ->
        let before = Gc.quick_stat () in
        let t0 = Unix.gettimeofday () in
        let o = Bgp.Mesh_sim.run ~churn ~graph ~victim ~seed () in
        let wall = Unix.gettimeofday () -. t0 in
        let after = Gc.quick_stat () in
        let alloc_words =
          after.Gc.minor_words +. after.Gc.major_words
          -. after.Gc.promoted_words
          -. (before.Gc.minor_words +. before.Gc.major_words
             -. before.Gc.promoted_words)
        in
        (seed, o, wall, alloc_words, after.Gc.top_heap_words))
      Figures.seeds
  in
  let rows =
    List.map
      (fun (seed, (o : Bgp.Mesh_sim.outcome), wall, alloc_words, top_heap) ->
        let until = o.victim_convergence_end in
        let loops, loop_s =
          List.fold_left
            (fun (c, s) (_, r) ->
              let a = Loopscan.Scanner.aggregate r ~until in
              (c + a.count, s +. a.total_loop_seconds))
            (0, 0.) o.loop_reports
        in
        [
          string_of_int seed;
          string_of_int (List.length o.prefixes);
          string_of_int o.events_executed;
          Printf.sprintf "%.3f" wall;
          (if wall > 0. then
             Printf.sprintf "%.0f" (float_of_int o.events_executed /. wall)
           else "-");
          Report.float_cell (Bgp.Mesh_sim.convergence_time o);
          (if o.converged then "yes" else "NO");
          string_of_int loops;
          Printf.sprintf "%.1f" loop_s;
          Printf.sprintf "%.1f" (alloc_words /. 1e6);
          Printf.sprintf "%.1f" (float_of_int top_heap /. 1e6);
          string_of_int o.paths_interned;
        ])
      cells
  in
  print_string
    (Report.table
       ~title:
         (if smoke then "mesh smoke (internet-20, 4 flappers, 2 cycles)"
          else "mesh: internet-110 x 110 prefixes, 30 flappers x 20 cycles")
       ~header:
         [
           "seed"; "prefixes"; "events"; "wall(s)"; "ev/s"; "conv(s)";
           "conv?"; "loops"; "loop-s"; "alloc-Mw"; "heap-Mw"; "paths";
         ]
       ~rows);
  say "";
  (match
     List.filter (fun (_, (o : Bgp.Mesh_sim.outcome), _, _, _) -> not o.converged) cells
   with
  | [] -> ()
  | bad ->
      say "NON-CONVERGED seeds: %s"
        (String.concat ", "
           (List.map (fun (s, _, _, _, _) -> string_of_int s) bad));
      exit 1)

(* --- observability counter registries (DESIGN.md §10) --- *)

let counters_group ~pool =
  say "=== Counters: observability registries over the golden fixtures ===@.";
  say
    "Each run carries a counters-only bus (no sink, so no event values@,\
     are ever allocated); per-seed snapshots are merged across the@,\
     worker pool the same way Parallel sweeps gather metrics.";
  say "";
  let seeds = Figures.seeds in
  let batch =
    List.concat_map
      (fun (f : Golden.fixture) ->
        List.map (fun seed -> (f.name, { f.spec with seed })) seeds)
      Golden.fixtures
  in
  let results =
    Parallel.map ~pool
      (fun (name, spec) ->
        let c = Obs.Counters.create () in
        let obs = Obs.Bus.create ~counters:c () in
        ignore (Experiment.run ~obs spec : Experiment.run);
        (name, Obs.Counters.snapshot c))
      batch
    |> List.filter_map (function Ok r -> Some r | Error _ -> None)
  in
  let merged name =
    match List.filter_map
            (fun (n, s) -> if n = name then Some s else None)
            results
    with
    | [] -> None
    | s :: rest -> Some (List.fold_left Obs.Counters.merge s rest)
  in
  let rows =
    List.filter_map
      (fun (f : Golden.fixture) ->
        match merged f.name with
        | None -> None
        | Some (s : Obs.Counters.snapshot) ->
            Some
              [
                f.name;
                string_of_int s.s_updates_sent;
                string_of_int s.s_updates_recv;
                string_of_int (s.s_withdrawals_sent + s.s_withdrawals_recv);
                string_of_int s.s_decision_runs;
                string_of_int s.s_fib_changes;
                string_of_int s.s_mrai_fires;
                string_of_int s.s_loops_detected;
                string_of_int s.s_events_executed;
              ])
      Golden.fixtures
  in
  print_string
    (Report.table
       ~title:
         (Printf.sprintf "merged counters over seeds {%s}"
            (String.concat "," (List.map string_of_int seeds)))
       ~header:
         [
           "fixture"; "sent"; "recv"; "wdraw"; "decisions"; "fib"; "mrai";
           "loops"; "events";
         ]
       ~rows);
  say "";
  match List.map snd results with
  | [] -> ()
  | s :: rest ->
      say "grand total across the batch:";
      say "%a" Obs.Counters.pp
        { (List.fold_left Obs.Counters.merge s rest) with s_nodes = [] }


let groups =
  [
    ("fig4", fig4_6);
    ("fig5", fig5_7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("ablations", fun ~pool:_ -> ablations ());
    ("provenance", fun ~pool:_ -> provenance ());
    ("damping", fun ~pool:_ -> damping ());
    ("interference", fun ~pool:_ -> interference ());
    ("counters", counters_group);
    ("churn", fun ~pool:_ -> churn_group ~smoke:false ~digest:false ());
    ("churn-digest", fun ~pool:_ -> churn_group ~smoke:false ~digest:true ());
    ("churn-smoke", fun ~pool:_ -> churn_group ~smoke:true ~digest:false ());
    ("mesh", fun ~pool:_ -> mesh_group ~smoke:false ());
    ("mesh-smoke", fun ~pool:_ -> mesh_group ~smoke:true ());
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec parse names jobs = function
    | [] -> (List.rev names, jobs)
    | "--jobs" :: v :: rest -> (
        match int_of_string_opt v with
        | Some j when j >= 1 -> parse names (Some j) rest
        | _ ->
            Format.eprintf "--jobs expects a positive integer, got %S@." v;
            exit 2)
    | "--jobs" :: [] ->
        Format.eprintf "missing value for final flag@.";
        exit 2
    | name :: rest -> parse (name :: names) jobs rest
  in
  let requested, jobs = parse [] None args in
  let requested =
    if requested = [] then List.map fst groups else requested
  in
  let aliases = [ ("fig6", "fig4"); ("fig7", "fig5"); ("all", "") ] in
  let wanted name =
    match List.assoc_opt name aliases with
    | Some "" -> List.map fst groups
    | Some canonical -> [ canonical ]
    | None -> [ name ]
  in
  let requested = List.concat_map wanted requested in
  (* a misspelt group must fail the invocation before anything runs *)
  (match List.filter (fun name -> not (List.mem_assoc name groups)) requested with
  | [] -> ()
  | unknown ->
      Format.eprintf "unknown bench group(s) %s (known: %s, fig6, fig7, all)@."
        (String.concat ", " (List.map (Printf.sprintf "%S") unknown))
        (String.concat ", " (List.map fst groups));
      exit 2);
  let pool = Parallel.create ?jobs () in
  say "sweep pool: %d worker(s) (host recommends %d domains)@."
    (Parallel.jobs pool)
    (Domain.recommended_domain_count ());
  List.iter (fun name -> (List.assoc name groups) ~pool) requested;
  Parallel.shutdown pool
