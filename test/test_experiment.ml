(* Tests for the experiment driver, sweeps and report rendering. *)

open Bgpsim

let test_topology_names () =
  Alcotest.(check string) "clique" "clique-15"
    (Experiment.topology_name (Experiment.Clique 15));
  Alcotest.(check string) "b-clique" "b-clique-10"
    (Experiment.topology_name (Experiment.B_clique 10));
  Alcotest.(check string) "internet" "internet-110"
    (Experiment.topology_name (Experiment.Internet 110));
  Alcotest.(check string) "custom" "mine"
    (Experiment.topology_name
       (Experiment.Custom
          { graph = Topo.Generators.clique 3; origin = 0; name = "mine" }))

let test_node_counts () =
  Alcotest.(check int) "clique" 15 (Experiment.node_count (Experiment.Clique 15));
  Alcotest.(check int) "b-clique doubles" 20
    (Experiment.node_count (Experiment.B_clique 10));
  Alcotest.(check int) "internet" 48
    (Experiment.node_count (Experiment.Internet 48))

let test_resolve_clique () =
  let spec = Experiment.default_spec (Experiment.Clique 6) in
  let graph, origin, event = Experiment.resolve spec in
  Alcotest.(check int) "size" 6 (Topo.Graph.n_nodes graph);
  Alcotest.(check int) "origin is node 0" 0 origin;
  Alcotest.(check bool) "tdown" true (event = Bgp.Routing_sim.Tdown)

let test_resolve_b_clique_tlong () =
  let spec =
    { (Experiment.default_spec (Experiment.B_clique 5)) with
      event = Experiment.Tlong }
  in
  let _, origin, event = Experiment.resolve spec in
  Alcotest.(check int) "origin" 0 origin;
  Alcotest.(check bool) "canonical link (0, n)" true
    (event = Bgp.Routing_sim.Tlong { a = 0; b = 5 })

let test_resolve_internet_stub_destination () =
  let spec = Experiment.default_spec (Experiment.Internet 48) in
  let graph, origin, _ = Experiment.resolve spec in
  let dmin =
    List.fold_left
      (fun acc v -> Stdlib.min acc (Topo.Graph.degree graph v))
      max_int (Topo.Graph.nodes graph)
  in
  Alcotest.(check int) "destination is a stub" dmin
    (Topo.Graph.degree graph origin)

let test_resolve_internet_tlong_survivable () =
  let spec =
    { (Experiment.default_spec (Experiment.Internet 48)) with
      event = Experiment.Tlong; seed = 2 }
  in
  let graph, origin, event = Experiment.resolve spec in
  match event with
  | Bgp.Routing_sim.Tlong { a; b } ->
      Alcotest.(check bool) "link touches destination" true
        (a = origin || b = origin);
      Alcotest.(check bool) "graph survives" true
        (Topo.Graph.is_connected (Topo.Graph.remove_edge graph a b))
  | Bgp.Routing_sim.Tdown | Bgp.Routing_sim.Tup | Bgp.Routing_sim.Trecover _
  | Bgp.Routing_sim.Tshort _ | Bgp.Routing_sim.Scenario _ ->
      Alcotest.fail "expected Tlong"

let test_resolve_deterministic () =
  let spec =
    { (Experiment.default_spec (Experiment.Internet 29)) with
      event = Experiment.Tlong; seed = 5 }
  in
  let _, o1, e1 = Experiment.resolve spec in
  let _, o2, e2 = Experiment.resolve spec in
  Alcotest.(check int) "origin stable" o1 o2;
  Alcotest.(check bool) "event stable" true (e1 = e2)

let test_resolve_explicit_link () =
  let spec =
    { (Experiment.default_spec (Experiment.Clique 4)) with
      event = Experiment.Tlong_link (0, 2) }
  in
  let _, _, event = Experiment.resolve spec in
  Alcotest.(check bool) "explicit" true
    (event = Bgp.Routing_sim.Tlong { a = 0; b = 2 })

let test_resolve_random_models () =
  List.iter
    (fun topology ->
      let spec = { (Experiment.default_spec topology) with mrai = 5. } in
      let graph, origin, _ = Experiment.resolve spec in
      Alcotest.(check int)
        (Experiment.topology_name topology ^ " size")
        (Experiment.node_count topology)
        (Topo.Graph.n_nodes graph);
      Alcotest.(check bool) "connected" true (Topo.Graph.is_connected graph);
      (* destination convention matches Internet: a min-degree node *)
      let dmin =
        List.fold_left
          (fun acc v -> Stdlib.min acc (Topo.Graph.degree graph v))
          max_int (Topo.Graph.nodes graph)
      in
      Alcotest.(check int) "stub destination" dmin
        (Topo.Graph.degree graph origin);
      let m = Experiment.metrics spec in
      Alcotest.(check bool) "runs and converges" true m.converged)
    [ Experiment.Waxman 12; Experiment.Glp 12 ]

let test_run_custom_topology () =
  let graph = Topo.Generators.ring 6 in
  let spec =
    Experiment.default_spec
      (Experiment.Custom { graph; origin = 2; name = "ring-6" })
  in
  let r = Experiment.run { spec with mrai = 5. } in
  Alcotest.(check bool) "converged" true r.metrics.converged;
  Alcotest.(check bool) "withdrawals propagate on Tdown" true
    (r.metrics.withdrawals_sent > 0)

let test_run_determinism () =
  let spec =
    { (Experiment.default_spec (Experiment.Clique 5)) with mrai = 5. }
  in
  let a = Experiment.metrics spec and b = Experiment.metrics spec in
  Alcotest.(check (float 0.)) "conv" a.convergence_time b.convergence_time;
  Alcotest.(check int) "exh" a.ttl_exhaustions b.ttl_exhaustions;
  Alcotest.(check int) "packets" a.packets_sent b.packets_sent

(* The field survives only for the fixed benchmark; a run must refuse
   it rather than silently run sequentially. *)
let test_run_rejects_partitions () =
  let spec = Experiment.default_spec (Experiment.Clique 4) in
  Alcotest.check_raises "partitions"
    (Invalid_argument "Experiment.run: partitions must be None") (fun () ->
      ignore (Experiment.run { spec with partitions = Some 2 }))

let non_converged_spec =
  (* a 50-event budget exhausts mid-warm-up on a clique-8 T_down *)
  { (Experiment.default_spec (Experiment.Clique 8)) with max_events = 50 }

let test_non_converged_still_timed () =
  let r = Experiment.run non_converged_spec in
  (match Experiment.status r.outcome with
  | Experiment.Non_converged { termination; events_executed; _ } ->
      Alcotest.(check bool) "event budget hit" true
        (termination = Bgp.Routing_sim.Event_budget);
      Alcotest.(check bool) "budget respected" true (events_executed <= 50)
  | Experiment.Completed -> Alcotest.fail "expected Non_converged");
  Alcotest.(check bool) "not converged" false r.metrics.converged;
  (* every exit must yield timed metrics: a budget-exhausted run still
     reports the wall-clock it actually burned *)
  Alcotest.(check bool) "wall clock measured" true
    (r.metrics.wall_clock_s > 0.)

let test_non_converged_vtime_budget_timed () =
  let spec =
    { (Experiment.default_spec (Experiment.Clique 8)) with
      max_vtime = Some 0.5 }
  in
  let r = Experiment.run spec in
  Alcotest.(check bool) "not converged" false r.metrics.converged;
  Alcotest.(check bool) "wall clock measured" true
    (r.metrics.wall_clock_s > 0.);
  match Experiment.status r.outcome with
  | Experiment.Non_converged { termination; _ } ->
      Alcotest.(check bool) "vtime budget hit" true
        (termination = Bgp.Routing_sim.Vtime_budget)
  | Experiment.Completed -> Alcotest.fail "expected Non_converged"

let test_non_converged_survives_analysis () =
  (* a truncated FIB history must not abort the pipeline at any
     truncation point: replay and loop scan either analyze what exists
     or fall back to empty results — never raise *)
  List.iter
    (fun max_events ->
      let r = Experiment.run { non_converged_spec with max_events } in
      Alcotest.(check bool)
        (Printf.sprintf "budget %d yields timed metrics" max_events)
        true
        ((not r.metrics.converged) && r.metrics.wall_clock_s > 0.))
    [ 10; 50; 200 ]

(* --- wall-clock watchdog (spec.max_wall_s) --- *)

let test_wall_budget_exhausted_at_start () =
  (* a zero budget expires before the first event: structured
     [Wall_budget] termination, empty analyses, no exception *)
  let spec =
    { (Experiment.default_spec (Experiment.Clique 8)) with
      max_wall_s = Some 0. }
  in
  let r = Experiment.run spec in
  (match Experiment.status r.outcome with
  | Experiment.Non_converged { termination; _ } ->
      Alcotest.(check bool) "wall budget hit" true
        (termination = Bgp.Routing_sim.Wall_budget)
  | Experiment.Completed -> Alcotest.fail "expected Non_converged");
  Alcotest.(check bool) "not converged" false r.metrics.converged;
  Alcotest.(check int) "loop scan degraded to empty" 0
    (List.length r.loops.loops);
  Alcotest.(check int) "replay degraded to empty" 0 r.replay.sent;
  Alcotest.(check (list string)) "no bound violations claimed" []
    (List.map
       (fun (v : Analysis.Bounds.violation) -> v.what)
       r.bound_violations)

let test_wall_budget_expiring_after_sim_skips_analysis () =
  (* a fake clock that jumps past the budget once the simulation has
     drained: the run itself completes, but replay and loop scan
     re-check expiry and degrade to their empty fallbacks *)
  let fib_changes = ref 0 in
  let sink =
    Obs.Sink.fn (fun ev ->
        match ev with Obs.Event.Fib_change _ -> incr fib_changes | _ -> ())
  in
  let obs = Obs.Bus.create ~sink () in
  let clock () = if !fib_changes > 0 then 1e9 else 0. in
  let wd = Faults.Watchdog.create ~clock ~max_wall_s:1. () in
  let spec = Experiment.default_spec (Experiment.Clique 6) in
  let r = Experiment.run ~obs ~watchdog:wd spec in
  Alcotest.(check bool) "warm-up produced FIB changes" true (!fib_changes > 0);
  (match Experiment.status r.outcome with
  | Experiment.Non_converged { termination; _ } ->
      Alcotest.(check bool) "wall budget termination" true
        (termination = Bgp.Routing_sim.Wall_budget)
  | Experiment.Completed -> Alcotest.fail "expected Non_converged");
  Alcotest.(check int) "loop scan skipped" 0 (List.length r.loops.loops);
  Alcotest.(check int) "replay skipped" 0 r.replay.sent;
  Alcotest.(check bool) "wall clock still measured" true
    (r.metrics.wall_clock_s > 0.)

let test_generous_wall_budget_is_transparent () =
  (* a watchdog that never fires must not perturb the run: metrics
     match the unwatched baseline exactly *)
  let spec =
    { (Experiment.default_spec (Experiment.Clique 6)) with mrai = 5. }
  in
  let base = Experiment.run spec in
  let watched = Experiment.run { spec with max_wall_s = Some 1e6 } in
  Alcotest.(check bool) "converged" true watched.metrics.converged;
  Alcotest.(check (float 0.)) "convergence time"
    base.metrics.convergence_time watched.metrics.convergence_time;
  Alcotest.(check int) "updates" base.metrics.updates_sent
    watched.metrics.updates_sent;
  Alcotest.(check int) "packets" base.metrics.packets_sent
    watched.metrics.packets_sent;
  Alcotest.(check int) "loops" (List.length base.loops.loops)
    (List.length watched.loops.loops)

(* --- Sweep --- *)

let test_over_seeds_averages () =
  let spec =
    { (Experiment.default_spec (Experiment.Clique 5)) with mrai = 5. }
  in
  let m1 = Experiment.metrics { spec with seed = 1 } in
  let m2 = Experiment.metrics { spec with seed = 2 } in
  let avg = Sweep.over_seeds spec ~seeds:[ 1; 2 ] in
  Alcotest.(check (float 1e-9)) "mean of two"
    ((m1.convergence_time +. m2.convergence_time) /. 2.)
    avg.convergence_time

let test_over_seeds_rejects_empty () =
  let spec = Experiment.default_spec (Experiment.Clique 5) in
  Alcotest.check_raises "empty" (Invalid_argument "Sweep.over_seeds: empty seed list")
    (fun () -> ignore (Sweep.over_seeds spec ~seeds:[]))

let test_series_shape () =
  let make n =
    { (Experiment.default_spec (Experiment.Clique n)) with mrai = 2. }
  in
  let series = Sweep.series ~make ~seeds:[ 1 ] [ 4; 5; 6 ] in
  Alcotest.(check (list int)) "x values preserved" [ 4; 5; 6 ]
    (List.map fst series);
  List.iter
    (fun (_, (m : Metrics.Run_metrics.t)) ->
      Alcotest.(check bool) "each point converged" true m.converged)
    series

let test_over_seeds_summary () =
  let spec =
    { (Experiment.default_spec (Experiment.Clique 5)) with mrai = 5. }
  in
  let s =
    Sweep.over_seeds_summary spec ~seeds:[ 1; 2; 3 ]
      ~metric:(fun (m : Metrics.Run_metrics.t) -> m.convergence_time)
  in
  Alcotest.(check int) "n" 3 s.n;
  Alcotest.(check bool) "ordered" true (s.min <= s.mean && s.mean <= s.max);
  let m1 = Experiment.metrics { spec with seed = 1 } in
  Alcotest.(check bool) "contains seed-1 run" true
    (m1.convergence_time >= s.min && m1.convergence_time <= s.max)

let test_linearity_helper () =
  let make m =
    { (Experiment.default_spec (Experiment.Clique 5)) with mrai = m }
  in
  let series = Sweep.series ~make ~seeds:[ 1 ] [ 2.; 4.; 8. ] in
  let fit =
    Sweep.linearity series ~x:Fun.id
      ~y:(fun (m : Metrics.Run_metrics.t) -> m.convergence_time)
  in
  (* convergence grows with MRAI: positive slope, decent fit *)
  Alcotest.(check bool) "positive slope" true (fit.slope > 0.)

(* --- Report --- *)

let test_table_layout () =
  let text =
    Report.table ~title:"T" ~header:[ "a"; "bb" ]
      ~rows:[ [ "1"; "2" ]; [ "333"; "4" ] ]
  in
  let lines = String.split_on_char '\n' text in
  (match lines with
  | title :: header :: rule :: _ ->
      Alcotest.(check string) "title" "T" title;
      Alcotest.(check bool) "header aligned" true
        (String.length header >= String.length "a    bb");
      Alcotest.(check bool) "rule dashes" true
        (String.for_all (fun c -> c = '-' || c = ' ') rule)
  | _ -> Alcotest.fail "expected at least three lines");
  Alcotest.(check int) "line count (trailing newline)" 6 (List.length lines)

let test_table_pads_short_rows () =
  let text = Report.table ~title:"T" ~header:[ "a"; "b" ] ~rows:[ [ "x" ] ] in
  Alcotest.(check bool) "renders" true (String.length text > 0)

let test_table_rejects_wide_rows () =
  Alcotest.check_raises "wide" (Invalid_argument "Report.table: row wider than header")
    (fun () ->
      ignore (Report.table ~title:"T" ~header:[ "a" ] ~rows:[ [ "1"; "2" ] ]))

let test_cells () =
  Alcotest.(check string) "float" "3.14" (Report.float_cell 3.14159);
  Alcotest.(check string) "ratio" "86.0%" (Report.ratio_cell 0.86)

(* --- the paper's figure catalogue --- *)

let csv_stems () =
  List.concat_map
    (fun s -> List.map (fun (_, stem, _) -> stem) (Figures.runs s))
    Figures.all

let test_figures_stems_unique () =
  let stems = csv_stems () in
  Alcotest.(check int) "one CSV per Fig 4-7 series, five per Fig 8-9 series"
    25 (List.length stems);
  Alcotest.(check int) "unique" (List.length stems)
    (List.length (List.sort_uniq compare stems))

let test_figures_specs_resolve () =
  List.iter
    (fun (s : Figures.series) ->
      List.iter
        (fun (_, stem, make) ->
          List.iter
            (fun x ->
              List.iter
                (fun seed ->
                  match Experiment.resolve { (make x) with seed } with
                  | (_ : Topo.Graph.t * int * Bgp.Routing_sim.event) -> ()
                  | exception Invalid_argument msg ->
                      Alcotest.failf "%s at x=%g seed %d: %s" stem x seed msg)
                s.seeds)
            s.xs)
        (Figures.runs s))
    Figures.all

let test_figures_seeds () =
  List.iter
    (fun (s : Figures.series) ->
      let spec = s.make (List.hd s.xs) in
      let internet_tlong =
        match (spec.topology, spec.event) with
        | Experiment.Internet _, Experiment.Tlong -> true
        | _ -> false
      in
      Alcotest.(check (list int)) s.stem
        (if internet_tlong then [ 1; 2; 3; 4; 5; 6 ] else [ 1; 2; 3 ])
        s.seeds)
    Figures.all

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "experiment"
    [
      ( "spec",
        [
          tc "topology names" test_topology_names;
          tc "node counts" test_node_counts;
        ] );
      ( "resolve",
        [
          tc "clique" test_resolve_clique;
          tc "b-clique Tlong canonical link" test_resolve_b_clique_tlong;
          tc "internet destination is a stub"
            test_resolve_internet_stub_destination;
          tc "internet Tlong survivable" test_resolve_internet_tlong_survivable;
          tc "deterministic in seed" test_resolve_deterministic;
          tc "explicit Tlong link" test_resolve_explicit_link;
          tc "waxman and glp models" test_resolve_random_models;
        ] );
      ( "run",
        [
          tc "custom topology" test_run_custom_topology;
          tc "deterministic" test_run_determinism;
          tc "rejects partitions" test_run_rejects_partitions;
          tc "non-converged still timed" test_non_converged_still_timed;
          tc "non-converged vtime budget timed"
            test_non_converged_vtime_budget_timed;
          tc "non-converged survives analysis"
            test_non_converged_survives_analysis;
        ] );
      ( "wall budget",
        [
          tc "exhausted at start" test_wall_budget_exhausted_at_start;
          tc "expiry after sim skips analysis"
            test_wall_budget_expiring_after_sim_skips_analysis;
          tc "generous budget is transparent"
            test_generous_wall_budget_is_transparent;
        ] );
      ( "sweep",
        [
          tc "over_seeds averages" test_over_seeds_averages;
          tc "over_seeds rejects empty" test_over_seeds_rejects_empty;
          tc "series shape" test_series_shape;
          tc "seed dispersion summary" test_over_seeds_summary;
          tc "linearity helper" test_linearity_helper;
        ] );
      ( "report",
        [
          tc "table layout" test_table_layout;
          tc "pads short rows" test_table_pads_short_rows;
          tc "rejects wide rows" test_table_rejects_wide_rows;
          tc "cells" test_cells;
        ] );
      ( "figures",
        [
          tc "CSV stems unique" test_figures_stems_unique;
          tc "specs resolve" test_figures_specs_resolve;
          tc "seeds per series" test_figures_seeds;
        ] );
    ]
