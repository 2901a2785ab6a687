(* Tests for the fault-injection subsystem: the invariant checker, the
   scenario DSL (parse / render / validate / compile), scripted fault
   execution in the routing simulation, the run budgets that turn hangs
   into structured non-convergence, and the error-isolating sweep. *)

module I = Faults.Invariant
module S = Faults.Scenario

(* --- Invariant checker --- *)

let test_invariant_off_is_free () =
  let c = I.create I.Off in
  Alcotest.(check bool) "disabled" false (I.enabled c);
  (* the detail thunk must not be forced when the checker is off *)
  I.report c I.Rib_incoherence ~detail:(fun () -> Alcotest.fail "forced");
  Alcotest.(check int) "nothing recorded" 0 (I.total c);
  Alcotest.(check bool) "shared off instance" false (I.enabled I.off)

let test_invariant_record_counts () =
  let c = I.create I.Record in
  Alcotest.(check bool) "enabled" true (I.enabled c);
  I.report c I.Stale_epoch_delivery ~detail:(fun () -> "a");
  I.report c I.Stale_epoch_delivery ~detail:(fun () -> "b");
  I.report c I.Clock_regression ~detail:(fun () -> "c");
  Alcotest.(check int) "per kind" 2 (I.count c I.Stale_epoch_delivery);
  Alcotest.(check int) "total" 3 (I.total c);
  Alcotest.(check bool) "violations list" true
    (I.violations c
    = [ (I.Clock_regression, 1); (I.Stale_epoch_delivery, 2) ])

let test_invariant_strict_raises () =
  let c = I.create I.Strict in
  Alcotest.(check bool) "raises Violation" true
    (try
       I.report c I.Dead_next_hop ~detail:(fun () -> "next hop 3 is dead");
       false
     with I.Violation { kind = I.Dead_next_hop; detail } ->
       detail = "next hop 3 is dead")

let test_invariant_mode_of_string () =
  Alcotest.(check bool) "off" true (I.mode_of_string "off" = Some I.Off);
  Alcotest.(check bool) "record" true
    (I.mode_of_string "record" = Some I.Record);
  Alcotest.(check bool) "strict" true
    (I.mode_of_string "strict" = Some I.Strict);
  Alcotest.(check bool) "unknown" true (I.mode_of_string "loud" = None)

(* --- Scenario DSL: parse and render --- *)

let parse_ok s =
  match S.of_string s with
  | Ok t -> t
  | Error msg -> Alcotest.failf "parse %S: %s" s msg

let test_scenario_parse_clauses () =
  let t = parse_ok "fail@5:0-1;recover@15:0-1;reset@20:1-2" in
  Alcotest.(check int) "three clauses" 3 (List.length t.S.specs);
  Alcotest.(check bool) "first is a fail at 5" true
    (List.hd t.S.specs = S.At (5., S.Link_fail (0, 1)));
  let t = parse_ok "crash@0:3;restart@25:3" in
  Alcotest.(check bool) "crash then restart" true
    (t.S.specs = [ S.At (0., S.Node_crash 3); S.At (25., S.Node_restart 3) ])

let test_scenario_parse_macros () =
  let t = parse_ok "storm@2:0-1,5,100;loss=0.01;dup=0.005" in
  Alcotest.(check bool) "storm clause" true
    (t.S.specs
    = [ S.Flap_storm { link = (0, 1); start = 2.; period = 5.; count = 100 } ]);
  Alcotest.(check (float 0.)) "loss knob" 0.01 t.S.msg_loss;
  Alcotest.(check (float 0.)) "dup knob" 0.005 t.S.msg_dup;
  let t = parse_ok "corr@3:0-1+0-2,7" in
  Alcotest.(check bool) "correlated clause" true
    (t.S.specs
    = [
        S.Correlated_failure
          { at = 3.; links = [ (0, 1); (0, 2) ]; recover_after = Some 7. };
      ]);
  let t = parse_ok "rand@2:50,10" in
  Alcotest.(check bool) "random clause" true
    (t.S.specs
    = [
        S.Random_link_failures
          { count = 2; window = 50.; recover_after = Some 10. };
      ])

let test_scenario_round_trip () =
  List.iter
    (fun s ->
      let t = parse_ok s in
      Alcotest.(check string) ("round trip " ^ s) s (S.to_string t))
    [
      "fail@5:0-1;recover@15:0-1";
      "storm@0:0-1,5,200;loss=0.01";
      "crash@0:3;restart@20:3";
      "corr@3:0-1+0-2,7";
      "rand@2:50,10;dup=0.1";
    ]

let test_scenario_parse_errors () =
  List.iter
    (fun s ->
      match S.of_string s with
      | Ok _ -> Alcotest.failf "expected %S to be rejected" s
      | Error _ -> ())
    [
      "frob@1:0-1" (* unknown clause *);
      "fail@x:0-1" (* bad time *);
      "fail@1" (* missing link *);
      "storm@0:0-1,5" (* missing count *);
      "loss=2" (* probability out of range *);
      "" (* empty *);
    ]

(* --- Scenario: validate and compile --- *)

let ring5 = Topo.Generators.ring 5

let test_scenario_resolution_issues_collects_all () =
  let t =
    S.make
      [
        S.At (1., S.Link_fail (0, 2));
        S.At (2., S.Node_crash 99);
        S.At (-3., S.Link_fail (0, 1));
      ]
  in
  (* unlike [validate], every problem is reported, in clause order *)
  Alcotest.(check int) "three issues" 3
    (List.length (S.resolution_issues t ~graph:ring5));
  Alcotest.(check (list string)) "clean scenario" []
    (S.resolution_issues (S.make [ S.At (1., S.Link_fail (0, 1)) ]) ~graph:ring5)

let test_scenario_expand_deterministic () =
  let t =
    S.make
      [
        S.Random_link_failures { count = 2; window = 5.; recover_after = None };
        S.At (4., S.Node_crash 2);
        S.Flap_storm { link = (0, 1); start = 0.; period = 2.; count = 2 };
      ]
  in
  let steps, random_clauses = S.expand_deterministic t in
  Alcotest.(check int) "random clause counted, not expanded" 1 random_clauses;
  (* storm: fail@0, recover@1, fail@2, recover@3; then the crash@4 *)
  Alcotest.(check int) "deterministic steps" 5 (List.length steps);
  Alcotest.(check bool) "time-sorted" true
    (List.for_all2
       (fun (a : S.step) (b : S.step) -> a.at <= b.at)
       (List.filteri (fun i _ -> i < 4) steps)
       (List.tl steps))

let test_scenario_validate_rejects () =
  let raises t =
    try
      S.validate t ~graph:ring5;
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "non-edge link" true
    (raises (S.make [ S.At (1., S.Link_fail (0, 2)) ]));
  Alcotest.(check bool) "node out of range" true
    (raises (S.make [ S.At (1., S.Node_crash 99) ]));
  Alcotest.(check bool) "negative time" true
    (raises (S.make [ S.At (-1., S.Link_fail (0, 1)) ]));
  Alcotest.(check bool) "zero storm period" true
    (raises
       (S.make
          [ S.Flap_storm { link = (0, 1); start = 0.; period = 0.; count = 3 } ]));
  Alcotest.(check bool) "random draw larger than edge set" true
    (raises
       (S.make
          [
            S.Random_link_failures
              { count = 6; window = 10.; recover_after = None };
          ]))

let test_scenario_compile_storm () =
  let t =
    S.make [ S.Flap_storm { link = (0, 1); start = 1.; period = 4.; count = 3 } ]
  in
  let steps = S.compile t ~graph:ring5 ~rng:(Dessim.Rng.create ~seed:1) in
  (* cycle k fails at start + k*period and recovers half a period later *)
  Alcotest.(check bool) "expanded schedule" true
    (List.map (fun { S.at; action } -> (at, action)) steps
    = [
        (1., S.Link_fail (0, 1));
        (3., S.Link_recover (0, 1));
        (5., S.Link_fail (0, 1));
        (7., S.Link_recover (0, 1));
        (9., S.Link_fail (0, 1));
        (11., S.Link_recover (0, 1));
      ])

let test_scenario_compile_correlated () =
  let t =
    S.make
      [
        S.Correlated_failure
          { at = 2.; links = [ (0, 1); (1, 2) ]; recover_after = Some 5. };
      ]
  in
  let steps = S.compile t ~graph:ring5 ~rng:(Dessim.Rng.create ~seed:1) in
  let fails =
    List.filter (fun s -> match s.S.action with S.Link_fail _ -> true | _ -> false) steps
  in
  let recovers =
    List.filter
      (fun s -> match s.S.action with S.Link_recover _ -> true | _ -> false)
      steps
  in
  Alcotest.(check int) "both fail" 2 (List.length fails);
  Alcotest.(check bool) "same instant" true
    (List.for_all (fun s -> s.S.at = 2.) fails);
  Alcotest.(check bool) "recover together" true
    (List.for_all (fun s -> s.S.at = 7.) recovers)

let test_scenario_compile_random_deterministic () =
  let t =
    S.make
      [ S.Random_link_failures { count = 3; window = 50.; recover_after = None } ]
  in
  let compile seed = S.compile t ~graph:ring5 ~rng:(Dessim.Rng.create ~seed) in
  let steps = compile 7 in
  Alcotest.(check int) "three draws" 3 (List.length steps);
  let links =
    List.map
      (fun s ->
        match s.S.action with
        | S.Link_fail l -> l
        | _ -> Alcotest.fail "expected fails only")
      steps
  in
  Alcotest.(check int) "distinct links" 3
    (List.length (List.sort_uniq compare links));
  Alcotest.(check bool) "times inside the window" true
    (List.for_all (fun s -> s.S.at >= 0. && s.S.at < 50.) steps);
  Alcotest.(check bool) "sorted by time" true
    (let ts = List.map (fun s -> s.S.at) steps in
     ts = List.sort compare ts);
  Alcotest.(check bool) "same seed, same schedule" true (compile 7 = steps);
  Alcotest.(check bool) "different seed, different schedule" true
    (compile 8 <> steps)

(* --- Scripted scenarios in the routing simulation --- *)

let clique n = Topo.Generators.clique n

let final_next_hop (o : Bgp.Routing_sim.outcome) ~node =
  Netcore.Fib_history.lookup
    (Netcore.Trace.fib o.trace)
    ~node
    ~time:(o.convergence_end +. 100.)

let reaches_origin (o : Bgp.Routing_sim.outcome) ~graph ~origin ~node =
  let n = Topo.Graph.n_nodes graph in
  let rec walk v hops =
    if v = origin then true
    else if hops > n then false
    else
      match final_next_hop o ~node:v with
      | None -> false
      | Some next -> walk next (hops + 1)
  in
  walk node 0

let test_sim_crash_and_restart () =
  let graph = clique 4 in
  let scenario = parse_ok "crash@0:2;restart@40:2" in
  let o =
    Bgp.Routing_sim.run ~graph ~origin:0
      ~event:(Bgp.Routing_sim.Scenario scenario) ~seed:1 ()
  in
  Alcotest.(check bool) "converged" true o.converged;
  (* while crashed the node has no route *)
  Alcotest.(check bool) "routeless while down" true
    (Netcore.Fib_history.lookup
       (Netcore.Trace.fib o.trace)
       ~node:2
       ~time:(o.t_fail +. 20.)
    = None);
  (* after restart the peers re-dump and the node recovers its route *)
  Alcotest.(check bool) "route restored" true
    (reaches_origin o ~graph ~origin:0 ~node:2)

let test_sim_origin_crash_reoriginates () =
  let graph = clique 4 in
  let scenario = parse_ok "crash@0:0;restart@40:0" in
  let o =
    Bgp.Routing_sim.run ~graph ~origin:0
      ~event:(Bgp.Routing_sim.Scenario scenario) ~seed:1 ()
  in
  Alcotest.(check bool) "converged" true o.converged;
  (* crashing the origin withdraws the prefix everywhere... *)
  Alcotest.(check bool) "withdrawals flowed" true
    (o.withdrawals_after_fail > 0);
  (* ...and the restarted origin re-originates: every node routes again *)
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Printf.sprintf "node %d recovered" v)
        true
        (reaches_origin o ~graph ~origin:0 ~node:v))
    [ 1; 2; 3 ]

let test_sim_session_reset_recovers () =
  let graph = clique 4 in
  let scenario = parse_ok "reset@0:0-1" in
  let o =
    Bgp.Routing_sim.run ~graph ~origin:0
      ~event:(Bgp.Routing_sim.Scenario scenario) ~seed:1 ()
  in
  Alcotest.(check bool) "converged" true o.converged;
  (* the reset flushes and re-learns; the end state is the direct route *)
  Alcotest.(check bool) "direct route back" true
    (final_next_hop o ~node:1 = Some 0)

let test_sim_correlated_failure_reroutes () =
  let graph = clique 5 in
  let scenario = parse_ok "corr@0:0-1+0-2" in
  let o =
    Bgp.Routing_sim.run ~graph ~origin:0
      ~event:(Bgp.Routing_sim.Scenario scenario) ~seed:1 ()
  in
  Alcotest.(check bool) "converged" true o.converged;
  (* both severed nodes detour through a surviving neighbor *)
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Printf.sprintf "node %d detours" v)
        true
        (final_next_hop o ~node:v <> Some 0
        && reaches_origin o ~graph ~origin:0 ~node:v))
    [ 1; 2 ]

let test_sim_chaos_is_deterministic () =
  let graph = clique 4 in
  let scenario = parse_ok "fail@0:0-1;recover@20:0-1;loss=0.2;dup=0.1" in
  let run () =
    Bgp.Routing_sim.run ~graph ~origin:0
      ~event:(Bgp.Routing_sim.Scenario scenario) ~seed:3 ()
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "terminates" true a.converged;
  Alcotest.(check (float 0.)) "same convergence end" a.convergence_end
    b.convergence_end;
  Alcotest.(check int) "same event count" a.events_executed b.events_executed

(* --- Budgets: hangs become structured non-convergence --- *)

let test_sim_flap_storm_hits_event_budget () =
  let graph = clique 5 in
  (* a persistent storm faster than MRAI convergence: without the
     budget this churns for hundreds of simulated cycles *)
  let scenario = parse_ok "storm@0:0-1,2,5000" in
  let o =
    Bgp.Routing_sim.run ~graph ~origin:0
      ~event:(Bgp.Routing_sim.Scenario scenario) ~max_events:20_000 ~seed:1 ()
  in
  Alcotest.(check bool) "not converged" false o.converged;
  Alcotest.(check bool) "stopped on the event budget" true
    (o.termination = Bgp.Routing_sim.Event_budget);
  Alcotest.(check bool) "budget respected" true (o.events_executed <= 20_000)

let test_sim_vtime_budget () =
  let graph = clique 4 in
  (* warm-up converges quickly; the late step lies beyond the budget *)
  let scenario = parse_ok "fail@0:0-1;recover@5000:0-1" in
  let o =
    Bgp.Routing_sim.run ~graph ~origin:0
      ~event:(Bgp.Routing_sim.Scenario scenario) ~max_vtime:500. ~seed:1 ()
  in
  Alcotest.(check bool) "warm-up fits the budget" true (o.warmup_end < 500.);
  Alcotest.(check bool) "not converged" false o.converged;
  Alcotest.(check bool) "stopped on the vtime budget" true
    (o.termination = Bgp.Routing_sim.Vtime_budget)

(* --- Strict invariants on ordinary runs --- *)

let test_strict_invariants_pass_on_classic_events () =
  let graph = clique 5 in
  List.iter
    (fun event ->
      let o =
        Bgp.Routing_sim.run ~graph ~origin:0 ~event
          ~invariants:Faults.Invariant.Strict ~seed:1 ()
      in
      Alcotest.(check bool) "converged under strict checking" true o.converged;
      Alcotest.(check bool) "no violations surfaced" true
        (o.invariant_violations = []))
    [
      Bgp.Routing_sim.Tdown;
      Bgp.Routing_sim.Tlong { a = 0; b = 1 };
      Bgp.Routing_sim.Tup;
      Bgp.Routing_sim.Trecover { a = 0; b = 1 };
      Bgp.Routing_sim.Tshort { a = 0; b = 1; down_for = 5. };
    ]

let test_strict_invariants_pass_on_internet () =
  let graph = Topo.Internet.generate ~seed:3 24 in
  let origin = List.hd (Topo.Internet.stub_nodes graph) in
  let o =
    Bgp.Routing_sim.run ~graph ~origin ~event:Bgp.Routing_sim.Tdown
      ~invariants:Faults.Invariant.Strict ~seed:3 ()
  in
  Alcotest.(check bool) "converged" true o.converged

let test_strict_invariants_pass_on_scenario () =
  let graph = clique 4 in
  let scenario = parse_ok "crash@0:2;restart@30:2;reset@60:0-1" in
  let o =
    Bgp.Routing_sim.run ~graph ~origin:0
      ~event:(Bgp.Routing_sim.Scenario scenario)
      ~invariants:Faults.Invariant.Strict ~seed:1 ()
  in
  Alcotest.(check bool) "converged" true o.converged

let test_strict_invariants_pass_on_multi_origin_mesh () =
  let graph = clique 5 in
  let o =
    Bgp.Mesh_sim.run ~graph ~origins:[ 0; 1 ] ~victim:0
      ~invariants:Faults.Invariant.Strict ~seed:1 ()
  in
  Alcotest.(check bool) "converged" true o.converged;
  Alcotest.(check bool) "no violations" true (o.invariant_violations = [])

(* --- Hardened experiment driver and sweep --- *)

let test_experiment_scenario_spec () =
  let scenario = parse_ok "fail@0:0-1;recover@20:0-1" in
  let spec =
    {
      (Bgpsim.Experiment.default_spec (Bgpsim.Experiment.Clique 4)) with
      event = Bgpsim.Experiment.Scenario scenario;
      mrai = 5.;
      invariants = Faults.Invariant.Strict;
    }
  in
  Alcotest.(check string) "event name" "scenario:fail@0:0-1;recover@20:0-1"
    (Bgpsim.Experiment.event_name spec.event);
  let r = Bgpsim.Experiment.run spec in
  Alcotest.(check bool) "converged" true r.metrics.converged;
  Alcotest.(check bool) "status completed" true
    (Bgpsim.Experiment.status r.outcome = Bgpsim.Experiment.Completed)

let test_experiment_storm_is_non_converged () =
  let scenario = parse_ok "storm@0:0-1,2,5000" in
  let spec =
    {
      (Bgpsim.Experiment.default_spec (Bgpsim.Experiment.Clique 4)) with
      event = Bgpsim.Experiment.Scenario scenario;
      mrai = 5.;
      max_events = 20_000;
    }
  in
  let r = Bgpsim.Experiment.run spec in
  Alcotest.(check bool) "not converged" false r.metrics.converged;
  match Bgpsim.Experiment.status r.outcome with
  | Bgpsim.Experiment.Non_converged { termination; events_executed; _ } ->
      Alcotest.(check bool) "event budget" true
        (termination = Bgp.Routing_sim.Event_budget);
      Alcotest.(check bool) "budget respected" true (events_executed <= 20_000);
      Alcotest.(check bool) "status names the budget" true
        (String.length
           (Bgpsim.Experiment.status_name (Bgpsim.Experiment.status r.outcome))
        > 0)
  | Bgpsim.Experiment.Completed -> Alcotest.fail "expected Non_converged"

let test_sweep_robust_isolates_failures () =
  (* a scenario referencing a non-edge fails validation on every seed;
     the robust sweep records the failures instead of raising *)
  let graph = Topo.Generators.ring 4 in
  let bad = parse_ok "fail@0:0-2" in
  let spec =
    {
      (Bgpsim.Experiment.default_spec
         (Bgpsim.Experiment.Custom { graph; origin = 0; name = "ring-4" }))
      with
      event = Bgpsim.Experiment.Scenario bad;
    }
  in
  let r = Bgpsim.Sweep.over_seeds_robust spec ~seeds:[ 1; 2; 3 ] in
  Alcotest.(check int) "attempted" 3 r.attempted;
  Alcotest.(check int) "none completed" 0 r.completed;
  Alcotest.(check bool) "no metrics" true (r.metrics = None);
  Alcotest.(check int) "all recorded" 3 (List.length r.failures);
  let f = List.hd r.failures in
  Alcotest.(check int) "seed kept" 1 f.Bgpsim.Sweep.seed;
  Alcotest.(check bool) "message kept" true (String.length f.message > 0);
  Alcotest.(check bool) "table renders" true
    (String.length (Bgpsim.Sweep.failures_table r.failures) > 0)

let test_sweep_robust_counts_non_converged () =
  let scenario = parse_ok "storm@0:0-1,2,5000" in
  let spec =
    {
      (Bgpsim.Experiment.default_spec (Bgpsim.Experiment.Clique 4)) with
      event = Bgpsim.Experiment.Scenario scenario;
      mrai = 5.;
      max_events = 20_000;
    }
  in
  let r = Bgpsim.Sweep.over_seeds_robust spec ~seeds:[ 1; 2 ] in
  Alcotest.(check int) "both completed" 2 r.completed;
  Alcotest.(check int) "both flagged non-converged" 2 r.non_converged;
  Alcotest.(check bool) "metrics still averaged" true (r.metrics <> None)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "faults"
    [
      ( "invariant",
        [
          tc "off is free" test_invariant_off_is_free;
          tc "record counts" test_invariant_record_counts;
          tc "strict raises" test_invariant_strict_raises;
          tc "mode of string" test_invariant_mode_of_string;
        ] );
      ( "scenario-dsl",
        [
          tc "parse clauses" test_scenario_parse_clauses;
          tc "parse macros" test_scenario_parse_macros;
          tc "round trip" test_scenario_round_trip;
          tc "parse errors" test_scenario_parse_errors;
          tc "validate rejects" test_scenario_validate_rejects;
          tc "resolution issues collect all"
            test_scenario_resolution_issues_collects_all;
          tc "deterministic expansion" test_scenario_expand_deterministic;
          tc "storm expansion" test_scenario_compile_storm;
          tc "correlated expansion" test_scenario_compile_correlated;
          tc "random draws deterministic"
            test_scenario_compile_random_deterministic;
        ] );
      ( "scripted-sim",
        [
          tc "crash and restart" test_sim_crash_and_restart;
          tc "origin crash re-originates" test_sim_origin_crash_reoriginates;
          tc "session reset recovers" test_sim_session_reset_recovers;
          tc "correlated failure reroutes" test_sim_correlated_failure_reroutes;
          tc "chaos is deterministic" test_sim_chaos_is_deterministic;
        ] );
      ( "budgets",
        [
          tc "flap storm hits event budget" test_sim_flap_storm_hits_event_budget;
          tc "vtime budget" test_sim_vtime_budget;
        ] );
      ( "strict-invariants",
        [
          tc "classic events" test_strict_invariants_pass_on_classic_events;
          tc "internet topology" test_strict_invariants_pass_on_internet;
          tc "scripted scenario" test_strict_invariants_pass_on_scenario;
          tc "multi-prefix sim" test_strict_invariants_pass_on_multi_origin_mesh;
        ] );
      ( "hardened-driver",
        [
          tc "scenario spec end to end" test_experiment_scenario_spec;
          tc "storm reported non-converged" test_experiment_storm_is_non_converged;
          tc "robust sweep isolates failures" test_sweep_robust_isolates_failures;
          tc "robust sweep counts non-converged"
            test_sweep_robust_counts_non_converged;
        ] );
    ]
