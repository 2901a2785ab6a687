(* bgpsim — command-line front end.

   Subcommands:
     run    simulate one scenario and print its metrics
     sweep  sweep network size or MRAI and print a table
     topo   generate a topology (edge list or graphviz)

   Examples:
     bgpsim run --topology clique:15 --event tdown --mrai 30
     bgpsim run --topology internet:110 --event tlong --enhancement wrate --seeds 5
     bgpsim sweep --topology clique --axis size --values 5,10,15,20
     bgpsim topo --topology internet:48 --format dot *)

open Cmdliner

let parse_topology s =
  match String.split_on_char ':' s with
  | [ "clique"; n ] -> (
      match int_of_string_opt n with
      | Some n when n >= 1 -> Ok (Bgpsim.Experiment.Clique n)
      | _ -> Error (`Msg "clique size must be a positive integer"))
  | [ "b-clique"; n ] | [ "bclique"; n ] -> (
      match int_of_string_opt n with
      | Some n when n >= 2 -> Ok (Bgpsim.Experiment.B_clique n)
      | _ -> Error (`Msg "b-clique size must be an integer >= 2"))
  | [ "internet"; n ] -> (
      match int_of_string_opt n with
      | Some n when n >= 3 -> Ok (Bgpsim.Experiment.Internet n)
      | _ -> Error (`Msg "internet size must be an integer >= 3"))
  | [ "waxman"; n ] -> (
      match int_of_string_opt n with
      | Some n when n >= 2 -> Ok (Bgpsim.Experiment.Waxman n)
      | _ -> Error (`Msg "waxman size must be an integer >= 2"))
  | [ "glp"; n ] -> (
      match int_of_string_opt n with
      | Some n when n >= 2 -> Ok (Bgpsim.Experiment.Glp n)
      | _ -> Error (`Msg "glp size must be an integer >= 2"))
  | [ "file"; path ] -> (
      try
        let ic = open_in path in
        let len = in_channel_length ic in
        let text = really_input_string ic len in
        close_in ic;
        let graph = Topo.Topo_io.of_edge_list text in
        Ok
          (Bgpsim.Experiment.Custom
             { graph; origin = 0; name = Filename.basename path })
      with
      | Sys_error msg -> Error (`Msg msg)
      | Invalid_argument msg -> Error (`Msg msg))
  | _ ->
      Error
        (`Msg
          "expected clique:N, b-clique:N, internet:N, waxman:N, glp:N or file:PATH")

let topology_conv =
  let print fmt t =
    Format.pp_print_string fmt (Bgpsim.Experiment.topology_name t)
  in
  Arg.conv (parse_topology, print)

let enhancement_conv =
  let parse s =
    match Bgp.Enhancement.of_string s with
    | Some e -> Ok e
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown enhancement %S (expected %s)" s
               (String.concat ", " (List.map Bgp.Enhancement.name Bgp.Enhancement.all))))
  in
  Arg.conv (parse, Bgp.Enhancement.pp)

let topology_arg =
  Arg.(
    required
    & opt (some topology_conv) None
    & info [ "t"; "topology" ] ~docv:"TOPOLOGY"
        ~doc:
          "Topology: clique:N, b-clique:N (2N nodes), internet:N, waxman:N, \
           glp:N, or file:PATH (edge list with an 'n <nodes>' header; node 0 \
           is the destination).")

let event_name = Bgpsim.Experiment.event_name

let event_arg =
  let event =
    Arg.enum
      [
        ("tdown", Bgpsim.Experiment.Tdown);
        ("tlong", Bgpsim.Experiment.Tlong);
        ("tup", Bgpsim.Experiment.Tup);
        ("trecover", Bgpsim.Experiment.Trecover);
      ]
  in
  Arg.(
    value & opt event Bgpsim.Experiment.Tdown
    & info [ "e"; "event" ] ~docv:"EVENT"
        ~doc:
          "Event: tdown (destination withdrawn), tlong (one link fails), tup \
           (destination appears) or trecover (failed link comes back).")

let enhancement_arg =
  Arg.(
    value
    & opt enhancement_conv Bgp.Enhancement.Standard
    & info [ "enhancement" ] ~docv:"MECH"
        ~doc:"Convergence mechanism: standard, ssld, wrate, assertion or ghost-flushing.")

let mrai_arg =
  Arg.(
    value & opt float 30.
    & info [ "mrai" ] ~docv:"SECONDS" ~doc:"MRAI timer value (paper default 30).")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Base random seed.")

let seeds_arg =
  Arg.(
    value & opt int 1
    & info [ "seeds" ] ~docv:"N"
        ~doc:"Number of seeds to average over (seed, seed+1, ...).")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains running the (spec, seed) batch in parallel; results \
           are identical to --jobs 1 (default: sequential).")

let scenario_conv =
  let parse s =
    match Faults.Scenario.of_string s with
    | Ok sc -> Ok sc
    | Error msg -> Error (`Msg ("bad scenario: " ^ msg))
  in
  Arg.conv (parse, Faults.Scenario.pp)

let scenario_arg =
  Arg.(
    value
    & opt (some scenario_conv) None
    & info [ "scenario" ] ~docv:"SCRIPT"
        ~doc:
          "Scripted fault schedule overriding --event; semicolon-separated \
           clauses: fail@T:a-b, recover@T:a-b, reset@T:a-b, crash@T:n, \
           restart@T:n, storm@T:a-b,PERIOD,COUNT, corr@T:a-b+c-d[,RECOVER], \
           rand@COUNT:WINDOW[,RECOVER], loss=P, dup=P.  Times are seconds \
           after the injection instant.")

let invariants_arg =
  let mode =
    Arg.enum
      (List.map
         (fun m -> (Faults.Invariant.mode_name m, m))
         [ Faults.Invariant.Off; Faults.Invariant.Record; Faults.Invariant.Strict ])
  in
  Arg.(
    value & opt mode Faults.Invariant.Off
    & info [ "invariants" ] ~docv:"MODE"
        ~doc:
          "Runtime invariant checking: off, record (count violations into \
           the metrics) or strict (abort the run on the first violation).")

let max_events_arg =
  Arg.(
    value & opt int 20_000_000
    & info [ "max-events" ] ~docv:"N"
        ~doc:
          "Per-run event budget; a run that exceeds it is reported as \
           non-converged instead of hanging.")

let max_vtime_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "max-vtime" ] ~docv:"SECONDS"
        ~doc:"Per-run virtual-time budget (default: unbounded).")

let preflight_arg =
  let mode =
    Arg.enum
      (List.map
         (fun m -> (Analysis.Preflight.mode_name m, m))
         [ Analysis.Preflight.Off; Analysis.Preflight.Warn; Analysis.Preflight.Strict ])
  in
  Arg.(
    value & opt mode Analysis.Preflight.Off
    & info [ "preflight" ] ~docv:"MODE"
        ~doc:
          "Static pre-flight analysis (dispute-digraph policy safety, \
           scenario lint, convergence bounds): off, warn (report only) or \
           strict (skip statically-doomed runs).")

let spec_of ?scenario ?(invariants = Faults.Invariant.Off)
    ?(max_events = 20_000_000) ?max_vtime ?(preflight = Analysis.Preflight.Off)
    topology event enhancement mrai seed =
  let event =
    match scenario with
    | Some sc -> Bgpsim.Experiment.Scenario sc
    | None -> event
  in
  {
    (Bgpsim.Experiment.default_spec topology) with
    event;
    enhancement;
    mrai;
    seed;
    invariants;
    max_events;
    max_vtime;
    preflight;
  }

let seed_list ~seed ~seeds = List.init (Stdlib.max 1 seeds) (fun i -> seed + i)

(* --- run --- *)

let trace_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write the structured event trace of the first seed's run to \
           $(docv) (format set by --trace-format) and print its JSONL digest \
           (the golden-trace fixture format).")

let trace_format_arg =
  Arg.(
    value
    & opt (enum [ ("json", `Json); ("binary", `Binary) ]) `Json
    & info [ "trace-format" ] ~docv:"FMT"
        ~doc:
          "Trace encoding for --trace: json (JSONL, the golden/oracle \
           format) or binary (length-prefixed frames, the fast path; decode \
           back to JSONL with 'trace decode').")

let trace_sink path = function
  | `Json -> Obs.Sink.jsonl_file path
  | `Binary -> Obs.Sink.binary_file path

(* The printed digest is always the canonical JSONL digest, whatever
   encoding was written — a binary capture is decoded back through the
   oracle so the number stays comparable with the golden fixtures. *)
let trace_jsonl_digest path = function
  | `Json -> Obs.Trace_digest.of_file path
  | `Binary ->
      let ic = open_in_bin path in
      let len = in_channel_length ic in
      let bytes = really_input_string ic len in
      close_in ic;
      Obs.Trace_digest.of_events (Obs.Binary.decode_all bytes)

let counters_flag =
  Arg.(
    value & flag
    & info [ "counters" ]
        ~doc:
          "Collect per-node and global counters (messages, decision runs, \
           FIB changes, queue-depth high-water marks) and print the merged \
           registry across all seeds/workers.")

let profile_flag =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Profile the event engine: per-event-tag wall-clock totals and \
           histograms, merged across all seeds/workers.")

let print_merged_counters = function
  | [] -> ()
  | s :: rest ->
      Format.printf "@.%a" Obs.Counters.pp
        (List.fold_left Obs.Counters.merge s rest)

let print_merged_profile = function
  | [] -> ()
  | p :: rest ->
      List.iter (fun src -> Obs.Profile.merge_into ~src ~dst:p) rest;
      Format.printf "@.%a" Obs.Profile.pp p

let mesh_flag =
  Arg.(
    value & flag
    & info [ "mesh" ]
        ~doc:
          "Full-mesh multi-prefix mode: every node originates its own prefix \
           over one shared event stream, and the resolved origin's prefix is \
           withdrawn after warm-up.  Prints one row per seed; $(b,--trace) \
           records the per-prefix-tagged trace of the first seed, and \
           $(b,--counters) and $(b,--profile) print the registry and the \
           engine profile merged across seeds.  $(b,--scenario), an \
           $(b,--event) other than tdown, and $(b,--jobs) above 1 are \
           rejected.")

(* One full-mesh run per seed, sequentially (the runs share nothing, but
   mesh rows report wall-clock throughput, so no --jobs overlap). *)
let run_mesh ~(spec : Bgpsim.Experiment.spec) ~seeds:seedl ~trace_file
    ~trace_format ~counters ~profile =
  let graph, victim, _tdown = Bgpsim.Experiment.resolve spec in
  let config =
    Bgp.Config.of_enhancement ~mrai:spec.mrai spec.enhancement
  in
  let results =
    List.mapi
      (fun i sd ->
        let sink =
          match trace_file with
          | Some path when i = 0 -> trace_sink path trace_format
          | Some _ | None -> Obs.Sink.null
        in
        let regs = if counters then Some (Obs.Counters.create ()) else None in
        let obs = Obs.Bus.create ~sink ?counters:regs () in
        let prof = if profile then Some (Obs.Profile.create ()) else None in
        let watchdog = Faults.Watchdog.create ?max_wall_s:spec.max_wall_s () in
        let t0 = Unix.gettimeofday () in
        let o =
          Fun.protect
            ~finally:(fun () -> Obs.Bus.close obs)
            (fun () ->
              Bgp.Mesh_sim.run ~config ~max_events:spec.max_events
                ?max_vtime:spec.max_vtime ~invariants:spec.invariants ~obs
                ?profile:prof ~watchdog ~graph ~victim ~seed:sd ())
        in
        let wall = Unix.gettimeofday () -. t0 in
        let until = o.victim_convergence_end in
        let loops, loop_s =
          List.fold_left
            (fun (c, s) (_, r) ->
              let a = Loopscan.Scanner.aggregate r ~until in
              (c + a.count, s +. a.total_loop_seconds))
            (0, 0.) o.loop_reports
        in
        ( [
            string_of_int sd;
            string_of_int (List.length o.prefixes);
            string_of_int o.events_executed;
            Printf.sprintf "%.3f" wall;
            (if wall > 0. then
               Printf.sprintf "%.0f" (float_of_int o.events_executed /. wall)
             else "-");
            Bgpsim.Report.float_cell (Bgp.Mesh_sim.convergence_time o);
            (if o.converged then "yes" else "NO");
            string_of_int o.victim_messages;
            string_of_int o.background_messages;
            string_of_int loops;
            Printf.sprintf "%.1f" loop_s;
          ],
          Option.map Obs.Counters.snapshot regs,
          prof ))
      seedl
  in
  print_string
    (Bgpsim.Report.table
       ~title:
         (Printf.sprintf "full mesh: %d prefixes on %s, victim %d"
            (Topo.Graph.n_nodes graph)
            (Bgpsim.Experiment.topology_name spec.topology)
            victim)
       ~header:
         [
           "seed"; "prefixes"; "events"; "wall(s)"; "ev/s"; "conv(s)";
           "conv?"; "victim-msg"; "bg-msg"; "loops"; "loop-s";
         ]
       ~rows:(List.map (fun (row, _, _) -> row) results));
  (match trace_file with
  | Some path when Sys.file_exists path ->
      Format.printf "@.trace %s  digest %s@." path
        (trace_jsonl_digest path trace_format)
  | Some _ | None -> ());
  print_merged_counters (List.filter_map (fun (_, c, _) -> c) results);
  print_merged_profile (List.filter_map (fun (_, _, p) -> p) results)

let run_cmd =
  let action topology event scenario invariants max_events max_vtime preflight
      enhancement mrai seed seeds jobs trace_file trace_format counters profile
      mesh =
    let usage msg =
      prerr_endline ("run: " ^ msg);
      exit 2
    in
    if mesh then begin
      if jobs > 1 then usage "--mesh cannot be combined with --jobs > 1";
      if Option.is_some scenario then
        usage "--mesh cannot be combined with --scenario";
      match event with
      | Bgpsim.Experiment.Tdown -> ()
      | _ -> usage "--mesh withdraws the victim's prefix: --event must be tdown"
    end;
    let spec =
      spec_of ?scenario ~invariants ~max_events ?max_vtime ~preflight topology
        event enhancement mrai seed
    in
    let seedl = seed_list ~seed ~seeds in
    Format.printf "%s  event=%s  enhancement=%a  mrai=%gs  seeds=%d@."
      (Bgpsim.Experiment.topology_name topology)
      (if mesh then "mesh" else event_name spec.event)
      Bgp.Enhancement.pp enhancement mrai seeds;
    if preflight <> Analysis.Preflight.Off then
      Format.printf "@.%a@." Analysis.Preflight.pp
        (Bgpsim.Experiment.analyze spec);
    if mesh then
      run_mesh ~spec ~seeds:seedl ~trace_file ~trace_format ~counters ~profile
    else if trace_file = None && not (counters || profile) then begin
      let robust = Bgpsim.Sweep.over_seeds_robust ~jobs spec ~seeds:seedl in
      (match robust.metrics with
      | Some m -> Format.printf "@.%a@." Metrics.Run_metrics.pp m
      | None -> Format.printf "@.no run completed@.");
      if robust.non_converged > 0 then
        Format.printf "@.%d of %d run(s) hit a budget (non-converged)@."
          robust.non_converged robust.completed;
      if robust.rejected <> [] then
        Format.printf "@.%d run(s) skipped by the strict pre-flight@."
          (List.length robust.rejected);
      if robust.failures <> [] then
        Format.printf "@.%s@." (Bgpsim.Sweep.failures_table robust.failures)
    end
    else begin
      (* Observability path: each seed runs with its own bus (the JSONL
         sink rides on the first seed only); counter snapshots and
         profiles are merged across workers after the ordered gather. *)
      let outcomes =
        Bgpsim.Parallel.map ~jobs
          (fun (i, sd) ->
            let regs = if counters then Some (Obs.Counters.create ()) else None in
            let sink =
              match trace_file with
              | Some path when i = 0 -> trace_sink path trace_format
              | Some _ | None -> Obs.Sink.null
            in
            let obs = Obs.Bus.create ~sink ?counters:regs () in
            let prof = if profile then Some (Obs.Profile.create ()) else None in
            let result =
              Fun.protect
                ~finally:(fun () -> Obs.Bus.close obs)
                (fun () ->
                  Bgpsim.Experiment.run ~obs ?profile:prof { spec with seed = sd })
            in
            (result.metrics, Option.map Obs.Counters.snapshot regs, prof))
          (List.mapi (fun i sd -> (i, sd)) seedl)
      in
      let ok = List.filter_map Result.to_option outcomes in
      let failed = List.length outcomes - List.length ok in
      (match List.map (fun (m, _, _) -> m) ok with
      | [] -> Format.printf "@.no run completed@."
      | ms -> Format.printf "@.%a@." Metrics.Run_metrics.pp (Metrics.Run_metrics.mean ms));
      if failed > 0 then Format.printf "@.%d run(s) failed@." failed;
      (match trace_file with
      | Some path when Sys.file_exists path ->
          Format.printf "@.trace %s  digest %s@." path
            (trace_jsonl_digest path trace_format)
      | Some _ | None -> ());
      print_merged_counters (List.filter_map (fun (_, c, _) -> c) ok);
      print_merged_profile (List.filter_map (fun (_, _, p) -> p) ok)
    end
  in
  let term =
    Term.(
      const action $ topology_arg $ event_arg $ scenario_arg $ invariants_arg
      $ max_events_arg $ max_vtime_arg $ preflight_arg $ enhancement_arg
      $ mrai_arg $ seed_arg $ seeds_arg $ jobs_arg $ trace_file_arg
      $ trace_format_arg $ counters_flag $ profile_flag $ mesh_flag)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Simulate one failure scenario and print its metrics")
    term

(* --- analyze --- *)

let analyze_cmd =
  let topology_opt_arg =
    Arg.(
      value
      & opt (some topology_conv) None
      & info [ "t"; "topology" ] ~docv:"TOPOLOGY"
          ~doc:
            "Topology to analyze: clique:N, b-clique:N, internet:N, waxman:N, \
             glp:N, or file:PATH.")
  in
  let policy_arg =
    Arg.(
      value
      & opt (enum [ ("shortest-path", `Shortest); ("gao-rexford", `Gao) ]) `Shortest
      & info [ "policy" ] ~docv:"POLICY"
          ~doc:
            "Route selection policy to analyze: shortest-path (the paper's) \
             or gao-rexford (valley-free over degree-inferred \
             relationships).")
  in
  let max_paths_arg =
    Arg.(
      value & opt int 50_000
      & info [ "max-paths" ] ~docv:"N"
          ~doc:
            "Permitted-path enumeration budget; beyond it the verdict \
             degrades to 'unknown' (or the Gao-Rexford certificate).")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Also write the full report(s) as a JSON array to $(docv).")
  in
  let fixture_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "fixture" ] ~docv:"NAME"
          ~doc:
            "Analyze a canonical SPVP fixture instead of a topology: \
             bad-gadget (the Griffin-Wilfong dispute wheel, expected unsafe) \
             or good-gadget.")
  in
  let golden_flag =
    Arg.(
      value & flag
      & info [ "golden" ]
          ~doc:
            "Analyze every golden-trace fixture's spec (the CI smoke set) in \
             addition to any --topology/--fixture selection.")
  in
  let action topology event scenario policy mrai seed max_paths json fixture
      golden =
    let reports = ref [] in
    let add label report = reports := (label, report) :: !reports in
    (match fixture with
    | None -> ()
    | Some name -> (
        match Analysis.Fixtures.find name with
        | Error msg -> raise (Invalid_argument msg)
        | Ok (i : Analysis.Fixtures.instance) ->
            add i.label
              (Analysis.Preflight.analyze ~max_paths ~graph:i.graph
                 ~policy:i.policy ~origin:i.origin ~mrai
                 ~params:Netcore.Params.default ())));
    if golden then
      List.iter
        (fun (f : Bgpsim.Golden.fixture) ->
          add f.name (Bgpsim.Experiment.analyze ~max_paths f.spec))
        Bgpsim.Golden.fixtures;
    (match topology with
    | None -> ()
    | Some topology ->
        let spec = spec_of ?scenario topology event Bgp.Enhancement.Standard mrai seed in
        let label =
          Printf.sprintf "%s/%s"
            (Bgpsim.Experiment.topology_name topology)
            (event_name spec.event)
        in
        let report =
          match policy with
          | `Shortest -> Bgpsim.Experiment.analyze ~max_paths spec
          | `Gao ->
              let graph, _, _ = Bgpsim.Experiment.resolve_raw spec in
              let rel = Bgp.Policy.relationships_by_degree graph in
              Bgpsim.Experiment.analyze ~max_paths
                ~policy:(Bgp.Policy.gao_rexford ~rel) ~gr_rel:rel spec
        in
        add label report);
    let reports = List.rev !reports in
    if reports = [] then
      raise (Invalid_argument "nothing to analyze: give --topology, --fixture or --golden");
    List.iter
      (fun (label, report) ->
        Format.printf "== %s ==@.%a@.@." label Analysis.Preflight.pp report)
      reports;
    (match json with
    | None -> ()
    | Some path ->
        let oc = open_out path in
        output_string oc
          ("["
          ^ String.concat ","
              (List.map
                 (fun (label, r) ->
                   Printf.sprintf "{\"name\":\"%s\",\"report\":%s}" label
                     (Analysis.Preflight.to_json r))
                 reports)
          ^ "]\n");
        close_out oc;
        Printf.printf "wrote %s\n" path);
    let doomed =
      List.filter (fun (_, r) -> Analysis.Preflight.blocking r <> []) reports
    in
    if doomed <> [] then begin
      Format.printf "inadmissible: %s@."
        (String.concat ", " (List.map fst doomed));
      exit 1
    end
  in
  let term =
    Term.(
      const action $ topology_opt_arg $ event_arg $ scenario_arg $ policy_arg
      $ mrai_arg $ seed_arg $ max_paths_arg $ json_arg $ fixture_arg
      $ golden_flag)
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Static pre-flight: certify policy safety via the SPVP dispute \
          digraph, lint the fault scenario, and derive convergence bounds — \
          without running the simulator.  Exits nonzero when any analyzed \
          instance is statically doomed (unsafe policy or lint error).")
    term

(* --- golden --- *)

let golden_cmd =
  let check_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "check" ] ~docv:"FILE"
          ~doc:
            "Instead of printing, compare the recomputed digests against the \
             committed fixture file and exit nonzero on any mismatch.")
  in
  let action check =
    match check with
    | None -> List.iter print_endline (Bgpsim.Golden.digest_lines ())
    | Some path ->
        let ic = open_in path in
        let len = in_channel_length ic in
        let text = really_input_string ic len in
        close_in ic;
        let expected = Bgpsim.Golden.parse_expected text in
        let bad = ref 0 in
        let check name got =
          match List.assoc_opt name expected with
          | Some want when String.equal want got ->
              Printf.printf "ok   %s %s\n" name got
          | Some want ->
              incr bad;
              Printf.printf "FAIL %s expected %s got %s\n" name want got
          | None ->
              incr bad;
              Printf.printf "FAIL %s missing from %s (got %s)\n" name path got
        in
        List.iter
          (fun (f : Bgpsim.Golden.fixture) ->
            check f.name (Bgpsim.Golden.digest f))
          Bgpsim.Golden.fixtures;
        check Bgpsim.Golden.mesh_name (Bgpsim.Golden.mesh_digest ());
        if !bad > 0 then exit 1
  in
  let term = Term.(const action $ check_arg) in
  Cmd.v
    (Cmd.info "golden"
       ~doc:
         "Print (or --check) the golden-trace digests of the canonical runs; \
          regenerate the committed fixtures with 'golden > \
          test/golden_digests.expected'")
    term

(* --- sweep --- *)

(* Prints a preset's table, then fails the command (exit 1) when any
   point did not converge, so a CI step needs no output parsing.
   [points] are (label, converged, row). *)
let print_preset ~title ~header points =
  print_string
    (Bgpsim.Report.table ~title ~header
       ~rows:(List.map (fun (_, _, row) -> row) points));
  match
    List.filter_map
      (fun (label, converged, _) -> if converged then None else Some label)
      points
  with
  | [] -> ()
  | bad ->
      Printf.eprintf "sweep: non-converged point(s): %s\n"
        (String.concat ", " bad);
      exit 1

(* The scale preset (EXPERIMENTS.md §"Scale sweep"): T_down and T_long
   on internet-like graphs at the Premore sizes plus 300 nodes, timing
   the routing simulation alone. *)
let scale_preset_sizes = [ 29; 48; 75; 110; 300 ]

let run_scale_preset ~sizes ~enhancement ~mrai ~seeds:seedl =
  let cell (spec : Bgpsim.Experiment.spec) =
    let graph, origin, event = Bgpsim.Experiment.resolve spec in
    let config = Bgp.Config.of_enhancement ~mrai:spec.mrai spec.enhancement in
    let t0 = Unix.gettimeofday () in
    let o =
      Bgp.Routing_sim.run ~config ~max_events:spec.max_events ~graph ~origin
        ~event ~seed:spec.seed ()
    in
    let wall = Unix.gettimeofday () -. t0 in
    (o, wall, (Gc.quick_stat ()).top_heap_words)
  in
  let rows =
    List.concat_map
      (fun n ->
        List.map
          (fun (label, ev) ->
            let cells =
              List.map
                (fun seed ->
                  cell
                    (spec_of ~max_events:5_000_000
                       (Bgpsim.Experiment.Internet n) ev enhancement mrai seed))
                seedl
            in
            let events =
              List.fold_left
                (fun a ((o : Bgp.Routing_sim.outcome), _, _) ->
                  a + o.events_executed)
                0 cells
            in
            let wall = List.fold_left (fun a (_, w, _) -> a +. w) 0. cells in
            let conv =
              List.fold_left
                (fun a (o, _, _) -> a +. Bgp.Routing_sim.convergence_time o)
                0. cells
              /. float_of_int (List.length cells)
            in
            let converged =
              List.for_all
                (fun ((o : Bgp.Routing_sim.outcome), _, _) -> o.converged)
                cells
            in
            let heap =
              List.fold_left (fun a (_, _, h) -> Stdlib.max a h) 0 cells
            in
            let paths =
              List.fold_left
                (fun a ((o : Bgp.Routing_sim.outcome), _, _) ->
                  Stdlib.max a o.paths_interned)
                0 cells
            in
            ( Printf.sprintf "%d/%s" n label,
              converged,
              [
                string_of_int n;
                label;
                string_of_int events;
                Printf.sprintf "%.3f" wall;
                (if wall > 0. then
                   Printf.sprintf "%.0f" (float_of_int events /. wall)
                 else "-");
                Bgpsim.Report.float_cell conv;
                (if converged then "yes" else "NO");
                Printf.sprintf "%.1f" (float_of_int heap /. 1e6);
                string_of_int paths;
              ] ))
          [ ("tdown", Bgpsim.Experiment.Tdown); ("tlong", Bgpsim.Experiment.Tlong) ])
      sizes
  in
  print_preset
    ~title:
      (Printf.sprintf
         "scale preset: T_down/T_long on internet graphs (%d seed(s))"
         (List.length seedl))
    ~header:
      [
        "n"; "event"; "events"; "wall(s)"; "ev/s"; "conv(s)"; "conv?";
        "heap-Mw"; "paths";
      ]
    rows

(* The mesh preset (EXPERIMENTS.md §"Full-mesh recipe"): full-mesh
   multi-prefix workloads on internet-like graphs — every node
   originates its own prefix and the min-degree stub's prefix is
   withdrawn after warm-up.  CI's mesh-smoke step runs this at small
   sizes; the bench `mesh` group runs the internet-110 point. *)
let mesh_preset_sizes = [ 10; 20; 29; 48 ]

let run_mesh_preset ~sizes ~preflight ~enhancement ~mrai ~seeds:seedl =
  let cell (spec : Bgpsim.Experiment.spec) =
    let graph, victim, _event = Bgpsim.Experiment.resolve spec in
    let config =
      Bgp.Config.of_enhancement ~mrai:spec.mrai spec.enhancement
    in
    let t0 = Unix.gettimeofday () in
    let o =
      Bgp.Mesh_sim.run ~config ~max_events:spec.max_events ~graph ~victim
        ~seed:spec.seed ()
    in
    let wall = Unix.gettimeofday () -. t0 in
    (o, wall, (Gc.quick_stat ()).top_heap_words)
  in
  let rows =
    List.map
      (fun n ->
        let specs =
          List.map
            (fun seed ->
              spec_of ~preflight ~max_events:40_000_000
                (Bgpsim.Experiment.Internet n) Bgpsim.Experiment.Tdown
                enhancement mrai seed)
            seedl
        in
        (* the pre-flight analyzes the victim prefix's (single-prefix)
           scenario — policy safety and bounds carry over per prefix *)
        (match specs with
        | s :: _ when preflight <> Analysis.Preflight.Off ->
            Format.printf "== internet:%d ==@.%a@.@." n Analysis.Preflight.pp
              (Bgpsim.Experiment.analyze s)
        | _ -> ());
        let cells = List.map cell specs in
        let events =
          List.fold_left
            (fun a ((o : Bgp.Mesh_sim.outcome), _, _) -> a + o.events_executed)
            0 cells
        in
        let wall = List.fold_left (fun a (_, w, _) -> a +. w) 0. cells in
        let conv =
          List.fold_left
            (fun a (o, _, _) -> a +. Bgp.Mesh_sim.convergence_time o)
            0. cells
          /. float_of_int (List.length cells)
        in
        let converged =
          List.for_all
            (fun ((o : Bgp.Mesh_sim.outcome), _, _) -> o.converged)
            cells
        in
        let loops, loop_s =
          List.fold_left
            (fun acc ((o : Bgp.Mesh_sim.outcome), _, _) ->
              List.fold_left
                (fun (c, s) (_, r) ->
                  let a =
                    Loopscan.Scanner.aggregate r
                      ~until:o.victim_convergence_end
                  in
                  (c + a.count, s +. a.total_loop_seconds))
                acc o.loop_reports)
            (0, 0.) cells
        in
        let heap =
          List.fold_left (fun a (_, _, h) -> Stdlib.max a h) 0 cells
        in
        let paths =
          List.fold_left
            (fun a ((o : Bgp.Mesh_sim.outcome), _, _) ->
              Stdlib.max a o.paths_interned)
            0 cells
        in
        let prefixes =
          match cells with
          | ((o : Bgp.Mesh_sim.outcome), _, _) :: _ ->
              List.length o.prefixes
          | [] -> 0
        in
        ( string_of_int n,
          converged,
          [
            string_of_int n;
            string_of_int prefixes;
            string_of_int events;
            Printf.sprintf "%.3f" wall;
            (if wall > 0. then
               Printf.sprintf "%.0f" (float_of_int events /. wall)
             else "-");
            Bgpsim.Report.float_cell conv;
            (if converged then "yes" else "NO");
            string_of_int loops;
            Printf.sprintf "%.1f" loop_s;
            Printf.sprintf "%.1f" (float_of_int heap /. 1e6);
            string_of_int paths;
          ] ))
      sizes
  in
  print_preset
    ~title:
      (Printf.sprintf
         "mesh preset: full-mesh T_down on internet graphs (%d seed(s))"
         (List.length seedl))
    ~header:
      [
        "n"; "prefixes"; "events"; "wall(s)"; "ev/s"; "conv(s)"; "conv?";
        "loops"; "loop-s"; "heap-Mw"; "paths";
      ]
    rows

let sweep_cmd =
  let axis_arg =
    Arg.(
      value
      & opt (some (enum [ ("size", `Size); ("mrai", `Mrai) ])) None
      & info [ "axis" ] ~docv:"AXIS"
          ~doc:"Sweep axis: size (the default) or mrai.")
  in
  let values_arg =
    Arg.(
      value
      & opt (some (list float)) None
      & info [ "values" ] ~docv:"V1,V2,..."
          ~doc:"Sweep values. Required unless $(b,--preset) is given.")
  in
  let preset_arg =
    Arg.(
      value
      & opt (some (enum [ ("scale", `Scale); ("mesh", `Mesh) ])) None
      & info [ "preset" ] ~docv:"NAME"
          ~doc:
            "Named sweep preset. $(b,scale) times T_down and T_long on \
             internet-like graphs at sizes 29,48,75,110,300 (override with \
             $(b,--values)), reporting events/sec, peak heap words and \
             arena occupancy. $(b,mesh) times full-mesh multi-prefix T_down \
             (every node originates its own prefix) at sizes 10,20,29,48 \
             (override with $(b,--values)), additionally reporting loop \
             counts and loop-seconds summed over all prefixes.  Preset runs \
             are sequential and pick their own topologies and events: \
             $(b,--jobs) above 1, $(b,--topology), $(b,--axis), $(b,--size), \
             an $(b,--event) other than tdown and, for $(b,scale), a \
             $(b,--preflight) other than off are rejected (exit 2).  The \
             command exits 1 when any point did not converge.")
  in
  let family_arg =
    Arg.(
      value
      & opt
          (some
             (enum
                [
                  ("clique", `Clique); ("b-clique", `B_clique);
                  ("internet", `Internet);
                ]))
          None
      & info [ "t"; "topology" ] ~docv:"FAMILY"
          ~doc:
            "Topology family for the sweep: clique (the default), b-clique \
             or internet.")
  in
  let size_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "size" ] ~docv:"N"
          ~doc:"Fixed size when sweeping the MRAI (default 10).")
  in
  let action family axis values size event preflight enhancement mrai seed
      seeds jobs preset =
    if Option.is_some preset then begin
      let usage msg =
        prerr_endline ("sweep: " ^ msg);
        exit 2
      in
      if jobs > 1 then usage "--preset cannot be combined with --jobs > 1";
      if family <> None || axis <> None || size <> None then
        usage "--preset picks its own topologies: drop --topology, --axis and --size";
      if preset = Some `Scale && preflight <> Analysis.Preflight.Off then
        usage "--preset scale runs no pre-flight: --preflight must be off";
      match event with
      | Bgpsim.Experiment.Tdown -> ()
      | _ -> usage "--preset picks its own events: --event must be tdown"
    end;
    match preset with
    | Some `Scale ->
        let sizes =
          match values with
          | Some vs -> List.map int_of_float vs
          | None -> scale_preset_sizes
        in
        run_scale_preset ~sizes ~enhancement ~mrai
          ~seeds:(seed_list ~seed ~seeds)
    | Some `Mesh ->
        let sizes =
          match values with
          | Some vs -> List.map int_of_float vs
          | None -> mesh_preset_sizes
        in
        run_mesh_preset ~sizes ~preflight ~enhancement ~mrai
          ~seeds:(seed_list ~seed ~seeds)
    | None ->
    let values =
      match values with
      | Some vs -> vs
      | None ->
          prerr_endline "sweep: --values is required unless --preset is given";
          exit 2
    in
    let family = Option.value family ~default:`Clique
    and axis = Option.value axis ~default:`Size
    and size = Option.value size ~default:10 in
    let topology n =
      match family with
      | `Clique -> Bgpsim.Experiment.Clique n
      | `B_clique -> Bgpsim.Experiment.B_clique n
      | `Internet -> Bgpsim.Experiment.Internet n
    in
    let make v =
      match axis with
      | `Size ->
          spec_of ~preflight (topology (int_of_float v)) event enhancement
            mrai seed
      | `Mrai -> spec_of ~preflight (topology size) event enhancement v seed
    in
    let x_cell v =
      match axis with
      | `Size -> string_of_int (int_of_float v)
      | `Mrai -> Printf.sprintf "%g" v
    in
    let metric_cells (m : Metrics.Run_metrics.t) =
      [
        Bgpsim.Report.float_cell m.convergence_time;
        Bgpsim.Report.float_cell m.overall_looping_duration;
        string_of_int m.ttl_exhaustions;
        Bgpsim.Report.ratio_cell m.looping_ratio;
        string_of_int m.updates_sent;
      ]
    in
    let seedl = seed_list ~seed ~seeds in
    let rows =
      if preflight = Analysis.Preflight.Off then
        List.map
          (fun (v, m) -> x_cell v :: metric_cells m)
          (Bgpsim.Sweep.series ~jobs ~make ~seeds:seedl values)
      else
        (* with the pre-flight on, a statically-doomed point is skipped
           (and labelled) instead of aborting the whole sweep *)
        List.map
          (fun (v, (r : Bgpsim.Sweep.robust)) ->
            x_cell v
            ::
            (match r.metrics with
            | Some m -> metric_cells m
            | None ->
                let label =
                  if r.rejected <> [] then "rejected" else "failed"
                in
                [ label; "-"; "-"; "-"; "-" ]))
          (Bgpsim.Sweep.series_robust ~jobs ~make ~seeds:seedl values)
    in
    print_string
      (Bgpsim.Report.table
         ~title:
           (Printf.sprintf "%s sweep (%s axis, %a, mrai=%g, %d seed(s))"
              (match family with
              | `Clique -> "clique"
              | `B_clique -> "b-clique"
              | `Internet -> "internet")
              (match axis with `Size -> "size" | `Mrai -> "mrai")
              (fun () e -> Bgp.Enhancement.name e)
              enhancement mrai seeds)
         ~header:
           [
             (match axis with `Size -> "size" | `Mrai -> "mrai");
             "conv(s)";
             "loop-dur(s)";
             "ttl-exh";
             "ratio";
             "updates";
           ]
         ~rows)
  in
  let term =
    Term.(
      const action $ family_arg $ axis_arg $ values_arg $ size_arg $ event_arg
      $ preflight_arg $ enhancement_arg $ mrai_arg $ seed_arg $ seeds_arg
      $ jobs_arg $ preset_arg)
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Sweep network size or MRAI and print the resulting series; \
          --preset scale runs the large-topology throughput workload and \
          --preset mesh the full-mesh multi-prefix one")
    term

(* --- churn --- *)

let churn_cmd =
  let epochs_arg =
    Arg.(
      value & opt int 10
      & info [ "epochs" ] ~docv:"N"
          ~doc:
            "Total completed epochs to reach.  Absolute, so a resumed run \
             continues toward the same horizon.")
  in
  let epoch_len_arg =
    Arg.(
      value & opt float 300.
      & info [ "epoch-len" ] ~docv:"SECONDS"
          ~doc:"Virtual seconds each epoch's churn events are spread over.")
  in
  let flap_rate_arg =
    Arg.(
      value & opt float 4.
      & info [ "flap-rate" ] ~docv:"RATE"
          ~doc:
            "Mean churn events per epoch (Poisson): link flaps, session \
             resets and origin prefix flaps.")
  in
  let checkpoint_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint-dir" ] ~docv:"DIR"
          ~doc:
            "Write boundary checkpoints into $(docv) (created if absent); \
             required by --resume.")
  in
  let checkpoint_every_arg =
    Arg.(
      value & opt int 4
      & info [ "checkpoint-every" ] ~docv:"EPOCHS"
          ~doc:"Epochs between checkpoints (one is always written at the end).")
  in
  let compact_every_arg =
    Arg.(
      value & opt int 8
      & info [ "compact-every" ] ~docv:"EPOCHS"
          ~doc:
            "Epochs between path-arena compactions (live handles re-interned \
             into a fresh arena).")
  in
  let resume_flag =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Resume from the latest checkpoint in --checkpoint-dir; the \
             resumed run reproduces the uninterrupted one bit-identically \
             (same chain digest).")
  in
  let max_wall_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "max-wall-s" ] ~docv:"SECONDS"
          ~doc:
            "Wall-clock budget; on expiry the run degrades gracefully \
             (flushes, reports the last checkpoint) and exits with status \
             wall-expired.")
  in
  let target_events_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-events" ] ~docv:"N"
          ~doc:
            "Stop (completed) at the first epoch boundary with at least \
             $(docv) cumulative engine events.")
  in
  let stall_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "stall-epochs" ] ~docv:"N"
          ~doc:
            "Report a structured stall (and stop) after $(docv) consecutive \
             epochs without a single FIB change.")
  in
  let kill_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "kill-after-epoch" ] ~docv:"EPOCH"
          ~doc:
            "Stop right after the boundary checkpoint of epoch $(docv) — the \
             deterministic mid-flight kill the resume tests and CI use.")
  in
  let no_digest_flag =
    Arg.(
      value & flag
      & info [ "no-digest" ]
          ~doc:
            "Skip per-epoch trace digesting (throughput benchmarking; the \
             final chain digest is then unavailable).")
  in
  let quiet_flag =
    Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress per-epoch lines.")
  in
  let churn_trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Stream every trace event (warm-up included) to $(docv) in the \
             encoding set by --trace-format, teed with the digest chain.")
  in
  let action topology epochs epoch_len flap_rate seed mrai enhancement
      checkpoint_dir checkpoint_every compact_every resume max_wall_s
      target_events stall_epochs kill_after_epoch no_digest trace_file
      trace_format quiet =
    let graph, origin, _ =
      Bgpsim.Experiment.resolve_raw
        { (Bgpsim.Experiment.default_spec topology) with seed }
    in
    let bgp = Bgp.Config.of_enhancement ~mrai enhancement in
    let workload = Churn.Workload.make ~epoch_len ~flap_rate () in
    (match checkpoint_dir with
    | Some dir when not (Sys.file_exists dir) -> Sys.mkdir dir 0o755
    | Some _ | None -> ());
    let resume_from =
      if not resume then None
      else
        match checkpoint_dir with
        | None ->
            prerr_endline "churn: --resume requires --checkpoint-dir";
            exit 2
        | Some dir -> (
            match Churn.Checkpoint.latest ~dir with
            | Some (epoch, path) ->
                Printf.printf "resuming from %s (epoch %d)\n%!" path epoch;
                Some path
            | None ->
                Printf.eprintf "churn: no checkpoint found in %s\n" dir;
                exit 2)
    in
    let cfg =
      Churn.Driver.make ~seed ~bgp ~workload ~epochs ?target_events
        ?checkpoint_dir ~checkpoint_every ~compact_every
        ~digest:(not no_digest) ?stall_epochs ?kill_after_epoch ~graph ~origin
        ()
    in
    let watchdog = Faults.Watchdog.create ?max_wall_s () in
    Printf.printf
      "churn %s  origin=%d  epochs=%d  epoch-len=%gs  flap-rate=%g  \
       enhancement=%s  mrai=%gs  seed=%d\n\
       %!"
      (Bgpsim.Experiment.topology_name topology)
      origin epochs epoch_len flap_rate
      (Bgp.Enhancement.name enhancement)
      mrai seed;
    let on_epoch (e : Churn.Driver.epoch_info) =
      if not quiet then
        Printf.printf
          "epoch %4d  vtime %12.1f  events %9d  fib %6d  loops %3d  arena \
           %6d%s%s\n\
           %!"
          e.ei_epoch e.ei_vtime e.ei_events e.ei_fib_changes e.ei_live_loops
          e.ei_arena_size
          (if e.ei_compacted then "  compacted" else "")
          (match e.ei_checkpoint with
          | Some p -> "  ckpt " ^ Filename.basename p
          | None -> "")
    in
    let sink = Option.map (fun p -> trace_sink p trace_format) trace_file in
    let r =
      try Churn.Driver.run ~watchdog ~on_epoch ?resume_from ?sink cfg
      with Churn.Checkpoint.Incompatible_version _ as e ->
        Printf.eprintf "churn: %s\n" (Printexc.to_string e);
        exit 6
    in
    let t = r.loop_totals in
    Printf.printf "status %s\n" (Churn.Driver.status_name r.status);
    Printf.printf "epochs %d  events %d  vtime %.1f\n" r.epochs_completed
      r.events_executed r.vtime;
    Printf.printf
      "loops: started %d  resolved %d  live %d  max-concurrent %d  mean-size \
       %.2f  loop-seconds %.3f\n"
      t.loops_started t.loops_resolved t.live_now t.max_concurrent t.mean_size
      t.total_loop_seconds;
    Printf.printf "arena: size %d  peak %d  words %d\n" r.arena_size
      r.arena_peak r.arena_words;
    Printf.printf "chain-digest %s\n"
      (match r.chain_digest with Some d -> d | None -> "-");
    (match r.last_checkpoint with
    | Some p -> Printf.printf "last-checkpoint %s\n" p
    | None -> ());
    match r.status with
    | Churn.Driver.Completed | Churn.Driver.Killed _ -> ()
    | Churn.Driver.Stalled _ -> exit 3
    | Churn.Driver.Wall_expired -> exit 4
    | Churn.Driver.Event_limit -> exit 5
  in
  let term =
    Term.(
      const action $ topology_arg $ epochs_arg $ epoch_len_arg $ flap_rate_arg
      $ seed_arg $ mrai_arg $ enhancement_arg $ checkpoint_dir_arg
      $ checkpoint_every_arg $ compact_every_arg $ resume_flag $ max_wall_arg
      $ target_events_arg $ stall_arg $ kill_arg $ no_digest_flag
      $ churn_trace_arg $ trace_format_arg $ quiet_flag)
  in
  Cmd.v
    (Cmd.info "churn"
       ~doc:
         "Sustained-churn service mode: drive one persistent simulation \
          through a long horizon of flap epochs with streaming loop \
          detection, bounded memory (arena compaction), checkpoint/resume \
          and wall-clock watchdog")
    term

(* --- topo --- *)

let topo_cmd =
  let format_arg =
    Arg.(
      value
      & opt (enum [ ("edges", `Edges); ("dot", `Dot) ]) `Edges
      & info [ "format" ] ~docv:"FMT" ~doc:"Output format: edges or dot.")
  in
  let action topology format seed =
    let graph =
      match (topology : Bgpsim.Experiment.topology) with
      | Clique n -> Topo.Generators.clique n
      | B_clique n -> Topo.Generators.b_clique n
      | Internet n -> Topo.Internet.generate ~seed n
      | Waxman n -> Topo.Random_graphs.waxman ~seed n
      | Glp n -> Topo.Random_graphs.glp ~m:2 ~seed n
      | Custom { graph; _ } -> graph
    in
    match format with
    | `Edges -> print_string (Topo.Topo_io.to_edge_list graph)
    | `Dot -> print_string (Topo.Topo_io.to_dot graph)
  in
  let term = Term.(const action $ topology_arg $ format_arg $ seed_arg) in
  Cmd.v
    (Cmd.info "topo" ~doc:"Generate a topology and print it")
    term

(* --- trace --- *)

let trace_cmd =
  let dir_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output-dir" ] ~docv:"DIR"
          ~doc:"Directory the CSV files are written into (created if absent).")
  in
  let action topology event enhancement mrai seed dir =
    let spec = spec_of topology event enhancement mrai seed in
    let run = Bgpsim.Experiment.run spec in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let write name text =
      let path = Filename.concat dir name in
      let oc = open_out path in
      output_string oc text;
      close_out oc;
      Printf.printf "wrote %s\n" path
    in
    let fib = Netcore.Trace.fib run.outcome.trace in
    let from = run.outcome.t_fail in
    write "fib_changes.csv" (Metrics.Export.fib_changes_csv fib ~from);
    write "messages.csv" (Metrics.Export.sends_csv run.outcome.trace ~from);
    write "loops.csv"
      (Metrics.Export.loops_csv run.loops
         ~until:(run.outcome.convergence_end +. spec.replay_tail));
    Format.printf "%a@." Metrics.Run_metrics.pp run.metrics
  in
  let export_term =
    Term.(
      const action $ topology_arg $ event_arg $ enhancement_arg $ mrai_arg
      $ seed_arg $ dir_arg)
  in
  (* trace decode: the binary→JSONL oracle.  Output is byte-identical
     to what Sink.jsonl_file would have written for the same run, so
     golden digests carry over to binary captures. *)
  let decode_cmd =
    let input_arg =
      Arg.(
        required
        & pos 0 (some file) None
        & info [] ~docv:"TRACE" ~doc:"Binary trace file to decode.")
    in
    let output_arg =
      Arg.(
        value
        & opt (some string) None
        & info [ "o"; "output" ] ~docv:"FILE"
            ~doc:"Write the JSONL to $(docv) instead of standard output.")
    in
    let action input output =
      let ic = open_in_bin input in
      let reader =
        try Obs.Binary.open_reader ic
        with Failure msg ->
          close_in_noerr ic;
          Printf.eprintf "trace decode: %s: %s\n" input msg;
          exit 1
      in
      let oc, close_oc =
        match output with
        | None -> (stdout, fun () -> flush stdout)
        | Some path ->
            let oc = open_out path in
            (oc, fun () -> close_out oc)
      in
      let count = ref 0 in
      (try
         let continue_ = ref true in
         while !continue_ do
           match Obs.Binary.input reader with
           | None -> continue_ := false
           | Some ev ->
               output_string oc (Obs.Event.to_json ev);
               output_char oc '\n';
               incr count
         done
       with Failure msg ->
         close_oc ();
         close_in_noerr ic;
         Printf.eprintf "trace decode: %s: %s\n" input msg;
         exit 1);
      close_oc ();
      close_in ic;
      match output with
      | Some path -> Printf.printf "decoded %d events -> %s\n" !count path
      | None -> ()
    in
    Cmd.v
      (Cmd.info "decode"
         ~doc:
           "Decode a binary trace (--trace-format binary) back to JSONL, \
            byte-identical to what the run would have written directly")
      Term.(const action $ input_arg $ output_arg)
  in
  Cmd.group ~default:export_term
    (Cmd.info "trace"
       ~doc:
         "Run one scenario and export its FIB/message/loop traces as CSV, or \
          decode a binary event trace back to JSONL ('trace decode')")
    [ decode_cmd ]

(* --- figures --- *)

let figures_cmd =
  let dir_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output-dir" ] ~docv:"DIR"
          ~doc:"Directory the per-figure CSV files are written into.")
  in
  let seeds_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "seeds" ] ~docv:"N"
          ~doc:
            "Seeds averaged per data point: seeds 1..N for every series.  \
             Without it each series uses its own seeds from the figure \
             catalogue (Bgpsim.Figures).")
  in
  let action dir seeds jobs =
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let write name text =
      let path = Filename.concat dir name in
      let oc = open_out path in
      output_string oc text;
      close_out oc;
      Printf.printf "wrote %s\n%!" path
    in
    (* one pool shared by every figure's sweep; Figures 4 & 6 share
       runs, as do 5 & 7, and each CSV carries every metric column, so
       one file serves both views of a figure pair *)
    Bgpsim.Parallel.with_pool ~jobs @@ fun pool ->
    List.iter
      (fun (s : Bgpsim.Figures.series) ->
        let seeds =
          match seeds with
          | Some n -> seed_list ~seed:1 ~seeds:n
          | None -> s.seeds
        in
        List.iter
          (fun (_, stem, make) ->
            let data = Bgpsim.Sweep.series ~pool ~make ~seeds s.xs in
            write (stem ^ ".csv")
              (Metrics.Export.series_csv ~x_label:s.x_label data))
          (Bgpsim.Figures.runs s))
      Bgpsim.Figures.all
  in
  let term = Term.(const action $ dir_arg $ seeds_arg $ jobs_arg) in
  Cmd.v
    (Cmd.info "figures"
       ~doc:
         "Regenerate every paper figure's data series as CSV files for \
          offline plotting")
    term

let () =
  let info =
    Cmd.info "bgpsim" ~version:"1.0.0"
      ~doc:"BGP path-vector transient-loop simulator (ICDCS 2004 reproduction)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            run_cmd;
            sweep_cmd;
            analyze_cmd;
            churn_cmd;
            topo_cmd;
            trace_cmd;
            figures_cmd;
            golden_cmd;
          ]))
