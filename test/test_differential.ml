(* Differential lockdown of the interned-path refactor (DESIGN.md §12).

   Two workloads answer the same question for a single prefix:
   [Routing_sim.run ~event:Tdown] and [Mesh_sim.run ~origins:[o]
   ~victim:0] script the same event schedule on a [Network] (same RNG
   split order, same originate/inject times, same link set), so their
   FIB histories and forwarding-loop reports must match change for
   change.  Any divergence — a missed intern, an
   arena-dependent comparison, an ordering change in the decision
   process — shows up here before it shows up in a golden digest.

   The second half pins the arena itself with QCheck properties against
   the obvious list model. *)

let fmt = Printf.sprintf

(* Exact-float renderings: determinism means times must match bit for
   bit, and %h never loses bits. *)
let change_repr (c : Netcore.Fib_history.change) =
  fmt "t=%h node=%d nh=%s" c.time c.node
    (match c.next_hop with None -> "-" | Some n -> string_of_int n)

let fib_changes fib =
  List.map change_repr (Netcore.Fib_history.changes_from fib ~from:0.)

let loops ~fib ~origin ~from =
  let r = Loopscan.Scanner.scan ~fib ~origin ~from () in
  List.map Loop_oracle.loop_repr r.loops

(* --- Routing_sim vs Mesh_sim on one prefix --- *)

let check_single_prefix_equivalence ~name ~graph ~origin ~seed =
  let rs = Bgp.Routing_sim.run ~graph ~origin ~event:Tdown ~seed () in
  let ms = Bgp.Mesh_sim.run ~graph ~origins:[ origin ] ~victim:0 ~seed () in
  let ms_fib =
    match ms.prefixes with
    | [ (_, fib) ] -> fib
    | l -> Alcotest.fail (fmt "%s: %d prefixes, want 1" name (List.length l))
  in
  let rs_fib = Netcore.Trace.fib rs.trace in
  Alcotest.(check bool) (name ^ ": both converged") true
    (rs.converged && ms.converged);
  Alcotest.(check (float 0.)) (name ^ ": t_fail") rs.t_fail ms.t_fail;
  Alcotest.(check (float 0.))
    (name ^ ": convergence end")
    rs.convergence_end ms.victim_convergence_end;
  Alcotest.(check int)
    (name ^ ": paths interned")
    rs.paths_interned ms.paths_interned;
  Alcotest.(check (list string))
    (name ^ ": FIB change history")
    (fib_changes rs_fib) (fib_changes ms_fib);
  Alcotest.(check (list string))
    (name ^ ": forwarding loops")
    (loops ~fib:rs_fib ~origin ~from:rs.t_fail)
    (loops ~fib:ms_fib ~origin ~from:ms.t_fail);
  Alcotest.(check int)
    (name ^ ": messages after the failure")
    (rs.updates_after_fail + rs.withdrawals_after_fail)
    ms.victim_messages;
  Alcotest.(check int) (name ^ ": events") rs.events_executed ms.events_executed;
  (* the mesh's streaming scan vs a post-hoc scan of Routing_sim's
     history: both workloads feed the loop tracker the same changes *)
  match ms.loop_reports with
  | [ (_, streamed) ] ->
      Alcotest.(check bool)
        (name ^ ": streamed loop report")
        true
        (streamed = Loopscan.Scanner.scan ~fib:rs_fib ~origin ~from:rs.t_fail ())
  | l -> Alcotest.fail (fmt "%s: %d loop reports, want 1" name (List.length l))

let tdown_fixture_graphs () =
  List.filter_map
    (fun (f : Bgpsim.Golden.fixture) ->
      match f.spec.event with
      | Tdown ->
          let graph, origin, _ = Bgpsim.Experiment.resolve f.spec in
          Some (f.name, graph, origin, f.spec.seed)
      | _ -> None)
    Bgpsim.Golden.fixtures

let test_equivalence_on_golden_fixtures () =
  let cases = tdown_fixture_graphs () in
  Alcotest.(check bool) "at least two T_down fixtures" true
    (List.length cases >= 2);
  List.iter
    (fun (name, graph, origin, seed) ->
      check_single_prefix_equivalence ~name ~graph ~origin ~seed)
    cases

(* 20 seeded internet-like topologies: 5 sizes x 4 seeds.  The origin
   follows the experiment convention (a stub node) so the T_down
   actually exercises multi-hop withdrawal waves. *)
let test_equivalence_on_random_topologies () =
  List.iter
    (fun n ->
      List.iter
        (fun seed ->
          let graph = Topo.Internet.generate ~seed n in
          let origin =
            match Topo.Internet.stub_nodes graph with
            | o :: _ -> o
            | [] -> 0
          in
          check_single_prefix_equivalence
            ~name:(fmt "internet-%d/seed-%d" n seed)
            ~graph ~origin ~seed)
        [ 1; 2; 3; 4 ])
    [ 10; 12; 14; 16; 18 ]

(* --- run-twice determinism over every golden fixture --- *)

let test_fixture_runs_are_deterministic () =
  List.iter
    (fun (f : Bgpsim.Golden.fixture) ->
      let graph, origin, event = Bgpsim.Experiment.resolve f.spec in
      let once () =
        Bgp.Routing_sim.run ~params:f.spec.params ~graph ~origin ~event
          ~seed:f.spec.seed ()
      in
      let a = once () and b = once () in
      Alcotest.(check int)
        (f.name ^ ": events executed")
        a.events_executed b.events_executed;
      Alcotest.(check int)
        (f.name ^ ": paths interned")
        a.paths_interned b.paths_interned;
      Alcotest.(check (list string))
        (f.name ^ ": FIB change history")
        (fib_changes (Netcore.Trace.fib a.trace))
        (fib_changes (Netcore.Trace.fib b.trace));
      Alcotest.(check (list string))
        (f.name ^ ": forwarding loops")
        (loops ~fib:(Netcore.Trace.fib a.trace) ~origin ~from:a.t_fail)
        (loops ~fib:(Netcore.Trace.fib b.trace) ~origin ~from:b.t_fail))
    Bgpsim.Golden.fixtures

(* --- streaming scanner vs the brute-force oracle --- *)

(* Loop tracking must match {!Loop_oracle}, which recomputes every
   cycle after every change: [Scanner.scan] loop for loop (members,
   trigger, birth, death) and in its report fields, and a
   bounded-memory [Stream] fed the same changes in its totals. *)
let check_stream_matches_oracle ~name ~fib ~origin ~from =
  let expected = Loop_oracle.report ~fib ~origin ~from in
  Alcotest.(check (list string))
    (name ^ ": scan = oracle")
    (Loop_oracle.report_repr expected)
    (Loop_oracle.report_repr (Loopscan.Scanner.scan ~fib ~origin ~from ()));
  let until =
    Float.max from
      (Option.value ~default:from (Netcore.Fib_history.last_change_time fib))
    +. 1.
  in
  let want = Loop_oracle.totals expected ~until
  and got = Loop_oracle.stream_totals ~fib ~origin ~from ~until in
  Alcotest.(check bool)
    (fmt "%s: totals = oracle (oracle %s, stream %s)" name
       (Loop_oracle.totals_repr want) (Loop_oracle.totals_repr got))
    true
    (Loop_oracle.totals_agree want got)

let test_stream_on_golden_fixtures () =
  List.iter
    (fun (f : Bgpsim.Golden.fixture) ->
      let graph, origin, event = Bgpsim.Experiment.resolve f.spec in
      let rs =
        Bgp.Routing_sim.run ~params:f.spec.params ~graph ~origin ~event
          ~seed:f.spec.seed ()
      in
      check_stream_matches_oracle ~name:f.name
        ~fib:(Netcore.Trace.fib rs.trace) ~origin ~from:rs.t_fail)
    Bgpsim.Golden.fixtures

let test_stream_on_random_topologies () =
  List.iter
    (fun n ->
      List.iter
        (fun seed ->
          let graph = Topo.Internet.generate ~seed n in
          let origin =
            match Topo.Internet.stub_nodes graph with
            | o :: _ -> o
            | [] -> 0
          in
          let rs = Bgp.Routing_sim.run ~graph ~origin ~event:Tdown ~seed () in
          check_stream_matches_oracle
            ~name:(fmt "internet-%d/seed-%d" n seed)
            ~fib:(Netcore.Trace.fib rs.trace) ~origin ~from:rs.t_fail)
        [ 1; 2; 3; 4 ])
    [ 10; 14; 18 ]

(* Replaying from t = 0 includes the originate wave: the stream starts
   from the empty FIB and must still agree. *)
let test_stream_from_cold_start () =
  let graph = Topo.Internet.generate ~seed:7 16 in
  let origin =
    match Topo.Internet.stub_nodes graph with o :: _ -> o | [] -> 0
  in
  let rs = Bgp.Routing_sim.run ~graph ~origin ~event:Tdown ~seed:7 () in
  check_stream_matches_oracle ~name:"cold start"
    ~fib:(Netcore.Trace.fib rs.trace) ~origin ~from:0.

(* --- QCheck: the arena against the list model --- *)

(* Duplicate-free AS lists (of_list rejects repeats by design). *)
let distinct_list_gen =
  QCheck.Gen.(
    list_size (0 -- 8) (0 -- 200) >|= fun l ->
    let seen = Hashtbl.create 16 in
    List.filter
      (fun v ->
        if Hashtbl.mem seen v then false
        else begin
          Hashtbl.add seen v ();
          true
        end)
      l)

let arb_path =
  QCheck.make distinct_list_gen
    ~print:(fun l -> "[" ^ String.concat ";" (List.map string_of_int l) ^ "]")

let prop_roundtrip =
  QCheck.Test.make ~name:"arena: to_list (of_list l) = l" ~count:500 arb_path
    (fun l ->
      let table = Bgp.As_path.Table.create () in
      Bgp.As_path.to_list (Bgp.As_path.of_list ~table l) = l)

let prop_equal_iff_structural =
  QCheck.Test.make
    ~name:"arena: equal <=> structural, same and cross arena" ~count:500
    QCheck.(pair arb_path arb_path)
    (fun (l1, l2) ->
      let t = Bgp.As_path.Table.create () in
      let u = Bgp.As_path.Table.create () in
      let same =
        Bgp.As_path.equal
          (Bgp.As_path.of_list ~table:t l1)
          (Bgp.As_path.of_list ~table:t l2)
      in
      let cross =
        Bgp.As_path.equal
          (Bgp.As_path.of_list ~table:t l1)
          (Bgp.As_path.of_list ~table:u l2)
      in
      same = (l1 = l2) && cross = (l1 = l2))

let prop_same_arena_interning_is_physical =
  QCheck.Test.make ~name:"arena: re-interning returns the same handle"
    ~count:500 arb_path (fun l ->
      let table = Bgp.As_path.Table.create () in
      Bgp.As_path.of_list ~table l == Bgp.As_path.of_list ~table l)

let prop_contains_length_model =
  QCheck.Test.make ~name:"arena: contains/length agree with the list model"
    ~count:500
    QCheck.(pair arb_path (int_range 0 210))
    (fun (l, probe) ->
      let table = Bgp.As_path.Table.create () in
      let p = Bgp.As_path.of_list ~table l in
      Bgp.As_path.length p = List.length l
      && Bgp.As_path.contains p probe = List.mem probe l
      && List.for_all (fun v -> Bgp.As_path.contains p v) l)

let prop_table_size_bound =
  QCheck.Test.make
    ~name:"arena: size never exceeds distinct non-empty paths inserted"
    ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 0 30) arb_path)
    (fun lists ->
      let table = Bgp.As_path.Table.create () in
      List.iter
        (fun l -> ignore (Bgp.As_path.of_list ~table l : Bgp.As_path.t))
        lists;
      let distinct =
        List.sort_uniq Stdlib.compare (List.filter (fun l -> l <> []) lists)
      in
      Bgp.As_path.Table.size table <= List.length distinct)

let prop_suffix_model =
  QCheck.Test.make ~name:"arena: suffix_from agrees with the list model"
    ~count:500
    QCheck.(pair arb_path (int_range 0 210))
    (fun (l, u) ->
      let table = Bgp.As_path.Table.create () in
      let p = Bgp.As_path.of_list ~table l in
      let rec drop_until = function
        | [] -> None
        | v :: _ as suffix when v = u -> Some suffix
        | _ :: rest -> drop_until rest
      in
      match (Bgp.As_path.suffix_from ~table p u, drop_until l) with
      | None, None -> true
      | Some s, Some model -> Bgp.As_path.to_list s = model
      | _ -> false)

let prop_compare_model =
  QCheck.Test.make ~name:"arena: compare is length-then-lex on the list model"
    ~count:500
    QCheck.(pair arb_path arb_path)
    (fun (l1, l2) ->
      let table = Bgp.As_path.Table.create () in
      let model =
        let c = Stdlib.compare (List.length l1) (List.length l2) in
        if c <> 0 then c else Stdlib.compare l1 l2
      in
      let got =
        Bgp.As_path.compare
          (Bgp.As_path.of_list ~table l1)
          (Bgp.As_path.of_list ~table l2)
      in
      Stdlib.compare got 0 = Stdlib.compare model 0)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "differential"
    [
      ( "single-prefix equivalence",
        [
          tc "golden fixtures" test_equivalence_on_golden_fixtures;
          tc "20 random internet topologies"
            test_equivalence_on_random_topologies;
        ] );
      ( "determinism",
        [ tc "golden fixtures run twice" test_fixture_runs_are_deterministic ]
      );
      ( "streaming scanner",
        [
          tc "golden fixtures" test_stream_on_golden_fixtures;
          tc "12 random internet topologies" test_stream_on_random_topologies;
          tc "cold start from the empty FIB" test_stream_from_cold_start;
        ] );
      ( "arena properties",
        [
          qc prop_roundtrip;
          qc prop_equal_iff_structural;
          qc prop_same_arena_interning_is_physical;
          qc prop_contains_length_model;
          qc prop_table_size_bound;
          qc prop_suffix_model;
          qc prop_compare_model;
        ] );
    ]
