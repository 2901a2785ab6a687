(* The full-mesh test wall.

   Behaviour: the multi-origin case (a few origins, one victim T_down,
   optional background flaps) keeps per-prefix forwarding independent
   and accounts victim and background messages apart; a single origin
   reproduces Routing_sim (test_differential checks that change for
   change).  Budgets: Routing_sim and Mesh_sim classify every way a run
   can stop identically, and a mesh run honours a wall budget.

   Properties: the batched per-peer MRAI releases each pending key
   exactly once per expiry and behaves like one independent timer per
   key; packed (prefix, peer) keys round-trip injectively; the
   streaming per-prefix loop scans of a mesh run equal the brute-force
   cycle oracle over each of its FIB histories. *)

(* --- multi-origin behaviour and validation --- *)

let clique = Topo.Generators.clique 6

let run ?churn ?config ~origins ~victim () =
  Bgp.Mesh_sim.run ?churn ?config ~graph:clique ~origins ~victim ~seed:1 ()

let test_all_prefixes_converge () =
  let o = run ~origins:[ 0; 1; 2 ] ~victim:0 () in
  Alcotest.(check bool) "converged" true o.converged;
  Alcotest.(check int) "three prefixes" 3 (List.length o.prefixes);
  (* before the failure every node routes every prefix *)
  let before = o.t_fail -. 1. in
  List.iter
    (fun (prefix, fib) ->
      let origin = Bgp.Prefix.origin prefix in
      List.iter
        (fun v ->
          if v <> origin then
            Alcotest.(check bool)
              (Printf.sprintf "node %d routes %d" v origin)
              true
              (Netcore.Fib_history.lookup fib ~node:v ~time:before <> None))
        (Topo.Graph.nodes clique))
    o.prefixes

let test_victim_tdown_only_hits_victim () =
  let o = run ~origins:[ 0; 1; 2 ] ~victim:1 () in
  let late = o.victim_convergence_end +. 100. in
  List.iter
    (fun (prefix, fib) ->
      let origin = Bgp.Prefix.origin prefix in
      let routable =
        List.exists
          (fun v ->
            v <> origin
            && Netcore.Fib_history.lookup fib ~node:v ~time:late <> None)
          (Topo.Graph.nodes clique)
      in
      if Bgp.Prefix.equal prefix o.victim then
        Alcotest.(check bool) "victim unroutable" false routable
      else Alcotest.(check bool) "bystander intact" true routable)
    o.prefixes

let test_victim_convergence_positive () =
  let o = run ~origins:[ 0; 3 ] ~victim:0 () in
  Alcotest.(check bool) "victim messages flowed" true (o.victim_messages > 0);
  Alcotest.(check bool) "positive convergence" true
    (Bgp.Mesh_sim.convergence_time o > 0.);
  Alcotest.(check int) "quiet background" 0 o.background_messages

let test_churn_generates_background_traffic () =
  let churn = { Bgp.Mesh_sim.period = 20.; cycles = 3; flappers = [ 1 ] } in
  let o = run ~churn ~origins:[ 0; 1 ] ~victim:0 () in
  Alcotest.(check bool) "background messages" true (o.background_messages > 0);
  Alcotest.(check bool) "still converges" true o.converged

let test_deterministic () =
  let a = run ~origins:[ 0; 2; 4 ] ~victim:0 () in
  let b = run ~origins:[ 0; 2; 4 ] ~victim:0 () in
  Alcotest.(check (float 0.)) "conv" (Bgp.Mesh_sim.convergence_time a)
    (Bgp.Mesh_sim.convergence_time b);
  Alcotest.(check int) "victim msgs" a.victim_messages b.victim_messages

let test_matches_single_prefix_sim () =
  (* with a single origin the mesh reproduces the single-prefix
     simulation exactly (same seed, same draws, same schedule) *)
  let graph = Topo.Generators.clique 5 in
  let single =
    Bgp.Routing_sim.run ~graph ~origin:0 ~event:Bgp.Routing_sim.Tdown ~seed:3 ()
  in
  let mesh = Bgp.Mesh_sim.run ~graph ~origins:[ 0 ] ~victim:0 ~seed:3 () in
  Alcotest.(check (float 1e-9)) "same convergence"
    (Bgp.Routing_sim.convergence_time single)
    (Bgp.Mesh_sim.convergence_time mesh)

let raises f =
  try
    ignore (f ());
    false
  with Invalid_argument _ -> true

let test_churn_validation () =
  let raises churn = raises (fun () -> run ~churn ~origins:[ 0; 1 ] ~victim:0 ()) in
  Alcotest.(check bool) "victim cannot flap" true
    (raises { Bgp.Mesh_sim.period = 10.; cycles = 1; flappers = [ 0 ] });
  Alcotest.(check bool) "bad period" true
    (raises { Bgp.Mesh_sim.period = 0.; cycles = 1; flappers = [ 1 ] });
  Alcotest.(check bool) "bad flapper index" true
    (raises { Bgp.Mesh_sim.period = 10.; cycles = 1; flappers = [ 9 ] })

let test_origin_validation () =
  Alcotest.(check bool) "empty origins" true
    (raises (fun () -> run ~origins:[] ~victim:0 ()));
  Alcotest.(check bool) "duplicate origins" true
    (raises (fun () -> run ~origins:[ 0; 0 ] ~victim:0 ()));
  Alcotest.(check bool) "origin out of range" true
    (raises (fun () -> run ~origins:[ 0; 6 ] ~victim:0 ()));
  Alcotest.(check bool) "victim out of range" true
    (raises (fun () -> run ~origins:[ 0; 1 ] ~victim:5 ()))

(* --- budgets: one drain loop, one classification --- *)

let terminations_agree ?max_events ?max_vtime ~watchdog name ~expect =
  let graph = Topo.Generators.clique 6 in
  let rs =
    Bgp.Routing_sim.run ?max_events ?max_vtime ?watchdog:(watchdog ()) ~graph
      ~origin:2 ~event:Tdown ~seed:4 ()
  in
  let ms =
    Bgp.Mesh_sim.run ?max_events ?max_vtime ?watchdog:(watchdog ()) ~graph
      ~origins:[ 2 ] ~victim:0 ~seed:4 ()
  in
  let tname = Bgp.Network.termination_name in
  Alcotest.(check string) (name ^ ": routing") (tname expect)
    (tname rs.termination);
  Alcotest.(check string) (name ^ ": mesh") (tname expect)
    (tname ms.termination);
  Alcotest.(check bool) (name ^ ": converged flags agree") rs.converged
    ms.converged;
  Alcotest.(check bool)
    (name ^ ": converged iff drained")
    (expect = Bgp.Network.Drained)
    ms.converged;
  Alcotest.(check int) (name ^ ": events") rs.events_executed ms.events_executed;
  rs

let test_terminations_agree () =
  let none () = None in
  let full = terminations_agree ~watchdog:none "drained" ~expect:Drained in
  ignore
    (terminations_agree ~watchdog:none ~max_events:(full.events_executed / 2)
       "event budget" ~expect:Event_budget);
  (* the injection runs, the withdrawal wave does not finish *)
  ignore
    (terminations_agree ~watchdog:none ~max_vtime:(full.t_fail +. 0.5)
       "vtime budget" ~expect:Vtime_budget);
  ignore
    (terminations_agree
       ~watchdog:(fun () -> Some (Faults.Watchdog.create ~max_wall_s:0. ()))
       "wall budget at start" ~expect:Wall_budget)

let test_mesh_wall_budget () =
  (* a fake clock that jumps past the budget once the warm-up produced
     FIB changes: the post-failure phase is cut, structurally *)
  let fib_changes = ref 0 in
  let sink =
    Obs.Sink.fn (fun ev ->
        match ev with Obs.Event.Fib_change _ -> incr fib_changes | _ -> ())
  in
  let clock () = if !fib_changes > 0 then 1e9 else 0. in
  let watchdog = Faults.Watchdog.create ~clock ~max_wall_s:1. () in
  let o =
    Bgp.Mesh_sim.run ~obs:(Obs.Bus.create ~sink ()) ~watchdog
      ~graph:(Topo.Generators.clique 5) ~victim:0 ~seed:1 ()
  in
  Alcotest.(check bool) "warm-up produced FIB changes" true (!fib_changes > 0);
  Alcotest.(check string) "wall budget" "wall-budget"
    (Bgp.Network.termination_name o.termination);
  Alcotest.(check bool) "not converged" false o.converged;
  Alcotest.(check int) "no victim messages" 0 o.victim_messages

let mesh_trace ~graph ~victim ~seed =
  let sink, contents = Obs.Sink.memory () in
  let obs = Obs.Bus.create ~sink () in
  let o = Bgp.Mesh_sim.run ~graph ~victim ~seed ~obs () in
  (o, contents ())

let test_run_twice_deterministic () =
  let graph = Topo.Generators.clique 5 in
  let o1, ev1 = mesh_trace ~graph ~victim:0 ~seed:7 in
  let o2, ev2 = mesh_trace ~graph ~victim:0 ~seed:7 in
  Alcotest.(check string) "identical event streams"
    (Obs.Trace_digest.of_events ev1)
    (Obs.Trace_digest.of_events ev2);
  Alcotest.(check int) "victim messages" o1.victim_messages o2.victim_messages;
  Alcotest.(check (float 0.)) "convergence end" o1.victim_convergence_end
    o2.victim_convergence_end

let test_mesh_trace_prefix_tagged () =
  let graph = Topo.Generators.clique 5 in
  let o, events = mesh_trace ~graph ~victim:2 ~seed:1 in
  Alcotest.(check bool) "converged" true o.converged;
  Alcotest.(check int) "one prefix per node" 5 (List.length o.prefixes);
  let n_prefixes = List.length o.prefixes in
  let tagged = ref 0 in
  List.iter
    (fun e ->
      match e with
      | Obs.Event.Update_sent _ | Obs.Event.Update_recv _
      | Obs.Event.Originate _ | Obs.Event.Withdrawal _ | Obs.Event.Fib_change _
      | Obs.Event.Loop_detected _ | Obs.Event.Loop_resolved _ -> (
          match Obs.Event.prefix e with
          | Some p when p >= 0 && p < n_prefixes -> incr tagged
          | Some p -> Alcotest.failf "prefix id %d out of range" p
          | None -> Alcotest.failf "untagged per-prefix event: %s"
                      (Obs.Event.to_json e))
      | _ ->
          Alcotest.(check bool) "non-prefix events untagged" true
            (Obs.Event.prefix e = None))
    events;
  Alcotest.(check bool) "plenty of tagged events" true (!tagged > 100)

(* --- QCheck: packed (prefix, peer) keys --- *)

let prop_key_roundtrip =
  QCheck.Test.make ~count:1000 ~name:"packed key round-trips"
    QCheck.(
      pair
        (int_range 0 ((1 lsl 30) - 1))
        (int_range 0 Bgp.Prefix.Key.max_peer))
    (fun (id, peer) ->
      let k = Bgp.Prefix.Key.pack ~id ~peer in
      Bgp.Prefix.Key.id k = id && Bgp.Prefix.Key.peer k = peer)

let prop_key_injective =
  QCheck.Test.make ~count:1000 ~name:"packed key injective"
    QCheck.(
      pair
        (pair (int_range 0 ((1 lsl 30) - 1)) (int_range 0 Bgp.Prefix.Key.max_peer))
        (pair (int_range 0 ((1 lsl 30) - 1)) (int_range 0 Bgp.Prefix.Key.max_peer)))
    (fun (((id1, peer1) as a), ((id2, peer2) as b)) ->
      let k1 = Bgp.Prefix.Key.pack ~id:id1 ~peer:peer1 in
      let k2 = Bgp.Prefix.Key.pack ~id:id2 ~peer:peer2 in
      a = b = (k1 = k2))

let test_key_range_extremes () =
  let open Bgp.Prefix.Key in
  let k = pack ~id:max_id ~peer:max_peer in
  Alcotest.(check int) "max id survives" max_id (id k);
  Alcotest.(check int) "max peer survives" max_peer (peer k);
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "peer over range rejected" true
    (raises (fun () -> pack ~id:0 ~peer:(max_peer + 1)));
  Alcotest.(check bool) "negative id rejected" true
    (raises (fun () -> pack ~id:(-1) ~peer:0));
  Alcotest.(check bool) "id over range rejected" true
    (raises (fun () -> pack ~id:(max_id + 1) ~peer:0))

(* --- QCheck: batched MRAI vs one naive timer per key --- *)

type op = { at : float; key : int; msg : int }

(* Deterministic interval, suppressed transmits for msg mod 5 = 0 (to
   exercise the per-key drain loop), everything logged as (key, msg)
   in transmit order. *)
let run_batched ops =
  let engine = Dessim.Engine.create () in
  let sent = ref [] in
  let since_fire = Hashtbl.create 8 in
  let mrai =
    Bgp.Mrai.create ~engine
      ~on_fire:(fun () -> Hashtbl.reset since_fire)
      ~draw_interval:(fun () -> 10.)
      ~transmit:(fun (key, msg) ->
        if msg mod 5 = 0 then false
        else begin
          (* "each pending key releases at most one message per expiry" *)
          if Hashtbl.mem since_fire key then
            failwith "key released twice in one expiry";
          Hashtbl.add since_fire key ();
          sent := (key, msg) :: !sent;
          true
        end)
      ()
  in
  List.iter
    (fun { at; key; msg } ->
      ignore
        (Dessim.Engine.schedule engine ~at (fun () ->
             Bgp.Mrai.offer ~key mrai (key, msg))))
    ops;
  Dessim.Engine.run engine;
  List.rev !sent

let run_naive ops =
  let engine = Dessim.Engine.create () in
  let sent = ref [] in
  let timers = Hashtbl.create 8 in
  let timer_for key =
    match Hashtbl.find_opt timers key with
    | Some t -> t
    | None ->
        let t =
          Bgp.Mrai.create ~engine
            ~draw_interval:(fun () -> 10.)
            ~transmit:(fun (key, msg) ->
              if msg mod 5 = 0 then false
              else begin
                sent := (key, msg) :: !sent;
                true
              end)
            ()
        in
        Hashtbl.add timers key t;
        t
  in
  List.iter
    (fun { at; key; msg } ->
      ignore
        (Dessim.Engine.schedule engine ~at (fun () ->
             Bgp.Mrai.offer (timer_for key) (key, msg))))
    ops;
  Dessim.Engine.run engine;
  List.rev !sent

let gen_ops =
  QCheck.Gen.(
    list_size (int_range 1 60)
      (map3
         (fun at key msg -> { at = float_of_int at /. 2.; key; msg })
         (int_range 0 50) (int_range 0 3) (int_range 0 30)))

let arb_ops =
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (fun o -> Printf.sprintf "(%g,k%d,m%d)" o.at o.key o.msg)
           ops))
    gen_ops

let prop_batched_mrai_equals_naive =
  QCheck.Test.make ~count:200
    ~name:"batched MRAI = one independent timer per key" arb_ops (fun ops ->
      (* engine schedule order within an instant must agree: keep the
         offers in nondecreasing time order *)
      let ops = List.stable_sort (fun a b -> compare a.at b.at) ops in
      run_batched ops = run_naive ops)

(* --- QCheck: mesh streaming scans = N brute-force oracle scans --- *)

let prop_mesh_scans_equal_posthoc =
  QCheck.Test.make ~count:8 ~name:"mesh streaming scans = post-hoc scans"
    QCheck.(pair (int_range 4 6) (int_range 1 500))
    (fun (n, seed) ->
      let graph = Topo.Generators.clique n in
      let o = Bgp.Mesh_sim.run ~graph ~victim:(seed mod n) ~seed () in
      o.converged
      && List.for_all2
           (fun (p, fib) (p', streamed) ->
             Bgp.Prefix.equal p p'
             && streamed
                = Loop_oracle.report ~fib ~origin:(Bgp.Prefix.origin p)
                    ~from:o.t_fail)
           o.prefixes o.loop_reports)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "mesh"
    [
      ( "behaviour",
        [
          tc "all prefixes converge" test_all_prefixes_converge;
          tc "T_down only hits the victim" test_victim_tdown_only_hits_victim;
          tc "victim accounting" test_victim_convergence_positive;
          tc "churn generates background traffic"
            test_churn_generates_background_traffic;
          tc "matches the single-prefix sim" test_matches_single_prefix_sim;
          tc "deterministic" test_deterministic;
        ] );
      ( "validation",
        [
          tc "churn validation" test_churn_validation;
          tc "origin validation" test_origin_validation;
        ] );
      ( "terminations",
        [
          tc "routing and mesh classify alike" test_terminations_agree;
          tc "mesh wall budget" test_mesh_wall_budget;
        ] );
      ( "differential",
        [
          tc "run twice, identical trace" test_run_twice_deterministic;
          tc "every per-prefix event tagged in range"
            test_mesh_trace_prefix_tagged;
        ] );
      ( "packed-keys",
        [
          tc "range extremes" test_key_range_extremes;
          QCheck_alcotest.to_alcotest prop_key_roundtrip;
          QCheck_alcotest.to_alcotest prop_key_injective;
        ] );
      ( "batched-mrai",
        [ QCheck_alcotest.to_alcotest prop_batched_mrai_equals_naive ] );
      ( "loop-scans",
        [ QCheck_alcotest.to_alcotest prop_mesh_scans_equal_posthoc ] );
    ]
