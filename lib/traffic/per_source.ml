type stats = {
  src : int;
  sent : int;
  delivered : int;
  unreachable : int;
  exhausted : int;
}

let looping_ratio s =
  if s.sent = 0 then 0. else float_of_int s.exhausted /. float_of_int s.sent

let run ~fib ~origin ~n ~link_delay ~ttl ~rate ~window ~seed ?sources () =
  let tallies, _ =
    Walker.streams ~who:"Per_source.run" ~fib ~origin ~n ~link_delay ~ttl
      ~rate ~window ~seed ~ratio_cutoff:(snd window) ?sources ()
  in
  Array.to_list tallies
  |> List.map (fun (t : Walker.tally) ->
         {
           src = t.src;
           sent = t.sent;
           delivered = t.delivered;
           unreachable = t.unreachable;
           exhausted = t.exhausted;
         })
  |> List.sort (fun a b -> compare a.src b.src)

let affected stats =
  List.filter_map (fun s -> if s.exhausted > 0 then Some s.src else None) stats
