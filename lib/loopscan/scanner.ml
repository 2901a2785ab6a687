type loop = Stream.loop = {
  members : int list;
  birth : float;
  death : float option;
  trigger : int;
}

let size l = List.length l.members

let duration l ~until =
  match l.death with Some d -> d -. l.birth | None -> until -. l.birth

let pp_loop fmt l =
  Format.fprintf fmt "loop [%s] born %g%s"
    (String.concat " -> " (List.map string_of_int l.members))
    l.birth
    (match l.death with
    | Some d -> Printf.sprintf " died %g" d
    | None -> " (alive)")

type report = Stream.report = {
  loops : loop list;
  first_loop_birth : float option;
  last_loop_death : float option;
  max_concurrent : int;
}

let scan ?obs ?prefix ~fib ~origin ~from () =
  let stream =
    Stream.create ~record:true ~origin
      ~initial:(Netcore.Fib_history.snapshot fib ~before:from)
      ()
  in
  List.iter
    (fun (c : Netcore.Fib_history.change) ->
      Stream.observe ?obs ?prefix stream ~time:c.time ~node:c.node
        ~next_hop:c.next_hop)
    (Netcore.Fib_history.changes_from fib ~from);
  Stream.report stream

type aggregate = {
  count : int;
  mean_size : float;
  max_size : int;
  mean_duration : float;
  max_duration : float;
  total_loop_seconds : float;
}

let aggregate report ~until =
  match report.loops with
  | [] ->
      {
        count = 0;
        mean_size = 0.;
        max_size = 0;
        mean_duration = 0.;
        max_duration = 0.;
        total_loop_seconds = 0.;
      }
  | loops ->
      let sizes = Array.of_list (List.map (fun l -> float_of_int (size l)) loops) in
      let durations = Array.of_list (List.map (fun l -> duration l ~until) loops) in
      {
        count = List.length loops;
        mean_size = Stats.Descriptive.mean sizes;
        max_size = int_of_float (Stats.Descriptive.max sizes);
        mean_duration = Stats.Descriptive.mean durations;
        max_duration = Stats.Descriptive.max durations;
        total_loop_seconds = Stats.Descriptive.sum durations;
      }

let pp_aggregate fmt a =
  Format.fprintf fmt
    "loops=%d mean_size=%.2f max_size=%d mean_dur=%.2fs max_dur=%.2fs total=%.2fs"
    a.count a.mean_size a.max_size a.mean_duration a.max_duration
    a.total_loop_seconds
