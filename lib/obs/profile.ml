type t = { tbl : ((int * string), Sketch.t) Hashtbl.t }

(* One power-of-two band per bucket: factor-of-2 tails are enough for
   "did p99 work per process blow up?". *)
let band_sketch () = Sketch.create ~sub_buckets:1 ()

let create () = { tbl = Hashtbl.create 32 }

let hist t ~pid ~series =
  match Hashtbl.find_opt t.tbl (pid, series) with
  | Some h -> h
  | None ->
      let h = band_sketch () in
      Hashtbl.add t.tbl (pid, series) h;
      h

let add t ~pid ~series v = Sketch.add (hist t ~pid ~series) v

let get t ~pid ~series = Hashtbl.find_opt t.tbl (pid, series)

let uniq_sorted compare l = List.sort_uniq compare l

let series t =
  uniq_sorted compare (Hashtbl.fold (fun (_, s) _ acc -> s :: acc) t.tbl [])

let pids t =
  uniq_sorted compare (Hashtbl.fold (fun (p, _) _ acc -> p :: acc) t.tbl [])

let merged t ~series =
  Hashtbl.fold
    (fun (_, s) h acc -> if s = series then Sketch.merge acc h else acc)
    t.tbl (band_sketch ())

let of_metrics m =
  let t = create () in
  for p = 1 to Shm.Metrics.m m do
    add t ~pid:p ~series:"work" (Shm.Metrics.work m ~p);
    add t ~pid:p ~series:"reads" (Shm.Metrics.reads m ~p);
    add t ~pid:p ~series:"writes" (Shm.Metrics.writes m ~p);
    add t ~pid:p ~series:"internals" (Shm.Metrics.internals m ~p)
  done;
  t

let observe_metrics t m =
  for p = 1 to Shm.Metrics.m m do
    add t ~pid:p ~series:"work" (Shm.Metrics.work m ~p);
    add t ~pid:p ~series:"reads" (Shm.Metrics.reads m ~p);
    add t ~pid:p ~series:"writes" (Shm.Metrics.writes m ~p)
  done

type summary = {
  count : int;
  mean : float;
  p50 : int;
  p90 : int;
  p99 : int;
  max : int;
}

let summarize h =
  {
    count = Sketch.count h;
    mean = Sketch.mean h;
    p50 = Sketch.percentile h 50.;
    p90 = Sketch.percentile h 90.;
    p99 = Sketch.percentile h 99.;
    max = Sketch.max_value h;
  }

let summary t ~series:s = summarize (merged t ~series:s)
