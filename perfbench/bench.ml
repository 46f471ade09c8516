(* The repository benchmark.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
               [--spans-out FILE]
     bench.exe --selftest

   [--trace 0] runs the workload's instances back to back for S timed
   seconds, checks every instance and prints the end-to-end metrics.
   Every time it reports is scaled to the host's speed, read from a
   fixed reference kernel just before each timed call ({!Hostspeed}).
   [--trace 1] spends half the time on untraced instances and half on
   traced ones built from the same seeds, checks that both give the
   same exact counts, runs one traced instance of every other workload
   for the layers this one bypasses, and prints the per-layer metrics.
   The last line of standard output is one JSON object; the exit code
   is 0 only if every instance passed its checks. *)

module W = Workloads

let end_to_end =
  [
    ("jobs_per_s", "jobs/s");
    ("executions_per_s", "exec/s");
    ("instance_s_p50", "s");
    ("effectiveness", "ratio");
    ("work_per_job", "units/job");
    ("setup_s", "s");
    ("peak_heap_mb", "MB");
  ]

let per_layer =
  [
    ("ostree.rank_diff_ns", "ns");
    ("ostree.remove_ns", "ns");
    ("ostree.add_ns", "ns");
    ("ostree.mem_ns", "ns");
    ("ostree.diff_cardinal_ns", "ns");
    ("ostree.calls_per_step", "calls/step");
    ("ostree.time_share", "ratio");
    ("shm.executor.self_ns_per_step", "ns");
    ("shm.schedule.choose_ns", "ns");
    ("shm.adversary.decide_ns", "ns");
    ("shm.executor.steps_per_job", "steps/job");
    ("core.kk.step_self_ns", "ns");
    ("core.kk.collisions_per_job", "count/job");
    ("core.iterative.setup_s", "s");
    ("core.harness.summary_s", "s");
    ("gc.minor_words_per_job", "words/job");
    ("gc.major_collections", "count");
    ("multicore.run_wall_s", "s");
    ("multicore.spawn_s", "s");
    ("multicore.imbalance", "ratio");
    ("multicore.reads_per_job", "ops/job");
    ("multicore.writes_per_job", "ops/job");
    ("msg.deliveries_per_job", "count/job");
    ("msg.deliveries_per_s", "1/s");
    ("msg.deliver_ns", "ns");
    ("msg.register_ops_per_job", "ops/job");
    ("analysis.explore.replays_per_execution", "calls/exec");
    ("analysis.explore.factory_ns", "ns");
    ("analysis.explore.steps_per_execution", "steps/exec");
    ("analysis.explore.footprint_ns", "ns");
    ("analysis.pexplore.work_items", "count");
    ("analysis.pexplore.steals", "count");
    ("analysis.pexplore.speedup_vs_d1", "ratio");
    ("bench.trace_overhead", "ratio");
    ("bench.instance_s_tail", "s");
    ("bench.instance_s_tail_pct", "%");
    ("bench.instance_s_tail_samples", "count");
    ("bench.wall_instance_s_p50", "s");
    ("bench.host_speed", "ratio");
  ]

let fi = float_of_int
let inst_seed seed i = Hashtbl.hash (seed, i)

(* Peak major heap of this process — one workload per process, so
   nothing is carried over from another workload: the highest reading
   of [top_heap_words] after each of the first [heap_after] instances,
   which every run completes.  A fixed count, because OCaml 5.1 has no
   compaction and the explorer's heap creeps up by a different amount
   in every run after its first few instances; the highest reading,
   because with two domains [top_heap_words] is not monotonic. *)
let heap_after = 5

let peak_heap_mb () =
  let words = (Gc.quick_stat ()).top_heap_words in
  fi (words * (Sys.word_size / 8)) /. 1048576.

(* Closed loop: start the next instance until [seconds] of instance
   time have been measured, and at least [min] instances have run.
   Each instance is paired with the host-speed factor read just before
   it on as many domains as it uses.  The reading and the collection
   between instances stay outside the timed calls. *)
let loop ?(min = 1) ~domains ~seconds ~seed f =
  let rec go i total acc =
    if total >= seconds && i >= min then List.rev acc
    else begin
      let k = Hostspeed.factor ~domains in
      let r = Meter.span "instance" (fun () -> f ~seed:(inst_seed seed i)) in
      Gc.compact ();
      go (i + 1) (total +. r.W.secs) ((r, k) :: acc)
    end
  in
  go 0 0. []

let results runs = List.map fst runs
let scaled ((r : W.result), k) = r.secs *. k

(* Timings are medians over a run's instances of the scaled times: the
   scaling takes out the host's slow drift, and the median the odd
   instance a neighbour slowed (see WORKLOADS.md). *)
let median_time runs = W.median (List.map scaled runs)

let median_rate pick runs =
  W.median (List.map (fun ((r, _) as run) -> fi (pick r) /. scaled run) runs)

let median_wall rs = W.median (List.map (fun (r : W.result) -> r.secs) rs)

let mean xs = List.fold_left ( +. ) 0. xs /. fi (max 1 (List.length xs))

let untraced (w : W.t) ~seed ~seconds =
  w.prepare ();
  let probes =
    match w.setup_probe with
    | None -> []
    | Some p ->
        List.init w.setup_reps (fun _ ->
            let k = Hostspeed.factor ~domains:1 in
            let s = p () in
            Gc.full_major ();
            s *. k)
  in
  Gc.compact ();
  let count = ref 0 and heap = ref 0. in
  let run ~seed =
    let r = w.run ~seed in
    incr count;
    if !count <= heap_after then heap := Float.max !heap (peak_heap_mb ());
    r
  in
  let runs = loop ~min:heap_after ~domains:w.domains ~seconds ~seed run in
  let setups =
    probes
    @ List.filter_map
        (fun ((r : W.result), k) -> Option.map (fun s -> s *. k) r.setup)
        runs
  in
  let rs = results runs in
  Printf.printf "# wall-clock instance_s_p50 %.6g s at host speed %.4g\n"
    (median_wall rs) (W.median (List.map snd runs));
  let metrics =
    [
      ("jobs_per_s", median_rate (fun r -> r.jobs) runs);
      ("executions_per_s", median_rate (fun r -> r.execs) runs);
      ("instance_s_p50", median_time runs);
      ("effectiveness", mean (List.map (fun (r : W.result) -> r.eff) rs));
      ("work_per_job", mean (List.map (fun (r : W.result) -> r.work) rs));
      ("setup_s", W.median setups);
      ("peak_heap_mb", !heap);
    ]
  in
  (rs, true, metrics)

(* The highest percentile with at least ten instances beyond it:
   (value, percentile, samples); zeros when there are fewer than 11. *)
let tail secs =
  let a = Array.of_list secs in
  Array.sort compare a;
  let k = Array.length a in
  if k < 11 then (0., 0., fi k) else (a.(k - 11), 100. *. fi (k - 10) /. fi k, fi k)

let traced (w : W.t) ~seed ~seconds =
  Meter.calibrate ();
  w.prepare ();
  Gc.compact ();
  let half = seconds /. 2. in
  let minor = ref 0. and major = ref 0 in
  let with_gc ~seed =
    let q0 = Gc.quick_stat () in
    let r = w.run ~seed in
    let q1 = Gc.quick_stat () in
    minor := !minor +. (q1.minor_words -. q0.minor_words);
    major := !major + (q1.major_collections - q0.major_collections);
    r
  in
  (* at least 11 untraced instances, so [tail] is defined *)
  let domains = w.domains in
  let base_runs =
    Meter.span "untraced" (fun () -> loop ~min:11 ~domains ~seconds:half ~seed with_gc)
  in
  let tr_runs =
    Meter.span "traced" (fun () -> loop ~domains ~seconds:half ~seed w.traced)
  in
  let base = results base_runs and tr = results tr_runs in
  (* same seed, same instance: the meters must not change what ran *)
  let rec same a b =
    match (a, b) with
    | (x : W.result) :: a', (y : W.result) :: b' -> x.counts = y.counts && same a' b'
    | _ -> true
  in
  let repeat_ok = same base tr in
  let jobs = List.fold_left (fun a (r : W.result) -> a + r.jobs) 0 base in
  let v, pct, k = tail (List.map scaled base_runs) in
  let own =
    w.layers ()
    @ [
        ("gc.minor_words_per_job", !minor /. fi (max 1 jobs));
        ("gc.major_collections", fi !major /. fi (List.length base));
        ("bench.trace_overhead", median_time tr_runs /. median_time base_runs);
        ("bench.instance_s_tail", v);
        ("bench.instance_s_tail_pct", pct);
        ("bench.instance_s_tail_samples", k);
        ("bench.wall_instance_s_p50", median_wall base);
        ("bench.host_speed", W.median (List.map snd base_runs));
      ]
  in
  (* Every layer is reported on every workload.  A layer this workload
     bypasses, or hides from outside, is measured on one traced instance
     of each other workload, run after this one's with fresh meters. *)
  let got = ref own and probes = ref [] in
  List.iter
    (fun (o : W.t) ->
      if o.name <> w.name then
        Meter.span ("probe " ^ o.name) (fun () ->
            Meter.reset_all ();
            o.prepare ();
            probes := o.traced ~seed:(inst_seed seed 0) :: !probes;
            Gc.compact ();
            List.iter
              (fun (name, v) ->
                if not (List.mem_assoc name !got) then got := (name, v) :: !got)
              (o.layers ())))
    W.all;
  let metrics = List.map (fun (name, _) -> (name, List.assoc name !got)) per_layer in
  (base @ tr @ !probes, repeat_ok, metrics)

let json_number x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let report ~name ~trace (rs : W.result list) ~repeat_ok metrics =
  let units = if trace then per_layer else end_to_end in
  let attempted = List.length rs in
  let failed = List.length (List.filter (fun (r : W.result) -> not r.ok) rs) in
  let correct = failed = 0 && repeat_ok in
  Printf.printf "# %s: %d instances, %d failed (failed_share %g)%s\n" name
    attempted failed
    (fi failed /. fi (max 1 attempted))
    (if repeat_ok then "" else ", traced counts differ from untraced");
  List.iter
    (fun (k, v) -> Printf.printf "# %-40s %14.6g %s\n" k v (List.assoc k units))
    metrics;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (k, v) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" k (json_number v)
              (List.assoc k units))
          metrics));
  correct

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 15. and trace = ref 0 in
  let spans_out = ref "" and selftest = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S instance time to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--spans-out", Arg.Set_string spans_out, "FILE write the spans here");
      ("--selftest", Arg.Set selftest, " check the benchmark's own checks");
    ]
  in
  let usage = "bench.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !selftest then exit (if Selftest.run () then 0 else 1);
  match W.find !workload with
  | None ->
      Printf.eprintf "unknown workload %S; one of: %s\n" !workload
        (String.concat ", " (List.map (fun (w : W.t) -> w.name) W.all));
      exit 2
  | Some w ->
      let trace = !trace = 1 in
      let rs, repeat_ok, metrics =
        Meter.span w.name (fun () ->
            (if trace then traced else untraced) w ~seed:!seed ~seconds:!seconds)
      in
      if !spans_out <> "" then Meter.write_spans !spans_out;
      exit
        (if report ~name:w.name ~trace rs ~repeat_ok metrics then 0 else 1)
