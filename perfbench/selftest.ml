(* Checks on the benchmark itself:

   - the verdict fires on the two known caps — a simulator run cut by
     an explicit [max_steps] and a message-passing run cut by an
     explicit [max_deliveries] must both count as failed, and the same
     runs uncapped must pass;
   - the exact-repeat counts (executor steps, deliveries, the
     explorer's execution count, each instance's Do(α)) repeat exactly
     for a fixed seed. *)

module W = Workloads

let sim ?max_steps () =
  let n = 2_000 and m = 8 in
  let a, b = W.rngs 7 in
  let s =
    Core.Harness.kk ~scheduler:(Shm.Schedule.random a)
      ~adversary:(Shm.Adversary.random b ~f:2 ~m ~horizon:10_000)
      ?max_steps ~trace_level:`Outcomes ~n ~m ~beta:m ()
  in
  W.check ~floor:(W.kk_floor ~n ~m ~beta:m) ~completed:s.wait_free ~dos:s.dos
    ~do_count:s.do_count

let msg ?max_deliveries () =
  let n = 500 and m = 4 in
  let o =
    Msg.Kk_mp.run_kk ?max_deliveries ~servers:5 ~n ~m ~beta:m
      ~rng:(Util.Prng.of_int 7) ()
  in
  W.check ~floor:(W.kk_floor ~n ~m ~beta:m) ~completed:(o.stuck = []) ~dos:o.dos
    ~do_count:(Core.Spec.do_count o.dos)

let repeats (w : W.t) =
  w.prepare ();
  let a = w.run ~seed:11 in
  Gc.compact ();
  let b = w.run ~seed:11 in
  Gc.compact ();
  a.ok && b.ok && a.counts = b.counts

let run () =
  let checks =
    [
      ("sim_step_cap_counts_as_failed", fun () -> not (sim ~max_steps:5_000 ()));
      ("sim_uncapped_passes", fun () -> sim ());
      ("msg_delivery_cap_counts_as_failed", fun () -> not (msg ~max_deliveries:20_000 ()));
      ("msg_uncapped_passes", fun () -> msg ());
    ]
    @ List.filter_map
        (fun (w : W.t) ->
          (* real domains: no count of mc-domains repeats *)
          if w.name = "mc-domains" then None
          else Some (w.name ^ "_counts_repeat", fun () -> repeats w))
        W.all
  in
  let results =
    List.map
      (fun (name, f) ->
        let ok = f () in
        Printf.printf "%s %s\n%!" (if ok then "PASS" else "FAIL") name;
        (name, ok))
      checks
  in
  let all = List.for_all snd results in
  Printf.printf "{\"selftest\": %b, \"checks\": {%s}}\n" all
    (String.concat ", "
       (List.map (fun (n, ok) -> Printf.sprintf "%S: %b" n ok) results));
  all
