(* Tests for the cost of one simulator step: the executor's cached live
   set must equal a fresh [live_pids] at every pick, the schedules of
   the benchmark shapes are pinned, and a KK step stays within an
   allocation budget. *)

open Shm

(* ---- live-set equivalence ---- *)

(* Wrap [inner] so that every pick first checks the [alive] array the
   executor passes against a rebuild from the handles; [picks] counts
   checked decisions. *)
let checked ~handles ~picks inner =
  Schedule.custom ~name:"checked" (fun ~alive ->
      let expected = Executor.live_pids handles in
      if alive <> expected then
        QCheck.Test.fail_reportf "pick %d: executor alive [%s], live_pids [%s]"
          !picks
          (String.concat ";" (Array.to_list (Array.map string_of_int alive)))
          (String.concat ";" (Array.to_list (Array.map string_of_int expected)));
      incr picks;
      Schedule.choose inner ~alive)

let kk_handles ~n ~m ~beta =
  let metrics = Metrics.create ~m in
  let shared = Core.Kk.make_shared ~metrics ~m ~capacity:n ~name:"kk" () in
  let kks =
    Array.init m (fun i ->
        Core.Kk.create ~shared ~pid:(i + 1) ~beta ~policy:Core.Policy.Rank_split
          ~free:(Core.Job.universe ~n) ~mode:Core.Kk.Standalone ())
  in
  (metrics, kks, Array.map Core.Kk.handle kks)

let run_checked ?restarter ~handles ~inner ~adversary () =
  let picks = ref 0 in
  let outcome =
    Executor.run ~max_steps:1_000_000 ?restarter
      ~scheduler:(checked ~handles ~picks inner)
      ~adversary handles
  in
  if outcome.Executor.reason <> Executor.Quiescent then
    QCheck.Test.fail_report "run did not reach quiescence";
  (* every step is one checked pick *)
  if !picks <> outcome.Executor.steps then
    QCheck.Test.fail_reportf "%d picks for %d steps" !picks outcome.Executor.steps

let prop_live_set =
  QCheck.Test.make ~name:"executor live set equals live_pids at every pick"
    ~count:60
    QCheck.(pair (int_range 0 1_000_000) (int_range 2 6))
    (fun (seed, m) ->
      let rng = Util.Prng.of_int seed in
      let n = 8 + Util.Prng.int rng 40 in
      (* beta >= m: the range where KK is guaranteed to terminate
         (Params.guarantees_termination) *)
      let beta = m + Util.Prng.int rng m in
      (* KK under a random schedule and random crashes *)
      let _, _, handles = kk_handles ~n ~m ~beta in
      run_checked ~handles
        ~inner:(Schedule.random (Util.Prng.split rng))
        ~adversary:
          (Adversary.random (Util.Prng.split rng) ~f:(m - 1) ~m ~horizon:(4 * n))
        ();
      (* KK under the Theorem 4.4 strategy *)
      let _, _, handles = kk_handles ~n ~m ~beta in
      run_checked ~handles
        ~inner:(Schedule.round_robin ())
        ~adversary:
          (Adversary.after_announce
             ~victims:(List.init (m - 1) (fun i -> i + 1))
             ~announce_phase:"gather_try")
        ();
      (* a chaos plan with restarts: the restarter revives crashed
         processes, so the live set grows as well as shrinks *)
      let plan =
        Fault.Plan.gen ~recovery:true ~name:"live-set" ~n ~m ~beta
          (Util.Prng.split rng)
      in
      let metrics, kks, handles = kk_handles ~n ~m ~beta in
      run_checked ~handles
        ~inner:(Fault.Inject.scheduler ~plan ~rng:(Util.Prng.split rng))
        ~adversary:(Fault.Inject.adversary ~plan ~metrics)
        ?restarter:
          (Fault.Inject.restarter ~plan ~restart:(fun pid ->
               Core.Kk.restart kks.(pid - 1)))
        ();
      (* self-terminating toy automata with random lifetimes *)
      let handles =
        Array.init m (fun i ->
            Test_shm.stub ~pid:(i + 1) ~steps_to_do:(1 + Util.Prng.int rng 30))
      in
      run_checked ~handles
        ~inner:(Schedule.bursty (Util.Prng.split rng) ~max_burst:8)
        ~adversary:(Adversary.random (Util.Prng.split rng) ~f:(m - 1) ~m ~horizon:60)
        ();
      true)

(* ---- schedule pins ---- *)

(* Order-dependent hash of the chronological perform list. *)
let hash_dos dos =
  List.fold_left
    (fun h (p, j) -> Util.Mix.combine (Util.Mix.combine h p) j)
    0 dos

let rngs seed =
  let g = Util.Prng.of_int seed in
  let a = Util.Prng.split g in
  let b = Util.Prng.split g in
  (a, b)

let check_pin label (s : Core.Harness.summary) ~steps ~do_count ~dos_hash =
  Alcotest.(check int) (label ^ " steps") steps s.steps;
  Alcotest.(check int) (label ^ " do_count") do_count s.do_count;
  Alcotest.(check int) (label ^ " dos hash") dos_hash (hash_dos s.dos)

(* The benchmark's sim-wide shape: KK n=2000 m=32 beta=32, random
   schedule, 8 random crashes.  The values were recorded before the
   live-set cache and the lazy cell names went in; any change to a
   pick or a crash point moves them. *)
let test_pin_kk_wide () =
  List.iter
    (fun (seed, steps, do_count, dos_hash) ->
      let a, b = rngs seed in
      let s =
        Core.Harness.kk ~scheduler:(Schedule.random a)
          ~adversary:(Adversary.random b ~f:8 ~m:32 ~horizon:100_000)
          ~n:2000 ~m:32 ~beta:32 ()
      in
      check_pin (Printf.sprintf "kk seed %d" seed) s ~steps ~do_count ~dos_hash)
    [
      (1, 186811, 1971, 1882276885004859790);
      (2, 187518, 1970, 1421592287537224697);
    ]

let test_pin_iterative () =
  List.iter
    (fun (seed, steps, do_count, dos_hash) ->
      let a, b = rngs seed in
      let s =
        Core.Harness.iterative ~scheduler:(Schedule.random a)
          ~adversary:(Adversary.random b ~f:1 ~m:4 ~horizon:5_000)
          ~n:2000 ~m:4 ~epsilon_inv:2 ()
      in
      check_pin (Printf.sprintf "iterative seed %d" seed) s ~steps ~do_count
        ~dos_hash)
    [
      (1, 31597, 1952, 697333958398847933);
      (2, 31578, 1952, 2637331840055588948);
    ]

(* ---- allocation budget ---- *)

(* Minor words allocated per step of a whole [Harness.kk] run (set-up
   included) at `Silent with the null probe, verbose and provenance
   off.  What remains is almost all KK set operations: 61 words per
   step on OCaml 5.1.  A per-step live-set rebuild (+200) or a single
   eager cell-name [sprintf] on the gather_try step (+17) breaks the
   budget.  The count is deterministic, unlike a timing. *)
let budget_words_per_step = 72.

let test_alloc_budget () =
  let run () =
    Core.Harness.kk ~trace_level:`Silent ~n:2000 ~m:32 ~beta:32 ()
  in
  ignore (run ());
  let w0 = Gc.minor_words () in
  let s = run () in
  let per_step = (Gc.minor_words () -. w0) /. float_of_int s.steps in
  if per_step > budget_words_per_step then
    Alcotest.failf "%.1f minor words per step (budget %.0f)" per_step
      budget_words_per_step

let suite =
  [
    Helpers.qtest prop_live_set;
    Alcotest.test_case "pin: kk sim-wide shape" `Quick test_pin_kk_wide;
    Alcotest.test_case "pin: iterative" `Quick test_pin_iterative;
    Alcotest.test_case "allocation budget per kk step" `Quick test_alloc_budget;
  ]
