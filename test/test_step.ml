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

let check_pin label (s : Core.Harness.summary) ~steps ~do_count ~dos_hash
    ~work ~reads ~writes =
  Alcotest.(check int) (label ^ " steps") steps s.steps;
  Alcotest.(check int) (label ^ " do_count") do_count s.do_count;
  Alcotest.(check int) (label ^ " dos hash") dos_hash (hash_dos s.dos);
  Alcotest.(check int) (label ^ " work") work (Metrics.total_work s.metrics);
  Alcotest.(check int) (label ^ " reads") reads (Metrics.total_reads s.metrics);
  Alcotest.(check int) (label ^ " writes") writes
    (Metrics.total_writes s.metrics)

(* The benchmark's sim-wide shape: KK n=2000 m=32 beta=32, random
   schedule, 8 random crashes.  The steps, performs and hash were
   recorded before the live-set cache and the lazy cell names went in,
   the work and access counts before DONE became implicit in FREE; any
   change to a pick, a crash point or a work charge moves them. *)
let test_pin_kk_wide () =
  List.iter
    (fun (seed, steps, do_count, dos_hash, work, reads, writes) ->
      let a, b = rngs seed in
      let s =
        Core.Harness.kk ~scheduler:(Schedule.random a)
          ~adversary:(Adversary.random b ~f:8 ~m:32 ~horizon:100_000)
          ~n:2000 ~m:32 ~beta:32 ()
      in
      check_pin (Printf.sprintf "kk seed %d" seed) s ~steps ~do_count ~dos_hash
        ~work ~reads ~writes)
    [
      (1, 186811, 1971, 1882276885004859790, 2547701, 172851, 3973);
      (2, 187518, 1970, 1421592287537224697, 2553970, 173508, 3982);
    ]

let test_pin_iterative () =
  List.iter
    (fun (seed, steps, do_count, dos_hash, work, reads, writes) ->
      let a, b = rngs seed in
      let s =
        Core.Harness.iterative ~scheduler:(Schedule.random a)
          ~adversary:(Adversary.random b ~f:1 ~m:4 ~horizon:5_000)
          ~n:2000 ~m:4 ~epsilon_inv:2 ()
      in
      check_pin (Printf.sprintf "iterative seed %d" seed) s ~steps ~do_count
        ~dos_hash ~work ~reads ~writes)
    [
      (1, 31597, 1952, 697333958398847933, 332892, 17850, 3920);
      (2, 31578, 1952, 2637331840055588948, 332551, 17833, 3920);
    ]

(* One total of a [Metrics.to_json] string: an integer field, or the
   sum of a per-process array. *)
let json_total key json =
  let rec total = function
    | Obs.Json.Int x -> x
    | Obs.Json.List l -> List.fold_left (fun acc v -> acc + total v) 0 l
    | _ -> Alcotest.failf "metrics JSON: %s is not a count" key
  in
  match Obs.Json.member key (Obs.Json.parse_exn json) with
  | Some v -> total v
  | None -> Alcotest.failf "metrics JSON has no %s" key

(* Crash-recovery chaos plans (random crashes plus restarts) on the
   correct algorithm and on the skip-recovery-mark mutant, through
   [Fault.Chaos.run_plan] with provenance and blame on.  Recorded
   before DONE became implicit in FREE: the recovery statuses rebuild
   FREE from the done row and re-mark the announcement, so a change
   to either moves a pick, a perform or a charge. *)
let test_pin_recovery () =
  List.iter
    (fun (algo, seed, (steps, do_count, dos_hash, restarts, violations),
          (work, reads, writes)) ->
      let plan =
        Fault.Plan.gen ~algo ~recovery:true ~name:"pin" ~n:200 ~m:4 ~beta:4
          (Util.Prng.of_int seed)
      in
      let r = Fault.Chaos.run_plan plan in
      let label =
        Printf.sprintf "%s seed %d" (Fault.Plan.algo_to_string algo) seed
      in
      Alcotest.(check int) (label ^ " steps") steps r.steps;
      Alcotest.(check int) (label ^ " do_count") do_count r.do_count;
      Alcotest.(check int) (label ^ " dos hash") dos_hash (hash_dos r.dos);
      Alcotest.(check int) (label ^ " restarts") restarts
        (List.length r.restarts);
      Alcotest.(check int) (label ^ " violations") violations
        (List.length r.violations);
      Alcotest.(check int) (label ^ " work") work
        (json_total "total_work" r.metrics_json);
      Alcotest.(check int) (label ^ " reads") reads
        (json_total "reads" r.metrics_json);
      Alcotest.(check int) (label ^ " writes") writes
        (json_total "writes" r.metrics_json))
    Fault.Plan.
      [
        (Kk, 1, (2989, 197, 4360314684905264670, 1, 0), (20821, 1592, 398));
        (Kk, 2, (3215, 198, -2955787696568881421, 1, 0), (27638, 1820, 398));
        (Kk, 3, (3078, 197, 2083116408300829712, 2, 0), (25333, 1682, 398));
        (Kk, 4, (3192, 197, -4436904188996742060, 1, 0), (27349, 1800, 397));
        (Kk, 5, (3298, 196, 40945789197069748, 2, 0), (29076, 1907, 396));
        (Kk, 6, (3215, 198, 4027215433857647484, 2, 0), (27262, 1805, 401));
        ( Kk_mutant_skip_recovery_mark,
          1,
          (2989, 198, -4560436952049105573, 1, 0),
          (20822, 1591, 398) );
        ( Kk_mutant_skip_recovery_mark,
          2,
          (3220, 198, -2326305512649098609, 1, 0),
          (27630, 1821, 398) );
        ( Kk_mutant_skip_recovery_mark,
          3,
          (3077, 198, -3280632972852157097, 2, 0),
          (25334, 1680, 398) );
        ( Kk_mutant_skip_recovery_mark,
          4,
          (3190, 197, -4436904188996742060, 1, 0),
          (27333, 1799, 396) );
        ( Kk_mutant_skip_recovery_mark,
          5,
          (3308, 197, -548451996311156079, 2, 0),
          (29157, 1912, 397) );
        (* the mutant re-performs a job here: at-most-once trips *)
        ( Kk_mutant_skip_recovery_mark,
          6,
          (3210, 198, 1656119655220846974, 2, 1),
          (27223, 1800, 400) );
      ]

(* IterStepKK with overlapping, unequal FREE sets (Lemma 6.1's setting,
   where DONE can hold jobs outside a process's own FREE), under a
   random schedule and one random crash.  Pins the performs, the
   charges and each process's output set; recorded before DONE became
   implicit in FREE. *)
let test_pin_heterogeneous () =
  let hash_set s = Ostree.fold (fun x h -> Util.Mix.combine h x) s 0 in
  List.iter
    (fun (keep_try, seed, (steps, dos_hash, work, reads, writes), outputs) ->
      let m = 3 in
      let metrics = Metrics.create ~m in
      let shared =
        Core.Kk.make_shared ~metrics ~m ~capacity:90 ~with_flag:true
          ~name:"kk" ()
      in
      let kks =
        Array.mapi
          (fun i (lo, hi) ->
            Core.Kk.create ~shared ~pid:(i + 1) ~beta:3
              ~policy:Core.Policy.Rank_split ~free:(Core.Job.range_set ~lo ~hi)
              ~mode:(Core.Kk.Iter_step { keep_try }) ())
          [| (1, 50); (21, 70); (41, 90) |]
      in
      let a, b = rngs seed in
      let outcome =
        Executor.run ~scheduler:(Schedule.random a)
          ~adversary:(Adversary.random b ~f:1 ~m ~horizon:600)
          (Array.map Core.Kk.handle kks)
      in
      let dos = Trace.do_events outcome.Executor.trace in
      let outs =
        Array.to_list
          (Array.map
             (fun k -> Option.fold ~none:0 ~some:hash_set (Core.Kk.result k))
             kks)
      in
      let label = Printf.sprintf "hetero keep_try=%b seed %d" keep_try seed in
      Helpers.check_amo dos;
      Alcotest.(check int) (label ^ " steps") steps outcome.Executor.steps;
      Alcotest.(check int) (label ^ " dos hash") dos_hash (hash_dos dos);
      Alcotest.(check int) (label ^ " work") work (Metrics.total_work metrics);
      Alcotest.(check int) (label ^ " reads") reads (Metrics.total_reads metrics);
      Alcotest.(check int) (label ^ " writes") writes
        (Metrics.total_writes metrics);
      Alcotest.(check (list int)) (label ^ " outputs") outputs outs)
    [
      ( false,
        1,
        (780, 1129446063412981730, 4663, 367, 117),
        [ -2334987193612888813; 1861143183779513274; 0 ] );
      ( false,
        2,
        (963, -3225124903495516946, 5769, 452, 145),
        [ 0; -3454876248369537304; -3831300242671245965 ] );
      ( true,
        3,
        (926, -2829842057783767200, 5771, 450, 135),
        [ -4199214258492500419; -2257204300693341036; 0 ] );
    ]

(* ---- allocation budget ---- *)

(* Minor words allocated per step of a whole [Harness.kk] run (set-up
   included) at `Silent with the null probe, verbose and provenance
   off.  FREE is a mutable bitset and TRY a fixed buffer, so set
   operations allocate nothing; what remains is the event lists: 2.8
   words per step on OCaml 5.1, down from 38.4 when FREE and TRY were
   persistent AVL trees (and 61.0 with a DONE tree as well).  A
   persistent FREE (about 62 words per removal, m removals per job),
   a per-step live-set rebuild (+200) or a single eager cell-name
   [sprintf] on the gather_try step (+17) breaks the budget.  The count
   is deterministic, unlike a timing. *)
let budget_words_per_step = 4.

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
    Alcotest.test_case "pin: crash-recovery plans" `Quick test_pin_recovery;
    Alcotest.test_case "pin: heterogeneous iter-step" `Quick
      test_pin_heterogeneous;
    Alcotest.test_case "allocation budget per kk step" `Quick test_alloc_budget;
  ]
