(* Tests for algorithm KKβ: safety (Lemma 4.1), wait-freedom
   (Lemma 4.3), effectiveness (Theorem 4.4 — both the guarantee and
   the adversarial tightness), collision bounds (Lemma 5.5), and the
   IterStepKK mode (Lemmas 6.1/6.2). *)

let check_amo = Helpers.check_amo

(* ---- safety under many schedules, policies, crash patterns ---- *)

let test_amo_round_robin () =
  let s = Core.Harness.kk ~n:200 ~m:8 ~beta:8 () in
  check_amo s.Core.Harness.dos;
  Alcotest.(check bool) "wait free" true s.Core.Harness.wait_free

let test_amo_all_schedulers () =
  List.iter
    (fun (name, sched) ->
      let s = Core.Harness.kk ~scheduler:sched ~n:150 ~m:6 ~beta:6 () in
      check_amo s.Core.Harness.dos;
      Alcotest.(check bool) (name ^ " wait free") true s.Core.Harness.wait_free)
    (Helpers.schedulers_for 5)

let test_amo_with_random_crashes () =
  for seed = 0 to 40 do
    let rng = Util.Prng.of_int seed in
    let m = 6 in
    let f = Util.Prng.int rng m in
    let s =
      Core.Harness.kk
        ~scheduler:(Shm.Schedule.random (Util.Prng.split rng))
        ~adversary:(Shm.Adversary.random rng ~f ~m ~horizon:2000)
        ~n:120 ~m ~beta:m ()
    in
    check_amo s.Core.Harness.dos;
    Alcotest.(check bool) "wait free" true s.Core.Harness.wait_free
  done

let test_amo_random_policy () =
  (* the Censor-Hillel-style ablation keeps safety *)
  for seed = 0 to 10 do
    let rng = Util.Prng.of_int (100 + seed) in
    let s =
      Core.Harness.kk
        ~policy:(Core.Policy.Random (Util.Prng.split rng))
        ~scheduler:(Shm.Schedule.random rng)
        ~n:80 ~m:4 ~beta:4 ()
    in
    check_amo s.Core.Harness.dos;
    Alcotest.(check bool) "wait free" true s.Core.Harness.wait_free
  done

let test_amo_lowest_free_policy () =
  (* maximal contention; safety must hold even when termination is at
     risk (we cap the run and only check safety) *)
  for seed = 0 to 10 do
    let s =
      Core.Harness.kk ~policy:Core.Policy.Lowest_free
        ~scheduler:(Shm.Schedule.random (Util.Prng.of_int (200 + seed)))
        ~max_steps:200_000 ~n:60 ~m:4 ~beta:4 ()
    in
    check_amo s.Core.Harness.dos
  done

let test_lowest_free_can_livelock () =
  (* Under strict round-robin alternation, two Lowest_free processes
     chase the same job forever: this documents that the *paper's*
     rank-splitting rule is what buys wait-freedom (Lemma 4.3), not
     the announce/check skeleton alone. *)
  let s =
    Core.Harness.kk ~policy:Core.Policy.Lowest_free
      ~scheduler:(Shm.Schedule.round_robin ())
      ~max_steps:50_000 ~n:40 ~m:2 ~beta:2 ()
  in
  check_amo s.Core.Harness.dos;
  Alcotest.(check bool) "livelocked as predicted" false s.Core.Harness.wait_free

let test_amo_edge_configs () =
  (* m = 1; n = m; beta > n; beta = n *)
  let cases =
    [ (10, 1, 1); (4, 4, 4); (10, 2, 20); (10, 3, 10); (5, 2, 2) ]
  in
  List.iter
    (fun (n, m, beta) ->
      let s = Core.Harness.kk ~n ~m ~beta () in
      check_amo s.Core.Harness.dos;
      Alcotest.(check bool)
        (Printf.sprintf "wait free n=%d m=%d beta=%d" n m beta)
        true s.Core.Harness.wait_free)
    cases

(* ---- wait-freedom / termination ---- *)

let test_wait_free_many_seeds () =
  for seed = 0 to 50 do
    let s =
      Core.Harness.kk
        ~scheduler:(Shm.Schedule.bursty (Util.Prng.of_int seed) ~max_burst:100)
        ~n:100 ~m:5 ~beta:5 ()
    in
    Alcotest.(check bool) "quiescent" true s.Core.Harness.wait_free
  done

(* ---- effectiveness: Theorem 4.4, guarantee direction ---- *)

let test_effectiveness_guarantee () =
  (* every fair execution with f < m crashes performs at least
     n - (beta + m - 2) distinct jobs *)
  for seed = 0 to 30 do
    let rng = Util.Prng.of_int (300 + seed) in
    let n = 150 and m = 5 in
    let beta = m in
    let f = Util.Prng.int rng m in
    let s =
      Core.Harness.kk
        ~scheduler:(Shm.Schedule.random (Util.Prng.split rng))
        ~adversary:(Shm.Adversary.random rng ~f ~m ~horizon:3000)
        ~n ~m ~beta ()
    in
    let guarantee = n - (beta + m - 2) in
    if s.Core.Harness.do_count < guarantee then
      Alcotest.failf "seed %d: did %d < guarantee %d" seed
        s.Core.Harness.do_count guarantee
  done

let test_effectiveness_failure_free_is_n () =
  (* with no crashes nothing gets stuck, and the last processes only
     stop when fewer than beta jobs remain; with beta = m and round
     robin everything is performed *)
  let s = Core.Harness.kk ~n:100 ~m:4 ~beta:4 () in
  Alcotest.(check int) "all jobs done" 100 s.Core.Harness.do_count

let test_upper_bound_never_exceeded () =
  for seed = 0 to 20 do
    let rng = Util.Prng.of_int (400 + seed) in
    let n = 100 and m = 4 in
    let f = Util.Prng.int rng m in
    let s =
      Core.Harness.kk
        ~scheduler:(Shm.Schedule.random (Util.Prng.split rng))
        ~adversary:(Shm.Adversary.random rng ~f ~m ~horizon:50)
        ~n ~m ~beta:m ()
    in
    let f_actual = List.length s.Core.Harness.crashed in
    let bound = Core.Params.effectiveness_upper_bound ~n ~f:f_actual in
    if s.Core.Harness.do_count > bound then
      Alcotest.failf "Do(α)=%d exceeds upper bound %d (f=%d)"
        s.Core.Harness.do_count bound f_actual
  done

(* ---- effectiveness: Theorem 4.4, tightness direction ---- *)

let test_worst_case_adversary_exact () =
  List.iter
    (fun (n, m, beta) ->
      let s = Core.Harness.kk_worst_case ~n ~m ~beta () in
      check_amo s.Core.Harness.dos;
      let predicted = n - (beta + m - 2) in
      Alcotest.(check int)
        (Printf.sprintf "exact effectiveness n=%d m=%d beta=%d" n m beta)
        predicted s.Core.Harness.do_count;
      Alcotest.(check int) "m-1 crashes" (m - 1)
        (List.length s.Core.Harness.crashed))
    [ (100, 4, 4); (200, 8, 8); (50, 2, 2); (300, 6, 12); (100, 3, 30) ]

let test_worst_case_stuck_jobs_never_done () =
  (* the victims' announced jobs stay unperformed forever *)
  let n = 80 and m = 4 in
  let s = Core.Harness.kk_worst_case ~n ~m ~beta:m () in
  let undone = Core.Spec.undone_jobs ~n s.Core.Harness.dos in
  (* beta - 1 free jobs + m - 1 stuck jobs remain *)
  Alcotest.(check int) "undone count" (m + (m - 1) - 1) (List.length undone)

(* ---- work & collisions: Theorem 5.6 / Lemma 5.5 regime ---- *)

let test_collision_bound_beta_3m2 () =
  (* Lemma 5.5: with beta >= 3m², p collides with q at most
     2*ceil(n/(m|q-p|)) times, under any schedule *)
  let m = 3 in
  let beta = 3 * m * m in
  let n = 200 in
  List.iter
    (fun (name, sched) ->
      let s = Core.Harness.kk ~scheduler:sched ~n ~m ~beta () in
      check_amo s.Core.Harness.dos;
      match Core.Collision.worst_pair_ratio s.Core.Harness.collision ~n with
      | None -> ()
      | Some (p, q, ratio) ->
          if ratio > 1.0 then
            Alcotest.failf "%s: pair (%d,%d) ratio %.2f exceeds Lemma 5.5" name
              p q ratio)
    (Helpers.schedulers_for 9)

let test_collision_bound_many_seeds () =
  let m = 4 in
  let beta = 3 * m * m in
  let n = 300 in
  for seed = 0 to 15 do
    let s =
      Core.Harness.kk
        ~scheduler:(Shm.Schedule.bursty (Util.Prng.of_int seed) ~max_burst:200)
        ~n ~m ~beta ()
    in
    match Core.Collision.worst_pair_ratio s.Core.Harness.collision ~n with
    | None -> ()
    | Some (p, q, ratio) ->
        if ratio > 1.0 then
          Alcotest.failf "seed %d: pair (%d,%d) ratio %.2f" seed p q ratio
  done

let test_work_grows_linearly_in_n () =
  (* Theorem 5.6: for beta = 3m² and fixed m, work/n is bounded *)
  let m = 3 in
  let beta = 3 * m * m in
  let work n =
    let s = Core.Harness.kk ~n ~m ~beta () in
    float_of_int (Shm.Metrics.total_work s.Core.Harness.metrics)
  in
  let w1 = work 500 and w2 = work 2000 in
  (* quadrupling n should much less than 8x the work (log factors allowed) *)
  if w2 /. w1 > 6. then
    Alcotest.failf "work scaling looks superlinear: %f -> %f" w1 w2

(* ---- direct automaton-level tests ---- *)

let make_kk_instance ~n ~m ~beta =
  let metrics = Shm.Metrics.create ~m in
  let shared = Core.Kk.make_shared ~metrics ~m ~capacity:n ~name:"kk" () in
  let procs =
    Array.init m (fun i ->
        Core.Kk.create ~shared ~pid:(i + 1) ~beta ~policy:Core.Policy.Rank_split
          ~free:(Core.Job.universe ~n) ~mode:Core.Kk.Standalone ())
  in
  (procs, Array.map Core.Kk.handle procs)

let test_internal_invariants_during_run () =
  let n = 60 and m = 4 in
  let procs, handles = make_kk_instance ~n ~m ~beta:m in
  let sched = Shm.Schedule.random (Util.Prng.of_int 17) in
  let steps = ref 0 in
  let rec loop () =
    let alive = Shm.Executor.live_pids handles in
    if Array.length alive > 0 && !steps < 100_000 then begin
      incr steps;
      ignore (handles.(Shm.Schedule.choose sched ~alive - 1).Shm.Automaton.step ());
      (* invariants from the paper: |TRY| < m; announced job, once
         set, is a real job id.  FREE ∩ DONE = ∅ is checked against a
         reference DONE by [prop_free_is_free0_minus_done]. *)
      Array.iter
        (fun p ->
          let tries = Core.Kk.try_set p in
          if Trybuf.cardinal tries >= m then
            Alcotest.failf "|TRY| = %d >= m" (Trybuf.cardinal tries);
          let a = Core.Kk.announced p in
          if a <> 0 && not (Core.Job.is_valid ~n a) then
            Alcotest.failf "bad announcement %d" a)
        procs;
      loop ()
    end
  in
  loop ();
  Alcotest.(check bool) "terminated" true (!steps < 100_000)

let test_done_set_matches_shared_memory () =
  let n = 40 and m = 3 in
  let metrics = Shm.Metrics.create ~m in
  let shared = Core.Kk.make_shared ~metrics ~m ~capacity:n ~name:"kk" () in
  let procs =
    Array.init m (fun i ->
        Core.Kk.create ~shared ~pid:(i + 1) ~beta:m
          ~policy:Core.Policy.Rank_split ~free:(Core.Job.universe ~n)
          ~verbose:true ~mode:Core.Kk.Standalone ())
  in
  let outcome =
    Shm.Executor.run ~trace_level:`Full
      ~scheduler:(Shm.Schedule.round_robin ())
      ~adversary:Shm.Adversary.none (Array.map Core.Kk.handle procs)
  in
  let trace = outcome.Shm.Executor.trace in
  let dos = Shm.Trace.do_events trace in
  check_amo dos;
  (* the jobs each process wrote to its own done row *)
  let own_row = Array.init (m + 1) (fun _ -> Ostree.create n) in
  List.iter
    (fun e ->
      match e.Shm.Trace.event with
      | Shm.Event.Write { p; cell; value; _ }
        when String.starts_with ~prefix:(Printf.sprintf "kk.done[%d][" p) cell
        ->
          Ostree.add value own_row.(p)
      | _ -> ())
    (Shm.Trace.entries trace);
  (* every performed job has left the performer's FREE (it is in its
     DONE) and is recorded in the performer's own done row *)
  List.iter
    (fun (p, j) ->
      if Ostree.mem j (Core.Kk.free_set procs.(p - 1)) then
        Alcotest.failf "p%d did %d but it is still in FREE" p j;
      if not (Ostree.mem j own_row.(p)) then
        Alcotest.failf "p%d did %d but its done row misses it" p j)
    dos;
  (* per-process do_count agrees with the trace *)
  let counts = Core.Spec.per_process_counts ~m dos in
  Array.iteri
    (fun i p ->
      Alcotest.(check int)
        (Printf.sprintf "do_count p%d" (i + 1))
        counts.(i + 1) (Core.Kk.do_count p))
    procs

let test_status_progression () =
  let _, handles = make_kk_instance ~n:10 ~m:2 ~beta:2 in
  let h = handles.(0) in
  Alcotest.(check string) "starts comp_next" "comp_next" (h.Shm.Automaton.phase ());
  ignore (h.Shm.Automaton.step ());
  Alcotest.(check string) "then set_next" "set_next" (h.Shm.Automaton.phase ());
  ignore (h.Shm.Automaton.step ());
  Alcotest.(check string) "then gather_try" "gather_try" (h.Shm.Automaton.phase ())

let test_crash_is_idempotent_and_final () =
  let _, handles = make_kk_instance ~n:10 ~m:2 ~beta:2 in
  let h = handles.(0) in
  h.Shm.Automaton.crash ();
  h.Shm.Automaton.crash ();
  Alcotest.(check bool) "dead" false (h.Shm.Automaton.alive ());
  Alcotest.(check string) "stopped" "stop" (h.Shm.Automaton.phase ())

(* [create] keeps the set it is given as FREE₀ and works on a copy:
   the run leaves the caller's set untouched, and a restart after the
   process's own FREE shrank starts from FREE₀ again. *)
let test_restart_restores_free0 () =
  let n = 10 and m = 2 in
  let metrics = Shm.Metrics.create ~m in
  let shared = Core.Kk.make_shared ~metrics ~m ~capacity:n ~name:"kk" () in
  let free = Core.Job.universe ~n in
  let k =
    Core.Kk.create ~shared ~pid:1 ~beta:m ~policy:Core.Policy.Rank_split ~free
      ~mode:Core.Kk.Standalone ()
  in
  let h = Core.Kk.handle k in
  for _ = 1 to 40 do
    if h.Shm.Automaton.alive () then ignore (h.Shm.Automaton.step ())
  done;
  let shrunk = Ostree.cardinal (Core.Kk.free_set k) in
  if shrunk >= n then Alcotest.failf "FREE did not shrink (%d jobs)" shrunk;
  Alcotest.(check int) "the caller's set is untouched" n (Ostree.cardinal free);
  h.Shm.Automaton.crash ();
  Alcotest.(check bool) "restart takes" true (Core.Kk.restart k);
  Alcotest.(check (list int))
    "FREE is FREE0 again"
    (List.init n (fun i -> i + 1))
    (Ostree.elements (Core.Kk.free_set k));
  Alcotest.(check int) "TRY is empty" 0 (Trybuf.cardinal (Core.Kk.try_set k))

let test_create_validation () =
  let metrics = Shm.Metrics.create ~m:2 in
  let shared = Core.Kk.make_shared ~metrics ~m:2 ~capacity:10 ~name:"kk" () in
  Alcotest.check_raises "pid out of range"
    (Invalid_argument "Kk.create: pid out of range") (fun () ->
      ignore
        (Core.Kk.create ~shared ~pid:3 ~beta:2 ~policy:Core.Policy.Rank_split
           ~free:(Core.Job.universe ~n:10) ~mode:Core.Kk.Standalone ()));
  Alcotest.check_raises "iter mode needs flag"
    (Invalid_argument "Kk.create: Iter_step mode needs a shared flag")
    (fun () ->
      ignore
        (Core.Kk.create ~shared ~pid:1 ~beta:2 ~policy:Core.Policy.Rank_split
           ~free:(Core.Job.universe ~n:10)
           ~mode:(Core.Kk.Iter_step { keep_try = false })
           ()))

(* ---- IterStepKK mode (Lemmas 6.1 / 6.2) ---- *)

let run_iter_step ~seed ~n ~m ~beta ~keep_try =
  let metrics = Shm.Metrics.create ~m in
  let shared =
    Core.Kk.make_shared ~metrics ~m ~capacity:n ~with_flag:true ~name:"is" ()
  in
  let procs =
    Array.init m (fun i ->
        Core.Kk.create ~shared ~pid:(i + 1) ~beta ~policy:Core.Policy.Rank_split
          ~free:(Core.Job.universe ~n)
          ~mode:(Core.Kk.Iter_step { keep_try })
          ())
  in
  let handles = Array.map Core.Kk.handle procs in
  let outcome =
    Shm.Executor.run
      ~scheduler:(Shm.Schedule.random (Util.Prng.of_int seed))
      ~adversary:Shm.Adversary.none handles
  in
  (procs, shared, Shm.Trace.do_events outcome.Shm.Executor.trace)

let test_iter_step_amo () =
  for seed = 0 to 20 do
    let _, _, dos = run_iter_step ~seed ~n:100 ~m:3 ~beta:27 ~keep_try:false in
    check_amo dos
  done

let test_iter_step_flag_set_on_termination () =
  let _, shared, _ = run_iter_step ~seed:1 ~n:50 ~m:2 ~beta:12 ~keep_try:false in
  Alcotest.(check int) "flag raised" 1 (Core.Kk.flag_value shared)

let test_iter_step_outputs_unperformed () =
  (* Lemma 6.2: no job in any process's output set was ever performed *)
  for seed = 0 to 20 do
    let procs, _, dos =
      run_iter_step ~seed ~n:100 ~m:3 ~beta:27 ~keep_try:false
    in
    let performed = Core.Spec.performed_set dos in
    Array.iter
      (fun p ->
        match Core.Kk.result p with
        | None -> Alcotest.fail "no output set after termination"
        | Some out ->
            Ostree.iter
              (fun j ->
                if Ostree.mem j performed then
                  Alcotest.failf "seed %d: output job %d was performed" seed j)
              out)
      procs
  done

let test_iter_step_keep_try_covers_rest () =
  (* Write-All variant: output FREE must contain every unperformed job
     known to the process, i.e. outputs ∪ performed ⊇ J *)
  for seed = 0 to 10 do
    let procs, _, dos = run_iter_step ~seed ~n:80 ~m:3 ~beta:27 ~keep_try:true in
    let performed = Core.Spec.performed_set dos in
    let covered j =
      Ostree.mem j performed
      || Array.exists
           (fun p -> Option.fold ~none:false ~some:(Ostree.mem j) (Core.Kk.result p))
           procs
    in
    for j = 1 to 80 do
      if not (covered j) then
        Alcotest.failf "seed %d: job %d in nobody's FREE and unperformed" seed j
    done
  done

let test_heterogeneous_free_sets () =
  (* Lemma 6.1's observation: correctness holds even when processes
     start with different FREE subsets (as IterStepKK instances do).
     Overlapping halves: only the overlap is contested. *)
  let n = 60 and m = 2 in
  let metrics = Shm.Metrics.create ~m in
  let shared =
    Core.Kk.make_shared ~metrics ~m ~capacity:n ~with_flag:true ~name:"kk" ()
  in
  let mk pid free =
    Core.Kk.create ~shared ~pid ~beta:2 ~policy:Core.Policy.Rank_split ~free
      ~mode:(Core.Kk.Iter_step { keep_try = false })
      ()
  in
  let p1 = mk 1 (Core.Job.range_set ~lo:1 ~hi:40) in
  let p2 = mk 2 (Core.Job.range_set ~lo:21 ~hi:60) in
  let outcome =
    Shm.Executor.run
      ~scheduler:(Shm.Schedule.random (Util.Prng.of_int 3))
      ~adversary:Shm.Adversary.none
      [| Core.Kk.handle p1; Core.Kk.handle p2 |]
  in
  let dos = Shm.Trace.do_events outcome.Shm.Executor.trace in
  check_amo dos;
  (* p1 never performs outside its own FREE set, same for p2 *)
  List.iter
    (fun (p, j) ->
      let lo, hi = if p = 1 then (1, 40) else (21, 60) in
      if j < lo || j > hi then Alcotest.failf "p%d did foreign job %d" p j)
    dos

(* ---- the paper's DONE, rebuilt from the shared-memory accesses ---- *)

(* Fig. 2's DONE set of each process is every job it has read from, or
   written to, a [done] cell since its last (re)start.  [with_done_ref]
   wraps the handles of verbose processes so that each step folds its
   [Read]/[Write] events on [kk.done[r][c]] into a per-process
   reference DONE, and then checks, for every process, FREE ∩ DONE = ∅
   and FREE = FREE₀ \ DONE.  [on_restart pid] resets pid's reference
   DONE; call it when a restart takes. *)
let with_done_ref ~free0 kks =
  let cap = Array.fold_left (fun c f -> Ostree.fold max f c) 0 free0 in
  let done_ref = Array.map (fun _ -> Ostree.create cap) kks in
  let check_all () =
    Array.iteri
      (fun i k ->
        let free = Core.Kk.free_set k and done_ = done_ref.(i) in
        Ostree.iter
          (fun x ->
            if Ostree.mem x done_ then
              QCheck.Test.fail_reportf "p%d: job %d in FREE and DONE" (i + 1)
                x)
          free;
        let expected = Ostree.copy free0.(i) in
        Ostree.iter (fun x -> Ostree.remove x expected) done_;
        if Ostree.elements free <> Ostree.elements expected then
          QCheck.Test.fail_reportf
            "p%d: FREE (%d jobs) <> FREE0 \\ DONE (%d jobs)" (i + 1)
            (Ostree.cardinal free) (Ostree.cardinal expected))
      kks
  in
  let record = function
    | Shm.Event.Read { p; cell; value; _ }
    | Shm.Event.Write { p; cell; value; _ }
      when value > 0 && String.starts_with ~prefix:"kk.done[" cell ->
        Ostree.add value done_ref.(p - 1)
    | _ -> ()
  in
  let handles =
    Array.map
      (fun k ->
        let h = Core.Kk.handle k in
        {
          h with
          Shm.Automaton.step =
            (fun () ->
              let evs = h.Shm.Automaton.step () in
              List.iter record evs;
              check_all ();
              evs);
        })
      kks
  in
  let on_restart pid =
    done_ref.(pid - 1) <- Ostree.create cap;
    check_all ()
  in
  (handles, on_restart)

let prop_free_is_free0_minus_done =
  QCheck.Test.make
    ~name:"FREE = FREE0 \\ DONE, DONE rebuilt from done-cell accesses"
    ~count:40
    QCheck.(pair (int_range 0 1_000_000) (int_range 2 5))
    (fun (seed, m) ->
      let m = max 2 m in
      let rng = Util.Prng.of_int seed in
      let n = 8 + Util.Prng.int rng 40 in
      let beta = m + Util.Prng.int rng m in
      let make ?(with_flag = false) ?(mutant_skip_recovery_mark = false) ~mode
          frees =
        let metrics = Shm.Metrics.create ~m in
        let capacity =
          Array.fold_left (fun c f -> Ostree.fold max f c) 1 frees
        in
        let shared =
          Core.Kk.make_shared ~metrics ~m ~capacity ~with_flag ~name:"kk" ()
        in
        let kks =
          Array.mapi
            (fun i free ->
              Core.Kk.create ~shared ~pid:(i + 1) ~beta
                ~policy:Core.Policy.Rank_split ~free ~verbose:true
                ~mutant_skip_recovery_mark ~mode ())
            frees
        in
        let handles, on_restart = with_done_ref ~free0:frees kks in
        (metrics, kks, handles, on_restart)
      in
      let run ?restarter ~scheduler ~adversary handles =
        ignore
          (Shm.Executor.run ~max_steps:1_000_000 ?restarter ~scheduler
             ~adversary handles)
      in
      (* standalone KK under random crashes *)
      let _, _, handles, _ =
        make ~mode:Core.Kk.Standalone (Array.make m (Core.Job.universe ~n))
      in
      run ~scheduler:(Shm.Schedule.random (Util.Prng.split rng))
        ~adversary:
          (Shm.Adversary.random (Util.Prng.split rng) ~f:(m - 1) ~m
             ~horizon:(4 * n * m))
        handles;
      (* IterStepKK with overlapping, unequal FREE sets: DONE picks up
         jobs outside a process's own FREE0 *)
      let frees =
        Array.init m (fun i ->
            Core.Job.range_set ~lo:(1 + (i * n / 2)) ~hi:(n + (i * n / 2)))
      in
      let _, _, handles, _ =
        make ~with_flag:true
          ~mode:(Core.Kk.Iter_step { keep_try = Util.Prng.bool rng })
          frees
      in
      run ~scheduler:(Shm.Schedule.random (Util.Prng.split rng))
        ~adversary:
          (Shm.Adversary.random (Util.Prng.split rng) ~f:(m - 1) ~m
             ~horizon:(4 * n * m))
        handles;
      (* chaos plans with restarts; DONE restarts empty with FREE0 *)
      let mutant = Util.Prng.bool rng in
      let plan =
        Fault.Plan.gen ~recovery:true ~name:"done-ref" ~n ~m ~beta
          (Util.Prng.split rng)
      in
      let metrics, kks, handles, on_restart =
        make ~mutant_skip_recovery_mark:mutant ~mode:Core.Kk.Standalone
          (Array.make m (Core.Job.universe ~n))
      in
      run
        ~scheduler:(Fault.Inject.scheduler ~plan ~rng:(Util.Prng.split rng))
        ~adversary:(Fault.Inject.adversary ~plan ~metrics)
        ?restarter:
          (Fault.Inject.restarter ~plan ~restart:(fun pid ->
               let took = Core.Kk.restart kks.(pid - 1) in
               if took then on_restart pid;
               took))
        handles;
      true)

let test_verbose_traces_audit () =
  (* verbose mode emits one Read/Write/Internal event per action; the
     audited full trace must be structurally well-formed and its event
     counts must match the metrics ledger *)
  let s =
    Core.Harness.kk ~trace_level:`Full ~verbose:true ~n:50 ~m:3 ~beta:3 ()
  in
  Analysis.Audit.assert_ok ~m:3 s.Core.Harness.trace;
  let rows = Analysis.Timeline.of_trace ~m:3 s.Core.Harness.trace in
  for p = 1 to 3 do
    Alcotest.(check int)
      (Printf.sprintf "p%d reads = metrics" p)
      (Shm.Metrics.reads s.Core.Harness.metrics ~p)
      rows.(p).Analysis.Timeline.reads;
    Alcotest.(check int)
      (Printf.sprintf "p%d writes = metrics" p)
      (Shm.Metrics.writes s.Core.Harness.metrics ~p)
      rows.(p).Analysis.Timeline.writes
  done

(* ---- bounded-exhaustive interleaving check of the full automaton ---- *)

let test_bounded_exhaustive_small () =
  let factory () =
    let metrics = Shm.Metrics.create ~m:2 in
    let shared = Core.Kk.make_shared ~metrics ~m:2 ~capacity:4 ~name:"kk" () in
    Array.init 2 (fun i ->
        Core.Kk.handle
          (Core.Kk.create ~shared ~pid:(i + 1) ~beta:2
             ~policy:Core.Policy.Rank_split ~free:(Core.Job.universe ~n:4)
             ~mode:Core.Kk.Standalone ()))
  in
  let executions =
    Helpers.explore ~factory ~branch_depth:12 ~max_steps:10_000
      ~on_execution:(fun dos ->
        check_amo dos;
        (* Theorem 4.4 guarantee with f=0: at least n-(beta+m-2) = 2 jobs *)
        if Core.Spec.do_count dos < 2 then
          Alcotest.failf "did %d < 2" (Core.Spec.do_count dos))
  in
  Alcotest.(check bool) "explored many interleavings" true (executions > 500)

(* ---- backend independence ---- *)

(* A reference [Set_intf.S]: a sorted [int list], every query a linear
   scan.  [Kk.Make] over it must reproduce the {!Ostree}-backed
   algorithm event for event, so nothing in KKβ depends on the bitset. *)
module List_set = struct
  type t = { mutable l : int list }

  let create _ = { l = [] }
  let of_range lo hi = { l = (if hi < lo then [] else List.init (hi - lo + 1) (( + ) lo)) }
  let copy s = { l = s.l }
  let cardinal s = List.length s.l
  let mem x s = List.mem x s.l
  let add x s = if not (List.mem x s.l) then s.l <- List.merge compare [ x ] s.l
  let remove x s = s.l <- List.filter (fun y -> y <> x) s.l

  let select s i =
    if i < 1 || i > List.length s.l then
      invalid_arg "List_set.select: rank out of range";
    List.nth s.l (i - 1)

  let rank x s =
    let rec go i = function
      | [] -> raise Not_found
      | y :: rest -> if y = x then i else go (i + 1) rest
    in
    go 1 s.l

  let count_le x s = List.length (List.filter (fun y -> y <= x) s.l)

  let diff s b =
    let tries = Trybuf.elements b in
    List.filter (fun x -> not (List.mem x tries)) s.l

  let diff_cardinal s b = List.length (diff s b)

  let rank_diff s b i =
    let d = diff s b in
    if i < 1 || i > List.length d then
      invalid_arg "List_set.rank_diff: rank out of range";
    List.nth d (i - 1)

  let fold f s acc = List.fold_left (fun acc x -> f x acc) acc s.l
  let elements s = s.l

  let check_invariants s =
    if s.l <> List.sort_uniq compare s.l then failwith "List_set: not sorted"
end

module _ : Set_intf.S = List_set

(* The reference is itself checked against {!Ostree} on sets built by
   the same add/remove sequences, so a disagreement in the execution
   checks below points at KKβ, not at the reference. *)

let apply_set_ops ?(cap = 200) ops =
  let ls = List_set.create cap and os = Ostree.create cap in
  List.iter
    (fun (is_add, x) ->
      if is_add then (List_set.add x ls; Ostree.add x os)
      else (List_set.remove x ls; Ostree.remove x os))
    ops;
  (ls, os)

let set_ops_gen hi = QCheck.(list (pair bool (int_range 1 hi)))

let prop_list_set_invariants =
  QCheck.Test.make ~name:"list set: invariants after ops" ~count:500
    (set_ops_gen 200) (fun ops ->
      let ls, _ = apply_set_ops ops in
      List_set.check_invariants ls;
      true)

let prop_list_set_elements =
  QCheck.Test.make ~name:"list set and ostree agree on elements" ~count:800
    (set_ops_gen 80) (fun ops ->
      let ls, os = apply_set_ops ops in
      List_set.elements ls = Ostree.elements os
      && List_set.cardinal ls = Ostree.cardinal os)

let prop_list_set_queries =
  QCheck.Test.make ~name:"list set: select/rank/count_le = ostree" ~count:400
    (set_ops_gen 60) (fun ops ->
      let ls, os = apply_set_ops ops in
      let k = List_set.cardinal ls in
      k = Ostree.cardinal os
      && List.for_all
           (fun i ->
             let x = List_set.select ls i in
             x = Ostree.select os i && List_set.rank x ls = Ostree.rank x os)
           (List.init k (fun i -> i + 1))
      && List.for_all
           (fun x -> List_set.count_le x ls = Ostree.count_le x os)
           (List.init 80 (fun i -> i + 1)))

let prop_list_set_rank_diff =
  QCheck.Test.make ~name:"list set: rank_diff agrees with ostree" ~count:300
    QCheck.(pair (set_ops_gen 100) (list_of_size Gen.(0 -- 12) (int_range 1 110)))
    (fun (ops, tries) ->
      let ls, os = apply_set_ops ops and b = Trybuf.of_list tries in
      let d = List_set.diff_cardinal ls b in
      d = Ostree.diff_cardinal os b
      && List.for_all
           (fun i -> List_set.rank_diff ls b i = Ostree.rank_diff os b i)
           (List.init d (fun i -> i + 1)))

let test_list_set_sequential_deletions () =
  (* ascending, descending and middle-out drains, compared step by step *)
  let check_drain order =
    let ls = List_set.of_range 1 64 and os = Ostree.of_range 1 64 in
    List.iter
      (fun x ->
        List_set.remove x ls;
        Ostree.remove x os;
        List_set.check_invariants ls;
        Alcotest.(check (list int))
          (Printf.sprintf "after removing %d" x)
          (Ostree.elements os) (List_set.elements ls))
      order
  in
  check_drain (List.init 64 (fun i -> i + 1));
  check_drain (List.init 64 (fun i -> 64 - i));
  check_drain
    (List.init 64 (fun i -> if i mod 2 = 0 then 32 - (i / 2) else 33 + (i / 2)))

module Kk_list = Core.Kk.Make (List_set)

let run_list_backend ?(adversary = Shm.Adversary.none) ~scheduler ~n ~m ~beta
    () =
  let metrics = Shm.Metrics.create ~m in
  let shared = Kk_list.make_shared ~metrics ~m ~capacity:n ~name:"kk" () in
  let handles =
    Array.init m (fun i ->
        Kk_list.handle
          (Kk_list.create ~shared ~pid:(i + 1) ~beta
             ~policy:Core.Policy.Rank_split ~free:(List_set.of_range 1 n)
             ~mode:Core.Kk.Standalone ()))
  in
  let outcome =
    Shm.Executor.run ~scheduler ~adversary handles
  in
  Shm.Trace.do_events outcome.Shm.Executor.trace

let test_backends_produce_identical_executions () =
  (* the algorithm is deterministic given the schedule, and the bitset
     and the list reference implement the same abstract set, so the
     executions must agree event-for-event *)
  let n = 120 and m = 4 in
  List.iter
    (fun beta ->
      let ostree =
        (Core.Harness.kk ~scheduler:(Shm.Schedule.round_robin ()) ~n ~m ~beta ())
          .Core.Harness.dos
      in
      let reference =
        run_list_backend ~scheduler:(Shm.Schedule.round_robin ()) ~n ~m ~beta
          ()
      in
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "identical do-logs (beta=%d)" beta)
        ostree reference)
    [ m; 2 * m; 3 * m * m ]

let test_backends_identical_under_random_schedule () =
  for seed = 0 to 5 do
    let record, picks =
      Shm.Schedule.recording (Shm.Schedule.random (Util.Prng.of_int seed))
    in
    let ostree =
      (Core.Harness.kk ~scheduler:record ~n:80 ~m:3 ~beta:3 ())
        .Core.Harness.dos
    in
    let reference =
      run_list_backend
        ~scheduler:(Shm.Schedule.fixed (picks ()))
        ~n:80 ~m:3 ~beta:3 ()
    in
    Alcotest.(check (list (pair int int)))
      (Printf.sprintf "seed %d" seed)
      ostree reference
  done

let test_list_backend_under_crashes () =
  (* crashes leave stuck jobs in TRY sets and exercise [rank_diff]
     against non-trivial exclusions; the backends must still agree *)
  let n = 120 and m = 4 in
  for seed = 0 to 3 do
    let adversary () =
      Shm.Adversary.random (Util.Prng.of_int (100 + seed)) ~f:2 ~m
        ~horizon:(4 * n)
    in
    let record, picks =
      Shm.Schedule.recording (Shm.Schedule.random (Util.Prng.of_int seed))
    in
    let ostree =
      (Core.Harness.kk ~scheduler:record ~adversary:(adversary ()) ~n ~m
         ~beta:m ())
        .Core.Harness.dos
    in
    let reference =
      run_list_backend ~adversary:(adversary ())
        ~scheduler:(Shm.Schedule.fixed (picks ()))
        ~n ~m ~beta:m ()
    in
    Helpers.check_amo reference;
    Alcotest.(check (list (pair int int)))
      (Printf.sprintf "seed %d" seed)
      ostree reference
  done

(* ---- configuration fuzzing ---- *)

let prop_config_fuzz =
  QCheck.Test.make
    ~name:"safety + wait-freedom + Thm 4.4 over random configurations"
    ~count:60
    QCheck.(
      quad (int_range 2 10) (int_range 0 150) (int_range 1 3)
        (int_range 0 100_000))
    (fun (m, extra, beta_mult, seed) ->
      let n = (2 * m) - 1 + extra in
      let beta = beta_mult * m in
      let rng = Util.Prng.of_int seed in
      let f = Util.Prng.int rng m in
      let s =
        Core.Harness.kk
          ~scheduler:(Shm.Schedule.random (Util.Prng.split rng))
          ~adversary:(Shm.Adversary.random rng ~f ~m ~horizon:(4 * n))
          ~n ~m ~beta ()
      in
      let amo =
        match Core.Spec.check_at_most_once s.Core.Harness.dos with
        | Ok () -> true
        | Error _ -> false
      in
      amo && s.Core.Harness.wait_free
      && s.Core.Harness.do_count >= n - (beta + m - 2))

let suite =
  [
    Helpers.qtest prop_config_fuzz;
    Helpers.qtest prop_free_is_free0_minus_done;
    Alcotest.test_case "backends produce identical executions" `Quick
      test_backends_produce_identical_executions;
    Alcotest.test_case "backends identical under random schedules" `Quick
      test_backends_identical_under_random_schedule;
    Alcotest.test_case "list-set backend under crashes" `Quick
      test_list_backend_under_crashes;
    Alcotest.test_case "list set: sequential deletions" `Quick
      test_list_set_sequential_deletions;
    Helpers.qtest prop_list_set_invariants;
    Helpers.qtest prop_list_set_elements;
    Helpers.qtest prop_list_set_queries;
    Helpers.qtest prop_list_set_rank_diff;
    Alcotest.test_case "amo: round robin" `Quick test_amo_round_robin;
    Alcotest.test_case "amo: all schedulers" `Quick test_amo_all_schedulers;
    Alcotest.test_case "amo: random crashes" `Quick test_amo_with_random_crashes;
    Alcotest.test_case "amo: random policy" `Quick test_amo_random_policy;
    Alcotest.test_case "amo: lowest-free policy" `Quick
      test_amo_lowest_free_policy;
    Alcotest.test_case "lowest-free livelocks under rr" `Quick
      test_lowest_free_can_livelock;
    Alcotest.test_case "amo: edge configs" `Quick test_amo_edge_configs;
    Alcotest.test_case "wait-free over many seeds" `Quick
      test_wait_free_many_seeds;
    Alcotest.test_case "effectiveness guarantee (Thm 4.4 >=)" `Quick
      test_effectiveness_guarantee;
    Alcotest.test_case "failure-free does all jobs" `Quick
      test_effectiveness_failure_free_is_n;
    Alcotest.test_case "upper bound n-f respected (Thm 2.1)" `Quick
      test_upper_bound_never_exceeded;
    Alcotest.test_case "worst-case adversary exact (Thm 4.4 tight)" `Quick
      test_worst_case_adversary_exact;
    Alcotest.test_case "worst-case leaves stuck jobs" `Quick
      test_worst_case_stuck_jobs_never_done;
    Alcotest.test_case "collision bound (Lemma 5.5)" `Quick
      test_collision_bound_beta_3m2;
    Alcotest.test_case "collision bound many seeds" `Quick
      test_collision_bound_many_seeds;
    Alcotest.test_case "work roughly linear in n" `Quick
      test_work_grows_linearly_in_n;
    Alcotest.test_case "internal invariants during run" `Quick
      test_internal_invariants_during_run;
    Alcotest.test_case "DONE matches trace" `Quick
      test_done_set_matches_shared_memory;
    Alcotest.test_case "status progression" `Quick test_status_progression;
    Alcotest.test_case "crash idempotent and final" `Quick
      test_crash_is_idempotent_and_final;
    Alcotest.test_case "create validation" `Quick test_create_validation;
    Alcotest.test_case "restart restores FREE0" `Quick
      test_restart_restores_free0;
    Alcotest.test_case "iter-step: amo" `Quick test_iter_step_amo;
    Alcotest.test_case "iter-step: flag raised" `Quick
      test_iter_step_flag_set_on_termination;
    Alcotest.test_case "iter-step: outputs unperformed (Lemma 6.2)" `Quick
      test_iter_step_outputs_unperformed;
    Alcotest.test_case "iter-step: keep_try covers rest" `Quick
      test_iter_step_keep_try_covers_rest;
    Alcotest.test_case "heterogeneous FREE sets" `Quick
      test_heterogeneous_free_sets;
    Alcotest.test_case "verbose traces audit + match metrics" `Quick
      test_verbose_traces_audit;
    Alcotest.test_case "bounded-exhaustive interleavings" `Slow
      test_bounded_exhaustive_small;
  ]
