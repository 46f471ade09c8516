(* Tests for the high-level Harness API — the entry points downstream
   users call. *)

let test_kk_defaults () =
  let s = Core.Harness.kk ~n:60 ~m:3 ~beta:3 () in
  Helpers.check_amo s.Core.Harness.dos;
  Alcotest.(check bool) "wait free" true s.Core.Harness.wait_free;
  Alcotest.(check int) "do_count consistent"
    (Core.Spec.do_count s.Core.Harness.dos)
    s.Core.Harness.do_count;
  Alcotest.(check (list int)) "no crashes by default" [] s.Core.Harness.crashed;
  (* metrics are live: the run did shared accesses *)
  Alcotest.(check bool) "reads metered" true
    (Shm.Metrics.total_reads s.Core.Harness.metrics > 0);
  (* default trace level records outcomes *)
  Alcotest.(check bool) "trace has events" true
    (Shm.Trace.length s.Core.Harness.trace > 0)

let test_kk_trace_levels () =
  let silent = Core.Harness.kk ~trace_level:`Silent ~n:30 ~m:2 ~beta:2 () in
  Alcotest.(check int) "silent trace empty" 0
    (Shm.Trace.length silent.Core.Harness.trace);
  (* do_count is 0 with a silent trace (documented: it derives from
     the trace); steps still counted *)
  Alcotest.(check bool) "steps counted" true (silent.Core.Harness.steps > 0)

let test_worst_case_wrapper () =
  let s = Core.Harness.kk_worst_case ~n:64 ~m:4 ~beta:4 () in
  Alcotest.(check int) "m-1 crashes" 3 (List.length s.Core.Harness.crashed);
  Alcotest.(check int) "exact bound" (64 - (4 + 4 - 2)) s.Core.Harness.do_count

let test_writeall_boolean () =
  let _, complete = Core.Harness.writeall_iterative ~n:256 ~m:2 ~epsilon_inv:1 () in
  Alcotest.(check bool) "complete" true complete

let test_claim_scan_wrapper () =
  let s = Core.Harness.claim_scan ~n:50 ~m:3 () in
  Helpers.check_amo s.Core.Harness.dos;
  Alcotest.(check int) "optimal" 50 s.Core.Harness.do_count

let test_iterative_verbose_full_trace () =
  let metrics = Shm.Metrics.create ~m:2 in
  let plan = Core.Iterative.create ~metrics ~n:256 ~m:2 ~epsilon_inv:1 ~mode:`Amo in
  let handles = Core.Iterative.processes ~verbose:true plan in
  let outcome =
    Shm.Executor.run ~trace_level:`Full
      ~scheduler:(Shm.Schedule.round_robin ())
      ~adversary:Shm.Adversary.none handles
  in
  Analysis.Audit.assert_ok ~m:2 outcome.Shm.Executor.trace;
  (* full trace contains reads/writes from the inner IterStepKKs *)
  let rows = Analysis.Timeline.of_trace ~m:2 outcome.Shm.Executor.trace in
  Alcotest.(check bool) "verbose reads recorded" true
    (rows.(1).Analysis.Timeline.reads > 0);
  Helpers.check_amo (Shm.Trace.do_events outcome.Shm.Executor.trace)

(* A run stopped by the executor's step cap (n = 400000 at m = 1
   needs about 2.8 M steps; the default cap is 1 M) must not pass. *)
let test_cli_truncated_run_fails () =
  let out, status =
    Helpers.run_capture
      (Filename.quote (Helpers.amo_exe ()) ^ " kk -n 400000 -m 1 2>&1")
  in
  Alcotest.(check bool) "prints a truncated line" true
    (List.exists
       (String.starts_with ~prefix:"truncated")
       (String.split_on_char '\n' out));
  Alcotest.(check int) "exits 1" 1 (Helpers.exit_code status)

(* The JSON summary states the same verdict: [truncated] is true for a
   run stopped at the step cap and false for one that quiesced. *)
let test_cli_json_truncated () =
  let run args =
    let out, status =
      Helpers.run_capture (Filename.quote (Helpers.amo_exe ()) ^ args)
    in
    let truncated =
      match Obs.Json.parse out with
      | Ok j -> Option.bind (Obs.Json.member "truncated" j) Obs.Json.get_bool
      | Error e -> Alcotest.failf "%s: bad JSON (%s)" args e
    in
    (truncated, Helpers.exit_code status)
  in
  let truncated, code = run " kk -n 400000 -m 1 --json" in
  Alcotest.(check (option bool)) "cut run: truncated" (Some true) truncated;
  Alcotest.(check int) "cut run: exits 1" 1 code;
  let truncated, code = run " kk -n 200 -m 4 --json" in
  Alcotest.(check (option bool)) "passing run: not truncated" (Some false)
    truncated;
  Alcotest.(check int) "passing run: exits 0" 0 code

(* [amo_run msg] reports [truncated] and exits 1 when a client is
   still waiting at the end: the command crashes no server, so only the
   delivery cap can strand one.  That cap is derived from n and m; cut
   below what the run needs (n = 2000, m = 4 spends about 240 k
   deliveries), every client is left waiting.  Under the derived cap,
   n = 2000 and n = 20000 (2.4 M deliveries, above ABD's fixed 2 M
   default) complete, and the CLI says so and exits 0. *)
let test_cli_msg_truncated () =
  let o =
    Msg.Kk_mp.run_kk ~max_deliveries:50_000 ~servers:3 ~n:2000 ~m:4 ~beta:4
      ~rng:(Util.Prng.of_int 42) ()
  in
  Alcotest.(check (list int)) "cut run: every client waiting" [ 1; 2; 3; 4 ]
    (List.sort compare o.Msg.Kk_mp.stuck);
  Alcotest.(check int) "cut run: stopped at the cap" 50_000
    o.Msg.Kk_mp.deliveries;
  List.iter
    (fun n ->
      let args = Printf.sprintf " msg -n %d -m 4 --json" n in
      let out, status =
        Helpers.run_capture (Filename.quote (Helpers.amo_exe ()) ^ args)
      in
      let truncated =
        match Obs.Json.parse out with
        | Ok j -> Option.bind (Obs.Json.member "truncated" j) Obs.Json.get_bool
        | Error e -> Alcotest.failf "%s: bad JSON (%s)" args e
      in
      Alcotest.(check (option bool))
        (Printf.sprintf "n=%d: not truncated" n)
        (Some false) truncated;
      Alcotest.(check int)
        (Printf.sprintf "n=%d: exits 0" n)
        0
        (Helpers.exit_code status))
    [ 2000; 20000 ]

(* [amo_run chaos --plan] on a message-passing plan: [--max-steps] is
   the delivery budget, and a run stopped there prints a [truncated]
   line, reports it in JSON with no oracle violation, and exits 1;
   under the default budget the same plan passes. *)
let test_cli_chaos_net_truncated () =
  let plan =
    Fault.Plan.make ~name:"capped" ~seed:5 ~n:40 ~m:3 ~beta:3
      ~net:[ Fault.Plan.Duplicate { prob = 0.2; from_tick = 0; len = 200 } ]
      ()
  in
  let path = Filename.temp_file "amo_net_plan" ".json" in
  Fault.Plan.save ~path plan;
  let run args =
    let out, status =
      Helpers.run_capture
        (Filename.quote (Helpers.amo_exe ()) ^ " chaos --plan "
       ^ Filename.quote path ^ args)
    in
    (out, Helpers.exit_code status)
  in
  let json args =
    let out, code = run (args ^ " --json") in
    match Obs.Json.parse out with
    | Ok j ->
        let violations =
          match Obs.Json.member "violations" j with
          | Some (Obs.Json.List l) -> List.length l
          | _ -> Alcotest.failf "%s: no violations list" args
        in
        ( Option.bind (Obs.Json.member "truncated" j) Obs.Json.get_bool,
          violations,
          code )
    | Error e -> Alcotest.failf "%s: bad JSON (%s)" args e
  in
  let out, code = run " --max-steps 300 2>&1" in
  Alcotest.(check bool) "cut run: prints a truncated line" true
    (List.exists
       (String.starts_with ~prefix:"truncated")
       (String.split_on_char '\n' out));
  Alcotest.(check int) "cut run: exits 1" 1 code;
  let truncated, violations, code = json " --max-steps 300" in
  Alcotest.(check (option bool)) "cut run: truncated" (Some true) truncated;
  Alcotest.(check int) "cut run: no violation" 0 violations;
  Alcotest.(check int) "cut run: --json exits 1" 1 code;
  let truncated, violations, code = json "" in
  Alcotest.(check (option bool)) "default budget: not truncated" (Some false)
    truncated;
  Alcotest.(check int) "default budget: no violation" 0 violations;
  Alcotest.(check int) "default budget: exits 0" 0 code;
  Sys.remove path

let suite =
  [
    Alcotest.test_case "kk defaults" `Quick test_kk_defaults;
    Alcotest.test_case "kk trace levels" `Quick test_kk_trace_levels;
    Alcotest.test_case "worst-case wrapper" `Quick test_worst_case_wrapper;
    Alcotest.test_case "writeall boolean" `Quick test_writeall_boolean;
    Alcotest.test_case "claim-scan wrapper" `Quick test_claim_scan_wrapper;
    Alcotest.test_case "iterative verbose full trace" `Quick
      test_iterative_verbose_full_trace;
    Alcotest.test_case "cli: truncated kk run exits 1" `Quick
      test_cli_truncated_run_fails;
    Alcotest.test_case "cli: --json reports truncated" `Quick
      test_cli_json_truncated;
    Alcotest.test_case "cli: truncated msg run exits 1" `Quick
      test_cli_msg_truncated;
    Alcotest.test_case "cli: truncated chaos net plan exits 1" `Quick
      test_cli_chaos_net_truncated;
  ]
