(* Wall-clock timing series (Bechamel).

   One Test.make per experiment configuration: the simulator-level
   experiments E1-E8 measure work in the paper's basic-operation
   ledger; this series ties those counts to actual seconds on the
   host, one benchmark per algorithm/table, plus microbenchmarks of
   the order-statistic substrate the algorithm leans on. *)

open Bechamel
open Toolkit

let kk_test ~name ~n ~m ~beta =
  Test.make ~name
    (Staged.stage (fun () ->
         ignore (Core.Harness.kk ~trace_level:`Silent ~n ~m ~beta ())))

let tests =
  Test.make_grouped ~name:"amo" ~fmt:"%s %s"
    [
      kk_test ~name:"kk n=1024 m=4 beta=m" ~n:1024 ~m:4 ~beta:4;
      kk_test ~name:"kk n=1024 m=4 beta=3m^2" ~n:1024 ~m:4 ~beta:48;
      kk_test ~name:"kk n=4096 m=8 beta=m" ~n:4096 ~m:8 ~beta:8;
      Test.make ~name:"iterative n=4096 m=4 eps=1/2"
        (Staged.stage (fun () ->
             ignore
               (Core.Harness.iterative ~trace_level:`Silent ~n:4096 ~m:4
                  ~epsilon_inv:2 ())));
      Test.make ~name:"wa-iterative n=4096 m=4 eps=1/2"
        (Staged.stage (fun () ->
             ignore
               (Core.Harness.writeall_iterative ~trace_level:`Silent ~n:4096
                  ~m:4 ~epsilon_inv:2 ())));
      Test.make ~name:"trivial n=4096 m=4"
        (Staged.stage (fun () ->
             ignore (Core.Harness.trivial ~trace_level:`Silent ~n:4096 ~m:4 ())));
      Test.make ~name:"pairing n=4096 m=4"
        (Staged.stage (fun () ->
             ignore (Core.Harness.pairing ~trace_level:`Silent ~n:4096 ~m:4 ())));
      Test.make ~name:"ostree of_range n=4096"
        (Staged.stage (fun () -> ignore (Ostree.of_range 1 4096)));
      Test.make ~name:"ostree rank_diff (|TRY|=8, n=4096)"
        (let s1 = Ostree.of_range 1 4096 in
         let s2 = Trybuf.of_list [ 5; 100; 600; 1200; 2000; 2500; 3000; 4000 ] in
         Staged.stage (fun () -> ignore (Ostree.rank_diff s1 s2 2048)));
      (* the algorithm's access pattern on the set: interleaved
         add/remove/select churn *)
      Test.make ~name:"ostree churn 512 ops"
        (Staged.stage (fun () ->
             let t = Ostree.build 512 (fun add -> for i = 1 to 256 do add i done) in
             for i = 1 to 256 do
               Ostree.remove i t;
               Ostree.add (256 + i) t;
               ignore (Ostree.select t ((i mod Ostree.cardinal t) + 1))
             done));
    ]

(* Measurement methodology, recorded verbatim into the snapshot's
   timing block so archived numbers are self-describing. *)
let run_limit = 2000
let quota_seconds = 0.5
let clock_source = "bechamel:monotonic-clock"

let benchmark () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:run_limit
      ~quota:(Time.second quota_seconds)
      ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  Analyze.merge ols instances results

let run () =
  Exp_common.section ~id:"bechamel"
    ~title:"Wall-clock timings (Bechamel, monotonic clock)"
    ~claim:
      "ties the ledger's basic-operation counts to actual seconds on the host";
  (* bechamel's OLS over the run predictor subsumes warm-up: samples at
     every batch size contribute, none are discarded *)
  Exp_common.record_timing ~iterations:run_limit ~warmup:0 ~clock:clock_source;
  Exp_common.param_int "run_limit" run_limit;
  Exp_common.param_str "quota" (Printf.sprintf "%gs" quota_seconds);
  let results = benchmark () in
  let clock = Measure.label Instance.monotonic_clock in
  let tbl = Hashtbl.find results clock in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] -> rows := (name, est) :: !rows
      | _ -> ())
    tbl;
  List.iter
    (fun (name, ns) ->
      if ns >= 1e6 then Printf.printf "  %-40s %10.3f ms/run\n" name (ns /. 1e6)
      else Printf.printf "  %-40s %10.1f ns/run\n" name ns;
      Exp_common.record_metric name ns)
    (List.sort compare !rows);
  Exp_common.verdict (!rows <> []) "%d timing series measured"
    (List.length !rows)
