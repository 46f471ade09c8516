(* The direct-style backends against each other and against the
   simulator.

   - Pins, recorded before the two backends shared Core.Kk_direct:
     full outcomes of the message-passing backend (whose ABD delivery
     schedule depends on the exact order of every shared read and
     write); the domain backend at one domain (deterministic: dos,
     per-process counts and the Shm.Metrics totals it charges); and
     the domain backend's charges with several processes run one after
     another.  Any reordered access or moved charge changes a pin.
   - Differential: at m = 1 the simulator automaton (Core.Harness), the
     domain runner and the ABD clients perform exactly the same jobs in
     the same order, for KKβ and for IterativeKK(ε). *)

let md5 s = Digest.to_hex (Digest.string s)

let digest_dos dos =
  let b = Buffer.create 4096 in
  List.iter (fun (p, j) -> Printf.bprintf b "%d:%d;" p j) dos;
  md5 (Buffer.contents b)

let ints l = String.concat "," (List.map string_of_int l)

(* ---- message passing ---- *)

let mp_pin (o : Msg.Kk_mp.outcome) =
  Printf.sprintf "dos=%d/%s completed=[%s] stuck=[%s] crashed=[%s] deliveries=%d"
    (List.length o.dos) (digest_dos o.dos) (ints o.completed) (ints o.stuck)
    (ints o.crashed_clients) o.deliveries

let crash_plan = [ (150, `Client 2); (400, `Server 1) ]

let test_pin_mp_kk () =
  let expected =
    [
      ( 1,
        false,
        "dos=40/fb8c5be0c159c032aa1c49126487333e completed=[1,2,3] stuck=[] crashed=[] deliveries=3298" );
      ( 2,
        false,
        "dos=39/a61f3dcdef9509777061b79446dfc3a4 completed=[1,2,3] stuck=[] crashed=[] deliveries=3215" );
      ( 3,
        false,
        "dos=39/78861d471854cceb3b3f55f2939f0cd1 completed=[1,2,3] stuck=[] crashed=[] deliveries=3308" );
      ( 1,
        true,
        "dos=37/15399b8978f97786931f3019043b37ee completed=[1,3] stuck=[] crashed=[2] deliveries=2311" );
      ( 2,
        true,
        "dos=39/545518080da681787eef46a6f929a464 completed=[1,3] stuck=[] crashed=[2] deliveries=2398" );
      ( 3,
        true,
        "dos=38/8a576ca5af751d1b676d04875fddf468 completed=[1,3] stuck=[] crashed=[2] deliveries=2372" );
    ]
  in
  List.iter
    (fun (seed, crash, want) ->
      let o =
        Msg.Kk_mp.run_kk
          ?crash_plan:(if crash then Some crash_plan else None)
          ~servers:3 ~n:40 ~m:3 ~beta:3 ~rng:(Util.Prng.of_int seed) ()
      in
      Alcotest.(check string)
        (Printf.sprintf "run_kk seed %d crash %b" seed crash)
        want (mp_pin o))
    expected

let test_pin_mp_iterative () =
  let expected =
    [
      ( 1,
        false,
        "dos=85/663409b757f494a97f07113f16c9a649 completed=[1,2] stuck=[] crashed=[] deliveries=2597" );
      ( 2,
        false,
        "dos=82/a2f35a88355c48a0e44d86837101cde8 completed=[1,2] stuck=[] crashed=[] deliveries=2446" );
      ( 3,
        false,
        "dos=86/8d995425691edebe89c2869858a6357a completed=[1,2] stuck=[] crashed=[] deliveries=3256" );
      ( 1,
        true,
        "dos=75/ac88b15123fb19b850a9ebc53bb1dbd4 completed=[1] stuck=[] crashed=[2] deliveries=2011" );
      ( 2,
        true,
        "dos=75/ac88b15123fb19b850a9ebc53bb1dbd4 completed=[1] stuck=[] crashed=[2] deliveries=2011" );
      ( 3,
        true,
        "dos=85/7f4a293de3c40dd69f7a7397907aada1 completed=[1] stuck=[] crashed=[2] deliveries=2027" );
    ]
  in
  List.iter
    (fun (seed, crash, want) ->
      let o =
        Msg.Kk_mp.run_iterative
          ?crash_plan:(if crash then Some crash_plan else None)
          ~servers:3 ~n:96 ~m:2 ~epsilon_inv:2 ~rng:(Util.Prng.of_int seed) ()
      in
      Alcotest.(check string)
        (Printf.sprintf "run_iterative seed %d crash %b" seed crash)
        want (mp_pin o))
    expected

(* ---- domains, one domain ---- *)

let ledger_totals l =
  Printf.sprintf "reads=%d writes=%d internals=%d work=%d"
    (Shm.Metrics.total_reads l) (Shm.Metrics.total_writes l)
    (Shm.Metrics.total_internals l) (Shm.Metrics.total_work l)

let mc_pin (o : Multicore.Runner.outcome) =
  Printf.sprintf "dos=%d/%s per_process=[%s] %s" (List.length o.dos)
    (digest_dos o.dos)
    (ints (Array.to_list o.per_process))
    (ledger_totals o.metrics)

let test_pin_mc_kk () =
  let run ?policy ?job_budget ~n ~beta () =
    mc_pin (Multicore.Runner.run_kk ?policy ?job_budget ~n ~m:1 ~beta ())
  in
  let check label want got = Alcotest.(check string) label want got in
  check "n=200 beta=1"
    "dos=200/ccc0826211f1d1a6fa3c1cb0a7af45b0 per_process=[0,200] reads=0 writes=400 internals=600 work=8200"
    (run ~n:200 ~beta:1 ());
  check "n=1000 beta=7"
    "dos=994/6088fe3de0e2db785516ccbe13eab620 per_process=[0,994] reads=0 writes=1988 internals=2982 work=50694"
    (run ~n:1000 ~beta:7 ());
  check "budget 50"
    "dos=50/e0feb9d66dd2384a2f3b753fcfdbab48 per_process=[0,50] reads=0 writes=100 internals=150 work=2050"
    (run ~job_budget:(fun ~pid:_ -> 50) ~n:200 ~beta:1 ());
  check "random policy"
    "dos=299/ddaee454689f56874b931fc1cfec560e per_process=[0,299] reads=0 writes=598 internals=897 work=13754"
    (run
       ~policy:(fun ~pid -> Core.Policy.Random (Util.Prng.of_int pid))
       ~n:300 ~beta:2 ())

let test_pin_mc_iterative () =
  List.iter
    (fun (epsilon_inv, want) ->
      Alcotest.(check string)
        (Printf.sprintf "n=2000 eps_inv=%d" epsilon_inv)
        want
        (mc_pin (Multicore.Runner.run_iterative ~n:2000 ~m:1 ~epsilon_inv ())))
    [
      ( 1,
        "dos=1998/897947dafac00644ff0928a8f2964fe5 per_process=[0,1998] reads=198 writes=399 internals=594 work=8388" );
      ( 2,
        "dos=1998/897947dafac00644ff0928a8f2964fe5 per_process=[0,1998] reads=198 writes=400 internals=594 work=8388" );
    ]

(* ---- several processes run one after another ---- *)

(* Real domains interleave at random, so the charges made while
   gathering other processes' cells are pinned here instead: each
   process runs to the end (or its budget) before the next starts, over
   the runner's atomic cells.  Recorded from the runner's own loops
   before they moved into Core.Kk_direct. *)

let atomic_mem next done_m pid =
  let module A = Multicore.Atomic_mem in
  {
    Core.Kk_direct.cols = A.mcols done_m;
    read_next = A.vget next;
    write_next = A.vset next pid;
    read_done = A.mget done_m;
    write_done = A.mset done_m pid;
  }

let test_pin_sequential_kk () =
  let n = 60 and m = 3 in
  let next = Multicore.Atomic_mem.vector ~len:m ~init:0 in
  let done_m = Multicore.Atomic_mem.matrix ~rows:m ~cols:n ~init:0 in
  let ledger = Shm.Metrics.create ~m in
  let logs =
    List.map
      (fun (pid, budget) ->
        let jobs = ref [] in
        Core.Kk_direct.kk ~ledger ~budget ~m ~beta:3
          ~policy:Core.Policy.Rank_split ~pid (atomic_mem next done_m pid)
          ~do_job:(fun j -> jobs := j :: !jobs);
        Printf.sprintf "p%d=%s" pid (md5 (ints (List.rev !jobs))))
      [ (1, 20); (2, max_int); (3, max_int) ]
  in
  Alcotest.(check string) "p1 (budget 20), p2, p3"
    "p1=491004f03de80c2c4525364ef8a8c83c p2=a0e267543f89acbc9b5487970fde7a55 \
     p3=d41d8cd98f00b204e9800998ecf8427e reads=318 writes=118 internals=178 \
     work=3244"
    (String.concat " " (logs @ [ ledger_totals ledger ]))

let test_pin_sequential_iterative () =
  let n = 300 and m = 2 in
  let hierarchy =
    Core.Superjob.build ~n ~sizes:(Core.Iterative.sizes ~n ~m ~epsilon_inv:1)
  in
  let levels =
    Array.init (Core.Superjob.num_levels hierarchy) (fun l ->
        ( Multicore.Atomic_mem.vector ~len:m ~init:0,
          Multicore.Atomic_mem.matrix ~rows:m
            ~cols:(Core.Superjob.block_count hierarchy l)
            ~init:0,
          Atomic.make 0 ))
  in
  let ledger = Shm.Metrics.create ~m in
  let logs =
    List.map
      (fun pid ->
        let performed = ref [] in
        Core.Kk_direct.iterative ~ledger ~hierarchy ~m ~pid
          (fun l ->
            let next, done_m, flag = levels.(l) in
            ( atomic_mem next done_m pid,
              {
                Core.Kk_direct.is_set = (fun () -> Atomic.get flag = 1);
                set = (fun () -> Atomic.set flag 1);
              } ))
          ~perform:(fun ~level id ->
            performed := Printf.sprintf "%d:%d" level id :: !performed);
        Printf.sprintf "p%d=%s" pid
          (md5 (String.concat ";" (List.rev !performed))))
      [ 1; 2 ]
  in
  Alcotest.(check string) "p1, p2"
    "p1=3f025a7d9c9dd7cf800e7475c145df85 p2=d41d8cd98f00b204e9800998ecf8427e \
     reads=415 writes=206 internals=303 work=6037"
    (String.concat " " (logs @ [ ledger_totals ledger ]))

(* ---- differential at m = 1 ---- *)

let check_same label (sim : (int * int) list) mc mp =
  Alcotest.(check (list (pair int int))) (label ^ ": domains = simulator") sim mc;
  Alcotest.(check (list (pair int int))) (label ^ ": ABD = simulator") sim mp

let test_differential_kk () =
  List.iter
    (fun (n, beta) ->
      let sim = (Core.Harness.kk ~n ~m:1 ~beta ()).dos in
      let mc = (Multicore.Runner.run_kk ~n ~m:1 ~beta ()).dos in
      let mp =
        (Msg.Kk_mp.run_kk ~servers:3 ~n ~m:1 ~beta ~rng:(Util.Prng.of_int n) ())
          .dos
      in
      check_same (Printf.sprintf "kk n=%d beta=%d" n beta) sim mc mp)
    [ (200, 1); (200, 3); (1000, 7) ]

let test_differential_iterative () =
  let n = 2000 in
  List.iter
    (fun epsilon_inv ->
      let sim = (Core.Harness.iterative ~n ~m:1 ~epsilon_inv ()).dos in
      let mc = (Multicore.Runner.run_iterative ~n ~m:1 ~epsilon_inv ()).dos in
      let mp =
        (Msg.Kk_mp.run_iterative ~servers:3 ~n ~m:1 ~epsilon_inv
           ~rng:(Util.Prng.of_int epsilon_inv) ())
          .dos
      in
      check_same (Printf.sprintf "iterative eps_inv=%d" epsilon_inv) sim mc mp)
    [ 1; 2; 3 ]

let suite =
  [
    Alcotest.test_case "pin: kk-mp run_kk outcomes" `Quick test_pin_mp_kk;
    Alcotest.test_case "pin: kk-mp run_iterative outcomes" `Quick
      test_pin_mp_iterative;
    Alcotest.test_case "pin: runner run_kk at m=1" `Quick test_pin_mc_kk;
    Alcotest.test_case "pin: runner run_iterative at m=1" `Quick
      test_pin_mc_iterative;
    Alcotest.test_case "pin: kk charges, processes in turn" `Quick
      test_pin_sequential_kk;
    Alcotest.test_case "pin: iterative charges, processes in turn" `Quick
      test_pin_sequential_iterative;
    Alcotest.test_case "differential: kk at m=1" `Quick test_differential_kk;
    Alcotest.test_case "differential: iterative at m=1" `Quick
      test_differential_iterative;
  ]
