(* The five workloads.  Each is a closed loop of independent instances
   driven through the library's public entry points.  [run] times one
   untraced instance and checks its verdict after the clock stops;
   [traced] rebuilds the same instance from the same public calls with
   meters on the seams the library exposes (a [Core.Kk.Make] over
   {!Timed_ostree}, wrapped handle closures, [Schedule.custom],
   [Adversary.custom], the [Abd.run ?deliver] and body wrappers, the
   explorer's [factory]).  No library code is changed. *)

type result = {
  secs : float;  (** wall time of the public call(s) that form the instance *)
  jobs : int;  (** distinct jobs performed, summed over executions *)
  execs : int;  (** complete executions: 1, or the explorer's count *)
  eff : float;  (** mean Do(α)/n over the executions *)
  work : float;  (** work units per job of the universe *)
  setup : float option;  (** set-up seconds observed inside the instance *)
  ok : bool;  (** every verdict held *)
  counts : int list;  (** exact-repeat counts: equal for equal seeds *)
}

type t = {
  name : string;
  domains : int;  (** domains an instance runs on *)
  prepare : unit -> unit;  (** untimed work done once per process *)
  setup_probe : (unit -> float) option;
      (** one separate set-up measurement, when set-up is not
          observable inside an instance *)
  setup_reps : int;
  run : seed:int -> result;
  traced : seed:int -> result;
  layers : unit -> (string * float) list;
      (** per-layer metrics accumulated by [traced] *)
}

let fi = float_of_int
let read_cost () = !Meter.read_cost

let median = function
  | [] -> 0.
  | xs -> Util.Stats.median (Array.of_list xs)

let amo_ok dos = Result.is_ok (Core.Spec.check_at_most_once dos)

let kk_floor ~n ~m ~beta = n - (beta + m - 2)

(* The verdict every instance must pass: at-most-once, the
   effectiveness floor, and a run that ended by itself (quiescent
   executor, no stuck client).  The self-test feeds it capped runs. *)
let check ~floor ~completed ~dos ~do_count =
  completed && amo_ok dos && do_count >= floor

(* Each instance derives its generators from its own seed. *)
let rngs seed =
  let g = Util.Prng.of_int seed in
  let a = Util.Prng.split g in
  let b = Util.Prng.split g in
  (a, b)

(* Wall seconds of one call whose result is thrown away. *)
let timed f () =
  let t0 = Meter.now () in
  ignore (Sys.opaque_identity (f ()));
  Meter.since t0

(* ---------- shared-memory simulator: sim-wide and iter-large ---------- *)

module K = Core.Kk.Make (Timed_ostree)

(* The processes [Harness.kk] builds, over either set implementation:
   [Core.Kk] for untraced runs, [K] for traced ones. *)
let kk_handles (module KK : Core.Kk.S with type set = Ostree.t) ?collision
    ~metrics ~n ~m ~beta () =
  let shared = KK.make_shared ~metrics ~m ~capacity:n ~name:"kk" () in
  Array.init m (fun i ->
      KK.handle
        (KK.create ~shared ~pid:(i + 1) ~beta ~policy:Core.Policy.Rank_split
           ~free:(Core.Job.universe ~n) ?collision ~verbose:false
           ~provenance:false ~mode:Core.Kk.Standalone ()))

let step_m = Meter.create ()
let choose_m = Meter.create ()
let decide_m = Meter.create ()

type sim_acc = {
  mutable run_ns : int;  (** raw ns inside [Executor.run] *)
  mutable wall_ns : int;  (** raw ns of the traced instances *)
  mutable steps : int;
  mutable universe : int;  (** n summed over instances *)
  mutable collisions : int;
  mutable summary_s : float;
  mutable instances : int;
}

let sim_acc () =
  {
    run_ns = 0;
    wall_ns = 0;
    steps = 0;
    universe = 0;
    collisions = 0;
    summary_s = 0.;
    instances = 0;
  }

let sim_result ~n ~floor ~secs ~completed ~dos ~do_count ~steps ~metrics =
  let work = Shm.Metrics.total_work metrics in
  {
    secs;
    jobs = do_count;
    execs = 1;
    eff = fi do_count /. fi n;
    work = fi work /. fi n;
    setup = None;
    ok = check ~floor ~completed ~dos ~do_count;
    counts = [ steps; do_count; work ];
  }

(* One untraced instance through a [Core.Harness] entry point. *)
let harness_instance ~n ~floor call =
  let t0 = Meter.now () in
  let s : Core.Harness.summary = call () in
  let secs = Meter.since t0 in
  sim_result ~n ~floor ~secs ~completed:s.wait_free ~dos:s.dos
    ~do_count:s.do_count ~steps:s.steps ~metrics:s.metrics

let metered_step (h : Shm.Automaton.handle) =
  { h with step = (fun () -> Meter.time step_m h.step) }

let metered_scheduler inner =
  Shm.Schedule.custom ~name:(Shm.Schedule.name inner) (fun ~alive ->
      Meter.time choose_m (fun () -> Shm.Schedule.choose inner ~alive))

let metered_adversary inner =
  Shm.Adversary.custom ~name:(Shm.Adversary.name inner) (fun ~step ~handles ->
      Meter.time decide_m (fun () -> Shm.Adversary.decide inner ~step ~handles))

(* One traced instance: [build] makes the handles the way
   [Core.Harness] does, the executor drives them with metered closures,
   and the harness summary (trace scan + Do(α)) is timed on its own. *)
let traced_instance acc ~n ~floor ~m ~seed ~gens build =
  let scheduler, adversary = gens seed in
  let t0 = Meter.now () in
  let metrics = Shm.Metrics.create ~m in
  let collision = Core.Collision.create ~m in
  let handles =
    Meter.span "setup" (fun () -> Array.map metered_step (build ~metrics ~collision))
  in
  let t1 = Meter.now () in
  let outcome =
    Meter.span "executor" (fun () ->
        Shm.Executor.run ~trace_level:`Outcomes
          ~scheduler:(metered_scheduler scheduler)
          ~adversary:(metered_adversary adversary)
          handles)
  in
  let t2 = Meter.now () in
  let dos, do_count =
    Meter.span "summary" (fun () ->
        let dos = Shm.Trace.do_events outcome.trace in
        (dos, Core.Spec.do_count dos))
  in
  let t3 = Meter.now () in
  acc.run_ns <- acc.run_ns + (t2 - t1);
  acc.summary_s <- acc.summary_s +. (fi (t3 - t2) *. 1e-9);
  acc.wall_ns <- acc.wall_ns + (t3 - t0);
  acc.steps <- acc.steps + outcome.steps;
  acc.universe <- acc.universe + n;
  acc.collisions <- acc.collisions + Core.Collision.total collision;
  acc.instances <- acc.instances + 1;
  sim_result ~n ~floor
    ~secs:(fi (t3 - t0) *. 1e-9)
    ~completed:(outcome.reason = Shm.Executor.Quiescent)
    ~dos ~do_count ~steps:outcome.steps ~metrics

let ostree_calls () = List.fold_left (fun a m -> a + Meter.calls m) 0 Timed_ostree.all
let ostree_raw () = List.fold_left (fun a m -> a + Meter.raw_ns m) 0 Timed_ostree.all

let ostree_means () =
  [
    ("ostree.rank_diff_ns", Meter.mean_ns Timed_ostree.rank_diff_m);
    ("ostree.remove_ns", Meter.mean_ns Timed_ostree.remove_m);
    ("ostree.add_ns", Meter.mean_ns Timed_ostree.add_m);
    ("ostree.mem_ns", Meter.mean_ns Timed_ostree.mem_m);
    ("ostree.diff_cardinal_ns", Meter.mean_ns Timed_ostree.diff_cardinal_m);
  ]

(* Step time minus the metered set calls inside it, clock reads taken
   out (see {!Meter.read_cost}), per step. *)
let step_self_ns step_meter =
  let steps = Meter.calls step_meter in
  let self =
    fi (Meter.raw_ns step_meter) -. (fi steps *. read_cost ()) -. fi (ostree_raw ())
    -. (fi (ostree_calls ()) *. read_cost ())
  in
  Float.max 0. (self /. fi (max 1 steps))

let sim_layers acc ~ostree =
  let steps = max 1 acc.steps in
  let per_step x = x /. fi steps in
  let oc = ostree_calls () in
  let sraw = fi (Meter.raw_ns step_m) and scalls = Meter.calls step_m in
  let craw = fi (Meter.raw_ns choose_m) and ccalls = Meter.calls choose_m in
  let draw = fi (Meter.raw_ns decide_m) and dcalls = Meter.calls decide_m in
  let exec_self =
    fi acc.run_ns -. sraw -. craw -. draw -. (fi (scalls + ccalls + dcalls) *. read_cost ())
  in
  let reads = 2 * (oc + scalls + ccalls + dcalls) in
  let net_wall = fi acc.wall_ns -. (fi reads *. read_cost ()) in
  let ostree_net = fi (ostree_raw ()) -. (fi oc *. read_cost ()) in
  let universe = fi (max 1 acc.universe) in
  (if ostree then
     ostree_means ()
     @ [
         ("ostree.calls_per_step", per_step (fi oc));
         ("ostree.time_share", Float.max 0. (ostree_net /. net_wall));
       ]
   else [])
  @ [
      ("shm.executor.self_ns_per_step", Float.max 0. (per_step exec_self));
      ("shm.schedule.choose_ns", Meter.mean_ns choose_m);
      ("shm.adversary.decide_ns", Meter.mean_ns decide_m);
      ("shm.executor.steps_per_job", fi acc.steps /. universe);
      ("core.kk.step_self_ns", step_self_ns step_m);
      ("core.kk.collisions_per_job", fi acc.collisions /. universe);
      ("core.harness.summary_s", acc.summary_s /. fi (max 1 acc.instances));
    ]

(* sim-wide: KKβ at m = 32, so the O(m) per-step paths dominate. *)
module Sim = struct
  let n = 2_000
  let m = 32
  let beta = m
  let f = 8
  let horizon = 100_000
  let floor = kk_floor ~n ~m ~beta

  let gens seed =
    let a, b = rngs seed in
    (Shm.Schedule.random a, Shm.Adversary.random b ~f ~m ~horizon)

  (* The build [Harness.kk] does before its first step. *)
  let build () =
    kk_handles (module Core.Kk) ~metrics:(Shm.Metrics.create ~m)
      ~collision:(Core.Collision.create ~m) ~n ~m ~beta ()

  let run ~seed =
    let scheduler, adversary = gens seed in
    harness_instance ~n ~floor (fun () ->
        Core.Harness.kk ~scheduler ~adversary ~trace_level:`Outcomes ~n ~m ~beta ())

  (* The same build over the metered sets. *)
  let traced_build ~metrics ~collision =
    kk_handles (module K) ~metrics ~collision ~n ~m ~beta ()

  let acc = sim_acc ()

  let workload =
    {
      name = "sim-wide";
      domains = 1;
      prepare = ignore;
      setup_probe = Some (timed build);
      setup_reps = 21;
      run;
      traced = (fun ~seed -> traced_instance acc ~n ~floor ~m ~seed ~gens traced_build);
      layers = (fun () -> sim_layers acc ~ostree:true);
    }
end

(* iter-large: IterativeKK(1/2) — few executor steps, one Do event per
   job, a large set-up. *)
module Iter = struct
  let n = 250_000
  let m = 4
  let epsilon_inv = 2
  let horizon = 50_000
  let floor = n - Core.Iterative.predicted_loss_bound ~n ~m ~epsilon_inv

  let gens seed =
    let a, b = rngs seed in
    (Shm.Schedule.random a, Shm.Adversary.random b ~f:1 ~m ~horizon)

  let create_s = ref 0.

  (* The build [Harness.iterative] does before its first step. *)
  let build ~metrics ~collision =
    let t0 = Meter.now () in
    let plan = Core.Iterative.create ~metrics ~n ~m ~epsilon_inv ~mode:`Amo in
    create_s := !create_s +. Meter.since t0;
    Core.Iterative.processes ~collision ~policy:Core.Policy.Rank_split plan

  let run ~seed =
    let scheduler, adversary = gens seed in
    harness_instance ~n ~floor (fun () ->
        Core.Harness.iterative ~scheduler ~adversary ~trace_level:`Outcomes ~n ~m
          ~epsilon_inv ())

  let acc = sim_acc ()

  let workload =
    {
      name = "iter-large";
      domains = 1;
      prepare = ignore;
      setup_probe =
        Some
          (timed (fun () ->
               build ~metrics:(Shm.Metrics.create ~m)
                 ~collision:(Core.Collision.create ~m)));
      setup_reps = 3;
      run;
      traced = (fun ~seed -> traced_instance acc ~n ~floor ~m ~seed ~gens build);
      layers =
        (fun () ->
          sim_layers acc ~ostree:false
          @ [ ("core.iterative.setup_s", !create_s /. fi (max 1 acc.instances)) ]);
    }
end

(* ---------- mc-domains: real domains and atomics ---------- *)

module Mc = struct
  let n = 200_000
  let m = 2
  let beta = 2
  let floor = kk_floor ~n ~m ~beta

  let one () =
    let t0 = Meter.now () in
    let o = Multicore.Runner.run_kk ~n ~m ~beta () in
    let secs = Meter.since t0 in
    let do_count = Core.Spec.do_count o.dos in
    (* every domain returned: the runner has no step budget *)
    let ok = check ~floor ~completed:true ~dos:o.dos ~do_count in
    let work = Shm.Metrics.total_work o.metrics in
    ( {
        secs;
        jobs = do_count;
        execs = 1;
        eff = fi do_count /. fi n;
        work = fi work /. fi n;
        (* the call's time outside the runner's own clock: allocating
           the shared arrays and per-process sets, spawning and joining *)
        setup = Some (Float.max 0. (secs -. o.wall_seconds));
        ok;
        (* real interleavings: nothing here repeats exactly *)
        counts = [];
      },
      o )

  (* The traced run adds nothing inside the call: the runner's layers
     are read from its outcome. *)
  let walls = ref [] and spawns = ref [] and imbalances = ref []
  let reads = ref 0 and writes = ref 0 and instances = ref 0

  let traced ~seed:_ =
    let r, o = one () in
    walls := o.wall_seconds :: !walls;
    spawns := Option.get r.setup :: !spawns;
    let per = Array.sub o.per_process 1 m in
    let hi = Array.fold_left max 0 per and lo = Array.fold_left min max_int per in
    imbalances := (fi hi /. fi (max 1 lo)) :: !imbalances;
    reads := !reads + Shm.Metrics.total_reads o.metrics;
    writes := !writes + Shm.Metrics.total_writes o.metrics;
    incr instances;
    r

  let workload =
    {
      name = "mc-domains";
      domains = m;
      prepare = ignore;
      setup_probe = None;
      setup_reps = 0;
      run = (fun ~seed:_ -> fst (one ()));
      traced;
      layers =
        (fun () ->
          let per_job x = fi x /. fi (n * max 1 !instances) in
          [
            ("multicore.run_wall_s", median !walls);
            ("multicore.spawn_s", median !spawns);
            ("multicore.imbalance", median !imbalances);
            ("multicore.reads_per_job", per_job !reads);
            ("multicore.writes_per_job", per_job !writes);
          ]);
    }
end

(* ---------- msg-abd: KKβ over ABD-emulated registers ---------- *)

module Msg_abd = struct
  let servers = 5
  let m = 4
  let n = 5_000
  let beta = m
  let floor = kk_floor ~n ~m ~beta

  (* One server (a minority) and one client crash, at seeded delivery
     counts well inside the run (≈0.85 M deliveries per instance). *)
  let plan seed =
    let g = Util.Prng.of_int (seed lxor 0x5eed) in
    let server = 1 + Util.Prng.int g servers in
    let client = 1 + Util.Prng.int g m in
    [
      (Util.Prng.int_in g 1_000 400_000, `Server server);
      (Util.Prng.int_in g 1_000 400_000, `Client client);
    ]

  let bodies () = Array.init m (fun i -> Msg.Kk_mp.kk_body ~n ~m ~beta ~pid:(i + 1))

  (* [Kk_mp.run_kk] is exactly [Abd.run] over these bodies; calling
     [Abd.run] lets the benchmark see the first delivery, which is
     where set-up ends. *)
  let call ?(bodies = bodies ()) ~deliver seed =
    Msg.Abd.run ~crash_plan:(plan seed) ~servers
      ~registers:(Msg.Kk_mp.register_count ~n ~m)
      ~rng:(Util.Prng.of_int seed) ~client_bodies:bodies ~deliver ()

  let finish ~secs ~setup (o : Msg.Abd.outcome) =
    let do_count = Core.Spec.do_count o.dos in
    {
      secs;
      jobs = do_count;
      execs = 1;
      eff = fi do_count /. fi n;
      (* a delivery is the cost unit of message passing *)
      work = fi o.deliveries /. fi n;
      setup = Some setup;
      ok = check ~floor ~completed:(o.stuck = []) ~dos:o.dos ~do_count;
      counts = [ o.deliveries; do_count ];
    }

  let run ~seed =
    let first = ref 0 in
    let deliver net rng =
      if !first = 0 then first := Meter.now ();
      Msg.Net.deliver_random net rng
    in
    let t0 = Meter.now () in
    let o = call ~deliver seed in
    let secs = Meter.since t0 in
    finish ~secs ~setup:(fi (!first - t0) *. 1e-9) o

  let deliver_m = Meter.create ()
  let ops = ref 0 and deliveries = ref 0 and instances = ref 0 and wall = ref 0.

  let traced ~seed =
    let deliver net rng =
      Meter.time deliver_m (fun () -> Msg.Net.deliver_random net rng)
    in
    let wrap (body : Msg.Abd.body) : Msg.Abd.body =
     fun ~read ~write ~do_job ->
      body
        ~read:(fun r ->
          incr ops;
          read r)
        ~write:(fun r v ->
          incr ops;
          write r v)
        ~do_job
    in
    let t0 = Meter.now () in
    let o = call ~bodies:(Array.map wrap (bodies ())) ~deliver seed in
    let secs = Meter.since t0 in
    deliveries := !deliveries + o.deliveries;
    wall := !wall +. secs;
    incr instances;
    finish ~secs ~setup:0. o

  let workload =
    {
      name = "msg-abd";
      domains = 1;
      prepare = ignore;
      setup_probe = None;
      setup_reps = 0;
      run;
      traced;
      layers =
        (fun () ->
          let per_job x = fi x /. fi (n * max 1 !instances) in
          [
            ("msg.deliveries_per_job", per_job !deliveries);
            ("msg.deliveries_per_s", fi !deliveries /. Float.max 1e-9 !wall);
            ("msg.deliver_ns", Meter.mean_ns deliver_m);
            ("msg.register_ops_per_job", per_job !ops);
          ]);
    }
end

(* ---------- explore-par: the domain-parallel model checker ---------- *)

module Xp = struct
  module E = Analysis.Explore
  module P = Analysis.Pexplore

  let n = 8
  let m = 3
  let beta = m
  let branch_depth = 13
  let max_steps = 50_000
  let domains = 2

  let factory () =
    kk_handles (module Core.Kk) ~metrics:(Shm.Metrics.create ~m) ~n ~m ~beta ()

  let factory_m = Meter.create ()
  let xstep_m = Meter.create ()
  let footprint_m = Meter.create ()

  let traced_factory () =
    Meter.time factory_m (fun () ->
        kk_handles (module K) ~metrics:(Shm.Metrics.create ~m) ~n ~m ~beta ()
        |> Array.map (fun (h : Shm.Automaton.handle) ->
               {
                 h with
                 step = (fun () -> Meter.time xstep_m h.step);
                 footprint = (fun () -> Meter.time footprint_m h.footprint);
               }))

  let oracles =
    [ Analysis.Oracle.at_most_once; Analysis.Oracle.kk_effectiveness ~n ~m ~beta ]

  (* Sequential [Explore.explore]'s count, which every parallel
     enumeration must match. *)
  let expected = ref (-1)

  let prepare () =
    let k = ref 0 in
    ignore
      (E.explore ~strategy:E.Por ~factory ~branch_depth ~max_steps
         ~on_execution:(fun _ -> incr k)
         ());
    expected := !k

  let explore ~domains factory =
    let execs = ref [] in
    let t0 = Meter.now () in
    let stats =
      P.explore ~strategy:E.Por ~domains ~fingerprint:false ~factory ~branch_depth
        ~max_steps
        ~on_execution:(fun e -> execs := e :: !execs)
        ()
    in
    (Meter.since t0, stats, !execs)

  (* Oracles run after the clock stops, on every collected execution. *)
  let finish ~secs (stats : P.stats) execs =
    let jobs = ref 0 and bad = ref 0 in
    List.iter
      (fun (e : E.execution) ->
        jobs := !jobs + Core.Spec.do_count e.dos;
        if Analysis.Oracle.check_all oracles e.trace <> [] then incr bad)
      execs;
    let k = stats.executions in
    {
      secs;
      jobs = !jobs;
      execs = k;
      eff = fi !jobs /. fi (n * max 1 k);
      (* one unit per action performed by the enumerated executions *)
      work =
        fi (List.fold_left (fun a (e : E.execution) -> a + List.length e.schedule) 0 execs)
        /. fi (max 1 !jobs);
      setup = None;
      ok = !bad = 0 && k = !expected && List.length execs = k;
      counts = [ k; !jobs ];
    }

  (* One build takes microseconds; time a hundred at once. *)
  let setup_probe () =
    timed (fun () -> for _ = 1 to 100 do ignore (Sys.opaque_identity (factory ())) done) ()
    /. 100.

  let run ~seed:_ =
    let secs, stats, execs = explore ~domains factory in
    finish ~secs stats execs

  let executions = ref 0 and items = ref 0 and steals = ref 0 and instances = ref 0

  let traced ~seed:_ =
    let secs, stats, execs = explore ~domains traced_factory in
    executions := !executions + stats.executions;
    items := !items + stats.work_items;
    steals := !steals + stats.steals;
    incr instances;
    finish ~secs stats execs

  (* The parallel gain: the same untraced enumeration at 1 and 2
     domains, back to back. *)
  let speedup () =
    let s1, _, _ = explore ~domains:1 factory in
    let s2, _, _ = explore ~domains factory in
    s1 /. s2

  let workload =
    {
      name = "explore-par";
      domains;
      prepare;
      setup_probe = Some setup_probe;
      setup_reps = 21;
      run;
      traced;
      layers =
        (fun () ->
          let per_exec x = fi x /. fi (max 1 !executions) in
          let k = fi (max 1 !instances) in
          let steps = Meter.calls xstep_m in
          ostree_means ()
          @ [
            ("ostree.calls_per_step", fi (ostree_calls ()) /. fi (max 1 steps));
            ("core.kk.step_self_ns", step_self_ns xstep_m);
            ("analysis.explore.replays_per_execution", per_exec (Meter.calls factory_m));
            ("analysis.explore.factory_ns", Meter.mean_ns factory_m);
            ("analysis.explore.steps_per_execution", per_exec (Meter.calls xstep_m));
            ("analysis.explore.footprint_ns", Meter.mean_ns footprint_m);
            ("analysis.pexplore.work_items", fi !items /. k);
            ("analysis.pexplore.steals", fi !steals /. k);
            ("analysis.pexplore.speedup_vs_d1", speedup ());
          ]);
    }
end

let all = [ Sim.workload; Iter.workload; Mc.workload; Msg_abd.workload; Xp.workload ]

let find name = List.find_opt (fun w -> w.name = name) all
