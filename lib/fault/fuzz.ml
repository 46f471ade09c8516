(* Plan-space mutation operators and instrumented execution for the
   coverage-guided fuzzer (the generic loop lives in Analysis.Fuzz).

   Mutations are structure-preserving: schedule edits keep pick
   sequences well-formed, fault edits keep the plan within
   Plan.validate (pids in range, restarts covered by crashes, at most
   m-1 permanent crashes).  An edit that lands outside the valid set
   is retried with a different draw; after a few misses we fall back
   to reseeding, which is always valid. *)

open Util

let phases = Plan.gen_phases

let is_crash = function
  | Plan.Crash_at _ | Plan.Crash_after_writes _ | Plan.Crash_in_phase _ -> true
  | Plan.Restart_at _ | Plan.Stall _ -> false

(* ---- schedule surgery ---- *)

(* All operators map well-formed pick sequences to well-formed pick
   sequences: reorderings preserve the pid set, and fresh picks are
   drawn from [1..m]. *)
let mutate_picks rng ~m picks =
  let len = List.length picks in
  match Prng.int rng 5 with
  | 0 when len >= 2 ->
      (* swap two adjacent picks: the minimal interleaving edit *)
      let i = Prng.int rng (len - 1) in
      List.mapi
        (fun j p ->
          if j = i then List.nth picks (i + 1)
          else if j = i + 1 then List.nth picks i
          else p)
        picks
  | 1 when len >= 2 ->
      (* splice: move a short segment to a new position *)
      let k = 1 + Prng.int rng (min 4 (len - 1)) in
      let i = Prng.int rng (len - k + 1) in
      let seg = List.filteri (fun j _ -> j >= i && j < i + k) picks in
      let rest = List.filteri (fun j _ -> j < i || j >= i + k) picks in
      let at = Prng.int rng (List.length rest + 1) in
      List.filteri (fun j _ -> j < at) rest
      @ seg
      @ List.filteri (fun j _ -> j >= at) rest
  | 2 when len >= 2 ->
      (* truncate: drop a suffix, falling back to round-robin sooner *)
      let keep = 1 + Prng.int rng (len - 1) in
      List.filteri (fun j _ -> j < keep) picks
  | 3 when len >= 1 ->
      (* perturb one pick *)
      let i = Prng.int rng len in
      List.mapi (fun j p -> if j = i then 1 + Prng.int rng m else p) picks
  | _ ->
      (* extend with fresh picks *)
      picks @ List.init (1 + Prng.int rng (2 * m)) (fun _ -> 1 + Prng.int rng m)

(* ---- fault surgery ---- *)

let fresh_crash rng ~n ~m ~h =
  let pid = 1 + Prng.int rng m in
  match Prng.int rng 3 with
  | 0 -> Plan.Crash_at { pid; step = Prng.int rng h }
  | 1 -> Plan.Crash_after_writes { pid; writes = 1 + Prng.int rng (max 1 (n / m)) }
  | _ ->
      Plan.Crash_in_phase
        { pid; phase = phases.(Prng.int rng (Array.length phases)) }

let retime_fault rng ~h f =
  let jitter step = max 0 (step + Prng.int_in rng (-(h / 4)) (h / 4)) in
  match f with
  | Plan.Crash_at { pid; step } -> Plan.Crash_at { pid; step = jitter step }
  | Plan.Crash_after_writes { pid; writes } ->
      Plan.Crash_after_writes { pid; writes = max 1 (writes + Prng.int_in rng (-2) 2) }
  | Plan.Crash_in_phase { pid; phase = _ } ->
      Plan.Crash_in_phase
        { pid; phase = phases.(Prng.int rng (Array.length phases)) }
  | Plan.Restart_at { pid; step } -> Plan.Restart_at { pid; step = jitter step }
  | Plan.Stall { pid; from_step; len } ->
      Plan.Stall
        {
          pid;
          from_step = jitter from_step;
          len = max 1 (len + Prng.int_in rng (-(h / 8)) (h / 8));
        }

(* Removing a pid's only crash strands its restarts; drop those too so
   the edit stays within Plan.validate. *)
let remove_fault rng faults =
  let i = Prng.int rng (List.length faults) in
  let victim = List.nth faults i in
  let rest = List.filteri (fun j _ -> j <> i) faults in
  if
    is_crash victim
    && not
         (List.exists
            (fun f -> is_crash f && Plan.fault_pid f = Plan.fault_pid victim)
            rest)
  then
    List.filter
      (function
        | Plan.Restart_at { pid; _ } -> pid <> Plan.fault_pid victim
        | _ -> true)
      rest
  else rest

let mutate_shm_faults rng ~n ~m ~h faults =
  let crash_pids =
    List.sort_uniq compare
      (List.filter_map (fun f -> if is_crash f then Some (Plan.fault_pid f) else None)
         faults)
  in
  match Prng.int rng 6 with
  | 0 -> faults @ [ fresh_crash rng ~n ~m ~h ]
  | 1 when crash_pids <> [] ->
      let pid = List.nth crash_pids (Prng.int rng (List.length crash_pids)) in
      faults @ [ Plan.Restart_at { pid; step = Prng.int rng h } ]
  | 2 ->
      (* insert a whole crash+restart cycle: the chain-extending move.
         Cycles compose — a pid can crash and recover arbitrarily
         often without counting as a permanent crash — which is
         exactly the fault-depth dimension the random plan generator
         never enters (it emits at most one cycle per victim). *)
      let pid = 1 + Prng.int rng m in
      let step = Prng.int rng h in
      faults
      @ [
          Plan.Crash_at { pid; step };
          Plan.Restart_at { pid; step = step + 1 + Prng.int rng (max 1 (h / 4)) };
        ]
  | 3 when m > 1 ->
      faults
      @ [
          Plan.Stall
            {
              pid = 1 + Prng.int rng m;
              from_step = Prng.int rng h;
              len = 1 + Prng.int rng (max 2 (h / 4));
            };
        ]
  | 4 when faults <> [] -> remove_fault rng faults
  | _ when faults <> [] ->
      let i = Prng.int rng (List.length faults) in
      List.mapi (fun j f -> if j = i then retime_fault rng ~h f else f) faults
  | _ -> faults @ [ fresh_crash rng ~n ~m ~h ]

let mutate_net_faults rng ~n ~m faults =
  let th = 40 * n * m in
  let window () = (Prng.int rng th, 1 + Prng.int rng (max 2 (th / 4))) in
  let fresh () =
    let from_tick, len = window () in
    let prob () = float_of_int (1 + Prng.int rng 4) /. 16. in
    match Prng.int rng 4 with
    | 0 -> Plan.Drop { prob = prob (); from_tick; len }
    | 1 -> Plan.Duplicate { prob = prob (); from_tick; len }
    | 2 -> Plan.Delay_node { node = 1 + Prng.int rng (m + 3); from_tick; len }
    | _ ->
        Plan.Partition
          {
            group = List.init (1 + Prng.int rng m) (fun i -> i + 1);
            from_tick;
            len;
          }
  in
  let retime f =
    let from_tick, len = window () in
    match f with
    | Plan.Drop { prob; _ } -> Plan.Drop { prob; from_tick; len }
    | Plan.Duplicate { prob; _ } -> Plan.Duplicate { prob; from_tick; len }
    | Plan.Delay_node { node; _ } -> Plan.Delay_node { node; from_tick; len }
    | Plan.Partition { group; _ } -> Plan.Partition { group; from_tick; len }
  in
  match Prng.int rng 3 with
  | 0 -> faults @ [ fresh () ]
  | 1 when List.length faults >= 2 ->
      let i = Prng.int rng (List.length faults) in
      List.filteri (fun j _ -> j <> i) faults
  | _ when faults <> [] ->
      let i = Prng.int rng (List.length faults) in
      List.mapi (fun j f -> if j = i then retime f else f) faults
  | _ -> faults @ [ fresh () ]

(* ---- the mutation operator ---- *)

let mutate rng (p : Plan.t) =
  let h = Plan.horizon ~n:p.Plan.n ~m:p.Plan.m in
  let reseed () = { p with Plan.seed = Prng.int rng (1 lsl 30) } in
  (* a reseed only perturbs plans that still draw randomness at run
     time; on a pinned (Fixed-schedule) plan every fault fires
     deterministically, so reseeding would replay the identical
     execution — a wasted slot of the budget *)
  let deterministic =
    match p.Plan.sched with Plan.Fixed _ -> true | _ -> false
  in
  let one_edit () =
    match Prng.int rng 8 with
    | 0 | 1 -> (
        (* schedule edit; corpus entries are pinned Fixed, so this is
           the interleaving-space move *)
        match p.Plan.sched with
        | Plan.Fixed picks when picks <> [] ->
            { p with Plan.sched = Plan.Fixed (mutate_picks rng ~m:p.Plan.m picks) }
        | Plan.Fixed [] ->
            { p with Plan.sched = Plan.Fixed (List.init p.Plan.m (fun i -> i + 1)) }
        | _ ->
            let sched =
              match Prng.int rng 3 with
              | 0 -> Plan.Round_robin
              | 1 -> Plan.Random_sched
              | _ -> Plan.Bursty (1 + Prng.int rng 8)
            in
            { p with Plan.sched })
    | 7 when not deterministic -> reseed ()
    | _ ->
        if p.Plan.net <> [] then
          { p with Plan.net = mutate_net_faults rng ~n:p.Plan.n ~m:p.Plan.m p.Plan.net }
        else
          {
            p with
            Plan.shm = mutate_shm_faults rng ~n:p.Plan.n ~m:p.Plan.m ~h p.Plan.shm;
          }
  in
  let rec attempt tries =
    if tries = 0 then reseed ()
    else
      let cand = one_edit () in
      match Plan.validate cand with Ok () -> cand | Error _ -> attempt (tries - 1)
  in
  attempt 8

(* ---- instrumented execution ---- *)

(* One whole-run fingerprint for message-passing runs: the canonical
   do-multiset plus the stuck-client set.  Coarse, but net runs expose
   no per-event machine state to hash. *)
let net_fingerprint (r : Chaos.net_result) =
  let counts = Hashtbl.create 8 in
  let h =
    List.fold_left
      (fun h (p, j) ->
        let ix = 1 + (try Hashtbl.find counts p with Not_found -> 0) in
        Hashtbl.replace counts p ix;
        Analysis.Fingerprint.do_hash_add h ~pid:p ~index:ix ~job:j)
      0 r.Chaos.dos
  in
  List.fold_left (fun h c -> Mix.combine h (Mix.int c)) h r.Chaos.stuck

let execute ?probe ?max_steps (plan : Plan.t) =
  if plan.Plan.net <> [] then begin
    let r = Chaos.run_net_plan ?max_deliveries:max_steps plan in
    {
      Analysis.Fuzz.states = [ net_fingerprint r ];
      (* a correct run spends a fraction of the delivery cap, so a
         stop there means a client looped *)
      violating = r.Chaos.violations <> [] || r.Chaos.truncated;
      pinned = plan;
    }
  end
  else begin
    let states = ref [] in
    let state_probe handles =
      let do_counts = Array.make plan.Plan.m 0 in
      let faults = ref 0 in
      Shm.Probe.make ~needs_phase:false (fun ~step:_ ~phase:_ ev ->
          (match ev with
          | Shm.Event.Do { p; _ } -> do_counts.(p - 1) <- do_counts.(p - 1) + 1
          | Shm.Event.Crash _ | Shm.Event.Restart _ -> incr faults
          | _ -> ());
          states :=
            Analysis.Fingerprint.cover ~handles ~do_counts ~faults:!faults
            :: !states)
    in
    let r = Chaos.run_plan ?probe ~state_probe ?max_steps plan in
    {
      Analysis.Fuzz.states = List.rev !states;
      violating = r.Chaos.violations <> [];
      pinned = { plan with Plan.sched = Plan.Fixed r.Chaos.schedule };
    }
  end

let harness ?probe ?max_steps () =
  { Analysis.Fuzz.mutate; execute = execute ?probe ?max_steps }

let blind_harness ?probe ?max_steps () =
  let fresh rng (parent : Plan.t) =
    Plan.gen ~algo:parent.Plan.algo ~recovery:(Prng.bool rng)
      ~name:parent.Plan.name ~n:parent.Plan.n ~m:parent.Plan.m
      ~beta:parent.Plan.beta rng
  in
  { Analysis.Fuzz.mutate = fresh; execute = execute ?probe ?max_steps }

(* ---- seeds and shrinking ---- *)

let default_seeds ?(algo = Plan.Kk) ~seed ~n ~m ~beta () =
  let rng = Prng.of_int seed in
  let base name sched =
    Plan.make ~name ~algo ~seed:(Prng.int rng (1 lsl 30)) ~sched ~n ~m ~beta ()
  in
  [
    base "fuzz-seed-rr" Plan.Round_robin;
    base "fuzz-seed-random" Plan.Random_sched;
    base "fuzz-seed-bursty" (Plan.Bursty 4);
    Plan.gen ~algo ~recovery:false ~name:"fuzz-seed-crash" ~n ~m ~beta
      (Prng.split rng);
    Plan.gen ~algo ~recovery:true ~name:"fuzz-seed-recovery" ~n ~m ~beta
      (Prng.split rng);
  ]

let minimize (plan : Plan.t) =
  if plan.Plan.net <> [] then None
  else
    let r = Chaos.run_plan plan in
    if r.Chaos.violations = [] then None else Some (Chaos.shrink_failure r)
