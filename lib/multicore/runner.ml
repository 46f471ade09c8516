type outcome = {
  dos : (int * int) list;
  per_process : int array;
  wall_seconds : float;
  metrics : Shm.Metrics.t;
}

(* Each domain owns a full-width ledger but only ever touches its own
   pid's cells, so counting is uncontended; the ledgers are merged
   after join.  The charges are Core.Kk_direct's. *)

(* Process [pid]'s view of one KK instance's atomic registers. *)
let atomic_mem ~next ~done_m ~pid =
  {
    Core.Kk_direct.cols = Atomic_mem.mcols done_m;
    read_next = (fun q -> Atomic_mem.vget next q);
    write_next = (fun v -> Atomic_mem.vset next pid v);
    read_done = (fun q c -> Atomic_mem.mget done_m q c);
    write_done = (fun c v -> Atomic_mem.mset done_m pid c v);
  }

(* The outcome of a joined run: [rev_logs.(i)] is domain i + 1's
   (pid, job) performs, latest first.  [dos] lists domain 1's in program
   order, then domain 2's, and so on; one [rev_append] per domain builds
   it. *)
let outcome ~ledgers ~wall_seconds rev_logs =
  let m = Array.length ledgers in
  let metrics = Shm.Metrics.create ~m in
  Array.iter (Shm.Metrics.merge metrics) ledgers;
  let per_process = Array.make (m + 1) 0 in
  let dos = ref [] in
  for i = m - 1 downto 0 do
    per_process.(i + 1) <- List.length rev_logs.(i);
    dos := List.rev_append rev_logs.(i) !dos
  done;
  { dos = !dos; per_process; wall_seconds; metrics }

(* ---- IterativeKK(eps) on domains ---- *)

let run_iterative ~n ~m ~epsilon_inv () =
  if m < 1 || n < m then invalid_arg "Runner.run_iterative: need 1 <= m <= n";
  if epsilon_inv < 1 then
    invalid_arg "Runner.run_iterative: epsilon_inv must be >= 1";
  let sizes = Core.Iterative.sizes ~n ~m ~epsilon_inv in
  let hierarchy = Core.Superjob.build ~n ~sizes in
  let num_levels = Core.Superjob.num_levels hierarchy in
  (* per level: next, done and the termination flag *)
  let levels =
    Array.init num_levels (fun k ->
        ( Atomic_mem.vector ~len:m ~init:0,
          Atomic_mem.matrix ~rows:m
            ~cols:(Core.Superjob.block_count hierarchy k)
            ~init:0,
          Atomic.make 0 ))
  in
  let ledgers = Array.init m (fun _ -> Shm.Metrics.create ~m) in
  let t0 = Unix.gettimeofday () in
  let domains =
    Array.init m (fun i ->
        let pid = i + 1 in
        let ledger = ledgers.(i) in
        let level l =
          let next, done_m, flag = levels.(l) in
          ( atomic_mem ~next ~done_m ~pid,
            {
              Core.Kk_direct.is_set = (fun () -> Atomic.get flag = 1);
              set = (fun () -> Atomic.set flag 1);
            } )
        in
        Domain.spawn (fun () ->
            let performed = ref [] in
            Core.Kk_direct.iterative ~ledger ~hierarchy ~m ~pid level
              ~perform:(fun ~level id -> performed := (level, id) :: !performed);
            List.rev !performed))
  in
  let logs = Array.map Domain.join domains in
  let wall_seconds = Unix.gettimeofday () -. t0 in
  (* expand super-jobs into their constituent jobs *)
  let jobs =
    List.concat_map (fun (level, id) ->
        let lo, hi = Core.Superjob.interval hierarchy ~level ~id in
        List.init (hi - lo + 1) (fun k -> lo + k))
  in
  outcome ~ledgers ~wall_seconds
    (Array.mapi (fun i log -> List.rev_map (fun j -> (i + 1, j)) (jobs log)) logs)

let run_kk ~n ~m ~beta ?(policy = fun ~pid:_ -> Core.Policy.Rank_split)
    ?(job_budget = fun ~pid:_ -> max_int) ?(sink = Obs.Sink.null) ?rings
    ?journals ?rtevents () =
  if m < 1 || n < m then invalid_arg "Runner.run_kk: need 1 <= m <= n";
  if beta < 1 then invalid_arg "Runner.run_kk: beta must be >= 1";
  (match rings with
  | Some r when Array.length r <> m ->
      invalid_arg "Runner.run_kk: rings must have one ring per domain"
  | _ -> ());
  (match journals with
  | Some j when Array.length j <> m ->
      invalid_arg "Runner.run_kk: journals must have one flight per domain"
  | _ -> ());
  let next = Atomic_mem.vector ~len:m ~init:0 in
  let done_m = Atomic_mem.matrix ~rows:m ~cols:n ~init:0 in
  let ledgers = Array.init m (fun _ -> Shm.Metrics.create ~m) in
  (* all domains share [sink]; the caller must pass a {!Obs.Sink.locked}
     wrapper (or null) — a fetch-and-add counter provides a global
     emission order to use as the logical timestamp.  [rings], by
     contrast, are per-domain SPSC channels: domain i pushes only into
     rings.(i), lock-free, and the caller drains them concurrently —
     the fixed-cost telemetry path that needs no mutex. *)
  let seq = Atomic.make 0 in
  let emit_for pid =
    let ring = Option.map (fun r -> r.(pid - 1)) rings in
    (* journals, like rings, are per-domain single-writer channels:
       domain i appends only to journals.(i) — no mutex needed — and
       the caller stitches them back together offline with
       [Obs.Journal.merge] (the fetch-and-add [ts] makes the merged
       order total and deterministic) *)
    let journal = Option.map (fun j -> j.(pid - 1)) journals in
    if Obs.Sink.is_null sink && Option.is_none ring && Option.is_none journal
    then fun _ -> ()
    else fun job ->
      let r =
        Obs.Sink.record
          ~ts:(Atomic.fetch_and_add seq 1)
          ~pid ~kind:Obs.Sink.Instant
          ~args:[ ("job", Obs.Json.Int job) ]
          "mc.do"
      in
      (match ring with Some rg -> ignore (Obs.Ring.push rg r) | None -> ());
      (match journal with
      | Some fl -> Obs.Flight.push fl (Obs.Journal.encode (Obs.Journal.Record r))
      | None -> ());
      if not (Obs.Sink.is_null sink) then Obs.Sink.emit sink r
  in
  (* [rtevents]: an active runtime-events consumer.  The run brackets
     itself and each domain in custom phase spans so GC pauses line up
     against algorithm phases on the shared runtime timeline, and the
     rings are drained once after join (long-lived callers should keep
     polling themselves).  With [None] the runtime path is untouched —
     the on/off delta is exactly what E18's overhead gate measures. *)
  let instrument = Option.is_some rtevents in
  if instrument then Obs.Rtevents.emit_begin "mc.run";
  let t0 = Unix.gettimeofday () in
  let domains =
    Array.init m (fun i ->
        let pid = i + 1 in
        let pol = policy ~pid in
        let budget = job_budget ~pid in
        let ledger = ledgers.(i) in
        let emit = emit_for pid in
        let mem = atomic_mem ~next ~done_m ~pid in
        Domain.spawn (fun () ->
            let body () =
              let performed = ref [] in
              Core.Kk_direct.kk ~ledger ~budget ~m ~beta ~policy:pol ~pid mem
                ~do_job:(fun j ->
                  performed := (pid, j) :: !performed;
                  emit j);
              !performed
            in
            if instrument then Obs.Rtevents.with_span "mc.domain" body
            else body ()))
  in
  let logs = Array.map Domain.join domains in
  let wall_seconds = Unix.gettimeofday () -. t0 in
  (match rtevents with
  | Some re ->
      Obs.Rtevents.emit_end "mc.run";
      ignore (Obs.Rtevents.poll re)
  | None -> ());
  outcome ~ledgers ~wall_seconds logs
