type mem = {
  cols : int;
  read_next : int -> int;
  write_next : int -> unit;
  read_done : int -> int -> int;
  write_done : int -> int -> unit;
}

type flag = { is_set : unit -> bool; set : unit -> unit }

(* Work charges follow Core.Kk's scheme — the rank cost per compNext,
   one tree-op unit (log_unit = ⌈log₂ cols⌉) per TRY hit, two per DONE
   hit (Fig. 2's DONE insert and FREE delete, though DONE is implicit
   as FREE₀ \ FREE), two for the post-gather check, one per do, two per
   own done-write — with three differences, so totals come out a
   little below the simulator's:
   - the compNext that finds |FREE \ TRY| < β is free here; Core.Kk
     charges its rank cost, one more log_unit per instance at m = 1
     (KKβ n=200 β=1 m=1: 8200 here, 8208 from Core.Harness.kk);
   - a do costs one unit even for a super-job; Core.Iterative charges
     the super-job's size;
   - the hand-over between IterativeKK levels is not charged;
     Core.Iterative charges (|output| + 1)·log n for it.
   IterativeKK n=2000 ε=1/2 m=1 shows all three: 8388 here, 10355
   from Core.Harness.iterative, the gap being 35 for the four final
   checks, 1800 for super-job sizes and 132 for the hand-overs. *)

(* One KKβ / IterStepKK instance of process [pid] (Fig. 2; with a
   [flag], Fig. 3's inner call).  Shared accesses happen in exactly
   this order: write own next; read next[q] for q ≠ pid ascending;
   for q ≠ pid ascending, read done[q][pos q], done[q][pos q + 1], …
   up to the first empty cell; with a flag, read it; write own
   done[pos pid].  Without a flag the instance ends when
   |FREE \ TRY| < β (or the job budget is spent) and returns FREE.
   With one it sets the flag, or finds it set before a do, then
   gathers TRY and DONE once more and returns FREE \ TRY.  [free] is
   the instance's own: it is updated in place and returned. *)
let run ~ledger ?flag ?(budget = max_int) ~m ~beta ~policy ~pid ~free mem
    ~do_job =
  let cols = mem.cols in
  let log_unit = Params.log2_ceil (max 2 cols) in
  let module M = Shm.Metrics in
  let tries = Trybuf.create m in
  let pos = Array.make (m + 1) 1 in
  let count = ref 0 in
  let gather_try () =
    Trybuf.clear tries;
    for q = 1 to m do
      if q <> pid then begin
        let v = mem.read_next q in
        M.on_read ledger ~p:pid;
        if v > 0 then begin
          Trybuf.add v tries;
          M.add_work ledger ~p:pid log_unit
        end
      end
    done
  in
  let gather_done () =
    for q = 1 to m do
      if q <> pid then begin
        let continue = ref true in
        while !continue && pos.(q) <= cols do
          let v = mem.read_done q pos.(q) in
          M.on_read ledger ~p:pid;
          if v > 0 then begin
            Ostree.remove v free;
            pos.(q) <- pos.(q) + 1;
            M.add_work ledger ~p:pid (2 * log_unit)
          end
          else continue := false
        done
      end
    done
  in
  let finalize () =
    gather_try ();
    gather_done ();
    Trybuf.iter (fun x -> Ostree.remove x free) tries;
    free
  in
  let flag_set () =
    match flag with
    | Some f ->
        let set = f.is_set () in
        M.on_read ledger ~p:pid;
        set
    | None -> false
  in
  let rec loop () =
    if !count >= budget then free
    else
      let avail = Ostree.diff_cardinal free tries in
      if avail < beta then
        match flag with
        | Some f ->
            f.set ();
            M.on_write ledger ~p:pid;
            finalize ()
        | None -> free
      else begin
        M.on_internal ledger ~p:pid;
        M.add_work ledger ~p:pid
          (Policy.work_cost ~try_cardinal:(Trybuf.cardinal tries) ~log_n:log_unit);
        let job = Policy.choose policy ~p:pid ~m ~avail ~free ~try_set:tries in
        mem.write_next job;
        M.on_write ledger ~p:pid;
        gather_try ();
        gather_done ();
        M.on_internal ledger ~p:pid;
        M.add_work ledger ~p:pid (2 * log_unit);
        (* job ∈ DONE iff job ∉ FREE: it was picked from FREE₀ (kk.mli) *)
        if Trybuf.mem job tries || not (Ostree.mem job free) then loop ()
        else if flag_set () then finalize ()
        else begin
          do_job job;
          incr count;
          M.on_internal ledger ~p:pid;
          M.add_work ledger ~p:pid 1;
          mem.write_done pos.(pid) job;
          M.on_write ledger ~p:pid;
          M.add_work ledger ~p:pid (2 * log_unit);
          Ostree.remove job free;
          pos.(pid) <- pos.(pid) + 1;
          loop ()
        end
      end
  in
  loop ()

let kk ~ledger ?budget ~m ~beta ~policy ~pid mem ~do_job =
  ignore
    (run ~ledger ?budget ~m ~beta ~policy ~pid
       ~free:(Ostree.of_range 1 mem.cols) mem ~do_job)

let iterative ~ledger ~hierarchy ~m ~pid level ~perform =
  let beta = 3 * m * m in
  let levels = Superjob.num_levels hierarchy in
  let free = ref (Superjob.ids_at hierarchy 0) in
  for l = 0 to levels - 1 do
    let mem, flag = level l in
    let out =
      run ~ledger ~flag ~m ~beta ~policy:Policy.Rank_split ~pid ~free:!free mem
        ~do_job:(perform ~level:l)
    in
    if l + 1 < levels then
      free := Superjob.map_down hierarchy ~from_level:l out
  done
