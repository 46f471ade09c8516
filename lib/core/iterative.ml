open Shm

let sizes ~n ~m ~epsilon_inv =
  if epsilon_inv < 1 then
    invalid_arg "Iterative.sizes: 1/epsilon must be a positive integer";
  let logn = Params.log2_ceil n and logm = Params.log2_ceil m in
  let s0 = m * logn * logm in
  let level i =
    (* m^(1 − iε) · log n · (log m)^(1+i), with ε = 1/epsilon_inv *)
    let exponent = 1.0 -. (float_of_int i /. float_of_int epsilon_inv) in
    let mfac = float_of_int m ** exponent in
    let lfac =
      float_of_int logn *. (float_of_int logm ** float_of_int (1 + i))
    in
    int_of_float (Float.ceil (mfac *. lfac))
  in
  let raw = List.init epsilon_inv (fun i -> level (i + 1)) in
  let rec clamp prev = function
    | [] -> if prev = 1 then [] else [ 1 ]
    | s :: rest ->
        let s = max 1 (min s prev) in
        s :: clamp s rest
  in
  let s0 = max 1 s0 in
  s0 :: clamp s0 (raw @ [ 1 ])

type t = {
  n : int;
  m : int;
  epsilon_inv : int;
  beta : int;
  hierarchy : Superjob.t;
  shareds : Kk.shared array; (* one flagged level each *)
  metrics : Metrics.t;
  mode : [ `Amo | `Wa ];
  wa : Memory.vector option;
  log_n : int;
}

let create ~metrics ~n ~m ~epsilon_inv ~mode =
  let szs = sizes ~n ~m ~epsilon_inv in
  let hierarchy = Superjob.build ~n ~sizes:szs in
  let shareds =
    Array.init (Superjob.num_levels hierarchy) (fun k ->
        Kk.make_shared ~metrics ~m
          ~capacity:(Superjob.block_count hierarchy k)
          ~with_flag:true
          ~name:(Printf.sprintf "L%d" k)
          ())
  in
  let wa =
    match mode with
    | `Amo -> None
    | `Wa -> Some (Memory.vector ~metrics ~name:"wa" ~len:n ~init:0)
  in
  {
    n;
    m;
    epsilon_inv;
    beta = 3 * m * m;
    hierarchy;
    shareds;
    metrics;
    mode;
    wa;
    log_n = Params.log2_ceil (max 2 n);
  }

let hierarchy t = t.hierarchy
let beta t = t.beta
let num_levels t = Superjob.num_levels t.hierarchy
let mode t = t.mode

let wa_vector t =
  match t.wa with
  | Some v -> v
  | None -> invalid_arg "Iterative: no Write-All array in `Amo mode"

let wa_cell t j = Memory.vpeek (wa_vector t) j

let wa_complete t =
  let v = wa_vector t in
  let rec go j = j > t.n || (Memory.vpeek v j = 1 && go (j + 1)) in
  go 1

(* Performing super-job [id] at [level]: the paper's do action covers
   all constituent jobs at once.  In `Wa mode it also writes the cells
   of the Write-All array (metered as shared writes). *)
let perform_at plan ~level ~p id =
  let lo, hi = Superjob.interval plan.hierarchy ~level ~id in
  let rec go j acc =
    if j < lo then acc
    else begin
      (match plan.wa with
      | Some v -> Memory.vset v ~p j 1
      | None -> ());
      go (j - 1) (Event.Do { p; job = j } :: acc)
    end
  in
  go hi []

type wstatus = Running | Final_write of int list | Finished | Stopped

type worker = {
  plan : t;
  pid : int;
  policy : Policy.t;
  collision : Collision.t option;
  verbose : bool;
  mutable level : int;
  mutable inner : Kk.t;
  mutable inner_h : Automaton.handle;
  mutable wstatus : wstatus;
}

let make_inner plan ~pid ~policy ~collision ~verbose ~level ~free =
  let keep_try = match plan.mode with `Amo -> false | `Wa -> true in
  Kk.create ~shared:plan.shareds.(level) ~pid ~beta:plan.beta ~policy ~free
    ?collision ~verbose
    ~perform:(fun ~p id -> perform_at plan ~level ~p id)
    ~perform_work:(fun id ->
      let lo, hi = Superjob.interval plan.hierarchy ~level ~id in
      hi - lo + 1)
    ~perform_footprint:(fun _ ->
      match plan.mode with
      | `Amo -> Footprint.Internal (* the do action only emits events *)
      | `Wa -> Footprint.Unknown (* one step writes a whole interval *))
    ~mode:(Kk.Iter_step { keep_try })
    ()

let drop_terminate evs =
  List.filter (function Event.Terminate _ -> false | _ -> true) evs

(* One internal action: take the finished level's output set, map it
   down, and start the next IterStepKK — lines 04-13 of Fig. 3/4. *)
let advance_level w =
  let plan = w.plan in
  Metrics.on_internal plan.metrics ~p:w.pid;
  let result =
    match Kk.result w.inner with
    | Some r -> r
    | None -> assert false (* inner terminated in Iter_step mode *)
  in
  Metrics.add_work plan.metrics ~p:w.pid
    ((Ostree.cardinal result + 1) * plan.log_n);
  Util.Logging.debug "p%d: level L%d done, %d super-jobs carried forward"
    w.pid w.level (Ostree.cardinal result);
  if w.level + 1 < num_levels plan then begin
    let free = Superjob.map_down plan.hierarchy ~from_level:w.level result in
    w.level <- w.level + 1;
    w.inner <-
      make_inner plan ~pid:w.pid ~policy:w.policy ~collision:w.collision
        ~verbose:w.verbose ~level:w.level ~free;
    w.inner_h <- Kk.handle w.inner;
    []
  end
  else begin
    match plan.mode with
    | `Amo ->
        (* the last FREE \ TRY is simply abandoned (end of Fig. 3) *)
        w.wstatus <- Finished;
        [ Event.Terminate { p = w.pid } ]
    | `Wa -> begin
        (* lines 14-16 of Fig. 4: perform everything left in FREE *)
        match Ostree.elements result with
        | [] ->
            w.wstatus <- Finished;
            [ Event.Terminate { p = w.pid } ]
        | jobs ->
            w.wstatus <- Final_write jobs;
            []
      end
  end

let step_worker w =
  match w.wstatus with
  | Finished | Stopped -> invalid_arg "Iterative.step: no enabled action"
  | Final_write [] -> assert false
  | Final_write (j :: rest) ->
      Memory.vset (wa_vector w.plan) ~p:w.pid j 1;
      let ev = Event.Do { p = w.pid; job = j } in
      if rest = [] then begin
        w.wstatus <- Finished;
        [ ev; Event.Terminate { p = w.pid } ]
      end
      else begin
        w.wstatus <- Final_write rest;
        [ ev ]
      end
  | Running ->
      if w.inner_h.Automaton.alive () then
        drop_terminate (w.inner_h.Automaton.step ())
      else advance_level w

let worker_phase w =
  match w.wstatus with
  | Finished -> "end"
  | Stopped -> "stop"
  | Final_write _ -> "final_write"
  | Running -> Printf.sprintf "L%d:%s" w.level (w.inner_h.Automaton.phase ())

let worker_footprint w =
  match w.wstatus with
  | Finished | Stopped -> Footprint.Internal
  | Final_write [] -> Footprint.Internal
  | Final_write (j :: _) ->
      Footprint.Write (Memory.vname (wa_vector w.plan) ~cell:j)
  | Running ->
      if w.inner_h.Automaton.alive () then Kk.footprint w.inner
      else Footprint.Internal (* next step is the level advance *)

let processes ?collision ?(policy = Policy.Rank_split) ?(verbose = false) plan =
  (* every process keeps it as FREE₀ and works on a copy (Kk.create) *)
  let free0 = Superjob.ids_at plan.hierarchy 0 in
  Array.init plan.m (fun i ->
      let pid = i + 1 in
      let inner =
        make_inner plan ~pid ~policy ~collision ~verbose ~level:0 ~free:free0
      in
      let w =
        {
          plan;
          pid;
          policy;
          collision;
          verbose;
          level = 0;
          inner;
          inner_h = Kk.handle inner;
          wstatus = Running;
        }
      in
      Automaton.check
        {
          Automaton.pid;
          step = (fun () -> step_worker w);
          alive =
            (fun () ->
              match w.wstatus with
              | Finished | Stopped -> false
              | Final_write _ -> true
              | Running -> true);
          crash =
            (fun () ->
              match w.wstatus with
              | Finished -> ()
              | _ ->
                  w.wstatus <- Stopped;
                  w.inner_h.Automaton.crash ());
          phase = (fun () -> worker_phase w);
          footprint = (fun () -> worker_footprint w);
          (* a worker nests a whole Kk instance plus the level plan;
             hashing that faithfully is not worth it — stay opaque and
             let the explorer fall back to uncached search *)
          fingerprint = Automaton.opaque;
        })

let predicted_loss_bound ~n ~m ~epsilon_inv =
  let logn = Params.log2_ceil n and logm = Params.log2_ceil m in
  ((epsilon_inv + 2) * m * m * logn * logm) + (3 * m * m) + m
