(* Chrome trace_event format (the JSON array flavour understood by
   chrome://tracing and Perfetto).

   TIME UNITS: the executor's logical step counter is the only clock
   the simulator has.  The trace_event format requires [ts]/[dur] in
   microseconds, so we map 1 step = 1 µs verbatim — [ts] values ARE
   step indices, not wall time.  [displayTimeUnit] is only the UI's
   default zoom label; "ms" keeps whole runs visible at first paint.

   STRUCTURE: each simulated process is its own Chrome *process*
   (pid = simulator pid) carrying one thread, so Perfetto groups and
   labels tracks per process ("p1", "p2", ...) with explicit
   process_name / process_sort_index / thread_name metadata.  pid 0
   holds run-level data: the run-name metadata and the optional
   register-contention counter tracks (ph "C") from a {!Heatmap}. *)

let event_name (e : Shm.Event.t) =
  match e with
  | Shm.Event.Do { job; _ } -> Printf.sprintf "do(%d)" job
  | Shm.Event.Crash _ -> "crash"
  | Shm.Event.Restart _ -> "restart"
  | Shm.Event.Terminate _ -> "terminate"
  | Shm.Event.Read { cell; _ } -> cell
  | Shm.Event.Write { cell; _ } -> cell
  | Shm.Event.Internal { action; _ } -> action
  | Shm.Event.Pick { job; _ } -> Printf.sprintf "pick(%d)" job
  | Shm.Event.Announce { job; _ } -> Printf.sprintf "announce(%d)" job
  | Shm.Event.Forfeit { job; _ } -> Printf.sprintf "forfeit(%d)" job
  | Shm.Event.Recover { job; _ } -> Printf.sprintf "recover(%d)" job

let event_cat (e : Shm.Event.t) =
  match e with
  | Shm.Event.Do _ -> "do"
  | Shm.Event.Crash _ | Shm.Event.Restart _ | Shm.Event.Terminate _ ->
      "lifecycle"
  | Shm.Event.Read _ -> "read"
  | Shm.Event.Write _ -> "write"
  | Shm.Event.Internal _ -> "internal"
  | Shm.Event.Pick _ | Shm.Event.Announce _ | Shm.Event.Forfeit _
  | Shm.Event.Recover _ ->
      "provenance"

let event_args (e : Shm.Event.t) =
  match e with
  | Shm.Event.Do { job; _ } -> [ ("job", Json.Int job) ]
  | Shm.Event.Crash _ | Shm.Event.Restart _ | Shm.Event.Terminate _ -> []
  | Shm.Event.Read { cell; value; wid; _ } | Shm.Event.Write { cell; value; wid; _ }
    ->
      ("cell", Json.String cell) :: ("value", Json.Int value)
      :: (if wid > 0 then [ ("wid", Json.Int wid) ] else [])
  | Shm.Event.Internal { action; _ } -> [ ("action", Json.String action) ]
  | Shm.Event.Pick { job; free_card; try_card; _ } ->
      [
        ("job", Json.Int job);
        ("free", Json.Int free_card);
        ("try", Json.Int try_card);
      ]
  | Shm.Event.Announce { job; _ } -> [ ("job", Json.Int job) ]
  | Shm.Event.Forfeit { job; hit; owner; _ } ->
      [
        ("job", Json.Int job);
        ("hit", Json.String hit);
        ("owner", Json.Int owner);
      ]
  | Shm.Event.Recover { job; _ } -> [ ("job", Json.Int job) ]

let entry_to_json { Shm.Trace.step; event } =
  let p = Shm.Event.pid event in
  let common =
    [
      ("name", Json.String (event_name event));
      ("cat", Json.String (event_cat event));
      ("pid", Json.Int p);
      ("tid", Json.Int p);
      ("ts", Json.Int step);
    ]
  in
  let shape =
    match event with
    | Shm.Event.Crash _ | Shm.Event.Restart _ | Shm.Event.Terminate _
    | Shm.Event.Pick _ | Shm.Event.Announce _ | Shm.Event.Forfeit _
    | Shm.Event.Recover _ ->
        [ ("ph", Json.String "i"); ("s", Json.String "t") ]
    | _ -> [ ("ph", Json.String "X"); ("dur", Json.Int 1) ]
  in
  let args =
    match event_args event with [] -> [] | a -> [ ("args", Json.Obj a) ]
  in
  Json.Obj (common @ shape @ args)

let metadata ~run_name ~m =
  let meta name pid tid args =
    Json.Obj
      [
        ("name", Json.String name);
        ("ph", Json.String "M");
        ("pid", Json.Int pid);
        ("tid", Json.Int tid);
        ("ts", Json.Int 0);
        ("args", Json.Obj args);
      ]
  in
  (meta "process_name" 0 0 [ ("name", Json.String run_name) ]
  :: meta "process_sort_index" 0 0 [ ("sort_index", Json.Int 0) ]
  :: List.concat
       (List.init m (fun i ->
            let p = i + 1 in
            [
              meta "process_name" p p
                [ ("name", Json.String (Printf.sprintf "p%d" p)) ];
              meta "process_sort_index" p p [ ("sort_index", Json.Int p) ];
              meta "thread_name" p p [ ("name", Json.String "actions") ];
            ])))

(* Counter tracks (ph "C") on pid 0: one sample per occupied time
   bucket per register, at the bucket's first step.  Perfetto renders
   each register as a stacked reads/writes counter. *)
let counter_events heatmap =
  List.concat_map
    (fun (c : Heatmap.cell) ->
      List.map
        (fun (b, r, w) ->
          Json.Obj
            [
              ("name", Json.String c.name);
              ("cat", Json.String "heatmap");
              ("ph", Json.String "C");
              ("pid", Json.Int 0);
              ("ts", Json.Int (Logbucket.lo b));
              ("args", Json.Obj [ ("reads", Json.Int r); ("writes", Json.Int w) ]);
            ])
        c.buckets)
    (Heatmap.cells heatmap)

let events ?(run_name = "amo run") ?heatmap ~m trace =
  metadata ~run_name ~m
  @ List.map entry_to_json (Shm.Trace.entries trace)
  @ (match heatmap with None -> [] | Some h -> counter_events h)

(* One event per line: diff-friendly goldens, still a single valid
   JSON document. *)
(* [extra] appends pre-built records — the seam {!Rtevents} uses to
   merge its runtime tracks into the same document. *)
let to_string ?run_name ?heatmap ?(extra = []) ~m trace =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[\n";
  List.iteri
    (fun i ev ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf (Json.to_string ev))
    (events ?run_name ?heatmap ~m trace @ extra);
  Buffer.add_string buf "\n],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents buf

let write_file ?run_name ?heatmap ?extra ~m ~path trace =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string ?run_name ?heatmap ?extra ~m trace))
